//! `MemoryGraph`'s interned, shape-keyed layout against a naive model: a
//! `BTreeMap` of properties and a label-filtered neighbour list per vertex.
//!
//! Random update sequences give each label several key sets, introduce keys
//! late, store empty maps, `Null` values and different value types under
//! one key, and interleave vertices with edges. Every borrowed read — of
//! known and unknown ids, labels, edge labels and keys — must return what
//! the model holds, in the model's order, and charge the same
//! `AccessStats`; `export_updates` replayed into an empty graph must
//! reproduce the graph exactly.
//!
//! Equality seeks are held to the model the same way, interleaved with the
//! updates so that an index is built part-way through a sequence and then
//! appended to: a string probe visits exactly the vertices the model's `=`
//! matches, in id order, and any other probe the whole label; neither is
//! charged. One key holds texts, the same text in a LIST, numbers, `Null`,
//! or nothing at all.

use pgso_graphstore::{
    AccessStats, EdgeData, EdgeId, GraphBackend, GraphUpdate, MemoryGraph, PropertyMap,
    PropertyValue, VertexData, VertexId,
};
use proptest::prelude::*;

const LABELS: [&str; 4] = ["L0", "L1", "L2", "Missing"];
const EDGE_LABELS: [&str; 4] = ["r0", "r1", "r2", "missing"];
/// Keys a vertex may carry; `late` only from the tenth update on.
const KEYS: [&str; 5] = ["a", "b", "name", "z", "late"];

/// The reference: everything stored as plainly as possible.
#[derive(Default)]
struct Model {
    vertices: Vec<(String, PropertyMap)>,
    edges: Vec<(String, VertexId, VertexId)>,
}

impl Model {
    fn apply(&mut self, update: &GraphUpdate) {
        match update.clone() {
            GraphUpdate::AddVertex { label, properties } => {
                self.vertices.push((label, properties));
            }
            GraphUpdate::AddEdge { label, src, dst } => self.edges.push((label, src, dst)),
        }
    }

    fn neighbours(&self, vertex: VertexId, label: &str, out: bool) -> Vec<VertexId> {
        let ends = |&(ref l, src, dst): &(String, VertexId, VertexId)| {
            let (near, far) = if out { (src, dst) } else { (dst, src) };
            (l == label && near == vertex).then_some(far)
        };
        self.edges.iter().filter_map(ends).collect()
    }
}

/// A value of one of eight kinds (so one key holds mixed types across
/// vertices), derived from `bits`.
fn value(bits: u64) -> PropertyValue {
    match bits % 8 {
        0 => PropertyValue::Null,
        1 => PropertyValue::Bool(bits & 8 == 0),
        2 => PropertyValue::Int((bits >> 3) as i64 % 1_000 - 500),
        3 => PropertyValue::Float((bits >> 3) as f64 / 7.0),
        4 => PropertyValue::str(format!("s{}", bits >> 3)),
        5 => PropertyValue::str_list(["x", "y"].into_iter().take((bits >> 3) as usize % 3)),
        6 => PropertyValue::List(vec![PropertyValue::Int(1), PropertyValue::str("mixed")]),
        _ => PropertyValue::str(""),
    }
}

/// Turns generated numbers into a valid update sequence: edges name only
/// vertices that already exist.
fn updates(ops: &[(u32, u64, u32, u64)], value: fn(u64) -> PropertyValue) -> Vec<GraphUpdate> {
    let mut vertices = 0u64;
    let mut updates = Vec::new();
    for (i, &(kind, mask, label, bits)) in ops.iter().enumerate() {
        if kind < 2 || vertices == 0 {
            let keys = if i >= 10 { &KEYS[..] } else { &KEYS[..4] };
            // Every seventh vertex is stored with an empty map.
            let present = |k: usize| i % 7 != 3 && mask >> k & 1 == 1;
            let properties: PropertyMap = (0..keys.len())
                .filter(|&k| present(k))
                .map(|k| (keys[k].to_string(), value(bits.rotate_right(8 * k as u32))))
                .collect();
            updates.push(GraphUpdate::AddVertex {
                label: LABELS[label as usize % 3].to_string(),
                properties,
            });
            vertices += 1;
        } else {
            updates.push(GraphUpdate::AddEdge {
                label: EDGE_LABELS[label as usize % 3].to_string(),
                src: VertexId(mask % vertices),
                dst: VertexId(bits % vertices),
            });
        }
    }
    updates
}

/// What `read` returns and what it charged `graph`.
fn charged<R>(graph: &MemoryGraph, read: impl FnOnce() -> R) -> (R, AccessStats) {
    let before = graph.stats();
    let result = read();
    (result, graph.stats().delta_since(&before))
}

fn reads(n: u64) -> AccessStats {
    AccessStats { vertex_reads: n, ..AccessStats::default() }
}

fn traversals(n: usize) -> AccessStats {
    AccessStats { edge_traversals: n as u64, ..AccessStats::default() }
}

/// Every read of `graph` against `model`, including two ids past the end.
fn assert_reads_match(graph: &MemoryGraph, model: &Model) {
    let n = model.vertices.len() as u64;
    assert_eq!(graph.vertex_count(), model.vertices.len());
    assert_eq!(graph.edge_count(), model.edges.len());
    let payload: usize =
        model.vertices.iter().flat_map(|(_, p)| p.values()).map(|v| v.approximate_size()).sum();
    assert_eq!(graph.payload_bytes(), payload as u64);
    let mut labels: Vec<String> = model.vertices.iter().map(|(l, _)| l.clone()).collect();
    labels.sort();
    labels.dedup();
    assert_eq!(graph.labels(), labels);
    for label in LABELS {
        let expected: Vec<VertexId> =
            (0..n).map(VertexId).filter(|&id| model.vertices[id.0 as usize].0 == label).collect();
        let mut visited = Vec::new();
        let ((), stats) =
            charged(graph, || graph.for_each_with_label(label, &mut |id| visited.push(id)));
        assert_eq!((visited, stats), (expected, AccessStats::default()), "scan {label}");
    }
    for (i, (label, src, dst)) in model.edges.iter().enumerate() {
        let id = EdgeId(i as u64);
        let expected = EdgeData { id, label: label.clone(), src: *src, dst: *dst };
        assert_eq!(graph.edge(id), Some(expected));
    }
    assert_eq!(graph.edge(EdgeId(model.edges.len() as u64)), None);

    for id in (0..n + 2).map(VertexId) {
        let stored = model.vertices.get(id.0 as usize);
        let record = reads(u64::from(stored.is_some()));
        let expected = stored.map(|(label, properties)| VertexData {
            id,
            label: label.clone(),
            properties: properties.clone(),
        });
        assert_eq!(charged(graph, || graph.vertex(id)), (expected, record), "vertex {id:?}");
        for label in LABELS {
            let expected = stored.is_some_and(|(l, _)| l == label);
            assert_eq!(charged(graph, || graph.has_label(id, label)), (expected, record));
        }
        for key in KEYS.iter().chain(&["", "unknown", "zz"]) {
            let mut calls = Vec::new();
            let ((), stats) =
                charged(graph, || graph.with_property(id, key, &mut |v| calls.push(v.cloned())));
            let expected = stored.and_then(|(_, p)| p.get(*key)).cloned();
            assert_eq!((calls, stats), (vec![expected], record), "{id:?}.{key}");
        }
        for label in EDGE_LABELS {
            for out in [true, false] {
                let expected = model.neighbours(id, label, out);
                let mut visited = Vec::new();
                let ((), stats) = charged(graph, || {
                    let visit = &mut |far| visited.push(far);
                    if out {
                        graph.for_each_out(id, label, visit)
                    } else {
                        graph.for_each_in(id, label, visit)
                    }
                });
                let cost = traversals(expected.len());
                assert_eq!((visited, stats), (expected.clone(), cost), "{id:?} {label} {out}");
                if out {
                    let degree = charged(graph, || graph.out_degree(id, label));
                    assert_eq!(degree, (expected.len(), AccessStats::default()));
                }
            }
        }
    }
}

/// A value from a small pool, so that texts repeat across vertices and sit
/// beside the same text in a LIST and beside numbers under one key.
fn seek_value(bits: u64) -> PropertyValue {
    match bits % 8 {
        0 => PropertyValue::str("t0"),
        1 => PropertyValue::str("t1"),
        2 => PropertyValue::Int(1),
        3 => PropertyValue::Float(1.0),
        4 => PropertyValue::str_list(["t0"]),
        5 => PropertyValue::Null,
        6 => PropertyValue::str(""),
        _ => PropertyValue::Bool(true),
    }
}

/// What the seeks probe: stored texts, an absent text, and one value of
/// every other kind.
fn probes() -> Vec<PropertyValue> {
    vec![
        PropertyValue::str("t0"),
        PropertyValue::str("t1"),
        PropertyValue::str(""),
        PropertyValue::str("absent"),
        PropertyValue::Int(1),
        PropertyValue::Float(1.0),
        PropertyValue::str_list(["t0"]),
        PropertyValue::Null,
        PropertyValue::Bool(true),
    ]
}

/// The query layer's `=`: never true with `Null`; `Int` and `Float` are one
/// numeric domain; anything else compares by value, kind included.
fn equal(stored: &PropertyValue, probe: &PropertyValue) -> bool {
    match (stored, probe) {
        (PropertyValue::Null, _) | (_, PropertyValue::Null) => false,
        (PropertyValue::Int(x), PropertyValue::Int(y)) => x == y,
        _ => match (stored.as_float(), probe.as_float()) {
            (Some(x), Some(y)) => x == y,
            _ => stored == probe,
        },
    }
}

/// Every seek of the `(label, key)` pairs whose key `wanted` admits, with
/// every probe, against `model`.
fn assert_seeks_match(graph: &MemoryGraph, model: &Model, wanted: impl Fn(usize) -> bool) {
    let keys = KEYS.iter().chain(&["unknown"]).enumerate().filter(|&(k, _)| wanted(k));
    for (_, key) in keys {
        for label in LABELS {
            for probe in probes() {
                let members = model.vertices.iter().enumerate().filter(|(_, (l, _))| l == label);
                let expected: Vec<VertexId> = members
                    .filter(|(_, (_, properties))| match probe {
                        PropertyValue::Str(_) => {
                            properties.get(*key).is_some_and(|v| equal(v, &probe))
                        }
                        _ => true,
                    })
                    .map(|(id, _)| VertexId(id as u64))
                    .collect();
                let mut visited = Vec::new();
                let ((), stats) = charged(graph, || {
                    graph.for_each_candidate(label, key, &probe, &mut |id| visited.push(id))
                });
                let seek = format!("seek {label}.{key} = {probe:?}");
                assert_eq!((visited, stats), (expected, AccessStats::default()), "{seek}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seeks_match_a_naive_model_while_the_graph_grows(
        ops in proptest::collection::vec((0u32..5, 0u64..u64::MAX, 0u32..3, 0u64..u64::MAX), 1..48),
    ) {
        let mut graph = MemoryGraph::new();
        let mut model = Model::default();
        // A fifth of the ops seek instead of adding: each seeks the keys its
        // mask picks, building those indexes; later vertices append to them.
        let seeks = ops.iter().map(|&(kind, mask, ..)| (kind == 4).then_some(mask));
        for (update, seek) in updates(&ops, seek_value).iter().zip(seeks) {
            if let Some(mask) = seek {
                assert_seeks_match(&graph, &model, |k| mask >> k & 1 == 1);
            }
            update.apply(&mut graph);
            model.apply(update);
        }
        assert_seeks_match(&graph, &model, |_| true);
        let resident = graph.resident_bytes();
        assert_seeks_match(&graph, &model, |_| true);
        prop_assert_eq!(graph.resident_bytes(), resident, "a built index is built once");
    }

    #[test]
    fn reads_match_a_naive_model_and_replay_is_exact(
        ops in proptest::collection::vec((0u32..4, 0u64..u64::MAX, 0u32..3, 0u64..u64::MAX), 1..48),
    ) {
        let updates = updates(&ops, value);
        let mut graph = MemoryGraph::new();
        let mut model = Model::default();
        for update in &updates {
            update.apply(&mut graph);
            model.apply(update);
        }
        assert_reads_match(&graph, &model);

        let exported = graph.export_updates().expect("a memory graph exports its updates");
        let mut replayed = MemoryGraph::new();
        for update in &exported {
            update.apply(&mut replayed);
        }
        prop_assert_eq!(replayed.export_updates(), Some(exported));
        assert_reads_match(&replayed, &model);
    }
}

//! The borrowed read surface of `GraphBackend` — `has_label`,
//! `with_property`, `for_each_with_label`, `for_each_out`, `for_each_in` —
//! against its owned twins, on every backend and every wrapper: the same
//! values in the same order, and the same `AccessStats` delta. The query
//! executor reads through the borrowed forms only, so this is what keeps
//! "same answers, same counters" true whichever storage serves the graph.
//! The candidate seek, `for_each_candidate`, has no owned twin: it is held
//! to the label scan and to the matches it must not miss.

use pgso_graphstore::{
    apply_updates, props, AccessStats, CsrGraph, DiskGraph, DiskGraphConfig, GraphBackend,
    GraphUpdate, MemoryGraph, PropertyMap, PropertyValue, VertexId,
};
use pgso_persist::JournaledGraph;

/// A small graph with every shape the reads must handle: several labels, a
/// vertex without edges, parallel and converging edges under two edge
/// labels, and every property type (on some vertices only).
fn updates() -> Vec<GraphUpdate> {
    let vertex = |label: &str, properties: PropertyMap| GraphUpdate::AddVertex {
        label: label.to_string(),
        properties,
    };
    let edge = |label: &str, src: u64, dst: u64| GraphUpdate::AddEdge {
        label: label.to_string(),
        src: VertexId(src),
        dst: VertexId(dst),
    };
    vec![
        vertex(
            "Drug",
            props([
                ("name", "Aspirin".into()),
                ("doses", PropertyValue::Int(3)),
                ("otc", PropertyValue::Bool(true)),
                ("ratio", PropertyValue::Float(0.5)),
                ("tags", PropertyValue::str_list(["nsaid", "salicylate"])),
            ]),
        ),
        vertex("Indication", props([("name", "Fever".into())])),
        vertex("Drug", props([("name", "Ibuprofen".into()), ("doses", "two".into())])),
        vertex("Indication", props([("name", "Headache".into()), ("severity", 2i64.into())])),
        vertex("Drug", PropertyMap::new()),
        vertex("Indication", props([("name", "Rash".into())])),
        edge("treat", 0, 1),
        edge("treat", 0, 3),
        edge("treat", 2, 3),
        edge("cause", 0, 5),
        edge("treat", 2, 1),
        edge("treat", 0, 3),
    ]
}

const VERTICES: u64 = 6;
const LABELS: [&str; 4] = ["Drug", "Indication", "Missing", ""];
const EDGE_LABELS: [&str; 3] = ["treat", "cause", "missing"];
const PROPERTIES: [&str; 7] = ["name", "doses", "otc", "ratio", "tags", "severity", "missing"];

/// Every backend and wrapper, loaded with [`updates`]. The first entry is
/// the `MemoryGraph` reference the others are also compared with.
fn backends(dir: &std::path::Path) -> Vec<(&'static str, Box<dyn GraphBackend>)> {
    let disk = DiskGraph::create(dir.join("graph.store"), DiskGraphConfig::with_pool_pages(2));
    let mut all: Vec<(&'static str, Box<dyn GraphBackend>)> = vec![
        ("memory", Box::new(MemoryGraph::new())),
        ("csr", Box::new(CsrGraph::new())),
        ("disk", Box::new(disk.expect("create the store file"))),
        ("journaled", Box::new(JournaledGraph::new(CsrGraph::new()))),
        // The wrapper around the one backend with an equality index, so
        // that the seek crosses it to reach its override.
        ("journaled memory", Box::new(JournaledGraph::new(MemoryGraph::new()))),
    ];
    for (_, backend) in &mut all {
        apply_updates(backend.as_mut(), &updates());
    }
    all
}

/// Runs `read` and returns its result with the counters it moved.
fn charged<R>(backend: &dyn GraphBackend, read: impl FnOnce() -> R) -> (R, AccessStats) {
    let before = backend.stats();
    let result = read();
    (result, backend.stats().delta_since(&before))
}

/// What `with_property` hands its callback, once per call.
fn lent(backend: &dyn GraphBackend, id: VertexId, name: &str) -> Vec<Option<PropertyValue>> {
    let mut calls = Vec::new();
    backend.with_property(id, name, &mut |value| calls.push(value.cloned()));
    calls
}

fn visited(walk: impl FnOnce(&mut dyn FnMut(VertexId))) -> Vec<VertexId> {
    let mut ids = Vec::new();
    walk(&mut |id| ids.push(id));
    ids
}

/// Vertex reads and edge traversals — the counters every backend must agree
/// on (page counters exist on the disk tier only).
fn logical(stats: AccessStats) -> (u64, u64) {
    (stats.vertex_reads, stats.edge_traversals)
}

#[test]
fn every_borrowed_read_matches_its_owned_twin_on_every_backend() {
    let dir = tempfile::tempdir().unwrap();
    let all = backends(dir.path());
    let reference = all[0].1.as_ref();
    for (name, backend) in &all {
        let g = backend.as_ref();
        // One id past the end, and one far past it: the unknown-id rule.
        for id in (0..=VERTICES).chain([VERTICES + 1_000]).map(VertexId) {
            let known = id.0 < VERTICES;
            let record_read = AccessStats { vertex_reads: known as u64, ..AccessStats::default() };
            let (label, owned) = charged(g, || g.label_of(id));
            assert_eq!(label, reference.label_of(id), "{name}: label_of({id:?})");
            assert_eq!(logical(owned), logical(record_read), "{name}: label_of({id:?}) charge");
            let (vertex, fetched) = charged(g, || g.vertex(id));
            assert_eq!(vertex, reference.vertex(id), "{name}: vertex({id:?})");
            assert_eq!(fetched, owned, "{name}: vertex({id:?}) charge");
            for candidate in LABELS {
                let (has, borrowed) = charged(g, || g.has_label(id, candidate));
                assert_eq!(has, label.as_deref() == Some(candidate), "{name}: {id:?} {candidate}");
                assert_eq!(borrowed, owned, "{name}: has_label({id:?}, {candidate:?}) charge");
            }
            for property in PROPERTIES {
                let (value, owned) = charged(g, || g.property_of(id, property));
                let (calls, borrowed) = charged(g, || lent(g, id, property));
                assert_eq!(calls, std::slice::from_ref(&value), "{name}: {id:?}.{property}, once");
                assert_eq!(borrowed, owned, "{name}: {id:?}.{property} charge");
                assert_eq!(logical(owned), logical(record_read), "{name}: {id:?}.{property}");
                assert_eq!(value, reference.property_of(id, property), "{name}: {id:?}.{property}");
            }
            for edge_label in EDGE_LABELS {
                let (out, owned) = charged(g, || g.out_neighbours(id, edge_label));
                let (walked, borrowed) =
                    charged(g, || visited(|f| g.for_each_out(id, edge_label, f)));
                assert_eq!(walked, out, "{name}: out({id:?}, {edge_label})");
                assert_eq!(borrowed, owned, "{name}: out({id:?}, {edge_label}) charge");
                assert_eq!(logical(owned), (0, out.len() as u64), "{name}: one charge per edge");
                assert_eq!(out, reference.out_neighbours(id, edge_label), "{name}: out order");
                let (inc, owned) = charged(g, || g.in_neighbours(id, edge_label));
                let (walked, borrowed) =
                    charged(g, || visited(|f| g.for_each_in(id, edge_label, f)));
                assert_eq!(walked, inc, "{name}: in({id:?}, {edge_label})");
                assert_eq!(borrowed, owned, "{name}: in({id:?}, {edge_label}) charge");
                assert_eq!(logical(owned), (0, inc.len() as u64), "{name}: one charge per edge");
                assert_eq!(inc, reference.in_neighbours(id, edge_label), "{name}: in order");
            }
        }
        for label in LABELS {
            let (ids, owned) = charged(g, || g.vertices_with_label(label));
            let (scanned, borrowed) = charged(g, || visited(|f| g.for_each_with_label(label, f)));
            assert_eq!(scanned, ids, "{name}: scan of {label:?}");
            assert_eq!(
                ids,
                reference.vertices_with_label(label),
                "{name}: scan order of {label:?}"
            );
            assert_eq!((owned, borrowed), Default::default(), "{name}: label scans are free");
        }
        assert_eq!(g.labels(), reference.labels(), "{name}");
        assert_eq!(g.vertex_count() as u64, VERTICES, "{name}");
    }
}

/// The executor reads every neighbour's label and properties from inside an
/// adjacency walk, and walks on from there: callbacks re-enter the backend.
#[test]
fn callbacks_may_re_enter_the_backend() {
    let dir = tempfile::tempdir().unwrap();
    for (name, backend) in &backends(dir.path()) {
        let g = backend.as_ref();
        type Seen = Vec<(VertexId, bool, Option<PropertyValue>, Vec<VertexId>)>;
        let (owned, owned_charge) = charged(g, || -> Seen {
            let mut seen = Vec::new();
            for root in g.vertices_with_label("Drug") {
                for n in g.out_neighbours(root, "treat") {
                    let labelled = g.label_of(n).as_deref() == Some("Indication");
                    seen.push((n, labelled, g.property_of(n, "name"), g.in_neighbours(n, "treat")));
                }
            }
            seen
        });
        let (borrowed, borrowed_charge) = charged(g, || -> Seen {
            let mut seen = Vec::new();
            g.for_each_with_label("Drug", &mut |root| {
                g.for_each_out(root, "treat", &mut |n| {
                    let labelled = g.has_label(n, "Indication");
                    let name = lent(g, n, "name").pop().flatten();
                    seen.push((n, labelled, name, visited(|f| g.for_each_in(n, "treat", f))));
                });
            });
            seen
        });
        assert_eq!(borrowed, owned, "{name}");
        assert_eq!(borrowed.len(), 5, "{name}: five treat edges");
        assert_eq!(borrowed_charge, owned_charge, "{name}: same reads, same order, same pages");
        // Two reads per edge; the five edges walked out, then thirteen back in.
        assert_eq!(logical(owned_charge), (10, 5 + 13), "{name}");
    }
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

/// A seek visits, in id order, every vertex of the label holding the value
/// under the key and nothing outside the label scan, and is not charged.
/// On the memory graph and its wrappers a text probe visits exactly the
/// matches.
#[test]
fn candidate_seeks_visit_the_matches_within_the_label_scan_for_free() {
    let probes = [
        PropertyValue::str("Aspirin"),
        PropertyValue::str("Headache"),
        PropertyValue::str("two"),
        PropertyValue::str("nsaid"),
        PropertyValue::str("absent"),
        PropertyValue::Int(3),
        PropertyValue::Float(2.0),
        PropertyValue::Bool(true),
        PropertyValue::str_list(["nsaid", "salicylate"]),
        PropertyValue::Null,
    ];
    let dir = tempfile::tempdir().unwrap();
    for (name, backend) in &backends(dir.path()) {
        let g = backend.as_ref();
        for label in LABELS {
            let scan = g.vertices_with_label(label);
            for key in PROPERTIES {
                for probe in &probes {
                    let holds = |id: &&VertexId| {
                        g.property_of(**id, key).is_some_and(|value| equal(&value, probe))
                    };
                    let matches: Vec<VertexId> = scan.iter().filter(holds).copied().collect();
                    let (sought, charge) =
                        charged(g, || visited(|f| g.for_each_candidate(label, key, probe, f)));
                    let seek = format!("{name}: seek {label:?}.{key} = {probe:?}");
                    assert_eq!(charge, AccessStats::default(), "{seek}: seeks are free");
                    assert!(sought.windows(2).all(|w| w[0] < w[1]), "{seek}: id order");
                    assert!(sought.iter().all(|id| scan.contains(id)), "{seek}: within the scan");
                    assert!(matches.iter().all(|id| sought.contains(id)), "{seek}: every match");
                    if name.contains("memory") && probe.as_str().is_some() {
                        assert_eq!(sought, matches, "{seek}: a text seek is exact");
                    }
                }
            }
        }
    }
}

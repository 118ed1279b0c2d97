//! In-memory property graph backend (the JanusGraph stand-in).
//!
//! The layout is chosen so that one counted read costs about one cache miss:
//!
//! * **Labels** are interned: vertex labels and edge labels are `u32` ids
//!   into one name table each, so no string is stored per vertex or edge. A
//!   label test compares the vertex's interned name in place; an adjacency
//!   walk resolves its edge label lazily against the ids it meets (no hash
//!   per call) and from then on compares integers.
//! * **Adjacency** lists hold `(edge-label id, far end)` pairs inline, so a
//!   walk reads one contiguous list and never visits an edge record. The
//!   edge records are kept only for [`MemoryGraph::edge`] and the
//!   [`GraphBackend::export_updates`] order.
//! * **Properties** are stored by *shape*: each distinct sorted key set is
//!   kept once (its keys moved out of the first [`PropertyMap`] that has
//!   it), and a vertex holds its label id, its shape id and one row of
//!   values in key order. [`GraphBackend::with_property`] finds the key's
//!   slot in the small, shared shape (scanning a per-key integer tag, then
//!   comparing one string) and reads that one value.
//! * **Equality indexes** answer [`GraphBackend::for_each_candidate`] for a
//!   `Str` value: per (label, key) pair, the label's vertices that hold a
//!   text under the key, chained by the text's hash in ascending id order;
//!   a seek walks one chain and keeps the vertices whose text is the one
//!   sought. One is built the first time a seek names its pair — there is
//!   no knob — and [`GraphBackend::add_vertex`] keeps every built index
//!   current, so a graph that is extended keeps its indexes; a graph built
//!   afresh starts without any. Only `Str` values are indexed: the
//!   executor's `=` never equates a string with another kind, so a string
//!   seek is exact, while numbers compare across `Int` and `Float` and keep
//!   the label scan.
//!
//! A per-label member list accelerates label scans. All reads still update
//! the access counters so experiments can compare edge-traversal counts
//! across backends and schemas; a seek, like a label scan, is an index read
//! and is not charged.

use crate::backend::{
    AccessStats, EdgeData, EdgeId, GraphBackend, GraphUpdate, StatsCounters, VertexData, VertexId,
};
use crate::value::{PropertyMap, PropertyValue};
use parking_lot::RwLock;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::Arc;

/// String → dense `u32` interner for vertex and edge labels.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    pub(crate) names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Interner {
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Bytes held: every name twice (table and map key) plus its id.
    fn resident_bytes(&self) -> usize {
        self.names.iter().map(|n| 2 * (size_of::<String>() + n.len()) + size_of::<u32>()).sum()
    }
}

/// A sorted key set, stored once for every vertex that has exactly these
/// keys, with a [`tag`] per key: a lookup scans the tags and compares one
/// string, where a search over the keys would compare several.
#[derive(Debug)]
struct Shape {
    keys: Box<[String]>,
    tags: Box<[u32]>,
}

impl Shape {
    fn new(keys: Vec<String>) -> Self {
        let tags = keys.iter().map(|key| tag(key)).collect();
        Shape { keys: keys.into_boxed_slice(), tags }
    }

    /// The position of `name` among the keys.
    fn slot(&self, name: &str) -> Option<usize> {
        let wanted = tag(name);
        self.tags.iter().zip(self.keys.iter()).position(|(&t, key)| t == wanted && key == name)
    }
}

/// A key's length, first byte and last byte: read without a loop, and
/// distinct for most keys of one shape (equal tags only cost a comparison).
fn tag(key: &str) -> u32 {
    let bytes = key.as_bytes();
    match (bytes.first(), bytes.last()) {
        (Some(&first), Some(&last)) => {
            (bytes.len() as u32) << 16 | u32::from(first) << 8 | u32::from(last)
        }
        _ => 0,
    }
}

/// One vertex: its label, its shape and one value per key of that shape,
/// in key order.
#[derive(Debug)]
struct StoredVertex {
    label: u32,
    shape: u32,
    values: Box<[PropertyValue]>,
}

/// An edge record; reads never visit it (adjacency holds what they need).
#[derive(Debug)]
struct StoredEdge {
    label: u32,
    src: u32,
    dst: u32,
}

/// One adjacency entry: the edge's label and the vertex at its far end.
#[derive(Debug, Clone, Copy)]
struct Adjacent {
    label: u32,
    far: u32,
}

/// Matches adjacency entries against a read's edge label without hashing
/// it: the label is resolved against the names of the ids the walk meets,
/// and once one matches every later entry is one integer comparison (names
/// are unique, so no other id can match).
struct EdgeLabel<'a> {
    names: &'a [String],
    wanted: &'a str,
    hit: Option<u32>,
    miss: Option<u32>,
}

impl<'a> EdgeLabel<'a> {
    fn new(names: &'a [String], wanted: &'a str) -> Self {
        EdgeLabel { names, wanted, hit: None, miss: None }
    }

    fn matches(&mut self, label: u32) -> bool {
        if let Some(hit) = self.hit {
            return label == hit;
        }
        if self.miss == Some(label) {
            return false;
        }
        if self.names[label as usize] == self.wanted {
            self.hit = Some(label);
            true
        } else {
            self.miss = Some(label);
            false
        }
    }
}

/// An equality index over one (label, key) pair: the label's vertices that
/// store a `Str` under `key`, one entry each, chained per hash of the text in
/// ascending id order. Texts are hashed, not stored, so a build allocates
/// the same whatever the label's size; a probe compares the stored text of
/// each vertex on its chain, which makes it exact.
#[derive(Debug, Clone)]
struct EqIndex {
    label: u32,
    key: Box<str>,
    /// Keyed per index, so texts cannot be chosen to share one chain.
    hasher: RandomState,
    /// Per text hash, the first and the last entry of its chain.
    chains: HashMap<u64, (u32, u32)>,
    /// Per indexed vertex, its id and the next entry of its chain ([`END`]
    /// after the last).
    entries: Vec<(u32, u32)>,
}

/// The end of an [`EqIndex`] chain.
const END: u32 = u32::MAX;

impl EqIndex {
    /// An empty index with room for `vertices` entries.
    fn new(label: u32, key: &str, vertices: usize) -> Self {
        EqIndex {
            label,
            key: key.into(),
            hasher: RandomState::new(),
            chains: HashMap::with_capacity(vertices),
            entries: Vec::with_capacity(vertices),
        }
    }

    /// Appends `id` to the chain of the text `value` holds, when it holds
    /// one. Ids arrive in ascending order, so every chain stays sorted.
    fn insert(&mut self, value: &PropertyValue, id: u32) {
        let PropertyValue::Str(text) = value else { return };
        // Below END: there are fewer entries than vertices, and fewer
        // vertices than 2^32.
        let entry = self.entries.len() as u32;
        self.entries.push((id, END));
        match self.chains.entry(self.hasher.hash_one(text.as_str())) {
            Entry::Occupied(mut chain) => {
                let last = &mut chain.get_mut().1;
                self.entries[*last as usize].1 = entry;
                *last = entry;
            }
            Entry::Vacant(chain) => {
                chain.insert((entry, entry));
            }
        }
    }

    /// The ids on the chain of `text`'s hash, ascending: every vertex that
    /// holds `text`, and any whose text shares the hash.
    fn chain(&self, text: &str) -> impl Iterator<Item = u32> + '_ {
        let mut next = self.chains.get(&self.hasher.hash_one(text)).map_or(END, |chain| chain.0);
        std::iter::from_fn(move || {
            let &(id, after) = self.entries.get(next as usize)?;
            next = after;
            Some(id)
        })
    }

    /// Bytes held: the key, the chain table and the entries.
    fn resident_bytes(&self) -> usize {
        // A table slot is its key, its value and one control byte.
        let slot = size_of::<(u64, (u32, u32))>() + 1;
        size_of::<EqIndex>()
            + self.key.len()
            + self.chains.capacity() * slot
            + self.entries.capacity() * size_of::<(u32, u32)>()
    }
}

/// In-memory adjacency-list backend.
#[derive(Debug, Default)]
pub struct MemoryGraph {
    vertex_labels: Interner,
    edge_labels: Interner,
    /// Every distinct key set; a vertex names one by index.
    shapes: Vec<Shape>,
    /// Per vertex label, the ids of the shapes its vertices use.
    label_shapes: Vec<Vec<u32>>,
    /// Per vertex label, its vertices in insertion order.
    members: Vec<Vec<VertexId>>,
    vertices: Vec<StoredVertex>,
    edges: Vec<StoredEdge>,
    outgoing: Vec<Vec<Adjacent>>,
    incoming: Vec<Vec<Adjacent>>,
    payload_bytes: u64,
    /// The equality indexes built so far. A seek clones the one it probes
    /// out from under the lock, so no lock is held while its callback runs.
    eq_indexes: RwLock<Vec<Arc<EqIndex>>>,
    counters: StatsCounters,
}

impl MemoryGraph {
    /// Creates an empty in-memory graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches an edge by id (not counted; used by tests and debugging).
    pub fn edge(&self, id: EdgeId) -> Option<EdgeData> {
        self.edges.get(id.0 as usize).map(|e| EdgeData {
            id,
            label: self.edge_labels.names[e.label as usize].clone(),
            src: VertexId(e.src.into()),
            dst: VertexId(e.dst.into()),
        })
    }

    /// The stored property map of a vertex, rebuilt from its shape and row.
    fn properties(&self, v: &StoredVertex) -> PropertyMap {
        let keys = self.shapes[v.shape as usize].keys.iter().cloned();
        keys.zip(v.values.iter().cloned()).collect()
    }

    /// The id of `label`'s shape with exactly `properties`' keys, created
    /// (with the keys moved out of the map) when the label has none yet.
    /// Returns the values in key order.
    fn shape_of(&mut self, label: u32, properties: PropertyMap) -> (u32, Box<[PropertyValue]>) {
        let shapes = &self.label_shapes[label as usize];
        let known = shapes.iter().copied().find(|&s| {
            let keys = &self.shapes[s as usize].keys;
            keys.len() == properties.len() && keys.iter().eq(properties.keys())
        });
        if let Some(shape) = known {
            return (shape, properties.into_values().collect());
        }
        let shape = self.shapes.len() as u32;
        let (keys, values): (Vec<String>, Vec<PropertyValue>) = properties.into_iter().unzip();
        self.shapes.push(Shape::new(keys));
        self.label_shapes[label as usize].push(shape);
        (shape, values.into_boxed_slice())
    }

    /// The equality index of `label`'s vertices under `key`, built now if
    /// no seek has named the pair before; `None` when no vertex of the
    /// label has the key (nothing is built for it). Two first seeks may
    /// both build it; the first to publish wins, and both use that one.
    fn eq_index(&self, label: u32, key: &str) -> Option<Arc<EqIndex>> {
        let find = |indexes: &[Arc<EqIndex>]| {
            indexes.iter().find(|index| index.label == label && *index.key == *key).cloned()
        };
        if let Some(index) = find(&self.eq_indexes.read()) {
            return Some(index);
        }
        let slots: Vec<(u32, usize)> = self.label_shapes[label as usize]
            .iter()
            .filter_map(|&shape| Some((shape, self.shapes[shape as usize].slot(key)?)))
            .collect();
        if slots.is_empty() {
            return None;
        }
        let members = &self.members[label as usize];
        let mut built = EqIndex::new(label, key, members.len());
        for &id in members {
            let v = &self.vertices[id.0 as usize];
            if let Some(&(_, slot)) = slots.iter().find(|&&(shape, _)| shape == v.shape) {
                built.insert(&v.values[slot], id.0 as u32);
            }
        }
        let mut indexes = self.eq_indexes.write();
        Some(find(&indexes).unwrap_or_else(|| {
            let built = Arc::new(built);
            indexes.push(built.clone());
            built
        }))
    }

    /// Visits the far ends of `vertex`'s edges labelled `edge_label` in one
    /// adjacency direction, charging one traversal per neighbour visited.
    fn walk(
        &self,
        adjacency: &[Vec<Adjacent>],
        vertex: VertexId,
        edge_label: &str,
        f: &mut dyn FnMut(VertexId),
    ) {
        let Some(list) = adjacency.get(vertex.0 as usize) else { return };
        let mut wanted = EdgeLabel::new(&self.edge_labels.names, edge_label);
        let mut visited = 0;
        for adjacent in list {
            if wanted.matches(adjacent.label) {
                visited += 1;
                f(VertexId(adjacent.far.into()));
            }
        }
        self.counters.count_edge_traversals(visited);
    }
}

/// Heap bytes a stored value owns beyond its slot.
fn heap_bytes(value: &PropertyValue) -> usize {
    match value {
        PropertyValue::Str(s) => s.capacity(),
        PropertyValue::List(items) => {
            items.capacity() * size_of::<PropertyValue>()
                + items.iter().map(heap_bytes).sum::<usize>()
        }
        _ => 0,
    }
}

impl GraphBackend for MemoryGraph {
    fn add_vertex(&mut self, label: &str, properties: PropertyMap) -> VertexId {
        let id = u32::try_from(self.vertices.len()).expect("a MemoryGraph holds < 2^32 vertices");
        self.payload_bytes += properties.values().map(|v| v.approximate_size() as u64).sum::<u64>();
        let label = self.vertex_labels.intern(label);
        if label as usize == self.members.len() {
            self.members.push(Vec::new());
            self.label_shapes.push(Vec::new());
        }
        let (shape, values) = self.shape_of(label, properties);
        // `&mut self`: no seek holds an index, so each is updated in place.
        for index in self.eq_indexes.get_mut().iter_mut().filter(|index| index.label == label) {
            if let Some(slot) = self.shapes[shape as usize].slot(&index.key) {
                Arc::make_mut(index).insert(&values[slot], id);
            }
        }
        self.vertices.push(StoredVertex { label, shape, values });
        self.outgoing.push(Vec::new());
        self.incoming.push(Vec::new());
        let id = VertexId(id.into());
        self.members[label as usize].push(id);
        id
    }

    fn add_edge(&mut self, label: &str, src: VertexId, dst: VertexId) -> EdgeId {
        assert!((src.0 as usize) < self.vertices.len(), "unknown source vertex {src:?}");
        assert!((dst.0 as usize) < self.vertices.len(), "unknown destination vertex {dst:?}");
        // Both fit: vertex ids are below the vertex count, which add_vertex
        // keeps under 2^32.
        let (src, dst) = (src.0 as u32, dst.0 as u32);
        let id = EdgeId(self.edges.len() as u64);
        let label = self.edge_labels.intern(label);
        self.edges.push(StoredEdge { label, src, dst });
        self.outgoing[src as usize].push(Adjacent { label, far: dst });
        self.incoming[dst as usize].push(Adjacent { label, far: src });
        id
    }

    fn vertex(&self, id: VertexId) -> Option<VertexData> {
        let v = self.vertices.get(id.0 as usize)?;
        self.counters.count_vertex_read();
        Some(VertexData {
            id,
            label: self.vertex_labels.names[v.label as usize].clone(),
            properties: self.properties(v),
        })
    }

    fn has_label(&self, id: VertexId, label: &str) -> bool {
        let Some(v) = self.vertices.get(id.0 as usize) else { return false };
        self.counters.count_vertex_read();
        self.vertex_labels.names[v.label as usize] == label
    }

    fn with_property(&self, id: VertexId, name: &str, f: &mut dyn FnMut(Option<&PropertyValue>)) {
        let Some(v) = self.vertices.get(id.0 as usize) else { return f(None) };
        self.counters.count_vertex_read();
        f(self.shapes[v.shape as usize].slot(name).map(|slot| &v.values[slot]))
    }

    fn for_each_with_label(&self, label: &str, f: &mut dyn FnMut(VertexId)) {
        let Some(label) = self.vertex_labels.get(label) else { return };
        self.members[label as usize].iter().for_each(|&id| f(id));
    }

    fn for_each_candidate(
        &self,
        label: &str,
        key: &str,
        value: &PropertyValue,
        f: &mut dyn FnMut(VertexId),
    ) {
        let PropertyValue::Str(text) = value else { return self.for_each_with_label(label, f) };
        let Some(label) = self.vertex_labels.get(label) else { return };
        let Some(index) = self.eq_index(label, key) else { return };
        for id in index.chain(text) {
            // Uncharged, like the index itself: it drops the vertices whose
            // text only shares the hash.
            let v = &self.vertices[id as usize];
            let slot = self.shapes[v.shape as usize].slot(key);
            if slot.is_some_and(|slot| v.values[slot].as_str() == Some(text)) {
                f(VertexId(id.into()));
            }
        }
    }

    fn labels(&self) -> Vec<String> {
        let mut labels = self.vertex_labels.names.clone();
        labels.sort();
        labels
    }

    fn for_each_out(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.walk(&self.outgoing, vertex, edge_label, f)
    }

    fn for_each_in(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.walk(&self.incoming, vertex, edge_label, f)
    }

    fn out_degree(&self, vertex: VertexId, edge_label: &str) -> usize {
        // Pure adjacency-metadata scan: no neighbour list is materialised and
        // nothing is charged to the access counters (this is cardinality
        // estimation, not query work).
        let Some(list) = self.outgoing.get(vertex.0 as usize) else { return 0 };
        let mut wanted = EdgeLabel::new(&self.edge_labels.names, edge_label);
        list.iter().filter(|adjacent| wanted.matches(adjacent.label)).count()
    }

    fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    fn stats(&self) -> AccessStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset()
    }

    fn backend_name(&self) -> &'static str {
        "memory"
    }

    fn export_updates(&self) -> Option<Vec<GraphUpdate>> {
        // Vertices in id order, then edges in insertion order. Ids are dense
        // and sequential, so replaying assigns the same ids; per-vertex
        // adjacency lists append in global edge order, so filtering either
        // sequence by vertex yields the same neighbour order as the original
        // (interleaved) construction.
        let mut updates = Vec::with_capacity(self.vertices.len() + self.edges.len());
        for v in &self.vertices {
            updates.push(GraphUpdate::AddVertex {
                label: self.vertex_labels.names[v.label as usize].clone(),
                properties: self.properties(v),
            });
        }
        for e in &self.edges {
            updates.push(GraphUpdate::AddEdge {
                label: self.edge_labels.names[e.label as usize].clone(),
                src: VertexId(e.src.into()),
                dst: VertexId(e.dst.into()),
            });
        }
        Some(updates)
    }

    fn resident_bytes(&self) -> u64 {
        // Every structure the graph owns, by its allocated capacity: name
        // tables, shapes, vertex records and their value rows (slots plus
        // the strings and lists they own), edge records, both adjacency
        // directions, the per-label member lists and the equality indexes.
        let vec = |len: usize, item: usize| size_of::<Vec<u8>>() + len * item;
        let names = self.vertex_labels.resident_bytes() + self.edge_labels.resident_bytes();
        let shapes: usize = self
            .shapes
            .iter()
            .map(|shape| {
                let keys = shape.keys.iter().map(|key| size_of::<String>() + key.capacity());
                size_of::<Shape>() + keys.sum::<usize>() + shape.tags.len() * size_of::<u32>()
            })
            .sum::<usize>()
            + self.label_shapes.iter().map(|s| vec(s.capacity(), size_of::<u32>())).sum::<usize>();
        let rows = self.vertices.capacity() * size_of::<StoredVertex>()
            + self
                .vertices
                .iter()
                .flat_map(|v| v.values.iter())
                .map(|value| size_of::<PropertyValue>() + heap_bytes(value))
                .sum::<usize>();
        let edges = self.edges.capacity() * size_of::<StoredEdge>();
        let adjacency: usize = self
            .outgoing
            .iter()
            .chain(&self.incoming)
            .map(|list| vec(list.capacity(), size_of::<Adjacent>()))
            .sum();
        let members: usize =
            self.members.iter().map(|ids| vec(ids.capacity(), size_of::<VertexId>())).sum();
        let indexes: usize =
            self.eq_indexes.read().iter().map(|index| index.resident_bytes()).sum();
        (names + shapes + rows + edges + adjacency + members + indexes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::props;

    fn sample() -> (MemoryGraph, VertexId, VertexId, VertexId) {
        let mut g = MemoryGraph::new();
        let drug = g.add_vertex("Drug", props([("name", "Aspirin".into())]));
        let ind1 = g.add_vertex("Indication", props([("desc", "Fever".into())]));
        let ind2 = g.add_vertex("Indication", props([("desc", "Headache".into())]));
        g.add_edge("treat", drug, ind1);
        g.add_edge("treat", drug, ind2);
        (g, drug, ind1, ind2)
    }

    #[test]
    fn add_and_fetch_vertices() {
        let (g, drug, ind1, _) = sample();
        let v = g.vertex(drug).unwrap();
        assert_eq!(v.label, "Drug");
        assert_eq!(v.properties["name"].as_str(), Some("Aspirin"));
        assert_eq!(g.vertex(ind1).unwrap().label, "Indication");
        assert!(g.vertex(VertexId(99)).is_none());
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn label_index_and_labels() {
        let (g, drug, ..) = sample();
        assert_eq!(g.vertices_with_label("Drug"), vec![drug]);
        assert_eq!(g.vertices_with_label("Indication").len(), 2);
        assert!(g.vertices_with_label("Missing").is_empty());
        assert_eq!(g.labels(), vec!["Drug".to_string(), "Indication".to_string()]);
    }

    #[test]
    fn traversals_follow_edge_labels_and_are_counted() {
        let (g, drug, ind1, ind2) = sample();
        g.reset_stats();
        let out = g.out_neighbours(drug, "treat");
        assert_eq!(out, vec![ind1, ind2]);
        assert!(g.out_neighbours(drug, "cause").is_empty());
        assert_eq!(g.in_neighbours(ind1, "treat"), vec![drug]);
        let stats = g.stats();
        assert_eq!(stats.edge_traversals, 3);
        assert_eq!(stats.page_reads, 0);
        g.reset_stats();
        assert_eq!(g.stats(), AccessStats::default());
    }

    #[test]
    fn out_degree_counts_without_materialising_or_charging() {
        let (g, drug, ind1, _) = sample();
        g.reset_stats();
        assert_eq!(g.out_degree(drug, "treat"), 2);
        assert_eq!(g.out_degree(drug, "cause"), 0);
        assert_eq!(g.out_degree(ind1, "treat"), 0);
        assert_eq!(g.out_degree(VertexId(99), "treat"), 0);
        assert_eq!(g.stats(), AccessStats::default(), "estimation must not be charged");
    }

    #[test]
    fn payload_bytes_grow_with_content() {
        let mut g = MemoryGraph::new();
        assert_eq!(g.payload_bytes(), 0);
        g.add_vertex("A", props([("x", PropertyValue::str("hello"))]));
        let after_one = g.payload_bytes();
        assert!(after_one > 0);
        g.add_vertex("A", props([("x", PropertyValue::str_list(["a", "b", "c"]))]));
        assert!(g.payload_bytes() > after_one);
    }

    #[test]
    fn resident_bytes_count_the_layout_not_the_payload() {
        assert_eq!(MemoryGraph::new().resident_bytes(), 0);
        let (mut g, drug, ind1, _) = sample();
        let before = g.resident_bytes();
        assert!(before > g.payload_bytes(), "slots, records and lists cost more than payload");
        g.add_vertex("Indication", props([("desc", "Cough".into())]));
        g.add_edge("treat", drug, ind1);
        assert!(g.resident_bytes() > before);
    }

    fn seek(g: &MemoryGraph, label: &str, key: &str, value: PropertyValue) -> Vec<VertexId> {
        let mut ids = Vec::new();
        g.for_each_candidate(label, key, &value, &mut |id| ids.push(id));
        ids
    }

    #[test]
    fn string_seeks_visit_the_matches_and_stay_current() {
        let (mut g, drug, ..) = sample();
        g.reset_stats();
        assert_eq!(seek(&g, "Drug", "name", "Aspirin".into()), vec![drug]);
        assert!(seek(&g, "Drug", "name", "Ibuprofen".into()).is_empty());
        assert!(seek(&g, "Drug", "desc", "Fever".into()).is_empty(), "no Drug has the key");
        assert!(seek(&g, "Missing", "name", "Aspirin".into()).is_empty());
        // Not a string: the whole label, as a scan would visit it.
        assert_eq!(
            seek(&g, "Indication", "desc", 1i64.into()),
            g.vertices_with_label("Indication")
        );
        assert_eq!(g.stats(), AccessStats::default(), "seeks are not charged");
        // The built index follows later vertices, in id order.
        let twin = g.add_vertex("Drug", props([("name", "Aspirin".into()), ("x", 1i64.into())]));
        let other = g.add_vertex("Drug", props([("name", "Ibuprofen".into())]));
        g.add_vertex("Drug", props([("name", PropertyValue::str_list(["Aspirin"]))]));
        assert_eq!(seek(&g, "Drug", "name", "Aspirin".into()), vec![drug, twin]);
        assert_eq!(seek(&g, "Drug", "name", "Ibuprofen".into()), vec![other]);
    }

    #[test]
    fn equality_indexes_count_in_resident_bytes_not_payload() {
        let (g, ..) = sample();
        let (resident, payload) = (g.resident_bytes(), g.payload_bytes());
        seek(&g, "Indication", "desc", "Fever".into());
        assert!(g.resident_bytes() > resident, "the built index is resident");
        assert_eq!(g.payload_bytes(), payload, "an index is not payload");
        // Probing a built index builds nothing more.
        let built = g.resident_bytes();
        seek(&g, "Indication", "desc", "Headache".into());
        assert_eq!(g.resident_bytes(), built);
    }

    #[test]
    #[should_panic(expected = "unknown source vertex")]
    fn add_edge_validates_endpoints() {
        let mut g = MemoryGraph::new();
        let v = g.add_vertex("A", PropertyMap::new());
        g.add_edge("r", VertexId(42), v);
    }

    #[test]
    fn backend_name_is_memory() {
        assert_eq!(MemoryGraph::new().backend_name(), "memory");
    }
}

//! In-memory property graph backend (the JanusGraph stand-in).
//!
//! Vertices, edges and adjacency lists live in plain vectors; a label index
//! accelerates label scans. All reads still update the access
//! counters so experiments can compare edge-traversal counts across backends
//! and schemas.

use crate::backend::{
    AccessStats, EdgeData, EdgeId, GraphBackend, GraphUpdate, StatsCounters, VertexData, VertexId,
};
use crate::value::{PropertyMap, PropertyValue};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct StoredVertex {
    label: String,
    properties: PropertyMap,
}

#[derive(Debug, Clone)]
struct StoredEdge {
    label: String,
    src: VertexId,
    dst: VertexId,
}

/// In-memory adjacency-list backend.
#[derive(Debug, Default)]
pub struct MemoryGraph {
    vertices: Vec<StoredVertex>,
    edges: Vec<StoredEdge>,
    outgoing: Vec<Vec<EdgeId>>,
    incoming: Vec<Vec<EdgeId>>,
    label_index: HashMap<String, Vec<VertexId>>,
    payload_bytes: u64,
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
            label: e.label.clone(),
            src: e.src,
            dst: e.dst,
        })
    }

    /// Visits the far ends of `vertex`'s edges labelled `edge_label` in one
    /// adjacency direction, charging one traversal per neighbour visited.
    fn walk(
        &self,
        adjacency: &[Vec<EdgeId>],
        vertex: VertexId,
        edge_label: &str,
        far_end: impl Fn(&StoredEdge) -> VertexId,
        f: &mut dyn FnMut(VertexId),
    ) {
        let Some(edge_ids) = adjacency.get(vertex.0 as usize) else { return };
        let mut visited = 0;
        for e in edge_ids.iter().map(|eid| &self.edges[eid.0 as usize]) {
            if e.label == edge_label {
                visited += 1;
                f(far_end(e));
            }
        }
        self.counters.count_edge_traversals(visited);
    }
}

impl GraphBackend for MemoryGraph {
    fn add_vertex(&mut self, label: &str, properties: PropertyMap) -> VertexId {
        let id = VertexId(self.vertices.len() as u64);
        self.payload_bytes += properties.values().map(|v| v.approximate_size() as u64).sum::<u64>();
        self.vertices.push(StoredVertex { label: label.to_string(), properties });
        self.outgoing.push(Vec::new());
        self.incoming.push(Vec::new());
        self.label_index.entry(label.to_string()).or_default().push(id);
        id
    }

    fn add_edge(&mut self, label: &str, src: VertexId, dst: VertexId) -> EdgeId {
        assert!((src.0 as usize) < self.vertices.len(), "unknown source vertex {src:?}");
        assert!((dst.0 as usize) < self.vertices.len(), "unknown destination vertex {dst:?}");
        let id = EdgeId(self.edges.len() as u64);
        self.edges.push(StoredEdge { label: label.to_string(), src, dst });
        self.outgoing[src.0 as usize].push(id);
        self.incoming[dst.0 as usize].push(id);
        id
    }

    fn vertex(&self, id: VertexId) -> Option<VertexData> {
        let v = self.vertices.get(id.0 as usize)?;
        self.counters.count_vertex_read();
        Some(VertexData { id, label: v.label.clone(), properties: v.properties.clone() })
    }

    fn has_label(&self, id: VertexId, label: &str) -> bool {
        let Some(v) = self.vertices.get(id.0 as usize) else { return false };
        self.counters.count_vertex_read();
        v.label == label
    }

    fn with_property(&self, id: VertexId, name: &str, f: &mut dyn FnMut(Option<&PropertyValue>)) {
        let Some(v) = self.vertices.get(id.0 as usize) else { return f(None) };
        self.counters.count_vertex_read();
        f(v.properties.get(name))
    }

    fn for_each_with_label(&self, label: &str, f: &mut dyn FnMut(VertexId)) {
        self.label_index.get(label).into_iter().flatten().for_each(|&id| f(id));
    }

    fn labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.label_index.keys().cloned().collect();
        labels.sort();
        labels
    }

    fn for_each_out(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.walk(&self.outgoing, vertex, edge_label, |e| e.dst, f)
    }

    fn for_each_in(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.walk(&self.incoming, vertex, edge_label, |e| e.src, f)
    }

    fn out_degree(&self, vertex: VertexId, edge_label: &str) -> usize {
        // Pure adjacency-metadata scan: no neighbour list is materialised and
        // nothing is charged to the access counters (this is cardinality
        // estimation, not query work).
        let Some(edge_ids) = self.outgoing.get(vertex.0 as usize) else { return 0 };
        edge_ids.iter().filter(|&&eid| self.edges[eid.0 as usize].label == edge_label).count()
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
                label: v.label.clone(),
                properties: v.properties.clone(),
            });
        }
        for e in &self.edges {
            updates.push(GraphUpdate::AddEdge { label: e.label.clone(), src: e.src, dst: e.dst });
        }
        Some(updates)
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

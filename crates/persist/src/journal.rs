//! [`JournaledGraph`]: a [`GraphBackend`] wrapper that records every
//! mutation it forwards.
//!
//! The journal — the ordered [`GraphUpdate`] list — is the persistence
//! layer's view of a graph: since backends assign dense sequential ids, the
//! journal *is* the graph, replayable into any empty backend to produce
//! bit-identical ids and adjacency. The serving layer wraps
//! the loader's target in a `JournaledGraph` so the base-load construction
//! log falls out of the normal build for free, and uses
//! [`JournaledGraph::replay_into`] to clone epochs for staging.
//!
//! The wrapper is generic over the backend (`MemoryGraph`, `DiskGraph` or
//! `CsrGraph`) and is transparent on every read path — all reads and
//! statistics delegate to the inner backend unchanged.

use pgso_graphstore::{
    AccessStats, EdgeId, GraphBackend, GraphUpdate, PropertyMap, PropertyValue, VertexData,
    VertexId,
};

/// A mutation-recording wrapper around any graph backend; see the module
/// docs.
#[derive(Debug)]
pub struct JournaledGraph<B: GraphBackend> {
    inner: B,
    journal: Vec<GraphUpdate>,
}

impl<B: GraphBackend> JournaledGraph<B> {
    /// Wraps an **empty** backend; every subsequent mutation is journaled.
    ///
    /// # Panics
    /// Panics if the backend already contains vertices — those mutations
    /// were not observed, so the journal would be an incomplete description
    /// of the graph.
    pub fn new(inner: B) -> Self {
        assert_eq!(
            inner.vertex_count(),
            0,
            "JournaledGraph must observe every mutation: wrap an empty backend"
        );
        Self { inner, journal: Vec::new() }
    }

    /// Replays a journal into an empty backend and keeps journaling on top
    /// of it (the replayed prefix is retained, so the journal stays a
    /// complete construction log).
    pub fn replay(journal: Vec<GraphUpdate>, inner: B) -> Self {
        let mut wrapped = Self::new(inner);
        for update in &journal {
            update.apply(&mut wrapped.inner);
        }
        wrapped.journal = journal;
        wrapped
    }

    /// Replays this graph's journal into another empty backend, producing an
    /// exact copy (same ids, same adjacency orderings) under a possibly
    /// different storage layout.
    pub fn replay_into(&self, target: &mut dyn GraphBackend) {
        pgso_graphstore::apply_updates(target, &self.journal);
    }

    /// The construction journal so far.
    pub fn journal(&self) -> &[GraphUpdate] {
        &self.journal
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps into the backend and its journal.
    pub fn into_parts(self) -> (B, Vec<GraphUpdate>) {
        (self.inner, self.journal)
    }
}

impl<B: GraphBackend> GraphBackend for JournaledGraph<B> {
    fn add_vertex(&mut self, label: &str, properties: PropertyMap) -> VertexId {
        self.journal.push(GraphUpdate::AddVertex {
            label: label.to_string(),
            properties: properties.clone(),
        });
        self.inner.add_vertex(label, properties)
    }

    fn add_edge(&mut self, label: &str, src: VertexId, dst: VertexId) -> EdgeId {
        self.journal.push(GraphUpdate::AddEdge { label: label.to_string(), src, dst });
        self.inner.add_edge(label, src, dst)
    }

    fn vertex(&self, id: VertexId) -> Option<VertexData> {
        self.inner.vertex(id)
    }

    fn has_label(&self, id: VertexId, label: &str) -> bool {
        self.inner.has_label(id, label)
    }

    fn with_property(&self, id: VertexId, name: &str, f: &mut dyn FnMut(Option<&PropertyValue>)) {
        self.inner.with_property(id, name, f)
    }

    fn for_each_with_label(&self, label: &str, f: &mut dyn FnMut(VertexId)) {
        self.inner.for_each_with_label(label, f)
    }

    fn for_each_candidate(
        &self,
        label: &str,
        key: &str,
        value: &PropertyValue,
        f: &mut dyn FnMut(VertexId),
    ) {
        self.inner.for_each_candidate(label, key, value, f)
    }

    fn labels(&self) -> Vec<String> {
        self.inner.labels()
    }

    fn for_each_out(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.inner.for_each_out(vertex, edge_label, f)
    }

    fn for_each_in(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.inner.for_each_in(vertex, edge_label, f)
    }

    fn out_degree(&self, vertex: VertexId, edge_label: &str) -> usize {
        self.inner.out_degree(vertex, edge_label)
    }

    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn payload_bytes(&self) -> u64 {
        self.inner.payload_bytes()
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn backend_name(&self) -> &'static str {
        "journaled"
    }

    fn export_updates(&self) -> Option<Vec<GraphUpdate>> {
        // The journal is by construction the complete, ordered update
        // sequence — exporting works even when the inner backend cannot
        // reconstruct its own.
        Some(self.journal.clone())
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_graphstore::{props, CsrGraph, MemoryGraph};

    fn build(mut g: JournaledGraph<MemoryGraph>) -> JournaledGraph<MemoryGraph> {
        let d = g.add_vertex("Drug", props([("name", "Aspirin".into())]));
        let i = g.add_vertex("Indication", props([("desc", "Fever".into())]));
        g.add_edge("treat", d, i);
        g
    }

    #[test]
    fn journals_every_mutation_in_order() {
        let g = build(JournaledGraph::new(MemoryGraph::new()));
        assert_eq!(g.journal().len(), 3);
        assert!(
            matches!(g.journal()[0], GraphUpdate::AddVertex { ref label, .. } if label == "Drug")
        );
        assert!(
            matches!(g.journal()[2], GraphUpdate::AddEdge { ref label, .. } if label == "treat")
        );
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.backend_name(), "journaled");
    }

    #[test]
    fn replay_into_clones_across_layouts() {
        let g = build(JournaledGraph::new(MemoryGraph::new()));
        let copies: [Box<dyn GraphBackend>; 2] =
            [Box::new(MemoryGraph::new()), Box::new(CsrGraph::new())];
        for mut copy in copies {
            g.replay_into(copy.as_mut());
            assert_eq!(copy.vertex_count(), g.vertex_count());
            assert_eq!(copy.edge_count(), g.edge_count());
            assert_eq!(copy.out_neighbours(VertexId(0), "treat"), vec![VertexId(1)]);
            assert_eq!(copy.vertices_with_label("Drug"), g.vertices_with_label("Drug"));
        }
    }

    #[test]
    fn replay_resumes_journaling() {
        let g = build(JournaledGraph::new(MemoryGraph::new()));
        let (_, journal) = g.into_parts();
        let mut resumed = JournaledGraph::replay(journal, MemoryGraph::new());
        assert_eq!(resumed.vertex_count(), 2);
        let extra = resumed.add_vertex("Drug", props([("name", "Ibuprofen".into())]));
        assert_eq!(extra, VertexId(2), "ids continue densely after a replay");
        assert_eq!(resumed.journal().len(), 4, "journal covers replayed and new mutations");
    }

    #[test]
    fn reads_delegate_transparently() {
        let g = build(JournaledGraph::new(MemoryGraph::new()));
        g.reset_stats();
        assert_eq!(g.label_of(VertexId(0)).as_deref(), Some("Drug"));
        assert_eq!(g.property_of(VertexId(1), "desc"), Some(PropertyValue::str("Fever")));
        assert_eq!(g.out_degree(VertexId(0), "treat"), 1);
        assert_eq!(g.labels(), vec!["Drug".to_string(), "Indication".to_string()]);
        assert!(g.stats().vertex_reads >= 2, "reads charge the inner backend's counters");
        assert_eq!(g.inner().backend_name(), "memory");
    }

    #[test]
    fn export_updates_returns_the_journal_even_over_sharded_backends() {
        let mut g = JournaledGraph::new(CsrGraph::new());
        let d = g.add_vertex("Drug", props([("name", "Aspirin".into())]));
        let i = g.add_vertex("Indication", props([("desc", "Fever".into())]));
        g.add_edge("treat", d, i);
        // The wrapper exports its journal, not whatever the inner backend
        // reconstructs; here the two agree.
        assert_eq!(g.export_updates().as_deref(), Some(g.journal()));
        assert_eq!(g.inner().export_updates().as_deref(), Some(g.journal()));
        // Which is exactly what CsrGraph::freeze needs.
        let frozen = CsrGraph::freeze(&g);
        assert_eq!(frozen.vertex_count(), 2);
        assert_eq!(frozen.out_neighbours(d, "treat"), vec![i]);
    }

    #[test]
    #[should_panic(expected = "wrap an empty backend")]
    fn prefilled_backends_are_rejected() {
        let mut g = MemoryGraph::new();
        g.add_vertex("A", PropertyMap::new());
        let _ = JournaledGraph::new(g);
    }
}

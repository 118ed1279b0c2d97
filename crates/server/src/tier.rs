//! Storage-tier selection: which physical graph layout the server builds
//! its epochs on.
//!
//! Every graph the server builds starts as `fresh_backend`: the initial
//! load, a schema swap, a recovery, and a publication that rebuilds rather
//! than extending the graph of the epoch it retired. So [`StorageTier`] is
//! a one-field decision on [`crate::ServerConfig`] that changes the
//! physical layout of *every* generation the server ever publishes — the
//! serving machinery above it (plan cache, epoch swaps, ingest, WAL) is
//! layout-agnostic.

use pgso_graphstore::{
    AccessStats, CsrGraph, DiskGraph, DiskGraphConfig, EdgeId, GraphBackend, GraphUpdate,
    MemoryGraph, PropertyMap, PropertyValue, VertexData, VertexId,
};

/// Physical storage layout of a serving epoch: each epoch is one backend of
/// the configured tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageTier {
    /// [`MemoryGraph`]: adjacency lists + per-vertex property maps. The
    /// write-friendly default — O(1) appends, no compile step.
    #[default]
    Memory,
    /// [`DiskGraph`] in a temporary directory: paged vertex records behind
    /// a buffer pool. Traversals cost page reads when the working set
    /// exceeds the pool; the tier to pick when the instance outgrows RAM
    /// (or to *measure* that cliff).
    Disk,
    /// [`CsrGraph`]: type-segmented delta/varint CSR adjacency + typed
    /// property columns, compiled once per epoch publication
    /// ([`GraphBackend::ensure_ready`]) so the read path is contiguous
    /// scans. The read-optimized serving tier.
    Csr,
}

impl StorageTier {
    /// Stable lower-case name, used in benchmark cells and metrics.
    pub fn name(self) -> &'static str {
        match self {
            StorageTier::Memory => "memory",
            StorageTier::Disk => "disk",
            StorageTier::Csr => "csr",
        }
    }
}

/// An empty backend of the configured tier.
pub(crate) fn fresh_backend(tier: StorageTier) -> Box<dyn GraphBackend> {
    match tier {
        StorageTier::Memory => Box::new(MemoryGraph::new()),
        StorageTier::Disk => Box::new(TempDiskGraph::new()),
        StorageTier::Csr => Box::new(CsrGraph::new()),
    }
}

/// A [`DiskGraph`] whose store file lives in an owned temporary directory.
/// The serving layer rebuilds a graph from the journal at recovery, on a
/// schema swap, at the first publication and whenever a reader still holds
/// the epoch a publication would extend; otherwise publication appends to
/// the retired epoch's graph. Either way the file needs no name and no
/// lifetime beyond the graph's.
#[derive(Debug)]
pub struct TempDiskGraph {
    graph: DiskGraph,
    /// Held for its `Drop`: removing the directory deletes the store file
    /// when the epoch is retired.
    _dir: tempfile::TempDir,
}

impl TempDiskGraph {
    /// Creates an empty paged graph in a fresh temporary directory.
    ///
    /// # Panics
    /// Panics when the temporary directory or store file cannot be created
    /// — a disk-tier server cannot run without its store.
    pub fn new() -> Self {
        let dir = tempfile::tempdir().expect("create temp dir for disk-tier epoch");
        let graph = DiskGraph::create(dir.path().join("epoch.pgso"), DiskGraphConfig::default())
            .expect("create disk-tier store file");
        TempDiskGraph { graph, _dir: dir }
    }
}

impl Default for TempDiskGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBackend for TempDiskGraph {
    fn add_vertex(&mut self, label: &str, properties: PropertyMap) -> VertexId {
        self.graph.add_vertex(label, properties)
    }

    fn add_edge(&mut self, label: &str, src: VertexId, dst: VertexId) -> EdgeId {
        self.graph.add_edge(label, src, dst)
    }

    fn vertex(&self, id: VertexId) -> Option<VertexData> {
        self.graph.vertex(id)
    }

    fn has_label(&self, id: VertexId, label: &str) -> bool {
        self.graph.has_label(id, label)
    }

    fn with_property(&self, id: VertexId, name: &str, f: &mut dyn FnMut(Option<&PropertyValue>)) {
        self.graph.with_property(id, name, f)
    }

    fn for_each_with_label(&self, label: &str, f: &mut dyn FnMut(VertexId)) {
        self.graph.for_each_with_label(label, f)
    }

    fn labels(&self) -> Vec<String> {
        self.graph.labels()
    }

    fn for_each_out(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.graph.for_each_out(vertex, edge_label, f)
    }

    fn for_each_in(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.graph.for_each_in(vertex, edge_label, f)
    }

    fn out_degree(&self, vertex: VertexId, edge_label: &str) -> usize {
        self.graph.out_degree(vertex, edge_label)
    }

    fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    fn payload_bytes(&self) -> u64 {
        self.graph.payload_bytes()
    }

    fn stats(&self) -> AccessStats {
        self.graph.stats()
    }

    fn reset_stats(&self) {
        self.graph.reset_stats()
    }

    fn backend_name(&self) -> &'static str {
        self.graph.backend_name()
    }

    fn export_updates(&self) -> Option<Vec<GraphUpdate>> {
        self.graph.export_updates()
    }

    fn ensure_ready(&self) {
        self.graph.ensure_ready()
    }

    fn resident_bytes(&self) -> u64 {
        self.graph.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_graphstore::props;

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(StorageTier::default(), StorageTier::Memory);
        assert_eq!(StorageTier::Memory.name(), "memory");
        assert_eq!(StorageTier::Disk.name(), "disk");
        assert_eq!(StorageTier::Csr.name(), "csr");
    }

    #[test]
    fn fresh_backend_honours_tier_and_shards() {
        for tier in [StorageTier::Memory, StorageTier::Csr, StorageTier::Disk] {
            assert_eq!(fresh_backend(tier).backend_name(), tier.name());
        }
    }

    #[test]
    fn temp_disk_graph_stores_and_cleans_up() {
        let mut g = TempDiskGraph::new();
        let store_dir = g._dir.path().to_path_buf();
        let a = g.add_vertex("Drug", props([("name", "Aspirin".into())]));
        let b = g.add_vertex("Indication", props([("desc", "Fever".into())]));
        g.add_edge("treat", a, b);
        assert_eq!(g.out_neighbours(a, "treat"), vec![b]);
        assert_eq!(g.label_of(b).as_deref(), Some("Indication"));
        assert!(store_dir.join("epoch.pgso").exists());
        drop(g);
        assert!(!store_dir.exists(), "retiring the epoch removes its store file");
    }
}

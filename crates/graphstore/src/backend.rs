//! The storage backend abstraction and access accounting.
//!
//! The paper evaluates its schemas on two very different engines (Neo4j, a
//! disk-based store, and JanusGraph) to show that the optimization helps
//! *irrespective of the backend*. This crate mirrors that setup with two
//! implementations of [`GraphBackend`]: [`crate::MemoryGraph`] and the paged,
//! file-backed [`crate::DiskGraph`]. The query executor in `pgso-query` is
//! generic over this trait.

use crate::value::{PropertyMap, PropertyValue};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a vertex within one backend instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub u64);

/// Identifier of an edge within one backend instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u64);

/// A materialised vertex: label plus properties.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VertexData {
    /// Vertex id.
    pub id: VertexId,
    /// Node label (vertex type).
    pub label: String,
    /// Property map.
    pub properties: PropertyMap,
}

/// A materialised edge: label plus endpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeData {
    /// Edge id.
    pub id: EdgeId,
    /// Edge label (edge type).
    pub label: String,
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
}

/// Counters describing how much work a backend performed. The evaluation uses
/// these to relate latency differences to edge traversals and page I/O.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessStats {
    /// Vertex record fetches.
    pub vertex_reads: u64,
    /// Edge traversals (neighbour expansions).
    pub edge_traversals: u64,
    /// Pages read from disk (disk backend only).
    pub page_reads: u64,
    /// Pages served from the buffer pool (disk backend only).
    pub page_hits: u64,
}

impl AccessStats {
    /// Component-wise saturating difference (`self - earlier`), used to turn
    /// two snapshots into the work performed between them.
    pub fn delta_since(&self, earlier: &AccessStats) -> AccessStats {
        AccessStats {
            vertex_reads: self.vertex_reads.saturating_sub(earlier.vertex_reads),
            edge_traversals: self.edge_traversals.saturating_sub(earlier.edge_traversals),
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_hits: self.page_hits.saturating_sub(earlier.page_hits),
        }
    }

    /// Buffer-pool hit ratio; 1.0 when no page was touched.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.page_reads + self.page_hits;
        if total == 0 {
            1.0
        } else {
            self.page_hits as f64 / total as f64
        }
    }
}

/// Thread-safe counter bundle shared by the backends.
#[derive(Debug, Default)]
pub struct StatsCounters {
    vertex_reads: AtomicU64,
    edge_traversals: AtomicU64,
    page_reads: AtomicU64,
    page_hits: AtomicU64,
}

impl StatsCounters {
    /// Records a vertex fetch.
    pub fn count_vertex_read(&self) {
        self.vertex_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` edge traversals.
    pub fn count_edge_traversals(&self, n: u64) {
        self.edge_traversals.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a physical page read.
    pub fn count_page_read(&self) {
        self.page_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a buffer-pool hit.
    pub fn count_page_hit(&self) {
        self.page_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> AccessStats {
        AccessStats {
            vertex_reads: self.vertex_reads.load(Ordering::Relaxed),
            edge_traversals: self.edge_traversals.load(Ordering::Relaxed),
            page_reads: self.page_reads.load(Ordering::Relaxed),
            page_hits: self.page_hits.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.vertex_reads.store(0, Ordering::Relaxed);
        self.edge_traversals.store(0, Ordering::Relaxed);
        self.page_reads.store(0, Ordering::Relaxed);
        self.page_hits.store(0, Ordering::Relaxed);
    }
}

/// One loggable graph mutation: the unit of the ingest path.
///
/// Updates are the write-side vocabulary shared by the loader, the
/// write-ahead log (`pgso-persist`) and the serving layer's ingest API: a
/// graph is fully described by the ordered sequence of updates that built it,
/// which is what makes snapshot/replay-based durability and staging-graph
/// rebuilds exact. The binary encoding lives in
/// [`crate::codec::encode_update`] and reuses the vertex record codec.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphUpdate {
    /// Insert a vertex. The backend assigns the next sequential [`VertexId`],
    /// so replaying a sequence of updates into an empty backend reproduces
    /// the exact ids of the original graph.
    AddVertex {
        /// Node label.
        label: String,
        /// Property map.
        properties: PropertyMap,
    },
    /// Insert an edge between two existing vertices.
    AddEdge {
        /// Edge label.
        label: String,
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
}

impl GraphUpdate {
    /// Applies this update to a backend, returning the id it produced
    /// (vertex id for `AddVertex`, `None` for `AddEdge`).
    pub fn apply(&self, backend: &mut dyn GraphBackend) -> Option<VertexId> {
        match self {
            GraphUpdate::AddVertex { label, properties } => {
                Some(backend.add_vertex(label, properties.clone()))
            }
            GraphUpdate::AddEdge { label, src, dst } => {
                backend.add_edge(label, *src, *dst);
                None
            }
        }
    }
}

/// Replays a sequence of updates into a backend, in order.
pub fn apply_updates(backend: &mut dyn GraphBackend, updates: &[GraphUpdate]) {
    for update in updates {
        update.apply(backend);
    }
}

/// A property graph storage engine.
///
/// Backends are write-once/read-many in this workspace: the loader builds the
/// graph, then the query executor only reads. Mutation therefore takes `&mut
/// self` while all read paths take `&self` and update the shared statistics
/// counters internally.
///
/// Every backend is `Send + Sync` by contract: the serving layer shares one
/// epoch's backend across all of its serving threads.
///
/// # The read path
///
/// The *borrowed* reads — [`has_label`](GraphBackend::has_label),
/// [`with_property`](GraphBackend::with_property),
/// [`for_each_with_label`](GraphBackend::for_each_with_label),
/// [`for_each_out`](GraphBackend::for_each_out) and
/// [`for_each_in`](GraphBackend::for_each_in) — are the read path: every
/// backend implements them natively and they hand out what is stored without
/// copying it, so a read costs storage work, not heap allocations. The
/// *owned* reads ([`label_of`](GraphBackend::label_of),
/// [`property_of`](GraphBackend::property_of),
/// [`vertices_with_label`](GraphBackend::vertices_with_label),
/// [`out_neighbours`](GraphBackend::out_neighbours),
/// [`in_neighbours`](GraphBackend::in_neighbours)) are conveniences defined
/// once, here, over the borrowed ones; no backend overrides them, so there
/// is one read path per backend and both forms charge the same counters.
/// One borrowed read, [`for_each_candidate`](GraphBackend::for_each_candidate),
/// has a default — the label scan — that only a backend with an equality
/// index overrides.
///
/// Accounting, identical for every backend and both forms:
///
/// * a record read ([`vertex`](GraphBackend::vertex), `has_label`,
///   `with_property` and their owned twins) of an existing vertex is one
///   vertex read, whatever it finds; a read of an **unknown** id reads
///   nothing and is charged nothing;
/// * an adjacency walk charges one edge traversal per neighbour visited. A
///   visitor cannot stop early, so a walk always charges the whole list;
/// * label scans are index reads and are not charged;
/// * a candidate seek is an index read and is not charged, whether it
///   probes an index (building it on first use) or scans the label.
///
/// Callbacks run with no backend lock held: they may re-enter the backend
/// (the executor reads every neighbour's label and properties from inside
/// an adjacency walk).
pub trait GraphBackend: Send + Sync {
    /// Inserts a vertex and returns its id.
    fn add_vertex(&mut self, label: &str, properties: PropertyMap) -> VertexId;

    /// Inserts an edge and returns its id.
    fn add_edge(&mut self, label: &str, src: VertexId, dst: VertexId) -> EdgeId;

    /// Fetches a vertex (counted as a vertex read).
    fn vertex(&self, id: VertexId) -> Option<VertexData>;

    /// Whether the vertex exists and carries `label` (counted as a vertex
    /// read).
    fn has_label(&self, id: VertexId, label: &str) -> bool;

    /// Calls `f` exactly once with a single property of a vertex, borrowed
    /// from the store — `None` when the vertex or the property is absent
    /// (counted as a vertex read).
    fn with_property(&self, id: VertexId, name: &str, f: &mut dyn FnMut(Option<&PropertyValue>));

    /// Visits the ids of all vertices with a label, in insertion order.
    fn for_each_with_label(&self, label: &str, f: &mut dyn FnMut(VertexId));

    /// Visits, in id order, the vertices of `label` that may hold `value`
    /// under `key`: every vertex that does, and possibly others, so a caller
    /// still checks each candidate. Not charged, like a label scan. The
    /// default visits the whole label; a backend with an equality index
    /// narrows it to the vertices whose stored value equals `value`.
    fn for_each_candidate(
        &self,
        label: &str,
        key: &str,
        value: &PropertyValue,
        f: &mut dyn FnMut(VertexId),
    ) {
        let _ = (key, value);
        self.for_each_with_label(label, f)
    }

    /// Visits the out-neighbours of a vertex along edges with the given
    /// label, in edge-insertion order (counted as edge traversals).
    fn for_each_out(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId));

    /// Visits the in-neighbours of a vertex along edges with the given
    /// label, in edge-insertion order (counted as edge traversals).
    fn for_each_in(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId));

    /// Owned label of a vertex, read through [`GraphBackend::vertex`]
    /// (counted as a vertex read).
    fn label_of(&self, id: VertexId) -> Option<String> {
        self.vertex(id).map(|v| v.label)
    }

    /// Owned copy of what [`GraphBackend::with_property`] lends.
    fn property_of(&self, id: VertexId, name: &str) -> Option<PropertyValue> {
        let mut owned = None;
        self.with_property(id, name, &mut |value| owned = value.cloned());
        owned
    }

    /// The ids [`GraphBackend::for_each_with_label`] visits, collected.
    fn vertices_with_label(&self, label: &str) -> Vec<VertexId> {
        let mut ids = Vec::new();
        self.for_each_with_label(label, &mut |id| ids.push(id));
        ids
    }

    /// All vertex labels present in the store.
    fn labels(&self) -> Vec<String>;

    /// The neighbours [`GraphBackend::for_each_out`] visits, collected.
    fn out_neighbours(&self, vertex: VertexId, edge_label: &str) -> Vec<VertexId> {
        let mut neighbours = Vec::new();
        self.for_each_out(vertex, edge_label, &mut |n| neighbours.push(n));
        neighbours
    }

    /// The neighbours [`GraphBackend::for_each_in`] visits, collected.
    fn in_neighbours(&self, vertex: VertexId, edge_label: &str) -> Vec<VertexId> {
        let mut neighbours = Vec::new();
        self.for_each_in(vertex, edge_label, &mut |n| neighbours.push(n));
        neighbours
    }

    /// Number of out-edges of a vertex with the given label, *without*
    /// materialising the neighbour list. Used for fan-out estimation (the
    /// serving layer's per-relationship estimates in `EXPLAIN`), so backends
    /// override it with a cheap adjacency-metadata scan that is **not**
    /// charged as edge traversals. The default falls back to
    /// [`GraphBackend::for_each_out`] and therefore *is* counted.
    fn out_degree(&self, vertex: VertexId, edge_label: &str) -> usize {
        let mut degree = 0;
        self.for_each_out(vertex, edge_label, &mut |_| degree += 1);
        degree
    }

    /// Number of vertices.
    fn vertex_count(&self) -> usize;

    /// Number of edges.
    fn edge_count(&self) -> usize;

    /// Approximate bytes of property payload stored.
    fn payload_bytes(&self) -> u64;

    /// Snapshot of the access counters.
    fn stats(&self) -> AccessStats;

    /// Resets the access counters.
    fn reset_stats(&self);

    /// Human-readable backend name ("memory" / "disk").
    fn backend_name(&self) -> &'static str;

    /// Replays this graph as the ordered [`GraphUpdate`] sequence that
    /// rebuilds it exactly: every vertex id, every adjacency-list order and
    /// every label index come back identical when the sequence is applied to
    /// an empty backend. This is the compilation input for
    /// [`crate::CsrGraph::freeze`] and a journal-free alternative to
    /// wrapping a backend in `pgso_persist::JournaledGraph`.
    ///
    /// Returns `None` when the backend cannot reconstruct a faithful
    /// insertion order. The default is `None`; backends that retain enough
    /// ordering information override it.
    fn export_updates(&self) -> Option<Vec<GraphUpdate>> {
        None
    }

    /// Approximate resident bytes of the read path: property payload plus
    /// any compiled read-optimized structures. Defaults to
    /// [`GraphBackend::payload_bytes`]; backends with a separate compiled
    /// representation (CSR segments, property columns) override it with the
    /// real footprint so benchmarks can compare tiers like-for-like.
    fn resident_bytes(&self) -> u64 {
        self.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let counters = StatsCounters::default();
        counters.count_vertex_read();
        counters.count_vertex_read();
        counters.count_edge_traversals(3);
        counters.count_page_read();
        counters.count_page_hit();
        let snap = counters.snapshot();
        assert_eq!(snap.vertex_reads, 2);
        assert_eq!(snap.edge_traversals, 3);
        assert_eq!(snap.page_reads, 1);
        assert_eq!(snap.page_hits, 1);
        assert!((snap.hit_ratio() - 0.5).abs() < 1e-12);
        counters.reset();
        assert_eq!(counters.snapshot(), AccessStats::default());
    }

    #[test]
    fn hit_ratio_defaults_to_one() {
        assert_eq!(AccessStats::default().hit_ratio(), 1.0);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(VertexId(1) < VertexId(2));
        assert!(EdgeId(5) > EdgeId(3));
    }

    #[test]
    fn updates_replay_to_an_identical_graph() {
        use crate::memory::MemoryGraph;
        use crate::value::props;
        let updates = vec![
            GraphUpdate::AddVertex {
                label: "Drug".into(),
                properties: props([("name", "Aspirin".into())]),
            },
            GraphUpdate::AddVertex {
                label: "Indication".into(),
                properties: props([("desc", "Fever".into())]),
            },
            GraphUpdate::AddEdge { label: "treat".into(), src: VertexId(0), dst: VertexId(1) },
        ];
        let mut g = MemoryGraph::new();
        apply_updates(&mut g, &updates);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_neighbours(VertexId(0), "treat"), vec![VertexId(1)]);
        // AddVertex reports the assigned id; AddEdge reports none.
        let mut h = MemoryGraph::new();
        assert_eq!(updates[0].apply(&mut h), Some(VertexId(0)));
        assert_eq!(updates[1].apply(&mut h), Some(VertexId(1)));
        assert_eq!(updates[2].apply(&mut h), None);
    }
}

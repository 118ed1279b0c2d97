//! Hash-partitioned graph backend: N inner [`GraphBackend`] shards behind
//! one [`GraphBackend`] facade.
//!
//! The paper shows its schema optimization is backend-independent by
//! evaluating on Neo4j and the horizontally partitioned JanusGraph; this
//! module supplies the partitioned half of that pair. A [`ShardedGraph`]
//! assigns every vertex a **global** [`VertexId`] (sequential, so ids match a
//! [`crate::MemoryGraph`] loaded with the same insertion order) and routes it
//! to one of N inner shards via a pluggable [`ShardRouter`] — by id hash
//! ([`HashRouter`], the default) or by vertex label ([`LabelRouter`], the
//! by-concept layout).
//!
//! # Cross-shard edges
//!
//! Each shard only knows local vertex ids, so an edge whose endpoints live on
//! different shards is stored **owner-side** on both shards:
//!
//! * the source's shard gets the out-edge, pointing at a *remote stub* — a
//!   propertyless vertex with the reserved label [`STUB_LABEL`] standing in
//!   for the foreign endpoint;
//! * the destination's shard gets the in-edge from a stub of the source.
//!
//! Per-shard `local → global` tables translate adjacency answers back to
//! global ids, so traversals through stubs are invisible to callers: the
//! facade returns exactly the neighbour sets (and orderings) a monolithic
//! backend would. Stubs never appear in [`GraphBackend::for_each_with_label`],
//! [`GraphBackend::labels`] or [`GraphBackend::vertex_count`].
//!
//! # Statistics
//!
//! Reads are counted by whichever inner shard serves them;
//! [`GraphBackend::stats`] sums the shards and
//! [`GraphBackend::shard_stats`] exposes the per-shard breakdown so serving
//! reports can show the balance of work across the partition.

use crate::backend::{AccessStats, EdgeId, GraphBackend, VertexData, VertexId};
use crate::memory::MemoryGraph;
use crate::value::{PropertyMap, PropertyValue};
use std::collections::HashMap;

/// Reserved label of remote-vertex stubs. Inner shards store stubs under this
/// label; the facade filters it out of every label-level answer.
pub const STUB_LABEL: &str = "__remote__";

/// Routing policy deciding which shard owns a new vertex.
///
/// Routing happens once, at [`GraphBackend::add_vertex`] time; lookups go
/// through the directory, so a router only has to be deterministic during a
/// single load, not across processes.
pub trait ShardRouter: Send + Sync {
    /// Shard index (`< shard_count`) that will own the vertex `id` with
    /// label `label`.
    fn route(&self, id: VertexId, label: &str, shard_count: usize) -> usize;

    /// Human-readable router name for reports.
    fn name(&self) -> &'static str;
}

/// Routes by a multiplicative hash of the global vertex id — the classic
/// uniform partitioning of JanusGraph-style stores.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashRouter;

impl ShardRouter for HashRouter {
    fn route(&self, id: VertexId, _label: &str, shard_count: usize) -> usize {
        // Fibonacci hashing spreads sequential ids uniformly.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % shard_count
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Routes by vertex label, so every concept's vertices co-locate on one
/// shard ("by-concept" partitioning). Cross-concept traversals become
/// cross-shard edges, but label scans touch exactly one shard.
#[derive(Debug, Default, Clone, Copy)]
pub struct LabelRouter;

impl ShardRouter for LabelRouter {
    fn route(&self, _id: VertexId, label: &str, shard_count: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h >> 16) as usize % shard_count
    }

    fn name(&self) -> &'static str {
        "label"
    }
}

/// Location of a global vertex: owning shard and its id there.
#[derive(Debug, Clone, Copy)]
struct Placement {
    shard: u32,
    local: VertexId,
}

/// Hash-partitioned backend over N inner shards; see the module docs.
pub struct ShardedGraph {
    shards: Vec<Box<dyn GraphBackend>>,
    router: Box<dyn ShardRouter>,
    /// Global vertex id → owning shard + local id.
    directory: Vec<Placement>,
    /// Per shard: local vertex index → global id (stubs map to the remote
    /// vertex's global id, which is what makes adjacency translation work).
    global_of: Vec<Vec<VertexId>>,
    /// Per shard: global id → local stub id, for foreign vertices already
    /// stubbed there.
    stubs: Vec<HashMap<VertexId, VertexId>>,
    edges: u64,
}

impl std::fmt::Debug for ShardedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGraph")
            .field("shards", &self.shards.len())
            .field("router", &self.router.name())
            .field("vertices", &self.directory.len())
            .field("edges", &self.edges)
            .finish()
    }
}

impl ShardedGraph {
    /// A sharded graph over `shard_count` fresh [`MemoryGraph`] shards with
    /// the default [`HashRouter`].
    pub fn new_memory(shard_count: usize) -> Self {
        Self::with_router(
            (0..shard_count.max(1))
                .map(|_| Box::new(MemoryGraph::new()) as Box<dyn GraphBackend>)
                .collect(),
            Box::new(HashRouter),
        )
    }

    /// A sharded graph over caller-supplied (empty) inner backends and a
    /// routing policy. Mixing backend kinds is allowed — e.g. one
    /// [`crate::DiskGraph`] shard for the cold partition.
    ///
    /// Inner backends must allocate **dense sequential ids starting at 0**
    /// (`add_vertex` returning `0, 1, 2, …` per shard) — the local→global
    /// translation tables are indexed by local id. Both built-in backends do;
    /// a custom backend violating this is rejected with a panic at the first
    /// insertion rather than silently mistranslating adjacency.
    ///
    /// # Panics
    /// Panics if `shards` is empty or any shard already contains vertices
    /// (the directory must observe every insertion).
    pub fn with_router(shards: Vec<Box<dyn GraphBackend>>, router: Box<dyn ShardRouter>) -> Self {
        assert!(!shards.is_empty(), "a sharded graph needs at least one shard");
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.vertex_count(), 0, "shard {i} must start empty");
        }
        let n = shards.len();
        Self {
            shards,
            router,
            directory: Vec::new(),
            global_of: vec![Vec::new(); n],
            stubs: vec![HashMap::new(); n],
            edges: 0,
        }
    }

    /// The routing policy in use.
    pub fn router_name(&self) -> &'static str {
        self.router.name()
    }

    /// Per-shard vertex counts, *excluding* remote stubs — the real data
    /// balance produced by the router.
    pub fn shard_vertex_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards.len()];
        for placement in &self.directory {
            counts[placement.shard as usize] += 1;
        }
        counts
    }

    /// Total number of stub vertices materialised for cross-shard edges.
    pub fn stub_count(&self) -> usize {
        self.stubs.iter().map(HashMap::len).sum()
    }

    /// Translates a shard-local id back to the global id space.
    fn to_global(&self, shard: usize, local: VertexId) -> VertexId {
        self.global_of[shard][local.0 as usize]
    }

    /// Local id representing `global` on `shard`, creating a stub when the
    /// vertex lives elsewhere and has no stand-in there yet.
    fn local_or_stub(&mut self, shard: usize, global: VertexId) -> VertexId {
        let placement = self.directory[global.0 as usize];
        if placement.shard as usize == shard {
            return placement.local;
        }
        if let Some(&stub) = self.stubs[shard].get(&global) {
            return stub;
        }
        let stub = self.shards[shard].add_vertex(STUB_LABEL, PropertyMap::new());
        assert_eq!(
            stub.0 as usize,
            self.global_of[shard].len(),
            "inner shard backends must allocate dense sequential vertex ids"
        );
        self.global_of[shard].push(global);
        self.stubs[shard].insert(global, stub);
        stub
    }

    fn placement(&self, id: VertexId) -> Option<Placement> {
        self.directory.get(id.0 as usize).copied()
    }
}

impl GraphBackend for ShardedGraph {
    fn add_vertex(&mut self, label: &str, properties: PropertyMap) -> VertexId {
        let global = VertexId(self.directory.len() as u64);
        let shard = self.router.route(global, label, self.shards.len());
        let local = self.shards[shard].add_vertex(label, properties);
        assert_eq!(
            local.0 as usize,
            self.global_of[shard].len(),
            "inner shard backends must allocate dense sequential vertex ids"
        );
        self.global_of[shard].push(global);
        self.directory.push(Placement { shard: shard as u32, local });
        global
    }

    fn add_edge(&mut self, label: &str, src: VertexId, dst: VertexId) -> EdgeId {
        let src_placement = *self.directory.get(src.0 as usize).unwrap_or_else(|| {
            panic!("unknown source vertex {src:?}");
        });
        let dst_placement = *self.directory.get(dst.0 as usize).unwrap_or_else(|| {
            panic!("unknown destination vertex {dst:?}");
        });
        if src_placement.shard == dst_placement.shard {
            self.shards[src_placement.shard as usize].add_edge(
                label,
                src_placement.local,
                dst_placement.local,
            );
        } else {
            // Owner-side adjacency: the out-edge lives with the source, the
            // in-edge with the destination, each against a remote stub.
            let src_shard = src_placement.shard as usize;
            let dst_stub = self.local_or_stub(src_shard, dst);
            self.shards[src_shard].add_edge(label, src_placement.local, dst_stub);
            let dst_shard = dst_placement.shard as usize;
            let src_stub = self.local_or_stub(dst_shard, src);
            self.shards[dst_shard].add_edge(label, src_stub, dst_placement.local);
        }
        let id = EdgeId(self.edges);
        self.edges += 1;
        id
    }

    fn vertex(&self, id: VertexId) -> Option<VertexData> {
        let placement = self.placement(id)?;
        let mut data = self.shards[placement.shard as usize].vertex(placement.local)?;
        data.id = id;
        Some(data)
    }

    fn has_label(&self, id: VertexId, label: &str) -> bool {
        self.placement(id).is_some_and(|p| self.shards[p.shard as usize].has_label(p.local, label))
    }

    fn with_property(&self, id: VertexId, name: &str, f: &mut dyn FnMut(Option<&PropertyValue>)) {
        match self.placement(id) {
            Some(p) => self.shards[p.shard as usize].with_property(p.local, name, f),
            None => f(None),
        }
    }

    fn for_each_with_label(&self, label: &str, f: &mut dyn FnMut(VertexId)) {
        if label == STUB_LABEL {
            return;
        }
        let mut ids: Vec<VertexId> = Vec::new();
        for (shard, backend) in self.shards.iter().enumerate() {
            backend.for_each_with_label(label, &mut |local| ids.push(self.to_global(shard, local)));
        }
        // Global ids are allocated in insertion order, so sorting restores
        // the exact order a monolithic backend's label index would visit —
        // the one allocation a sharded label scan makes.
        ids.sort_unstable();
        ids.into_iter().for_each(f);
    }

    fn labels(&self) -> Vec<String> {
        let mut labels: Vec<String> =
            self.shards.iter().flat_map(|s| s.labels()).filter(|l| l != STUB_LABEL).collect();
        labels.sort();
        labels.dedup();
        labels
    }

    fn for_each_out(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        let Some(placement) = self.placement(vertex) else { return };
        let shard = placement.shard as usize;
        self.shards[shard].for_each_out(placement.local, edge_label, &mut |local| {
            f(self.to_global(shard, local))
        });
    }

    fn for_each_in(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        let Some(placement) = self.placement(vertex) else { return };
        let shard = placement.shard as usize;
        self.shards[shard]
            .for_each_in(placement.local, edge_label, &mut |local| f(self.to_global(shard, local)));
    }

    fn out_degree(&self, vertex: VertexId, edge_label: &str) -> usize {
        // Delegates straight to the owning shard's `out_degree` override —
        // never the trait's charged materialise-and-count default — so
        // fan-out estimation inherits the inner tier's cost (O(1) offset
        // subtraction on a CSR shard) and charges nothing to the counters.
        let Some(placement) = self.placement(vertex) else { return 0 };
        self.shards[placement.shard as usize].out_degree(placement.local, edge_label)
    }

    fn vertex_count(&self) -> usize {
        self.directory.len()
    }

    fn edge_count(&self) -> usize {
        self.edges as usize
    }

    fn payload_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.payload_bytes()).sum()
    }

    fn stats(&self) -> AccessStats {
        self.shards.iter().fold(AccessStats::default(), |acc, s| acc.merged(&s.stats()))
    }

    fn reset_stats(&self) {
        for shard in &self.shards {
            shard.reset_stats();
        }
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, vertex: VertexId) -> usize {
        self.placement(vertex).map(|p| p.shard as usize).unwrap_or(0)
    }

    fn shard_stats(&self) -> Vec<AccessStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    // `export_updates` stays at the default `None`: shards only see their
    // local slice of the mutation stream, so the facade cannot reconstruct
    // the *global* edge-insertion order that a replay (and therefore
    // `CsrGraph::freeze`) requires. Wrap construction in a
    // `JournaledGraph` to capture the global sequence instead.

    fn ensure_ready(&self) {
        for shard in &self.shards {
            shard.ensure_ready();
        }
    }

    fn resident_bytes(&self) -> u64 {
        let directory = (self.directory.len() * std::mem::size_of::<Placement>()) as u64;
        self.shards.iter().map(|s| s.resident_bytes()).sum::<u64>() + directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::props;

    /// Loads the same tiny graph into a `MemoryGraph` and a `ShardedGraph`.
    fn pair(shards: usize) -> (MemoryGraph, ShardedGraph) {
        let mut mono = MemoryGraph::new();
        let mut sharded = ShardedGraph::new_memory(shards);
        for backend in [&mut mono as &mut dyn GraphBackend, &mut sharded as &mut dyn GraphBackend] {
            let drug = backend.add_vertex("Drug", props([("name", "Aspirin".into())]));
            let ind1 = backend.add_vertex("Indication", props([("desc", "Fever".into())]));
            let ind2 = backend.add_vertex("Indication", props([("desc", "Headache".into())]));
            let di = backend.add_vertex("DrugInteraction", props([("summary", "Delayed".into())]));
            backend.add_edge("treat", drug, ind1);
            backend.add_edge("treat", drug, ind2);
            backend.add_edge("has", drug, di);
        }
        (mono, sharded)
    }

    #[test]
    fn global_ids_match_a_monolithic_backend() {
        for shards in [1, 2, 3, 4, 7] {
            let (mono, sharded) = pair(shards);
            assert_eq!(sharded.vertex_count(), mono.vertex_count());
            assert_eq!(sharded.edge_count(), mono.edge_count());
            assert_eq!(sharded.labels(), mono.labels());
            for label in mono.labels() {
                assert_eq!(
                    sharded.vertices_with_label(&label),
                    mono.vertices_with_label(&label),
                    "label {label} at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn traversals_cross_shards_transparently() {
        for shards in [2, 3, 4] {
            let (mono, sharded) = pair(shards);
            for v in 0..mono.vertex_count() as u64 {
                for label in ["treat", "has", "missing"] {
                    assert_eq!(
                        sharded.out_neighbours(VertexId(v), label),
                        mono.out_neighbours(VertexId(v), label),
                        "out({v}, {label}) at {shards} shards"
                    );
                    assert_eq!(
                        sharded.in_neighbours(VertexId(v), label),
                        mono.in_neighbours(VertexId(v), label),
                        "in({v}, {label}) at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn vertices_keep_their_data_and_global_id() {
        let (_, sharded) = pair(3);
        let v = sharded.vertex(VertexId(0)).unwrap();
        assert_eq!(v.id, VertexId(0));
        assert_eq!(v.label, "Drug");
        assert_eq!(v.properties["name"].as_str(), Some("Aspirin"));
        assert_eq!(sharded.label_of(VertexId(3)).as_deref(), Some("DrugInteraction"));
        assert_eq!(sharded.property_of(VertexId(1), "desc"), Some(PropertyValue::str("Fever")));
        assert!(sharded.vertex(VertexId(99)).is_none());
        assert!(sharded.label_of(VertexId(99)).is_none());
    }

    #[test]
    fn stubs_stay_invisible() {
        let (_, sharded) = pair(4);
        assert!(sharded.stub_count() > 0, "a 4-shard load of this graph must cross shards");
        assert_eq!(sharded.vertex_count(), 4, "stubs are not vertices");
        assert!(sharded.vertices_with_label(STUB_LABEL).is_empty());
        assert!(!sharded.labels().iter().any(|l| l == STUB_LABEL));
        // Stubs carry no payload.
        let (_, single) = pair(1);
        assert_eq!(sharded.payload_bytes(), single.payload_bytes());
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let (_, sharded) = pair(2);
        sharded.reset_stats();
        let _ = sharded.vertex(VertexId(0));
        let _ = sharded.out_neighbours(VertexId(0), "treat");
        let total = sharded.stats();
        assert_eq!(total.vertex_reads, 1);
        assert_eq!(total.edge_traversals, 2);
        let per_shard = sharded.shard_stats();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(
            per_shard.iter().fold(AccessStats::default(), |a, s| a.merged(s)),
            total,
            "per-shard stats must sum to the aggregate"
        );
        sharded.reset_stats();
        assert_eq!(sharded.stats(), AccessStats::default());
    }

    #[test]
    fn shard_of_agrees_with_the_router() {
        let (_, sharded) = pair(4);
        for v in 0..4u64 {
            let shard = sharded.shard_of(VertexId(v));
            assert!(shard < 4);
            // The owning shard really holds the vertex under its real label.
            let label = sharded.label_of(VertexId(v)).unwrap();
            assert_ne!(label, STUB_LABEL);
        }
        let counts = sharded.shard_vertex_counts();
        assert_eq!(counts.iter().sum::<usize>(), 4);
    }

    #[test]
    fn label_router_colocates_concepts() {
        let mut sharded = ShardedGraph::with_router(
            (0..4).map(|_| Box::new(MemoryGraph::new()) as Box<dyn GraphBackend>).collect(),
            Box::new(LabelRouter),
        );
        let mut drug_shards = std::collections::HashSet::new();
        for i in 0..10 {
            let v = sharded.add_vertex("Drug", props([("name", format!("d{i}").into())]));
            drug_shards.insert(sharded.shard_of(v));
        }
        assert_eq!(drug_shards.len(), 1, "LabelRouter must co-locate a concept");
        assert_eq!(sharded.router_name(), "label");
        assert_eq!(ShardedGraph::new_memory(2).router_name(), "hash");
    }

    #[test]
    fn out_degree_routes_to_the_owner() {
        let (mono, sharded) = pair(3);
        for v in 0..mono.vertex_count() as u64 {
            assert_eq!(
                sharded.out_degree(VertexId(v), "treat"),
                mono.out_degree(VertexId(v), "treat")
            );
        }
        assert_eq!(sharded.out_degree(VertexId(99), "treat"), 0);
    }

    #[test]
    fn out_degree_never_charges_through_the_wrapper_stack() {
        // Fan-out estimation must stay free across the whole delegation
        // chain: ShardedGraph → Box<dyn GraphBackend> → concrete override.
        // Only the trait's *default* out_degree charges; every concrete
        // backend (and this facade) must bypass it.
        for inner in ["memory", "csr"] {
            let make = |_: usize| -> Box<dyn GraphBackend> {
                match inner {
                    "memory" => Box::new(MemoryGraph::new()),
                    _ => Box::new(crate::CsrGraph::new()),
                }
            };
            let mut sharded =
                ShardedGraph::with_router((0..3).map(make).collect(), Box::new(HashRouter));
            let a = sharded.add_vertex("Drug", props([("name", "Aspirin".into())]));
            let b = sharded.add_vertex("Indication", props([("desc", "Fever".into())]));
            let c = sharded.add_vertex("Indication", props([("desc", "Rash".into())]));
            sharded.add_edge("treat", a, b);
            sharded.add_edge("treat", a, c);
            sharded.ensure_ready();
            sharded.reset_stats();
            assert_eq!(sharded.out_degree(a, "treat"), 2, "{inner}");
            assert_eq!(sharded.out_degree(b, "treat"), 0, "{inner}");
            assert_eq!(
                sharded.stats(),
                AccessStats::default(),
                "estimation over {inner} shards must not be charged"
            );
        }
    }

    #[test]
    fn csr_shards_answer_like_memory_shards() {
        let make_csr = |_: usize| Box::new(crate::CsrGraph::new()) as Box<dyn GraphBackend>;
        let mut csr_sharded =
            ShardedGraph::with_router((0..3).map(make_csr).collect(), Box::new(HashRouter));
        let (mono, mem_sharded) = pair(3);
        {
            let backend: &mut dyn GraphBackend = &mut csr_sharded;
            let drug = backend.add_vertex("Drug", props([("name", "Aspirin".into())]));
            let ind1 = backend.add_vertex("Indication", props([("desc", "Fever".into())]));
            let ind2 = backend.add_vertex("Indication", props([("desc", "Headache".into())]));
            let di = backend.add_vertex("DrugInteraction", props([("summary", "Delayed".into())]));
            backend.add_edge("treat", drug, ind1);
            backend.add_edge("treat", drug, ind2);
            backend.add_edge("has", drug, di);
        }
        for v in 0..mono.vertex_count() as u64 {
            let v = VertexId(v);
            assert_eq!(csr_sharded.label_of(v), mem_sharded.label_of(v));
            assert_eq!(csr_sharded.vertex(v), mem_sharded.vertex(v));
            for elabel in ["treat", "has"] {
                assert_eq!(
                    csr_sharded.out_neighbours(v, elabel),
                    mem_sharded.out_neighbours(v, elabel)
                );
                assert_eq!(
                    csr_sharded.in_neighbours(v, elabel),
                    mem_sharded.in_neighbours(v, elabel)
                );
            }
        }
        assert!(csr_sharded.resident_bytes() > 0);
        // The facade cannot export a global update sequence.
        assert!(csr_sharded.export_updates().is_none());
    }

    #[test]
    #[should_panic(expected = "unknown source vertex")]
    fn add_edge_validates_endpoints() {
        let mut g = ShardedGraph::new_memory(2);
        let v = g.add_vertex("A", PropertyMap::new());
        g.add_edge("r", VertexId(42), v);
    }

    #[test]
    #[should_panic(expected = "must start empty")]
    fn prefilled_shards_are_rejected() {
        let mut filled = MemoryGraph::new();
        filled.add_vertex("A", PropertyMap::new());
        let _ = ShardedGraph::with_router(
            vec![Box::new(filled) as Box<dyn GraphBackend>],
            Box::new(HashRouter),
        );
    }

    #[test]
    fn backend_name_is_sharded() {
        assert_eq!(ShardedGraph::new_memory(2).backend_name(), "sharded");
        assert_eq!(ShardedGraph::new_memory(3).shard_count(), 3);
    }
}

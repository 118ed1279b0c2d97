//! # pgso-graphstore
//!
//! Property graph storage substrate for the `pgso` workspace.
//!
//! The paper evaluates its optimized schemas on Neo4j (disk-based) and
//! JanusGraph; this crate provides architecturally distinct stand-ins
//! behind one [`GraphBackend`] trait:
//!
//! * [`MemoryGraph`] — interned labels, inline adjacency lists and
//!   shape-keyed property rows in memory (what the serving layer's epochs
//!   hold);
//! * [`DiskGraph`] — vertex records in fixed-size pages of a store file with
//!   an LRU buffer pool, so traversals cost page I/O when the working set
//!   exceeds the pool;
//! * [`CsrGraph`] — a read-optimized layout: type-segmented CSR
//!   adjacency (delta + varint compressed) and typed property columns,
//!   compiled lazily or frozen from any replayable backend via
//!   [`CsrGraph::freeze`].
//!
//! Every backend keeps [`AccessStats`] counters (vertex reads, edge
//! traversals, page reads/hits) so experiments can attribute latency
//! differences to the mechanisms the paper describes.
//!
//! ```
//! use pgso_graphstore::{props, GraphBackend, MemoryGraph, PropertyValue};
//!
//! let mut graph = MemoryGraph::new();
//! let drug = graph.add_vertex("Drug", props([("name", "Aspirin".into())]));
//! let indication = graph.add_vertex("Indication", props([("desc", "Fever".into())]));
//! graph.add_edge("treat", drug, indication);
//! assert_eq!(graph.out_neighbours(drug, "treat"), vec![indication]);
//! assert_eq!(graph.stats().edge_traversals, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod codec;
pub mod csr;
pub mod disk;
pub mod fx;
pub mod memory;
pub mod value;

pub use backend::{
    apply_updates, AccessStats, EdgeData, EdgeId, GraphBackend, GraphUpdate, StatsCounters,
    VertexData, VertexId,
};
pub use csr::{CsrBuildStats, CsrGraph};
pub use disk::{DiskGraph, DiskGraphConfig, PAGE_SIZE};
pub use fx::{FxBuild, FxHasher};
pub use memory::MemoryGraph;
pub use value::{props, PropertyMap, PropertyValue};

// Compile-time guarantee that the serving layer can share backends across
// threads: every read path takes `&self` and the statistics counters are
// atomics, so every backend must be `Send + Sync`. Keeping the assertion in
// the library (not just tests) makes an accidental regression — e.g. a
// `RefCell` slipped into a buffer pool — a compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StatsCounters>();
    assert_send_sync::<MemoryGraph>();
    assert_send_sync::<DiskGraph>();
    assert_send_sync::<CsrGraph>();
};

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_impl<T: Send + Sync>() {}

    #[test]
    fn backends_are_send_and_sync() {
        assert_impl::<StatsCounters>();
        assert_impl::<MemoryGraph>();
        assert_impl::<DiskGraph>();
        assert_impl::<CsrGraph>();
        // `Send + Sync` are supertraits now, so the bare trait object works.
        assert_impl::<Box<dyn GraphBackend>>();
    }
}

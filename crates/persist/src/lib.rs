//! # pgso-persist
//!
//! Durability layer for the `pgso` workspace: a write-ahead log for graph
//! mutations, epoch snapshot files, and crash recovery.
//!
//! The paper's premise is that domain knowledge graphs *evolve* — new
//! concepts, instances and access patterns arrive continuously — yet an
//! in-memory serving layer loses both the graph and its learned workload
//! statistics on every restart. This crate closes that gap with three
//! pieces:
//!
//! * [`wal`] — a CRC-framed, fsync-batched (group commit) write-ahead log of
//!   [`pgso_graphstore::GraphUpdate`] records, reusing the graphstore record
//!   codec. Torn tails are detected and dropped cleanly on read.
//! * [`snapshot`] — epoch snapshot files capturing the optimized schema, the
//!   graph (as its construction journal, replayable into any storage layout),
//!   and opaque workload-tracker / baseline-frequency blobs.
//! * [`recover`](fn@crate::recover) — finds the newest valid snapshot,
//!   replays every later WAL in order, and hands the serving layer a
//!   [`RecoveredState`] to resume from — learned frequencies included.
//!
//! [`JournaledGraph`] is the mutation-capture wrapper that makes any
//! [`pgso_graphstore::GraphBackend`] loggable, and [`PersistConfig`] bundles
//! the knobs (directory, fsync mode, snapshot trigger).
//!
//! ```
//! use pgso_graphstore::{props, GraphBackend, GraphUpdate, MemoryGraph};
//! use pgso_persist::{recover, snapshot, wal, JournaledGraph};
//!
//! let dir = tempfile::tempdir().unwrap();
//!
//! // Build a graph through the journaling wrapper ...
//! let mut g = JournaledGraph::new(MemoryGraph::new());
//! let d = g.add_vertex("Drug", props([("name", "Aspirin".into())]));
//! let i = g.add_vertex("Indication", props([("desc", "Fever".into())]));
//! g.add_edge("treat", d, i);
//!
//! // ... snapshot it, log one more update, then "crash" and recover.
//! let image = snapshot::Snapshot {
//!     epoch: 0,
//!     schema_generation: 0,
//!     shard_count: 1,
//!     schema: pgso_pgschema::PropertyGraphSchema::new("demo"),
//!     journal: g.journal().to_vec(),
//!     ingested: Vec::new(),
//!     tracker: Vec::new(),
//!     baseline: Vec::new(),
//!     prepared: Vec::new(),
//! };
//! snapshot::write_snapshot(&snapshot::snapshot_path(dir.path(), 0), &image).unwrap();
//! let mut log = wal::WalWriter::create(snapshot::wal_path(dir.path(), 0), true).unwrap();
//! log.append(&[wal::WalRecord::Update(GraphUpdate::AddVertex {
//!     label: "Drug".into(),
//!     properties: props([("name", "Ibuprofen".into())]),
//! })])
//! .unwrap();
//!
//! let state = recover(dir.path()).unwrap().expect("a snapshot exists");
//! let mut revived = MemoryGraph::new();
//! pgso_graphstore::apply_updates(&mut revived, &state.full_journal());
//! assert_eq!(revived.vertex_count(), 3, "snapshot + WAL tail");
//! assert_eq!(revived.out_neighbours(d, "treat"), vec![i]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod journal;
pub mod recover;
pub mod snapshot;
pub mod wal;

pub use journal::JournaledGraph;
pub use recover::{
    latest_generation, list_generations, prune_generations, recover, RecoveredState,
};
pub use snapshot::{
    read_snapshot, snapshot_path, wal_path, write_snapshot, Snapshot, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use wal::{crc32, read_wal, WalReadOutcome, WalRecord, WalTelemetry, WalWriter, WAL_MAGIC};

use std::path::PathBuf;
use std::time::Duration;

/// Durability configuration for a persistent serving directory.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the snapshot and WAL generations. Created on first
    /// use.
    pub dir: PathBuf,
    /// When true (the default), every WAL group commit is `fdatasync`ed
    /// before the ingest call returns. Disable only where the OS page cache
    /// is an acceptable durability boundary (tests, benchmarks).
    pub fsync: bool,
    /// WAL size (bytes) past which the serving layer rotates the log and
    /// writes a fresh snapshot generation. Snapshot writing happens off the
    /// serving threads.
    pub snapshot_wal_bytes: u64,
    /// Append a workload-tracker counter checkpoint to the WAL at most this
    /// often (per ingest batch); `Duration::ZERO` checkpoints on every
    /// batch.
    pub tracker_checkpoint_interval: Duration,
}

impl PersistConfig {
    /// Config with defaults for `dir`: fsync on, 4 MiB snapshot trigger,
    /// tracker checkpoint on every ingest batch.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: true,
            snapshot_wal_bytes: 4 * 1024 * 1024,
            tracker_checkpoint_interval: Duration::ZERO,
        }
    }

    /// Same, but without fsync (page-cache durability) — the fast mode for
    /// tests and benchmarks.
    pub fn new_unsynced(dir: impl Into<PathBuf>) -> Self {
        Self { fsync: false, ..Self::new(dir) }
    }
}

//! The durable side of a [`KgServer`]: the write-ahead-log handle, the
//! snapshot image, WAL rotation and checkpoints, and recovery of a killed
//! server's state.

use crate::engine::{Epoch, KgServer, Start};
use crate::publish::IngestState;
use crate::telemetry::ServerTelemetry;
use crate::tracker::{
    frequencies_from_bytes, frequencies_to_bytes, WorkloadSnapshot, WorkloadTracker,
};
use parking_lot::Mutex;
use pgso_graphstore::{apply_updates, MemoryGraph};
use pgso_ontology::{AccessFrequencies, Ontology};
use pgso_persist::{
    latest_generation, prune_generations, snapshot_path, wal_path, write_snapshot, PersistConfig,
    Snapshot, WalWriter,
};
use pgso_telemetry::FieldValue;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Durable side of the server: WAL writer + snapshot generation counter.
pub(crate) struct PersistHandle {
    pub(crate) config: PersistConfig,
    pub(crate) inner: Mutex<PersistInner>,
}

pub(crate) struct PersistInner {
    pub(crate) wal: WalWriter,
    generation: u64,
    pub(crate) last_checkpoint: Instant,
    /// In-flight background snapshot write, joined before the next rotation
    /// (and on drop) so errors surface instead of vanishing with the thread.
    snapshot_thread: Option<JoinHandle<io::Result<()>>>,
}

impl PersistHandle {
    /// Opens the (empty) write-ahead log of `generation` under
    /// `config.dir`.
    pub(crate) fn open(
        config: PersistConfig,
        generation: u64,
        telemetry: Option<&Arc<ServerTelemetry>>,
    ) -> io::Result<Self> {
        let wal = open_wal(&config, generation, telemetry)?;
        Ok(Self {
            config,
            inner: Mutex::new(PersistInner {
                wal,
                generation,
                last_checkpoint: Instant::now(),
                snapshot_thread: None,
            }),
        })
    }
}

/// Creates the WAL file of `generation`, recording into the server's
/// `wal.*` instruments.
fn open_wal(
    config: &PersistConfig,
    generation: u64,
    telemetry: Option<&Arc<ServerTelemetry>>,
) -> io::Result<WalWriter> {
    let mut wal = WalWriter::create(wal_path(&config.dir, generation), config.fsync)?;
    wal.set_telemetry(telemetry.map(|t| t.wal.clone()));
    Ok(wal)
}

/// Creates `dir` for a fresh persistent server, refusing one that already
/// holds snapshot or WAL generations.
pub(crate) fn claim_fresh_dir(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    match latest_generation(dir)? {
        None => Ok(()),
        Some(generation) => Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!(
                "{} already holds persisted generations (latest {generation}); \
                 use KgServer::recover or an empty directory",
                dir.display()
            ),
        )),
    }
}

/// The recovery half of [`crate::KgServerBuilder::recover`]: loads the
/// newest valid snapshot under `dir`, replays it and the WAL tail into a
/// fresh [`MemoryGraph`], and restores the learned
/// tracker counters and baseline frequencies.
pub(crate) fn recover_start(
    ontology: &Ontology,
    dir: &Path,
    telemetry: Option<&Arc<ServerTelemetry>>,
) -> io::Result<Start> {
    let state = pgso_persist::recover(dir)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("no valid snapshot in {}", dir.display()))
    })?;
    let mut graph = MemoryGraph::new();
    let full_journal = state.full_journal();
    let replay_started = Instant::now();
    apply_updates(&mut graph, &full_journal);
    if let Some(t) = telemetry {
        let replay = replay_started.elapsed();
        t.recovery_replay.record_duration(replay);
        t.trace().emit_with_duration(
            "recovery.replay",
            0,
            replay,
            vec![
                ("updates", FieldValue::from(full_journal.len())),
                ("snapshot_generation", FieldValue::from(state.max_generation)),
            ],
        );
    }
    let tracker = WorkloadTracker::new(ontology);
    if !state.tracker.is_empty() {
        tracker.restore(&WorkloadSnapshot::from_bytes(&state.tracker)?);
    }
    let baseline = if state.snapshot.baseline.is_empty() {
        AccessFrequencies::uniform(ontology, 10_000.0)
    } else {
        frequencies_from_bytes(ontology, &state.snapshot.baseline)?
    };
    Ok(Start {
        generation: state.max_generation + 1,
        prepared: state.prepared_statements(),
        ingested: state.ingested_updates(),
        tracker,
        baseline,
        epoch: Epoch {
            number: state.snapshot.epoch,
            schema_generation: state.snapshot.schema_generation,
            schema: state.snapshot.schema,
            graph,
        },
        base_journal: state.snapshot.journal,
    })
}

impl KgServer {
    /// Forces a durable checkpoint right now: publishes staged updates,
    /// rotates the WAL and writes a fresh snapshot generation
    /// *synchronously* (the file is durable when this returns). No-op
    /// `Ok(false)` without persistence.
    pub fn checkpoint(&self) -> io::Result<bool> {
        if self.persist.is_none() {
            return Ok(false);
        }
        let mut ing = self.ingest.lock();
        if !ing.pending.is_empty() {
            self.publish_locked(&mut ing);
        }
        self.rotate_and_snapshot(&ing, false)?;
        Ok(true)
    }

    /// Assembles the snapshot image of the current epoch under the ingest
    /// lock (so `base_journal`/`ingested` cannot shift underneath it).
    fn snapshot_image(&self, ing: &IngestState) -> Snapshot {
        let epoch = self.current_epoch();
        Snapshot {
            epoch: epoch.number,
            schema_generation: epoch.schema_generation,
            shard_count: 1,
            schema: epoch.schema.clone(),
            journal: ing.base_journal.clone(),
            ingested: ing.ingested.clone(),
            tracker: self.tracker.snapshot().to_bytes(),
            baseline: frequencies_to_bytes(&self.ontology, &self.baseline.lock()),
            prepared: self.prepared.read().iter().map(|e| e.text.clone()).collect(),
        }
    }

    /// Writes the anchor snapshot of the *current* generation synchronously
    /// (startup / recovery path — the WAL for this generation is empty).
    pub(crate) fn write_snapshot_for_current_generation(
        &self,
        ing: &IngestState,
    ) -> io::Result<()> {
        let persist = self.persist.as_ref().expect("persistence attached");
        let (image, generation) = {
            // Image assembled under the WAL lock, like rotation, so a racing
            // prepare lands in either the image or the WAL, never neither.
            let inner = persist.inner.lock();
            (self.snapshot_image(ing), inner.generation)
        };
        let started = Instant::now();
        let bytes = write_snapshot(&snapshot_path(&persist.config.dir, generation), &image)?;
        if let Some(t) = &self.telemetry {
            t.snapshot_write.record_duration(started.elapsed());
            t.snapshot_bytes.add(bytes);
        }
        prune_generations(&persist.config.dir, generation)
    }

    /// Rotates to a fresh WAL generation and writes its anchor snapshot —
    /// on a background thread when `background` (the ingest path; serving
    /// and ingesting threads do not wait for the file), synchronously
    /// otherwise ([`KgServer::checkpoint`]).
    ///
    /// Called with the ingest lock held and `pending` empty (a snapshot must
    /// describe exactly the published state, since the new WAL starts
    /// empty).
    pub(crate) fn rotate_and_snapshot(
        &self,
        ing: &IngestState,
        background: bool,
    ) -> io::Result<()> {
        debug_assert!(ing.pending.is_empty(), "snapshot with unpublished updates");
        let persist = self.persist.as_ref().expect("persistence attached");
        let mut inner = persist.inner.lock();
        // Surface any error from the previous background write before
        // starting the next one.
        if let Some(handle) = inner.snapshot_thread.take() {
            handle
                .join()
                .map_err(|_| io::Error::other("background snapshot writer panicked"))??;
        }
        // The image is assembled while the WAL lock is held: a concurrent
        // prepare (which registers and logs under this lock) is therefore
        // captured either by this image or by the WAL that survives the
        // rotation — it can neither duplicate nor vanish.
        let image = self.snapshot_image(ing);
        inner.generation += 1;
        let generation = inner.generation;
        let dir = persist.config.dir.clone();
        // The successor writer keeps recording into the same metric handles,
        // so `wal.*` stays one continuous series across rotations.
        inner.wal = open_wal(&persist.config, generation, self.telemetry.as_ref())?;
        if let Some(t) = &self.telemetry {
            t.snapshot_rotations.inc();
        }
        // Clone just the two snapshot instruments for the background thread
        // (the image already owns everything else it needs).
        let snapshot_metrics =
            self.telemetry.as_ref().map(|t| (t.snapshot_write.clone(), t.snapshot_bytes.clone()));
        let write_timed = move || -> io::Result<()> {
            let started = Instant::now();
            let bytes = write_snapshot(&snapshot_path(&dir, generation), &image)?;
            if let Some((write_hist, bytes_counter)) = snapshot_metrics {
                write_hist.record_duration(started.elapsed());
                bytes_counter.add(bytes);
            }
            prune_generations(&dir, generation)
        };
        if background {
            inner.snapshot_thread = Some(std::thread::spawn(write_timed));
            Ok(())
        } else {
            write_timed()
        }
    }
}

impl Drop for KgServer {
    fn drop(&mut self) {
        // Let an in-flight background snapshot finish; dropping the handle
        // mid-write would leave a torn temporary (recovery tolerates that,
        // but a clean shutdown should not have to).
        if let Some(persist) = &self.persist {
            if let Some(handle) = persist.inner.lock().snapshot_thread.take() {
                let _ = handle.join();
            }
        }
    }
}

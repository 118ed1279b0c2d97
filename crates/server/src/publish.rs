//! How the served world changes under a running [`KgServer`]: ingest
//! staging and publication, the drift check, and the re-optimization swap —
//! every new epoch goes through one `install_epoch`.

use crate::engine::{
    build_graph, compile_for_serving, Epoch, IngestReport, KgServer, ReoptimizationEvent,
};
use crate::tier::fresh_backend;
use pgso_core::{reoptimize, OptimizerInput};
use pgso_graphstore::{apply_updates, codec, GraphBackend, GraphUpdate};
use pgso_persist::WalRecord;
use pgso_pgschema::PropertyGraphSchema;
use pgso_telemetry::FieldValue;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Mutable ingest bookkeeping, behind one mutex so ingest calls serialize
/// (readers are untouched — they only clone the epoch `Arc`).
pub(crate) struct IngestState {
    /// Construction journal of the current schema's base load (what
    /// `load_into` produced). Re-derived on every schema swap.
    pub(crate) base_journal: Vec<GraphUpdate>,
    /// Ingested updates already published into the serving epoch; the
    /// epoch's graph is exactly `base_journal ++ ingested`.
    pub(crate) ingested: Vec<GraphUpdate>,
    /// Updates durably logged (when persistence is on) but not yet visible
    /// to readers.
    pub(crate) pending: Vec<GraphUpdate>,
    /// When the last publishing swap happened.
    pub(crate) last_publish: Instant,
}

/// Resets a flag on drop so a panicking re-optimization cannot wedge the
/// server into "somebody is already re-optimizing" forever.
struct FlagGuard<'a>(&'a AtomicBool);

impl Drop for FlagGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl KgServer {
    /// Checks drift and — past the threshold — re-optimizes and swaps. At
    /// most one thread runs this at a time; concurrent callers return `None`
    /// immediately and keep serving on the old epoch.
    pub fn try_reoptimize(&self) -> Option<ReoptimizationEvent> {
        if self
            .reoptimizing
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let _guard = FlagGuard(&self.reoptimizing);
        let drift = self.drift();
        if drift < self.config.drift_threshold {
            return None;
        }
        let event = self.reoptimize_and_swap(drift);
        self.events.lock().push(event.clone());
        Some(event)
    }

    /// The slow path: re-run PGSG under the observed frequencies, diff, and
    /// (if the schema changed) load + swap. Serving threads keep executing on
    /// the old epoch for the whole duration except the final pointer store.
    fn reoptimize_and_swap(&self, drift: f64) -> ReoptimizationEvent {
        let total_queries = self.baseline.lock().total_queries();
        let snapshot = self.tracker.snapshot();
        let observed = self.tracker.frequencies_from(&snapshot, &self.ontology, total_queries);
        let input = OptimizerInput::new(&self.ontology, &self.statistics, &observed);
        let current = self.current_epoch();
        let re = reoptimize(input, &current.schema, &self.config.optimizer);
        let mut event = ReoptimizationEvent {
            from_epoch: current.number,
            drift,
            changes: re.diff.change_count(),
            swapped: false,
        };
        if re.schema_changed() {
            // The ingest lock is held across the reload so the base journal,
            // the ingested stream and the published epoch move together.
            let mut ing = self.ingest.lock();
            let (graph, base_journal) = build_graph(
                &self.ontology,
                &re.outcome.schema,
                &self.instance,
                self.config.storage_tier,
            );
            ing.base_journal = base_journal;
            // Replaying the ingested stream onto the new base also publishes
            // anything still pending (with persistence, those updates are
            // already in the WAL).
            let next = self.install_epoch(
                &mut ing,
                graph,
                Some(re.outcome.schema),
                vec![
                    ("drift", FieldValue::from(drift)),
                    ("changes", FieldValue::from(event.changes)),
                ],
            );
            self.plan_cache.invalidate_stale(next.schema_generation);
            event.swapped = true;
            // A schema change obsoletes the previous snapshot's base journal,
            // so persist the new world immediately (recovery from the old
            // generation would resurrect the pre-swap schema: correct but
            // stale, and it would lose this optimization).
            if self.persist.is_some() {
                if let Err(err) = self.rotate_and_snapshot(&ing, true) {
                    // Re-optimization is best-effort; durability of *data* is
                    // unaffected (the WAL still holds every update).
                    eprintln!("pgso-server: snapshot after re-optimization failed: {err}");
                }
            }
        }
        // Either way the observed workload is the new baseline: a swap made
        // it the optimized-for mix, and a no-change outcome means the current
        // schema is already optimal for it.
        *self.baseline.lock() = observed;
        self.tracker.rebase(&snapshot);
        event
    }

    /// Ingests a batch of graph updates.
    ///
    /// Durability first: with persistence attached, the whole batch is
    /// appended to the write-ahead log as **one group commit** (a single
    /// write + fsync) before anything else happens — once this returns, the
    /// updates survive a crash. The updates then stage invisibly; when
    /// [`crate::IngestConfig::publish_batch`] or
    /// [`crate::IngestConfig::publish_interval`] is crossed, the staged
    /// batch is applied to a freshly rebuilt staging graph and published by
    /// an epoch swap — readers never block and in-flight queries finish on
    /// the epoch they started with. Publishing keeps the schema, so every
    /// cached plan stays valid ([`Epoch::schema_generation`] is unchanged).
    ///
    /// Finally, when the WAL has grown past
    /// [`crate::PersistConfig::snapshot_wal_bytes`], the log rotates and a new
    /// snapshot generation is written on a background thread, off the
    /// serving (and ingesting) threads.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`], with nothing logged or staged, when
    /// an update does not fit the record format (a label, edge label or
    /// property name over `u16::MAX` bytes; see
    /// [`pgso_graphstore::codec::encodable`]). I/O errors of the WAL append.
    pub fn ingest(&self, updates: Vec<GraphUpdate>) -> io::Result<IngestReport> {
        if !updates.iter().all(codec::encodable) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "update does not fit the record format: a label or property name over \
                 65535 bytes, or over 65535 properties",
            ));
        }
        let mut ing = self.ingest.lock();
        let accepted = updates.len();
        if let Some(persist) = &self.persist {
            let mut inner = persist.inner.lock();
            let mut records: Vec<WalRecord> =
                updates.iter().cloned().map(WalRecord::Update).collect();
            if inner.last_checkpoint.elapsed() >= persist.config.tracker_checkpoint_interval {
                records.push(WalRecord::TrackerCheckpoint(self.tracker.snapshot().to_bytes()));
                inner.last_checkpoint = Instant::now();
            }
            inner.wal.append(&records)?;
        }
        ing.pending.extend(updates);
        let should_publish = ing.pending.len() >= self.config.ingest.publish_batch
            || (!ing.pending.is_empty()
                && ing.last_publish.elapsed() >= self.config.ingest.publish_interval);
        let mut published = false;
        let mut rotated = false;
        if should_publish {
            self.publish_locked(&mut ing);
            published = true;
            if let Some(persist) = &self.persist {
                let wal_full = persist.inner.lock().wal.len() >= persist.config.snapshot_wal_bytes;
                if wal_full {
                    self.rotate_and_snapshot(&ing, true)?;
                    rotated = true;
                }
            }
        }
        let wal_bytes = self.persist.as_ref().map_or(0, |persist| persist.inner.lock().wal.len());
        Ok(IngestReport {
            accepted,
            pending: ing.pending.len(),
            published,
            epoch: self.current_epoch().number,
            wal_bytes,
            rotated,
        })
    }

    /// Publishes any staged updates immediately, regardless of the batch and
    /// interval thresholds. Returns true when a swap happened.
    pub fn flush_ingest(&self) -> bool {
        let mut ing = self.ingest.lock();
        if ing.pending.is_empty() {
            return false;
        }
        self.publish_locked(&mut ing);
        true
    }

    /// Rebuilds the staging graph (base journal + every ingested update,
    /// including the pending batch), swaps it in as the next epoch, and
    /// promotes the pending batch to published. The schema — and therefore
    /// the plan-cache key — is untouched.
    pub(crate) fn publish_locked(&self, ing: &mut IngestState) {
        let mut graph = fresh_backend(self.config.storage_tier);
        apply_updates(&mut graph, &ing.base_journal);
        let published = ing.pending.len();
        self.install_epoch(ing, graph, None, vec![("published", FieldValue::from(published))]);
    }

    /// The one place a new epoch is installed, called with the ingest lock
    /// held and `graph` holding `ing.base_journal`: promotes the pending
    /// batch to published, replays the ingested stream onto `graph`, makes
    /// it serve-ready and swaps it in as epoch `number + 1` — under `schema`
    /// (bumping the schema lineage) after a re-optimization, under the
    /// current schema for a data-only publication. Emits the `epoch.swap`
    /// trace event with `fields` appended.
    fn install_epoch(
        &self,
        ing: &mut IngestState,
        mut graph: Box<dyn GraphBackend>,
        schema: Option<PropertyGraphSchema>,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Arc<Epoch> {
        let pending = std::mem::take(&mut ing.pending);
        ing.ingested.extend(pending);
        apply_updates(&mut graph, &ing.ingested);
        compile_for_serving(graph.as_ref(), self.config.storage_tier, self.telemetry.as_ref());
        ing.last_publish = Instant::now();
        // Read under the ingest lock, which every swap holds: `number` stays
        // strictly monotonic.
        let current = self.current_epoch();
        let schema_changed = schema.is_some();
        let next = Arc::new(Epoch {
            number: current.number + 1,
            schema_generation: current.schema_generation + u64::from(schema_changed),
            schema: schema.unwrap_or_else(|| current.schema.clone()),
            graph,
        });
        *self.epoch.write() = next.clone();
        if let Some(t) = &self.telemetry {
            let (swaps, kind) = if schema_changed {
                (&t.schema_swaps, "schema")
            } else {
                (&t.ingest_swaps, "ingest")
            };
            swaps.inc();
            let mut event = vec![
                ("kind", FieldValue::from(kind)),
                ("epoch", FieldValue::from(next.number)),
                ("schema_generation", FieldValue::from(next.schema_generation)),
            ];
            event.extend(fields);
            t.trace().emit("epoch.swap", 0, event);
        }
        next
    }
}

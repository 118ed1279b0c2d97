//! How the served world changes under a running [`KgServer`]: ingest
//! staging and publication, the drift check, and the re-optimization swap —
//! every new epoch goes through one `install_epoch`.

use crate::engine::{build_graph, Epoch, IngestReport, KgServer, ReoptimizationEvent};
use pgso_core::{reoptimize, OptimizerInput};
use pgso_graphstore::{apply_updates, codec, GraphBackend, GraphUpdate, MemoryGraph, VertexId};
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
    /// The epoch the last data-only swap replaced, and how many entries of
    /// `ingested` its graph holds (it is `base_journal ++ ingested[..n]`).
    /// The next publication extends that graph by the rest when no reader
    /// holds the epoch any more. `None` before the first data-only swap and
    /// after a schema swap, whose predecessor was built under another
    /// schema.
    pub(crate) retired: Option<(Arc<Epoch>, usize)>,
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
    /// A swap declines, leaving the epoch and the ingest state untouched,
    /// when updates have been ingested and the new base would not give every
    /// vertex id the label it has now.
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
            let (graph, base_journal) =
                build_graph(&self.ontology, &re.outcome.schema, &self.instance);
            // Ingested updates name vertices by their ids in the old base. A
            // new base that numbers its vertices differently would give those
            // updates other endpoints (or none), so the swap declines while
            // any exist.
            let ingested = !(ing.ingested.is_empty() && ing.pending.is_empty());
            event.swapped = !ingested || same_vertex_ids(&ing.base_journal, &base_journal);
            if event.swapped {
                ing.base_journal = base_journal;
                // Replaying the whole ingested stream onto the new base also
                // publishes anything still pending (with persistence, those
                // updates are already in the WAL).
                let next = self.install_epoch(
                    &mut ing,
                    graph,
                    0,
                    Some(re.outcome.schema),
                    vec![
                        ("drift", FieldValue::from(drift)),
                        ("changes", FieldValue::from(event.changes)),
                    ],
                );
                self.plan_cache.invalidate_stale(next.schema_generation);
                // A schema change obsoletes the previous snapshot's base
                // journal, so persist the new world immediately (recovery
                // from the old generation would resurrect the pre-swap
                // schema: correct but stale, and it would lose this
                // optimization).
                if self.persist.is_some() {
                    if let Err(err) = self.rotate_and_snapshot(&ing, true) {
                        // Re-optimization is best-effort; durability of
                        // *data* is unaffected (the WAL still holds every
                        // update).
                        eprintln!("pgso-server: snapshot after re-optimization failed: {err}");
                    }
                }
            }
        }
        // Whatever the outcome, the observed workload is the new baseline: a
        // swap made it the optimized-for mix, a no-change outcome means the
        // current schema is already optimal for it, and a declined swap would
        // only decline again on every check.
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
    /// batch is published by an epoch swap — readers never block and
    /// in-flight queries finish on the epoch they started with. Publication
    /// costs O(batch): it extends the graph of the epoch the previous
    /// publication retired by the updates that graph lacks. It rebuilds the
    /// graph from the journal only when there is no such graph — the first
    /// publication, the first after a schema swap — or a reader still holds
    /// that epoch. Publishing keeps the schema, so every cached plan stays
    /// valid ([`Epoch::schema_generation`] is unchanged).
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
    /// [`pgso_graphstore::codec::encodable`]), or when an edge names an
    /// endpoint that does not exist yet: neither a published vertex, nor a
    /// staged one, nor one added earlier in the same batch. I/O errors of
    /// the WAL append.
    pub fn ingest(&self, updates: Vec<GraphUpdate>) -> io::Result<IngestReport> {
        if !updates.iter().all(codec::encodable) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "update does not fit the record format: a label or property name over \
                 65535 bytes, or over 65535 properties",
            ));
        }
        let mut ing = self.ingest.lock();
        if let Some(missing) = self.missing_endpoint(&ing, &updates) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("edge endpoint {} does not exist", missing.0),
            ));
        }
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

    /// The first edge endpoint in `updates` that names no vertex: vertex ids
    /// are dense and sequential, so the vertices that exist when an update
    /// applies are the published ones, the staged ones and those added
    /// earlier in `updates`.
    fn missing_endpoint(&self, ing: &IngestState, updates: &[GraphUpdate]) -> Option<VertexId> {
        let staged =
            ing.pending.iter().filter(|u| matches!(u, GraphUpdate::AddVertex { .. })).count();
        let mut vertices = (self.current_epoch().graph.vertex_count() + staged) as u64;
        updates.iter().find_map(|update| match update {
            GraphUpdate::AddVertex { .. } => {
                vertices += 1;
                None
            }
            GraphUpdate::AddEdge { src, dst, .. } => {
                [*src, *dst].into_iter().find(|endpoint| endpoint.0 >= vertices)
            }
        })
    }

    /// Publishes the pending batch as the next epoch under the current
    /// schema, so the plan-cache key is untouched. The graph is the retired
    /// epoch's when no reader holds that epoch any more — it then lacks
    /// only the previous batch and this one — and otherwise a fresh graph
    /// replaying the base journal.
    pub(crate) fn publish_locked(&self, ing: &mut IngestState) {
        let reusable = ing.retired.take().and_then(|(epoch, held)| {
            // Only succeeds when no reader can reach the graph any more.
            Arc::try_unwrap(epoch).ok().map(|epoch| (epoch.graph, held))
        });
        let (graph, held, how) = match reusable {
            Some((graph, held)) => {
                graph.reset_stats();
                (graph, held, "reused")
            }
            None => {
                let mut graph = MemoryGraph::new();
                apply_updates(&mut graph, &ing.base_journal);
                (graph, 0, "rebuilt")
            }
        };
        let fields = vec![
            ("published", FieldValue::from(ing.pending.len())),
            ("graph", FieldValue::from(how)),
        ];
        self.install_epoch(ing, graph, held, None, fields);
    }

    /// The one place a new epoch is installed, called with the ingest lock
    /// held and `graph` holding `ing.base_journal ++ ing.ingested[..held]`:
    /// promotes the pending batch to published, applies the rest of the
    /// ingested stream to `graph` and swaps it in as
    /// epoch `number + 1` — under `schema` (bumping the schema lineage)
    /// after a re-optimization, under the current schema for a data-only
    /// publication, which also keeps the epoch it replaces as
    /// `ing.retired`. Emits the `epoch.swap` trace event with `fields`
    /// appended.
    fn install_epoch(
        &self,
        ing: &mut IngestState,
        mut graph: MemoryGraph,
        held: usize,
        schema: Option<PropertyGraphSchema>,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Arc<Epoch> {
        let published_before = ing.ingested.len();
        let pending = std::mem::take(&mut ing.pending);
        ing.ingested.extend(pending);
        apply_updates(&mut graph, &ing.ingested[held..]);
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
        ing.retired = (!schema_changed).then_some((current, published_before));
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

/// Whether two base journals hold the same vertex count and give every
/// vertex id the same label: the condition under which updates ingested
/// against one base mean the same vertices on the other.
fn same_vertex_ids(old: &[GraphUpdate], new: &[GraphUpdate]) -> bool {
    fn labels(journal: &[GraphUpdate]) -> impl Iterator<Item = &str> {
        journal.iter().filter_map(|update| match update {
            GraphUpdate::AddVertex { label, .. } => Some(label.as_str()),
            GraphUpdate::AddEdge { .. } => None,
        })
    }
    labels(old).eq(labels(new))
}

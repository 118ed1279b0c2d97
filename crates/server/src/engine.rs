//! The concurrent serving engine.
//!
//! [`KgServer`] owns the schema-independent instance data and serves DIR
//! pattern queries from any number of threads. The mutable world is a single
//! [`Epoch`] — optimized schema plus the backend loaded under it — held in an
//! `Arc` behind an `RwLock`. Serving threads clone the `Arc` (one brief read
//! lock), so a schema swap is one pointer store under the write lock and
//! in-flight queries finish on the epoch they started with; nothing is ever
//! mutated in place.
//!
//! The query surface is a **prepare/execute contract**:
//!
//! * [`KgServer::prepare_text`] registers a statement — `$name` parameters
//!   included — once, returning a [`crate::PreparedStatement`] handle carrying
//!   the statement's typed parameter signature;
//! * [`KgServer::execute`] binds a [`crate::Params`] set **by name** against that
//!   signature (a [`crate::BindError`] on anything missing, mismatched or
//!   undeclared, or on a handle another server issued) and runs the cached
//!   plan;
//! * [`KgServer::serve_text`] is the ad-hoc path, implemented as parse →
//!   auto-parameterize → execute: literal constants canonicalize into
//!   generated parameters, so value-varying requests of one shape share a
//!   single cached plan without any literal-splicing machinery. An
//!   `EXPLAIN` / `PROFILE` prefix returns the typed [`crate::QueryPlan`] as tagged
//!   rows ([`crate::QueryPlan::from_rows`] rebuilds it) — in process exactly as
//!   over the wire.
//!
//! Typed [`pgso_query::Query`] / [`pgso_query::Statement`] values reach the server
//! through their `Display` text, which re-parses to an equal statement.
//!
//! Behind that surface the **plan cache** maps statement fingerprints to
//! DIR→OPT rewrites of the *parameterized* statement, tagged with the schema
//! generation they were rewritten against (see [`crate::cache::PlanCache`]).
//!
//! Every served query is recorded by the [`WorkloadTracker`]; every
//! `check_interval` queries one thread (never more — a CAS guard) compares
//! the observed mix to the frequencies the current schema was optimized for
//! and, past `drift_threshold`, re-runs the paper's PGSG optimizer, reloads
//! the graph under the new schema off the read path, and swaps the epoch.
//!
//! # Ingest and durability
//!
//! [`KgServer::ingest`] accepts graph mutations while serving: each batch is
//! appended to a write-ahead log as one group commit (durable before the
//! call returns, when [`KgServer::new_persistent`] attached a
//! [`pgso_persist::PersistConfig`]), staged invisibly, and published by an
//! epoch swap at the [`IngestConfig`] thresholds — readers never block, and
//! because a data-only swap keeps [`Epoch::schema_generation`], every cached
//! plan stays warm. When the WAL outgrows its budget the log rotates and a
//! fresh snapshot generation (schema + graph journal + tracker counters +
//! baseline frequencies) is written off the serving threads.
//! [`KgServer::recover`] rebuilds a killed server from the newest valid
//! snapshot plus the WAL tail: bit-identical answers, learned frequencies
//! intact.

use crate::cache::{CacheStats, PlanCache};
use crate::telemetry::ServerTelemetry;
use crate::tier::{fresh_backend, StorageTier};
use crate::tracker::{
    frequencies_from_bytes, frequencies_to_bytes, WorkloadSnapshot, WorkloadTracker,
};
use parking_lot::{Mutex, RwLock};
use pgso_core::{reoptimize, OptimizerConfig, OptimizerInput};
use pgso_datagen::{load_into, InstanceKg};
use pgso_graphstore::{apply_updates, AccessStats, GraphBackend, GraphUpdate};
use pgso_ontology::{AccessFrequencies, DataStatistics, Ontology};
use pgso_persist::{
    latest_generation, prune_generations, snapshot_path, wal_path, write_snapshot, JournaledGraph,
    PersistConfig, Snapshot, WalRecord, WalWriter,
};
use pgso_pgschema::PropertyGraphSchema;
use pgso_query::{
    emit_exec_trace, execute_statement_with, fingerprint_statement, parse_named, rewrite_statement,
    rewrite_statement_traced, strip_directive, AppliedRule, BindError, ExecConfig, ParamSignature,
    Params, ParseError, PlanActuals, QueryMode, QueryPlan, QueryResult, Statement,
};
use pgso_telemetry::{
    current_trace_id, FieldValue, MetricsRegistry, MetricsSnapshot, StageTimings, TraceEvent,
    WindowRates, WINDOW_SECS,
};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ==== engine ====

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Optimizer configuration used for the initial schema and every
    /// re-optimization. A `space_limit` makes the schema workload-sensitive;
    /// without one PGSG degenerates to the unconstrained fixpoint and
    /// re-optimization can never change the schema.
    pub optimizer: OptimizerConfig,
    /// Normalized L1 drift (in `[0, 1]`) between the observed and the
    /// optimized-for concept mix beyond which a re-optimization is attempted.
    pub drift_threshold: f64,
    /// Number of served queries between drift checks.
    pub check_interval: u64,
    /// Capacity of the DIR→OPT plan cache.
    pub plan_cache_capacity: usize,
    /// If false, drift is never checked automatically; re-optimization only
    /// happens through [`KgServer::try_reoptimize`].
    pub auto_reoptimize: bool,
    /// Number of storage shards per epoch. `1` serves from a single
    /// backend of the configured [`ServerConfig::storage_tier`]; larger
    /// values hash-partition every epoch's instance graph across that many
    /// tier-layout shards ([`pgso_graphstore::ShardedGraph`]), and the
    /// executor may fan root expansion out across them (see
    /// [`ServerConfig::exec`]). Epoch swaps rebuild the *sharded* graph off
    /// the read path, exactly like the monolithic case.
    pub shard_count: usize,
    /// Physical storage layout every epoch (initial build, ingest
    /// publications, re-optimization swaps, recovery) is built on. The CSR
    /// tier compiles its read index at publication
    /// ([`crate::tier::StorageTier::Csr`]), recorded as `csr.compile`.
    pub storage_tier: StorageTier,
    /// Executor tuning (parallel fan-out gates) applied to every served
    /// statement.
    pub exec: ExecConfig,
    /// Ingest staging policy: when pending updates are published into a new
    /// serving epoch.
    pub ingest: IngestConfig,
    /// Master switch for the observability layer. On (the default), the
    /// server owns a [`pgso_telemetry::MetricsRegistry`] + trace ring and
    /// every serve/ingest/snapshot path records into it; off, the serve hot
    /// path performs no clock reads or metric updates at all —
    /// [`KgServer::metrics_snapshot`] still works but reports only the
    /// engine-state gauges.
    pub telemetry_enabled: bool,
    /// Serves slower than this are counted in `server.slow_queries` and
    /// logged to the trace ring as a structured `slow_query` event carrying
    /// the statement fingerprint, a hash of the bound parameters, and the
    /// per-stage timings. `None` (the default) disables the slow-query log.
    pub slow_query_log_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            optimizer: OptimizerConfig::default(),
            drift_threshold: 0.25,
            check_interval: 256,
            plan_cache_capacity: 1024,
            auto_reoptimize: true,
            shard_count: 1,
            storage_tier: StorageTier::Memory,
            exec: ExecConfig::default(),
            ingest: IngestConfig::default(),
            telemetry_enabled: true,
            slow_query_log_threshold: None,
        }
    }
}

/// Where a server's telemetry instruments live.
///
/// The default, [`TelemetrySink::Private`], gives the server its own
/// [`MetricsRegistry`] — what [`KgServer::new`], [`KgServer::new_persistent`]
/// and [`KgServer::recover`] use. [`TelemetrySink::Shared`] resolves the instruments
/// inside an **existing** registry under a per-server name prefix, which is
/// how a multi-tenant host (`pgso-tenant`) shares one exposition across
/// tenants without metric-name collisions: tenant `alpha`'s serve latency is
/// `tenant.alpha.query.latency`, its prepared series
/// `tenant.alpha.prepared.<id>.latency`, its state mirrors
/// `tenant.alpha.plan_cache.*` / `tenant.alpha.epoch.*` /
/// `tenant.alpha.ingest.*`. The trace ring and the rolling health windows
/// are per-server in either case.
#[derive(Debug, Clone, Default)]
pub enum TelemetrySink {
    /// A fresh registry owned by this server (the single-server default).
    #[default]
    Private,
    /// Resolve instruments in `registry`, each name prefixed with `prefix`.
    Shared {
        /// The registry to register into (typically host-owned).
        registry: Arc<MetricsRegistry>,
        /// Prefix for every metric name, e.g. `tenant.alpha.` — must be
        /// unique per server sharing the registry.
        prefix: String,
    },
}

impl TelemetrySink {
    fn build(&self) -> Arc<ServerTelemetry> {
        let (registry, prefix) = match self {
            TelemetrySink::Private => (Arc::new(MetricsRegistry::new()), String::new()),
            TelemetrySink::Shared { registry, prefix } => (registry.clone(), prefix.clone()),
        };
        Arc::new(ServerTelemetry::new(registry, prefix))
    }
}

/// When staged (already durable, not yet visible) updates are published by
/// an epoch swap. Readers never block on ingest: updates accumulate in a
/// staging journal and become visible atomically when a batch or time
/// threshold is crossed.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Pending updates that trigger a publishing epoch swap.
    pub publish_batch: usize,
    /// Maximum time pending updates may stay invisible; checked on the next
    /// [`KgServer::ingest`] call.
    pub publish_interval: Duration,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self { publish_batch: 256, publish_interval: Duration::from_millis(200) }
    }
}

/// One immutable generation of the served world: the optimized schema and the
/// backend loaded under it.
pub struct Epoch {
    /// Monotonic generation number; bumped on every swap (schema
    /// re-optimizations *and* ingest publications).
    pub number: u64,
    /// Schema lineage counter: bumped only when a swap changes the schema.
    /// The plan cache is keyed on this, so ingest swaps — same schema, more
    /// data — keep every cached DIR→OPT rewrite valid.
    pub schema_generation: u64,
    /// The schema this generation serves.
    pub schema: PropertyGraphSchema,
    // `GraphBackend` has `Send + Sync` supertraits, so the bare trait object
    // is already shareable across serving threads.
    pub(crate) graph: Box<dyn GraphBackend>,
}

impl Epoch {
    /// The backend, usable with [`pgso_query::execute`].
    pub fn graph(&self) -> &dyn GraphBackend {
        self.graph.as_ref()
    }

    /// Access counters of this generation's backend.
    pub fn stats(&self) -> AccessStats {
        self.graph.stats()
    }

    /// Number of storage shards backing this generation.
    pub fn shard_count(&self) -> usize {
        self.graph.shard_count()
    }

    /// Per-shard access counters (single-element for a monolithic epoch).
    pub fn shard_stats(&self) -> Vec<AccessStats> {
        self.graph.shard_stats()
    }
}

impl std::fmt::Debug for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoch")
            .field("number", &self.number)
            .field("schema", &self.schema.name)
            .field("vertices", &self.graph.vertex_count())
            .finish()
    }
}

/// Outcome of one drift check that crossed the threshold.
#[derive(Debug, Clone)]
pub struct ReoptimizationEvent {
    /// Epoch that was being served when the check ran.
    pub from_epoch: u64,
    /// Drift value that triggered the attempt.
    pub drift: f64,
    /// Number of structural schema changes the re-optimization produced.
    pub changes: usize,
    /// True if a new epoch was swapped in (false when the re-optimized
    /// schema came out identical).
    pub swapped: bool,
}

/// Point-in-time liveness summary: engine progress counters plus rolling
/// request/error rates ([`pgso_telemetry::RollingWindows`]), the payload of
/// the wire plane's health scrape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSummary {
    /// Queries served since startup.
    pub served: u64,
    /// Serving epoch number.
    pub epoch: u64,
    /// Schema lineage of the serving epoch.
    pub schema_generation: u64,
    /// Current workload drift against the optimized-for baseline.
    pub drift: f64,
    /// Request/error totals over the trailing 1 s / 10 s / 60 s windows
    /// ([`pgso_telemetry::WINDOW_SECS`] order). All-zero when telemetry is
    /// disabled.
    pub windows: [WindowRates; 3],
    /// Trace-ring events overwritten before being read.
    pub trace_dropped: u64,
}

/// Outcome of one [`KgServer::ingest`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Updates accepted (and, with persistence, durably logged) by this call.
    pub accepted: usize,
    /// Updates still staged after the call (invisible to readers).
    pub pending: usize,
    /// True when this call published the staged updates via an epoch swap.
    pub published: bool,
    /// Serving epoch number after the call.
    pub epoch: u64,
    /// WAL size in bytes after the call (0 without persistence).
    pub wal_bytes: u64,
    /// True when this call rotated the WAL and started a snapshot.
    pub rotated: bool,
}

/// Thread-safe knowledge-graph serving engine. See the module docs.
pub struct KgServer {
    pub(crate) ontology: Ontology,
    pub(crate) statistics: DataStatistics,
    pub(crate) instance: InstanceKg,
    pub(crate) config: ServerConfig,
    pub(crate) epoch: RwLock<Arc<Epoch>>,
    pub(crate) plan_cache: PlanCache,
    pub(crate) prepared: RwLock<Vec<PreparedEntry>>,
    pub(crate) tracker: WorkloadTracker,
    /// Frequencies the current schema was optimized for.
    pub(crate) baseline: Mutex<AccessFrequencies>,
    pub(crate) served: AtomicU64,
    pub(crate) reoptimizing: AtomicBool,
    pub(crate) events: Mutex<Vec<ReoptimizationEvent>>,
    pub(crate) ingest: Mutex<IngestState>,
    pub(crate) persist: Option<PersistHandle>,
    /// `Some` when [`ServerConfig::telemetry_enabled`]; shared with every
    /// WAL writer the server opens and with background snapshot threads.
    pub(crate) telemetry: Option<Arc<ServerTelemetry>>,
}

/// Everything a fresh build and a recovery hand to the one assembly
/// function: the first epoch and the learned state that goes with it.
pub(crate) struct Start {
    pub(crate) epoch: Epoch,
    pub(crate) tracker: WorkloadTracker,
    /// Frequencies `epoch.schema` was optimized for.
    pub(crate) baseline: AccessFrequencies,
    pub(crate) base_journal: Vec<GraphUpdate>,
    pub(crate) ingested: Vec<GraphUpdate>,
    /// WAL / snapshot generation a persistent server opens.
    pub(crate) generation: u64,
    /// Persisted prepared-statement texts, in registration order.
    pub(crate) prepared: Vec<String>,
}

/// The one way to build a [`KgServer`]: the inputs every server needs, then
/// [`config`](Self::config), [`persist`](Self::persist) and
/// [`telemetry_sink`](Self::telemetry_sink) as wanted, closed by
/// [`build`](Self::build) (a fresh server) or [`recover`](Self::recover) (a
/// killed one). See [`KgServer::builder`].
#[derive(Debug)]
pub struct KgServerBuilder {
    ontology: Ontology,
    statistics: DataStatistics,
    instance: InstanceKg,
    config: ServerConfig,
    persist: Option<PersistConfig>,
    sink: TelemetrySink,
}

impl KgServerBuilder {
    /// Serving configuration (default: [`ServerConfig::default`]).
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches durability: a write-ahead log for [`KgServer::ingest`] and
    /// snapshot generations under `persist.dir`. Required by
    /// [`recover`](Self::recover).
    pub fn persist(mut self, persist: PersistConfig) -> Self {
        self.persist = Some(persist);
        self
    }

    /// Where the server's instruments live (default:
    /// [`TelemetrySink::Private`]). A multi-tenant host passes
    /// [`TelemetrySink::Shared`] so they land prefixed in its registry.
    pub fn telemetry_sink(mut self, sink: TelemetrySink) -> Self {
        self.sink = sink;
        self
    }

    /// Builds a fresh server: optimizes the initial schema for
    /// `initial_frequencies` with PGSG, loads the instance under it, and
    /// starts serving at epoch 0. With [`persist`](Self::persist), the
    /// initial epoch is written as snapshot generation 0 and a write-ahead
    /// log is opened.
    ///
    /// # Errors
    /// Only with persistence attached. [`io::ErrorKind::AlreadyExists`]
    /// when the directory already holds snapshot or WAL generations — a
    /// fresh server's snapshot would *not* subsume them, so proceeding (and
    /// later pruning) would destroy previously persisted state. Recover
    /// from the directory, or point the server at an empty one.
    pub fn build(self, initial_frequencies: AccessFrequencies) -> io::Result<KgServer> {
        if let Some(persist) = &self.persist {
            claim_fresh_dir(&persist.dir)?;
        }
        let telemetry = self.telemetry();
        let input = OptimizerInput::new(&self.ontology, &self.statistics, &initial_frequencies);
        let schema = pgso_core::optimize_pgsg(input, &self.config.optimizer).chosen.schema;
        let (graph, base_journal) = build_graph(
            &self.ontology,
            &schema,
            &self.instance,
            self.config.storage_tier,
            self.config.shard_count,
        );
        compile_for_serving(graph.as_ref(), self.config.storage_tier, telemetry.as_ref());
        let start = Start {
            epoch: Epoch { number: 0, schema_generation: 0, schema, graph },
            tracker: WorkloadTracker::new(&self.ontology),
            baseline: initial_frequencies,
            base_journal,
            ingested: Vec::new(),
            generation: 0,
            prepared: Vec::new(),
        };
        self.assemble(telemetry, start)
    }

    /// Resurrects a persistent server from its [`persist`](Self::persist)
    /// directory: loads the newest valid snapshot, replays the WAL tail
    /// (stopping cleanly at a torn record), restores the learned
    /// workload-tracker counters, baseline frequencies and prepared
    /// statements, collapses the replayed state into a fresh snapshot
    /// generation and resumes serving — same schema, same global vertex
    /// ids, bit-identical query answers.
    ///
    /// The configured `shard_count` and `storage_tier` may differ from the
    /// killed server's: the graph journal replays into any storage layout
    /// with identical global ids.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] without a [`persist`](Self::persist)
    /// directory; [`io::ErrorKind::NotFound`] when it holds no valid
    /// snapshot; [`io::ErrorKind::InvalidData`] when the tracker or
    /// baseline blobs do not match the ontology.
    pub fn recover(self) -> io::Result<KgServer> {
        let Some(persist) = &self.persist else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recovery needs a directory: call KgServerBuilder::persist first",
            ));
        };
        let telemetry = self.telemetry();
        let start = recover_start(&self.ontology, &self.config, &persist.dir, telemetry.as_ref())?;
        self.assemble(telemetry, start)
    }

    fn telemetry(&self) -> Option<Arc<ServerTelemetry>> {
        self.config.telemetry_enabled.then(|| self.sink.build())
    }

    /// The single place a [`KgServer`] comes into being: opens the WAL of
    /// `start.generation` (persistent servers), puts the server together,
    /// re-registers the persisted prepared statements and anchors the
    /// generation with a snapshot.
    fn assemble(
        self,
        telemetry: Option<Arc<ServerTelemetry>>,
        start: Start,
    ) -> io::Result<KgServer> {
        let persist = self
            .persist
            .map(|config| PersistHandle::open(config, start.generation, telemetry.as_ref()))
            .transpose()?;
        let server = KgServer {
            epoch: RwLock::new(Arc::new(start.epoch)),
            plan_cache: PlanCache::new(self.config.plan_cache_capacity),
            prepared: RwLock::new(Vec::new()),
            tracker: start.tracker,
            baseline: Mutex::new(start.baseline),
            served: AtomicU64::new(0),
            reoptimizing: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            ingest: Mutex::new(IngestState {
                base_journal: start.base_journal,
                ingested: start.ingested,
                pending: Vec::new(),
                last_publish: Instant::now(),
            }),
            persist,
            telemetry,
            ontology: self.ontology,
            statistics: self.statistics,
            instance: self.instance,
            config: self.config,
        };
        // Restore the prepared-statement registry in registration order, so
        // ids and parameter signatures match the killed server's.
        for text in start.prepared {
            let stmt = parse_named(&text, "prepared").map_err(|err| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("persisted prepared statement does not parse: {err} in `{text}`"),
                )
            })?;
            // It parsed from this very text, so it round-trips by the
            // grammar's Display→parse contract: persistable as-is.
            server.register_prepared(stmt, text, true);
        }
        if server.persist.is_some() {
            // The anchoring snapshot for this generation's WAL, written
            // synchronously: nothing is durable until it exists. After a
            // recovery it collapses the replayed tail and carries the
            // restored registry, so the old WAL's registration records are
            // subsumed before pruning.
            let ing = server.ingest.lock();
            server.write_snapshot_for_current_generation(&ing)?;
        }
        Ok(server)
    }
}

impl KgServer {
    /// Starts building a server over `ontology`, its `statistics` and the
    /// schema-independent `instance` data — see [`KgServerBuilder`].
    ///
    /// ```text
    /// let server = KgServer::builder(ontology, statistics, instance)
    ///     .config(ServerConfig { shard_count: 4, ..ServerConfig::default() })
    ///     .persist(PersistConfig::new(dir))
    ///     .build(initial_frequencies)?;   // or .recover()? after a kill
    /// ```
    pub fn builder(
        ontology: Ontology,
        statistics: DataStatistics,
        instance: InstanceKg,
    ) -> KgServerBuilder {
        KgServerBuilder {
            ontology,
            statistics,
            instance,
            config: ServerConfig::default(),
            persist: None,
            sink: TelemetrySink::Private,
        }
    }

    /// An in-memory server under `config`: shorthand for
    /// [`builder`](Self::builder) → [`KgServerBuilder::build`].
    pub fn new(
        ontology: Ontology,
        statistics: DataStatistics,
        instance: InstanceKg,
        initial_frequencies: AccessFrequencies,
        config: ServerConfig,
    ) -> Self {
        Self::builder(ontology, statistics, instance)
            .config(config)
            .build(initial_frequencies)
            .expect("in-memory construction cannot fail")
    }

    /// A durable server: shorthand for [`builder`](Self::builder) →
    /// [`KgServerBuilder::persist`] → [`KgServerBuilder::build`] (whose
    /// errors it returns). Use [`KgServer::recover`] on restart.
    pub fn new_persistent(
        ontology: Ontology,
        statistics: DataStatistics,
        instance: InstanceKg,
        initial_frequencies: AccessFrequencies,
        config: ServerConfig,
        persist: PersistConfig,
    ) -> io::Result<Self> {
        Self::builder(ontology, statistics, instance)
            .config(config)
            .persist(persist)
            .build(initial_frequencies)
    }

    /// Resurrects a killed persistent server: shorthand for
    /// [`builder`](Self::builder) → [`KgServerBuilder::persist`] →
    /// [`KgServerBuilder::recover`] (whose errors it returns).
    pub fn recover(
        ontology: Ontology,
        statistics: DataStatistics,
        instance: InstanceKg,
        config: ServerConfig,
        persist: PersistConfig,
    ) -> io::Result<Self> {
        Self::builder(ontology, statistics, instance).config(config).persist(persist).recover()
    }

    /// The domain ontology this server answers queries over.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Snapshot of the currently served epoch (schema + graph). The snapshot
    /// stays valid — and its graph loaded — even across a concurrent swap.
    pub fn current_epoch(&self) -> Arc<Epoch> {
        self.epoch.read().clone()
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Queries served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// The online workload tracker.
    pub fn tracker(&self) -> &WorkloadTracker {
        &self.tracker
    }

    /// Current drift between the observed workload and the frequencies the
    /// served schema was optimized for.
    pub fn drift(&self) -> f64 {
        self.tracker.drift(&self.baseline.lock())
    }

    /// Re-optimization events so far (threshold crossings, whether or not
    /// they swapped the schema).
    pub fn reoptimization_events(&self) -> Vec<ReoptimizationEvent> {
        self.events.lock().clone()
    }

    /// The live telemetry handles, or `None` when
    /// [`ServerConfig::telemetry_enabled`] is off.
    pub fn telemetry(&self) -> Option<&Arc<ServerTelemetry>> {
        self.telemetry.as_ref()
    }

    /// The most recent structured trace events, oldest first (empty when
    /// telemetry is off).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.telemetry.as_ref().map(|t| t.trace().recent()).unwrap_or_default()
    }

    /// A point-in-time snapshot of every server metric: latency and stage
    /// histograms, WAL/snapshot/recovery instruments, and gauges mirroring
    /// engine state (plan cache, epoch, drift, ingest backlog) refreshed at
    /// this call.
    ///
    /// With telemetry disabled the snapshot still carries the state gauges —
    /// only the hot-path series (histograms, counters) are absent.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.telemetry {
            Some(t) => {
                self.mirror_gauges(t.registry());
                t.registry().snapshot()
            }
            None => {
                let registry = MetricsRegistry::new();
                self.mirror_gauges(&registry);
                registry.snapshot()
            }
        }
    }

    /// [`KgServer::metrics_snapshot`] rendered in Prometheus-style text
    /// exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_text()
    }

    /// Refreshes this server's state-mirror gauges in an external registry.
    ///
    /// Multi-tenant hosts call this to fold each tenant's `plan_cache.*` /
    /// `epoch.*` / `ingest.*` gauges into the shared host registry before
    /// snapshotting it — including for tenants running with telemetry
    /// disabled, whose own [`KgServer::metrics_snapshot`] would mirror into
    /// a throwaway registry. Gauge names carry the server's metric prefix,
    /// so tenants do not collide.
    pub fn mirror_gauges_into(&self, registry: &MetricsRegistry) {
        self.mirror_gauges(registry);
    }

    /// Refreshes the state-mirror gauges in `registry`. These are read-time
    /// mirrors of engine counters that already exist elsewhere — writing
    /// them here keeps the serve hot path free of gauge stores.
    fn mirror_gauges(&self, registry: &MetricsRegistry) {
        // Mirrors share the hot-path series' prefix, so a tenant's
        // `plan_cache.*` / `epoch.*` / `ingest.*` gauges sit next to its
        // `query.latency` in the shared exposition instead of colliding
        // with a sibling tenant's.
        let prefix = self.telemetry.as_deref().map(|t| t.metric_prefix()).unwrap_or("");
        let name = |suffix: &str| format!("{prefix}{suffix}");
        let cache = self.plan_cache.stats();
        registry.gauge(&name("plan_cache.hits")).set(cache.hits as f64);
        registry.gauge(&name("plan_cache.misses")).set(cache.misses as f64);
        registry.gauge(&name("plan_cache.invalidations")).set(cache.invalidations as f64);
        registry.gauge(&name("plan_cache.evictions")).set(cache.evictions as f64);
        registry.gauge(&name("plan_cache.entries")).set(cache.entries as f64);
        registry.gauge(&name("plan_cache.hit_ratio")).set(cache.hit_ratio());
        registry.gauge(&name("server.served")).set(self.served() as f64);
        registry.gauge(&name("workload.drift")).set(self.drift());
        let epoch = self.current_epoch();
        registry.gauge(&name("epoch.number")).set(epoch.number as f64);
        registry.gauge(&name("epoch.schema_generation")).set(epoch.schema_generation as f64);
        registry.gauge(&name("epoch.shard_count")).set(epoch.shard_count() as f64);
        if self.config.storage_tier == StorageTier::Csr {
            // Cheap on an already-published epoch: the CSR index was
            // compiled at publication, so this only sums footprints.
            registry.gauge(&name("csr.resident_bytes")).set(epoch.graph.resident_bytes() as f64);
        }
        {
            let ing = self.ingest.lock();
            registry.gauge(&name("ingest.pending")).set(ing.pending.len() as f64);
            registry.gauge(&name("ingest.published")).set(ing.ingested.len() as f64);
        }
        registry.gauge(&name("prepared.count")).set(self.prepared.read().len() as f64);
        if let Some(t) = &self.telemetry {
            registry.gauge(&name("trace.dropped")).set(t.trace().dropped() as f64);
        }
    }

    /// Liveness summary: progress counters plus the rolling 1 s / 10 s /
    /// 60 s request and error rates. With telemetry disabled the windows are
    /// all-zero (nothing records into them) but the engine counters are
    /// still live.
    pub fn health_summary(&self) -> HealthSummary {
        let epoch = self.current_epoch();
        let (windows, trace_dropped) = match &self.telemetry {
            Some(t) => (t.windows.summary(), t.trace().dropped()),
            None => (
                WINDOW_SECS.map(|window_secs| WindowRates { window_secs, ..Default::default() }),
                0,
            ),
        };
        HealthSummary {
            served: self.served(),
            epoch: epoch.number,
            schema_generation: epoch.schema_generation,
            drift: self.drift(),
            windows,
            trace_dropped,
        }
    }

    /// Number of updates ingested but not yet visible to readers.
    pub fn pending_updates(&self) -> usize {
        self.ingest.lock().pending.len()
    }

    /// Number of ingested updates visible in the serving epoch.
    pub fn published_updates(&self) -> usize {
        self.ingest.lock().ingested.len()
    }

    /// True when this server was built with persistence attached.
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }
}

/// Loads `instance` under `schema` into the configured storage layout
/// (see [`crate::tier::fresh_backend`]), capturing the construction journal
/// through a [`pgso_persist::JournaledGraph`] — the journal is what
/// snapshots persist and what staging rebuilds replay.
pub(crate) fn build_graph(
    ontology: &Ontology,
    schema: &PropertyGraphSchema,
    instance: &InstanceKg,
    tier: StorageTier,
    shard_count: usize,
) -> (Box<dyn GraphBackend>, Vec<GraphUpdate>) {
    let mut journaled = JournaledGraph::new(fresh_backend(tier, shard_count));
    load_into(&mut journaled, ontology, schema, instance);
    journaled.into_parts()
}

/// Makes a freshly built epoch graph serve-ready off the read path: on the
/// CSR tier this compiles the adjacency segments
/// ([`GraphBackend::ensure_ready`]) and records the cost as `csr.compile` /
/// `csr.compiles`, so the first query of the new epoch never pays it. A
/// no-op on the other tiers.
pub(crate) fn compile_for_serving(
    graph: &dyn GraphBackend,
    tier: StorageTier,
    telemetry: Option<&Arc<ServerTelemetry>>,
) {
    if tier != StorageTier::Csr {
        return;
    }
    let started = Instant::now();
    graph.ensure_ready();
    let took = started.elapsed();
    if let Some(t) = telemetry {
        t.csr_compile.record_duration(took);
        t.csr_compiles.inc();
        t.trace().emit_with_duration(
            "csr.compile",
            0,
            took,
            vec![
                ("vertices", FieldValue::from(graph.vertex_count())),
                ("edges", FieldValue::from(graph.edge_count())),
            ],
        );
    }
}

impl std::fmt::Debug for KgServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KgServer")
            .field("ontology", &self.ontology.name())
            .field("epoch", &self.current_epoch().number)
            .field("served", &self.served())
            .field("cache", &self.plan_cache.stats())
            .field("persistent", &self.persist.is_some())
            .finish()
    }
}

// ==== serve ====

/// Identity of a registered prepared statement: its dense registration
/// index. Stable across epoch swaps, and — on a persistent server — across
/// [`KgServer::recover`], which re-registers the persisted statements in
/// their original order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreparedId(usize);

/// Handle returned by [`KgServer::prepare_text`]: the statement's
/// registration id plus its typed parameter signature
/// ([`pgso_query::ParamSignature`]).
///
/// The handle is the execution contract. [`KgServer::execute`] binds a
/// [`Params`] set against the signature **by name** — a missing, mismatched
/// or undeclared parameter is a [`BindError`], never a silently mis-bound
/// value. It is good on the server that issued it and on no other: the
/// signature `Arc` it shares with its registry entry is its proof of origin.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    id: PreparedId,
    signature: Arc<ParamSignature>,
}

impl PreparedStatement {
    /// The registration id.
    pub fn id(&self) -> PreparedId {
        self.id
    }

    /// The statement's declared parameters.
    pub fn signature(&self) -> &ParamSignature {
        &self.signature
    }
}

pub(crate) struct PreparedEntry {
    fingerprint: u64,
    stmt: Arc<Statement>,
    signature: Arc<ParamSignature>,
    /// Text form persisted in snapshots / the WAL so the registry survives
    /// recovery (statements round-trip through the parser).
    pub(crate) text: String,
    /// True when `text` re-parses to a structurally equal statement. The
    /// literal grammar is total over [`pgso_graphstore::PropertyValue`], so
    /// this only fails for exotica (`NaN` literals, which are never equal to
    /// themselves, or identifiers outside the grammar); such entries are
    /// excluded from persistence rather than bricking recovery.
    pub(crate) persistable: bool,
}

/// Renders a [`QueryPlan`] as a [`QueryResult`] so EXPLAIN/PROFILE flow
/// through every result surface unchanged: the plan travels as tagged rows
/// (see [`QueryPlan::to_rows`]) that the wire streams like any result and
/// clients rebuild with [`QueryPlan::from_rows`]. PROFILE copies its actuals
/// into the result's own accounting fields too.
fn plan_query_result(plan: &QueryPlan) -> QueryResult {
    let rows = plan.to_rows();
    let actuals = plan.actuals.as_ref();
    QueryResult {
        matches: rows.len(),
        rows,
        elapsed: actuals.map(|a| Duration::from_nanos(a.elapsed_ns)).unwrap_or_default(),
        stats: actuals
            .map(|a| AccessStats {
                vertex_reads: a.vertex_reads,
                edge_traversals: a.edge_traversals,
                page_reads: a.page_reads,
                page_hits: a.page_hits,
            })
            .unwrap_or_default(),
        predicate_checks: actuals.map(|a| a.predicate_checks).unwrap_or(0),
        stage_timings: StageTimings::default(),
    }
}

impl KgServer {
    /// Registers a parsed statement and returns its handle — the step behind
    /// [`KgServer::prepare_text`].
    ///
    /// On a persistent server the registration is also appended to the
    /// write-ahead log (best effort — a logging failure is reported on
    /// stderr but does not fail the prepare), so [`KgServer::recover`]
    /// restores the registry with identical ids and signatures. A statement
    /// whose text form does not re-parse to an equal statement (e.g. a
    /// `NaN` literal, which is never equal to itself) is registered but not
    /// persisted — it is reported on stderr and will be missing after
    /// recovery, shifting the ids of later registrations.
    pub(crate) fn prepare_statement(&self, stmt: Statement) -> PreparedStatement {
        let Some(persist) = &self.persist else {
            // In-memory servers never persist the registry, so the text
            // rendering and round-trip check are skipped entirely.
            return self.register_prepared(stmt, String::new(), false);
        };
        // Rendering and the round-trip re-parse depend only on the immutable
        // statement, so they run before the lock — only the registry push +
        // WAL append need to be one unit.
        let text = stmt.to_string();
        let persistable =
            parse_named(&text, "prepared").map(|p| p.structurally_eq(&stmt)).unwrap_or(false);
        if !persistable {
            eprintln!(
                "pgso-server: prepared statement does not round-trip through the text \
                 grammar and will not survive recovery: {text}"
            );
        }
        // The WAL lock is held across the registry insertion so the log
        // order matches the dense registration ids, and so a concurrent
        // snapshot rotation (which assembles its image under this lock)
        // sees the registration and the WAL record as one unit — never a
        // record that a freshly rotated snapshot already subsumes, never a
        // registration the image missed and the pruned WAL lost.
        let mut inner = persist.inner.lock();
        let prepared = self.register_prepared(stmt, text.clone(), persistable);
        if persistable {
            let append_started = Instant::now();
            if let Err(err) = inner.wal.append(&[WalRecord::Prepared(text)]) {
                eprintln!("pgso-server: logging prepared statement failed: {err}");
            } else if let Some(t) = &self.telemetry {
                // Close the durable tail of a wire-propagated trace: the
                // group commit (append + fsync) that made this registration
                // recoverable, under the request's trace id.
                let trace_id = current_trace_id();
                if trace_id != 0 {
                    t.trace().emit_with_duration(
                        "wal.group_commit",
                        trace_id,
                        append_started.elapsed(),
                        vec![
                            ("kind", FieldValue::Str("prepared".into())),
                            ("records", FieldValue::U64(1)),
                        ],
                    );
                }
            }
        }
        prepared
    }

    /// Registry insertion without WAL logging (construction + recovery).
    /// `text`/`persistable` are the pre-computed persistence metadata (empty
    /// and false on in-memory servers, which never read them).
    pub(crate) fn register_prepared(
        &self,
        stmt: Statement,
        text: String,
        persistable: bool,
    ) -> PreparedStatement {
        let signature = Arc::new(stmt.signature());
        let entry = PreparedEntry {
            fingerprint: fingerprint_statement(&stmt),
            text,
            stmt: Arc::new(stmt),
            signature: signature.clone(),
            persistable,
        };
        let mut prepared = self.prepared.write();
        prepared.push(entry);
        PreparedStatement { id: PreparedId(prepared.len() - 1), signature }
    }

    /// Handles for every registered prepared statement, in registration
    /// order. The primary consumer is recovery: [`KgServer::recover`]
    /// restores the registry from the persisted snapshot + WAL, and callers
    /// pick their handles — ids and parameter signatures intact — back up
    /// from here.
    pub fn prepared_statements(&self) -> Vec<PreparedStatement> {
        self.prepared
            .read()
            .iter()
            .enumerate()
            .map(|(i, entry)| PreparedStatement {
                id: PreparedId(i),
                signature: entry.signature.clone(),
            })
            .collect()
    }

    /// Parses a statement text — `$name` placeholders included — and
    /// registers it for repeated execution (see [`pgso_query::parse()`] for
    /// the grammar). The returned handle carries the typed parameter
    /// signature callers bind against through [`KgServer::execute`].
    ///
    /// ```text
    /// let ps = server.prepare_text(
    ///     "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n",
    /// )?;
    /// let result = server.execute(&ps, &Params::new().set("needle", "aspirin").set("n", 5i64))?;
    /// ```
    pub fn prepare_text(&self, text: &str) -> Result<PreparedStatement, ParseError> {
        Ok(self.prepare_statement(parse_named(text, "prepared")?))
    }

    /// Executes a prepared statement with `params` bound **by name** against
    /// its signature. The DIR→OPT plan is cached per prepared statement
    /// (parameters and all), so value-varying executions rewrite once and
    /// bind per call.
    ///
    /// # Errors
    /// [`BindError`] when a declared parameter is missing, a `SKIP`/`LIMIT`
    /// parameter is not a non-negative integer, or `params` binds an
    /// undeclared name — and [`BindError::UnknownStatement`] when `prepared`
    /// was not issued by this server's [`KgServer::prepare_text`] (or handed
    /// back by its [`KgServer::prepared_statements`]): another server's
    /// handle is refused even when its id is in range here.
    pub fn execute(
        &self,
        prepared: &PreparedStatement,
        params: &Params,
    ) -> Result<QueryResult, BindError> {
        let (fp, stmt, signature) = {
            let entries = self.prepared.read();
            // Every handle this server issues shares its registry entry's
            // signature `Arc`, so pointer identity tells its own handles
            // from an equal-looking id issued elsewhere.
            match entries.get(prepared.id.0) {
                Some(entry) if Arc::ptr_eq(&entry.signature, &prepared.signature) => {
                    (entry.fingerprint, entry.stmt.clone(), entry.signature.clone())
                }
                _ => return Err(BindError::UnknownStatement),
            }
        };
        let detailed = self.telemetry.as_deref().is_some_and(|t| t.sample_detail());
        self.serve_inner(fp, &stmt, params, Some(&signature), Some(prepared.id), detailed)
    }

    /// Serves one parsed, parameterless DIR statement — the step behind
    /// [`KgServer::serve_text`]. The statement is **auto-parameterized**
    /// first ([`Statement::parameterize`]): its literal constants move into
    /// generated `$parameters`, the plan cache is keyed on the canonical
    /// parameterized statement, and the extracted values are bound back at
    /// execution — so value-varying ad-hoc statements of one shape share a
    /// single cached plan.
    fn serve_statement(&self, stmt: &Statement) -> Result<QueryResult, ParseError> {
        // The detail-sampling ticket is drawn here so it can also gate the
        // parameterize timing, upstream of `serve_inner`'s phases.
        let detailed = self.telemetry.as_deref().is_some_and(|t| t.sample_detail());
        let started = if detailed { Some(Instant::now()) } else { None };
        let (canonical, params) = stmt.parameterize();
        if let (Some(t), Some(s)) = (self.telemetry.as_deref(), started) {
            t.parameterize.record_duration(s.elapsed());
        }
        let fp = fingerprint_statement(&canonical);
        // The generated parameters bind by construction; only a `$parameter`
        // of the statement's own could fail here, and `serve_text` has
        // already refused those.
        self.serve_inner(fp, &canonical, &params, None, None, detailed)
            .map_err(|err| ParseError { message: err.to_string(), offset: 0 })
    }

    /// Parses and serves one statement text — the text-first ad-hoc entry
    /// point, implemented as parse → auto-parameterize →
    /// execute. Serving the same text with different predicate literals or
    /// `SKIP`/`LIMIT` counts therefore rewrites only once: the constants
    /// canonicalize into the same parameterized plan.
    ///
    /// # Errors
    /// A [`ParseError`] for malformed text, and also for well-formed text
    /// that declares `$parameters`: the ad-hoc path has no values to bind
    /// them with — register such a statement through
    /// [`KgServer::prepare_text`] and execute it with [`KgServer::execute`].
    pub fn serve_text(&self, text: &str) -> Result<QueryResult, ParseError> {
        // An `EXPLAIN` / `PROFILE` prefix diverts the text into the plan
        // surface: the typed [`QueryPlan`] travels back as tagged rows
        // ([`QueryPlan::to_rows`]), so the wire's RUN path streams plans
        // exactly like any result and clients rebuild them with
        // [`QueryPlan::from_rows`].
        let (mode, rest) = strip_directive(text);
        if let Some(mode) = mode {
            let plan = self.plan_text(rest, mode, text.len() - rest.len())?;
            return Ok(plan_query_result(&plan));
        }
        let started = self.telemetry.as_deref().map(|_| Instant::now());
        let stmt = parse_named(text, "adhoc")?;
        if let (Some(t), Some(s)) = (self.telemetry.as_deref(), started) {
            t.parse.record_duration(s.elapsed());
        }
        if stmt.has_parameters() {
            return Err(ParseError {
                message: "statement declares $parameters; register it with prepare_text and \
                          bind them via execute"
                    .into(),
                offset: 0,
            });
        }
        self.serve_statement(&stmt)
    }

    /// The `EXPLAIN` / `PROFILE` half of [`KgServer::serve_text`]: `rest` is
    /// the text behind the directive and `offset` the stripped prefix
    /// length, added back onto parse-error offsets so they index the
    /// original text.
    fn plan_text(
        &self,
        rest: &str,
        mode: QueryMode,
        offset: usize,
    ) -> Result<QueryPlan, ParseError> {
        let started = self.telemetry.as_deref().map(|_| Instant::now());
        let stmt = parse_named(rest, "adhoc").map_err(|mut err| {
            err.offset += offset;
            err
        })?;
        if let (Some(t), Some(s)) = (self.telemetry.as_deref(), started) {
            t.parse.record_duration(s.elapsed());
        }
        if stmt.has_parameters() {
            return Err(ParseError {
                message: format!(
                    "{} statement declares $parameters; plan a parameterless statement \
                     (literals are fine — they auto-parameterize)",
                    mode.keyword()
                ),
                offset,
            });
        }
        Ok(self.plan_statement(&stmt, mode))
    }

    /// Plans one parameterless DIR statement: DIR→OPT rewrite with rule
    /// provenance ([`pgso_query::rewrite_statement_traced`]), fan-out
    /// estimates from the workload tracker, plan-cache residency — and, in
    /// [`QueryMode::Profile`], a real execution on the current epoch whose
    /// actuals are exactly what [`pgso_query::execute_statement_with`]
    /// reports for the rewritten statement.
    pub(crate) fn plan_statement(&self, stmt: &Statement, mode: QueryMode) -> QueryPlan {
        let epoch = self.current_epoch();
        // Probe the key the ad-hoc path would serve this statement under:
        // its auto-parameterized canonical form. `peek` leaves the hit/miss
        // counters alone — planning is not serving.
        let (canonical, _) = stmt.parameterize();
        let cache_hit =
            self.plan_cache.peek(fingerprint_statement(&canonical), epoch.schema_generation);
        let (opt, mut rules) = rewrite_statement_traced(stmt, &epoch.schema);
        self.attach_fanouts(&mut rules, epoch.graph());
        let actuals = match mode {
            QueryMode::Explain => None,
            QueryMode::Profile => {
                let result = execute_statement_with(&opt, epoch.graph(), &self.config.exec);
                // A profile is a real serve as far as the learned workload
                // is concerned, and its executor stages join any live trace.
                self.tracker.record_statement(stmt);
                if let Some(t) = self.telemetry.as_deref() {
                    t.windows.record_request();
                    let trace_id = current_trace_id();
                    if trace_id != 0 {
                        emit_exec_trace(&result, t.trace(), trace_id);
                    }
                }
                Some(PlanActuals::from_result(&result))
            }
        };
        QueryPlan {
            mode,
            dir: stmt.to_string(),
            opt: opt.to_string(),
            schema_generation: epoch.schema_generation,
            cache_hit,
            rules,
            actuals,
        }
    }

    /// Fills [`AppliedRule::estimated_fanout`] from the workload tracker's
    /// sampled mean out-degrees, matching rules to relationships by edge
    /// label. Rules whose relationship the tracker has never seen traversed
    /// keep `None`.
    fn attach_fanouts(&self, rules: &mut [AppliedRule], backend: &dyn GraphBackend) {
        if rules.iter().all(|rule| rule.edge_label.is_none()) {
            return;
        }
        let fanouts = self.tracker.estimated_fanouts(&self.ontology, backend, 64);
        if fanouts.is_empty() {
            return;
        }
        for rule in rules.iter_mut() {
            let Some(label) = &rule.edge_label else { continue };
            rule.estimated_fanout = fanouts
                .iter()
                .find(|&&(rid, _)| self.ontology.relationship(rid).name == *label)
                .map(|&(_, fanout)| fanout);
        }
    }

    fn serve_inner(
        &self,
        fp: u64,
        stmt: &Statement,
        params: &Params,
        signature: Option<&ParamSignature>,
        prepared: Option<PreparedId>,
        detailed: bool,
    ) -> Result<QueryResult, BindError> {
        // With telemetry off, every timestamp is `None` and the hot path
        // performs no clock reads and no metric updates at all. With it on,
        // the end-to-end latency costs two clock reads per serve; the phase
        // breakdown (boundary timestamps, one clock read per phase edge)
        // only runs on the sampled detail serves (`detailed`, drawn by the
        // caller via `ServerTelemetry::sample_detail`).
        let telemetry = self.telemetry.as_deref();
        let serve_started = telemetry.map(|_| Instant::now());
        let epoch = self.current_epoch();
        // Plans are keyed on the schema lineage, not the epoch number: an
        // ingest publication swaps the epoch but rewrites stay valid.
        let cached = self.plan_cache.get(fp, epoch.schema_generation);
        let mut after_lookup = if detailed { Some(Instant::now()) } else { None };
        if let (Some(t), Some(s), Some(l)) = (telemetry, serve_started, after_lookup) {
            t.cache_lookup.record_duration(l.duration_since(s));
        }
        let plan = match cached {
            Some(plan) => plan,
            None => {
                // Misses are rare and already expensive: the rewrite is
                // always timed, whatever the sampling ticket said.
                let rewrite_started = telemetry.map(|_| Instant::now());
                let plan = Arc::new(rewrite_statement(stmt, &epoch.schema));
                if let (Some(t), Some(s)) = (telemetry, rewrite_started) {
                    let done = Instant::now();
                    t.rewrite.record_duration(done.duration_since(s));
                    // Keep a detail serve's bind phase from absorbing the
                    // rewrite.
                    if detailed {
                        after_lookup = Some(done);
                    }
                }
                self.plan_cache.insert(fp, epoch.schema_generation, plan.clone());
                plan
            }
        };
        // The cached plan is the rewritten *parameterized* statement; bind
        // this execution's values by name before running it. The prepared
        // path supplies the registry's cached signature (valid for the plan
        // too — the rewrite never touches parameters) so the hot path skips
        // re-deriving it.
        let (result, exec_started) = if plan.has_parameters() || !params.is_empty() {
            let bound = match signature {
                Some(signature) => plan.bind_against(signature, params)?,
                None => plan.bind(params)?,
            };
            let after_bind = if detailed { Some(Instant::now()) } else { None };
            if let (Some(t), Some(l), Some(b)) = (telemetry, after_lookup, after_bind) {
                t.bind.record_duration(b.duration_since(l));
            }
            (execute_statement_with(&bound, epoch.graph(), &self.config.exec), after_bind)
        } else {
            (execute_statement_with(&plan, epoch.graph(), &self.config.exec), after_lookup)
        };
        if let (Some(t), Some(s)) = (telemetry, serve_started) {
            // One final clock read closes both the execute phase (detail
            // serves only) and the end-to-end serve.
            let end = Instant::now();
            if let Some(e) = exec_started {
                t.execute.record_duration(end.duration_since(e));
            }
            self.record_serve(detailed, end.duration_since(s), fp, params, prepared, &result);
            t.windows.record_request();
            // A request arriving with a wire-propagated trace context gets
            // its serve and executor stages recorded under that id — the
            // engine's contribution to the end-to-end (socket → fsync)
            // trace. Context-less serves skip all of this: one thread-local
            // read is the only hot-path cost.
            let trace_id = current_trace_id();
            if trace_id != 0 {
                t.trace().emit_with_duration(
                    "server.serve",
                    trace_id,
                    end.duration_since(s),
                    vec![
                        ("fingerprint", FieldValue::Str(format!("{fp:016x}"))),
                        ("rows", FieldValue::from(result.rows.len())),
                        ("matches", FieldValue::from(result.matches)),
                    ],
                );
                emit_exec_trace(&result, t.trace(), trace_id);
            }
        }
        self.tracker.record_statement(stmt);
        let served = self.served.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.auto_reoptimize && served.is_multiple_of(self.config.check_interval) {
            self.try_reoptimize();
        }
        Ok(result)
    }

    /// Post-execution telemetry: end-to-end latency (every serve), the
    /// per-stage detail series (sampled serves), the
    /// per-prepared-statement series, and — past the configured threshold —
    /// the structured slow-query trace event.
    fn record_serve(
        &self,
        detailed: bool,
        elapsed: Duration,
        fp: u64,
        params: &Params,
        prepared: Option<PreparedId>,
        result: &QueryResult,
    ) {
        let Some(t) = self.telemetry.as_deref() else {
            return;
        };
        t.query_latency.record_duration(elapsed);
        let stages = result.stage_timings.stages();
        if detailed {
            for (hist, &(_, duration)) in t.stage.iter().zip(stages.iter()) {
                hist.record_duration(duration);
            }
            t.fanned_out_shards.record(result.stage_timings.fanned_out_shards as u64);
        }
        if let Some(id) = prepared {
            t.prepared_latency(id.0).record_duration(elapsed);
        }
        let Some(threshold) = self.config.slow_query_log_threshold else {
            return;
        };
        if elapsed < threshold {
            return;
        }
        t.slow_queries.inc();
        let mut fields = vec![
            ("fingerprint", FieldValue::Str(format!("{fp:016x}"))),
            ("params_hash", FieldValue::Str(format!("{:016x}", params_hash(params)))),
            ("rows", FieldValue::from(result.rows.len())),
            ("matches", FieldValue::from(result.matches)),
            ("fanned_out_shards", FieldValue::from(result.stage_timings.fanned_out_shards)),
        ];
        for &(name, duration) in &stages {
            let field = match name {
                "root_selection" => "root_selection_ns",
                "expansion" => "expansion_ns",
                "optional" => "optional_ns",
                "aggregate" => "aggregate_ns",
                _ => "windowing_ns",
            };
            fields.push((field, FieldValue::from(duration.as_nanos() as u64)));
        }
        t.trace().emit_with_duration("slow_query", t.trace().new_span(), elapsed, fields);
    }
}

/// FNV-1a over a parameter set's sorted `(name, value)` pairs — a stable
/// fingerprint for the slow-query log that identifies *which bindings* were
/// slow without logging the values themselves. [`Params`] iterates in name
/// order, so equal sets hash equal regardless of insertion order.
pub(crate) fn params_hash(params: &Params) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash ^= 0xff; // terminator keeps ("ab","c") distinct from ("a","bc")
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    for (name, value) in params.iter() {
        mix(name.as_bytes());
        mix(format!("{value:?}").as_bytes());
    }
    hash
}

// ==== publish ====

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
                self.config.shard_count,
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
    pub fn ingest(&self, updates: Vec<GraphUpdate>) -> io::Result<IngestReport> {
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
        let mut graph = fresh_backend(self.config.storage_tier, self.config.shard_count);
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

// ==== durable ====

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
/// fresh backend of the configured layout, and restores the learned
/// tracker counters and baseline frequencies.
pub(crate) fn recover_start(
    ontology: &Ontology,
    config: &ServerConfig,
    dir: &Path,
    telemetry: Option<&Arc<ServerTelemetry>>,
) -> io::Result<Start> {
    let state = pgso_persist::recover(dir)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("no valid snapshot in {}", dir.display()))
    })?;
    let mut graph = fresh_backend(config.storage_tier, config.shard_count);
    let full_journal = state.full_journal();
    let replay_started = Instant::now();
    apply_updates(&mut graph, &full_journal);
    compile_for_serving(graph.as_ref(), config.storage_tier, telemetry);
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
            shard_count: epoch.shard_count() as u32,
            schema: epoch.schema.clone(),
            journal: ing.base_journal.clone(),
            ingested: ing.ingested.clone(),
            tracker: self.tracker.snapshot().to_bytes(),
            baseline: frequencies_to_bytes(&self.ontology, &self.baseline.lock()),
            prepared: self
                .prepared
                .read()
                .iter()
                .filter(|e| e.persistable)
                .map(|e| e.text.clone())
                .collect(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_ontology::{catalog, StatisticsConfig};
    use pgso_query::Query;

    fn mini_server(config: ServerConfig) -> KgServer {
        let ontology = catalog::med_mini();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
        let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
        let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
        KgServer::new(ontology, statistics, instance, frequencies, config)
    }

    fn lookup() -> Query {
        Query::builder("lookup").node("d", "Drug").ret_property("d", "name").build()
    }

    /// Typed queries reach the server the one way there is: as text.
    fn serve(server: &KgServer, query: &Query) -> QueryResult {
        server.serve_text(&query.to_string()).expect("a query's Display text parses")
    }

    fn prepare(server: &KgServer, query: &Query) -> PreparedStatement {
        server.prepare_text(&query.to_string()).expect("a query's Display text parses")
    }

    /// Executes a parameterless prepared statement.
    fn run(server: &KgServer, prepared: &PreparedStatement) -> QueryResult {
        server.execute(prepared, &Params::new()).expect("no parameters to bind")
    }

    /// Replays `jobs` across `threads` scoped threads, job `i` on thread
    /// `i % threads`.
    fn replay(server: &KgServer, jobs: &[(PreparedStatement, Params)], threads: usize) {
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for (prepared, params) in jobs.iter().skip(t).step_by(threads) {
                        server.execute(prepared, params).expect("job parameters bind");
                    }
                });
            }
        });
    }

    #[test]
    fn serves_queries_and_caches_plans() {
        let server = mini_server(ServerConfig::default());
        let first = serve(&server, &lookup());
        assert!(first.matches > 0);
        let second = serve(&server, &lookup());
        assert_eq!(first.rows, second.rows);
        let stats = server.cache_stats();
        assert_eq!(stats.misses, 1, "first request rewrites");
        assert_eq!(stats.hits, 1, "second request hits the plan cache");
        assert_eq!(server.served(), 2);
    }

    #[test]
    fn prepared_queries_reuse_the_fingerprint() {
        let server = mini_server(ServerConfig::default());
        let ps = prepare(&server, &lookup());
        assert!(ps.signature().is_empty(), "a bare lookup declares no parameters");
        let a = run(&server, &ps);
        let b = run(&server, &ps);
        assert_eq!(a.rows, b.rows);
        assert_eq!(server.cache_stats().hits, 1);
        // The ad-hoc path shares the cache: same shape, same plan.
        let _ = serve(&server, &lookup());
        assert_eq!(server.cache_stats().hits, 2);
    }

    #[test]
    fn execute_binds_parameters_by_name() {
        let server = mini_server(ServerConfig::default());
        let ps = server
            .prepare_text(
                "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name \
                 ORDER BY d.name LIMIT $n",
            )
            .unwrap();
        assert_eq!(ps.signature().names().collect::<Vec<_>>(), ["needle", "n"]);
        let broad = server
            .execute(&ps, &Params::new().set("needle", "Drug_name").set("n", 100i64))
            .unwrap();
        let narrow = server
            .execute(&ps, &Params::new().set("needle", "Drug_name_0").set("n", 100i64))
            .unwrap();
        assert!(!broad.rows.is_empty());
        assert!(broad.rows.len() > narrow.rows.len(), "the bound needle must apply");
        let limited =
            server.execute(&ps, &Params::new().set("needle", "Drug_name").set("n", 2i64)).unwrap();
        assert_eq!(limited.rows.len(), 2, "the bound LIMIT must apply");
        // One shape, one rewrite: every execution after the first hits.
        assert_eq!(server.cache_stats().misses, 1);
        assert_eq!(server.cache_stats().hits, 2);
        // Same names in any insertion order bind identically.
        let shuffled = server
            .execute(&ps, &Params::new().set("n", 100i64).set("needle", "Drug_name"))
            .unwrap();
        assert_eq!(shuffled.rows, broad.rows);
    }

    #[test]
    fn execute_rejects_bad_parameter_sets() {
        let server = mini_server(ServerConfig::default());
        let ps = server
            .prepare_text("MATCH (d:Drug) WHERE d.name = $name RETURN d.name LIMIT $n")
            .unwrap();
        let missing = server.execute(&ps, &Params::new().set("name", "x")).unwrap_err();
        assert!(matches!(missing, BindError::Missing { ref name } if name == "n"), "{missing}");
        let mismatched =
            server.execute(&ps, &Params::new().set("name", "x").set("n", "ten")).unwrap_err();
        assert!(matches!(mismatched, BindError::Mismatch { .. }), "{mismatched}");
        let unknown = server
            .execute(&ps, &Params::new().set("name", "x").set("n", 1i64).set("typo", 1i64))
            .unwrap_err();
        assert!(matches!(unknown, BindError::Unknown { .. }), "{unknown}");
        // Failed binds never count as served queries.
        assert_eq!(server.served(), 0);
    }

    #[test]
    fn foreign_prepared_ids_are_rejected() {
        let alpha = mini_server(ServerConfig::default());
        let beta = mini_server(ServerConfig::default());
        let on_alpha = [
            alpha.prepare_text("MATCH (d:Drug) RETURN d.name").unwrap(),
            alpha.prepare_text("MATCH (i:Indication) RETURN i.desc").unwrap(),
        ];
        let on_beta = beta.prepare_text("MATCH (i:Indication) RETURN i.desc").unwrap();
        // In range: beta holds a statement under id 0, and it is a different
        // one. Running it would be a silently wrong answer.
        assert_eq!(on_alpha[0].id(), on_beta.id());
        let in_range = beta.execute(&on_alpha[0], &Params::new()).unwrap_err();
        assert!(matches!(in_range, BindError::UnknownStatement), "{in_range}");
        // Out of range: beta has no id 1 at all.
        let out_of_range = beta.execute(&on_alpha[1], &Params::new()).unwrap_err();
        assert!(matches!(out_of_range, BindError::UnknownStatement), "{out_of_range}");
        assert_eq!(beta.served(), 0, "a refused handle never counts as a serve");
        // Each server's own handles are untouched by all this.
        assert!(!run(&alpha, &on_alpha[0]).rows.is_empty());
        assert!(!run(&beta, &on_beta).rows.is_empty());
    }

    #[test]
    fn executing_a_parameterized_statement_without_values_is_a_bind_error() {
        let server = mini_server(ServerConfig::default());
        let ps = server.prepare_text("MATCH (d:Drug) WHERE d.name = $name RETURN d.name").unwrap();
        let err = server.execute(&ps, &Params::new()).unwrap_err();
        assert!(matches!(err, BindError::Missing { ref name } if name == "name"), "{err}");
    }

    #[test]
    fn serve_text_rejects_parameterized_text_with_an_error() {
        // Valid grammar, but the ad-hoc path has no values to bind: this is
        // an error result, never a panic (serve_text takes untrusted text).
        let server = mini_server(ServerConfig::default());
        let err = server
            .serve_text("MATCH (d:Drug) WHERE d.name = $x RETURN d.name")
            .expect_err("parameterized text cannot be served ad hoc");
        assert!(err.message.contains("prepare_text"), "{err}");
        // The plan directives have no values to bind either — and PROFILE,
        // which executes, must refuse rather than run an unbound statement.
        for directive in ["EXPLAIN", "PROFILE"] {
            let text = format!("{directive} MATCH (d:Drug) WHERE d.name = $x RETURN d.name");
            let err = server.serve_text(&text).expect_err("nothing to bind $x with");
            assert!(err.message.contains(directive), "{err}");
            assert_eq!(err.offset, directive.len() + 1, "offset indexes the original text");
        }
        assert_eq!(server.served(), 0);
        assert_eq!(server.tracker().total_queries(), 0, "nothing was executed");
    }

    #[test]
    fn plan_directives_return_what_plan_statement_produces() {
        let server = mini_server(ServerConfig { auto_reoptimize: false, ..Default::default() });
        let mut fanouts = 0;
        for text in [
            "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name CONTAINS 'Drug' \
             RETURN d.name, i.desc ORDER BY i.desc LIMIT 7",
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN size(collect(i.desc))",
        ] {
            let stmt = parse_named(text, "adhoc").unwrap();
            // Serve once so the tracker has traversals to estimate fan-outs
            // from and the plan cache holds the shape: both must show up.
            let served = server.serve_text(text).unwrap();
            for mode in [QueryMode::Explain, QueryMode::Profile] {
                let direct = server.plan_statement(&stmt, mode);
                assert!(direct.rewritten() && !direct.rules.is_empty(), "{text} must rewrite");
                fanouts += direct.rules.iter().filter(|r| r.estimated_fanout.is_some()).count();
                let rows = server.serve_text(&format!("{} {text}", mode.keyword())).unwrap().rows;
                let mut via_text = QueryPlan::from_rows(&rows).expect("tagged rows rebuild");
                assert!(direct.cache_hit && via_text.cache_hit, "{mode:?}: cache residency");
                assert_eq!(via_text.rules, direct.rules, "{mode:?}: rules and fan-outs");
                if let (Some(a), Some(b)) = (via_text.actuals.as_mut(), direct.actuals) {
                    assert_eq!(a.rows, served.rows.len() as u64);
                    // Two executions agree on every count; only the clocks
                    // differ.
                    (a.elapsed_ns, a.stage_ns) = (b.elapsed_ns, b.stage_ns);
                }
                assert_eq!(via_text, direct, "{mode:?} {text}");
            }
        }
        assert!(fanouts > 0, "at least one attributed rule carries a tracker estimate");
    }

    #[test]
    fn non_roundtrippable_prepared_statements_do_not_brick_recovery() {
        let dir = tempfile::tempdir().unwrap();
        let make = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
            let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
            (ontology, statistics, instance, frequencies)
        };
        let cfg = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
        {
            let (o, s, i, f) = make();
            let server = KgServer::new_persistent(
                o,
                s,
                i,
                f,
                cfg,
                pgso_persist::PersistConfig::new_unsynced(dir.path()),
            )
            .unwrap();
            // NaN is never equal to itself, so this statement cannot
            // round-trip through text; it must still prepare and serve …
            let nan = server.prepare_statement(
                pgso_query::Statement::builder("nan")
                    .node("d", "Drug")
                    .ret_property("d", "name")
                    .filter("d", "name", pgso_query::CmpOp::Eq, f64::NAN)
                    .build(),
            );
            assert!(run(&server, &nan).rows.is_empty(), "NaN never compares");
            // … while null/list literals round-trip fine and persist.
            let listy = server
                .prepare_text("MATCH (d:Drug) WHERE d.name CONTAINS ['a', null] RETURN d.name")
                .unwrap();
            let _ = run(&server, &listy);
            // kill without checkpoint
        }
        let (o, s, i, _) = make();
        let recovered =
            KgServer::recover(o, s, i, cfg, pgso_persist::PersistConfig::new_unsynced(dir.path()))
                .expect("an exotic prepared statement must not brick recovery");
        // Only the round-trippable registration survives.
        assert_eq!(recovered.prepared_statements().len(), 1);
    }

    #[test]
    fn epoch_snapshot_survives_swap() {
        let server =
            mini_server(ServerConfig { auto_reoptimize: false, ..ServerConfig::default() });
        let before = server.current_epoch();
        assert_eq!(before.number, 0);
        assert!(before.graph().vertex_count() > 0);
        // Without a space limit the schema is workload-independent, so no
        // drift can ever change it.
        for _ in 0..10 {
            let _ = serve(&server, &lookup());
        }
        assert!(server.try_reoptimize().is_none_or(|e| !e.swapped));
        assert_eq!(server.current_epoch().number, 0);
    }

    #[test]
    fn drift_grows_under_a_skewed_workload() {
        let server =
            mini_server(ServerConfig { auto_reoptimize: false, ..ServerConfig::default() });
        assert_eq!(server.drift(), 0.0);
        for _ in 0..50 {
            let _ = serve(&server, &lookup());
        }
        assert!(server.drift() > 0.3, "drift {}", server.drift());
    }

    #[test]
    fn run_workload_serves_everything() {
        let server = mini_server(ServerConfig::default());
        // Warm the cache serially: concurrent cold-start threads can race
        // get-before-insert and legitimately rewrite the same plan twice.
        let _ = serve(&server, &lookup());
        let ps = prepare(&server, &lookup());
        let jobs: Vec<(PreparedStatement, Params)> =
            (0..40).map(|_| (ps.clone(), Params::new())).collect();
        replay(&server, &jobs, 4);
        assert_eq!(server.served(), 41);
        // 40 structurally identical queries against a warm cache: all hits.
        assert_eq!(server.cache_stats().hits, 40);
        assert_eq!(server.cache_stats().misses, 1);
    }

    #[test]
    fn sharded_server_answers_identically_to_monolithic() {
        let mono = mini_server(ServerConfig::default());
        for shard_count in [2usize, 4] {
            let sharded = mini_server(ServerConfig {
                shard_count,
                // Force the fan-out path so this test covers it even on a
                // single-core machine.
                exec: pgso_query::ExecConfig::always_parallel(),
                ..ServerConfig::default()
            });
            assert_eq!(sharded.current_epoch().shard_count(), shard_count);
            for text in [
                "MATCH (d:Drug) RETURN d.name ORDER BY d.name",
                "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE i.desc CONTAINS 'instance' \
                 RETURN d.name, i.desc ORDER BY i.desc DESC LIMIT 7",
                "MATCH (d:Drug) OPTIONAL MATCH (d)-[:treat]->(i:Indication) \
                 RETURN DISTINCT d.name, i.desc",
            ] {
                let a = mono.serve_text(text).unwrap();
                let b = sharded.serve_text(text).unwrap();
                assert_eq!(a.rows, b.rows, "shards={shard_count} text={text}");
            }
        }
    }

    #[test]
    fn csr_and_disk_tier_servers_answer_identically_to_memory() {
        let memory = mini_server(ServerConfig::default());
        for tier in [StorageTier::Csr, StorageTier::Disk] {
            for shard_count in [1usize, 4] {
                let tiered = mini_server(ServerConfig {
                    storage_tier: tier,
                    shard_count,
                    exec: pgso_query::ExecConfig::always_parallel(),
                    ..ServerConfig::default()
                });
                let inner = if shard_count == 1 { tier.name() } else { "sharded" };
                assert_eq!(tiered.current_epoch().graph().backend_name(), inner);
                for text in [
                    "MATCH (d:Drug) RETURN d.name ORDER BY d.name",
                    "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE i.desc CONTAINS 'instance' \
                     RETURN d.name, i.desc ORDER BY i.desc DESC LIMIT 7",
                    "MATCH (d:Drug) OPTIONAL MATCH (d)-[:treat]->(i:Indication) \
                     RETURN DISTINCT d.name, i.desc",
                ] {
                    let a = memory.serve_text(text).unwrap();
                    let b = tiered.serve_text(text).unwrap();
                    assert_eq!(a.rows, b.rows, "tier={} shards={shard_count}", tier.name());
                }
            }
        }
    }

    #[test]
    fn csr_tier_compiles_at_publication_and_reports_metrics() {
        let server = mini_server(ServerConfig {
            storage_tier: StorageTier::Csr,
            auto_reoptimize: false,
            ingest: IngestConfig { publish_batch: 1, publish_interval: Duration::from_secs(3600) },
            ..ServerConfig::default()
        });
        // The initial build compiled once.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("csr.compiles"), Some(1));
        assert!(snap.histogram("csr.compile").is_some_and(|h| h.count == 1));
        assert!(snap.gauge("csr.resident_bytes").is_some_and(|b| b > 0.0));
        // An ingest publication targets CSR too and compiles again — off
        // the read path, so queries immediately after never pay it.
        server
            .ingest(vec![GraphUpdate::AddVertex {
                label: "Drug".into(),
                properties: pgso_graphstore::props([("name", "Zynteglo".into())]),
            }])
            .unwrap();
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("csr.compiles"), Some(2));
        let rows = server
            .serve_text("MATCH (d:Drug) WHERE d.name CONTAINS 'Zynteglo' RETURN d.name")
            .unwrap();
        assert_eq!(rows.matches, 1);
    }

    #[test]
    fn run_workload_reports_per_shard_stats() {
        let server = mini_server(ServerConfig {
            shard_count: 4,
            auto_reoptimize: false,
            ..ServerConfig::default()
        });
        let treat = Query::builder("treat")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .build();
        let ps = prepare(&server, &treat);
        let jobs: Vec<(PreparedStatement, Params)> =
            (0..24).map(|_| (ps.clone(), Params::new())).collect();
        let epoch = server.current_epoch();
        assert_eq!(epoch.shard_count(), 4);
        let before = epoch.shard_stats();
        replay(&server, &jobs, 2);
        let per_shard_stats: Vec<AccessStats> = epoch
            .shard_stats()
            .iter()
            .zip(&before)
            .map(|(after, before)| after.delta_since(before))
            .collect();
        assert_eq!(per_shard_stats.len(), 4);
        let total = per_shard_stats.iter().fold(AccessStats::default(), |acc, s| acc.merged(s));
        assert!(total.vertex_reads > 0 || total.edge_traversals > 0);
        // The epoch counters also include the loader's reads, so the replay's
        // delta must be bounded by (not equal to) the epoch total.
        let epoch_total = epoch.stats();
        assert!(total.vertex_reads <= epoch_total.vertex_reads);
        assert!(total.edge_traversals <= epoch_total.edge_traversals);
        assert!(
            per_shard_stats.iter().filter(|s| s.vertex_reads > 0).count() > 1,
            "work must spread across shards: {per_shard_stats:?}"
        );
    }

    #[test]
    fn sharded_epoch_swap_rebuilds_sharded() {
        // A space limit makes the schema workload-sensitive, so a skewed
        // observed mix can actually swap the epoch.
        let ontology = catalog::med_mini();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
        let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
        let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
        let nsc = pgso_core::optimize_nsc(
            OptimizerInput::new(&ontology, &statistics, &frequencies),
            &OptimizerConfig::default(),
        );
        let server = KgServer::new(
            ontology,
            statistics,
            instance,
            frequencies,
            ServerConfig {
                shard_count: 2,
                auto_reoptimize: false,
                drift_threshold: 0.05,
                optimizer: OptimizerConfig::with_space_limit(nsc.total_cost / 2),
                ..ServerConfig::default()
            },
        );
        for _ in 0..100 {
            let _ = serve(&server, &lookup());
        }
        let event = server.try_reoptimize();
        if event.is_some_and(|e| e.swapped) {
            let epoch = server.current_epoch();
            assert!(epoch.number > 0);
            assert_eq!(epoch.shard_count(), 2, "swapped epoch must stay sharded");
            assert!(epoch.graph().vertex_count() > 0);
        } else {
            // Re-optimization legitimately may not change this tiny schema;
            // the sharded epoch still serves.
            assert_eq!(server.current_epoch().shard_count(), 2);
        }
    }

    fn new_drug(i: u32) -> GraphUpdate {
        GraphUpdate::AddVertex {
            label: "Drug".into(),
            properties: pgso_graphstore::props([("name", format!("IngestedDrug_{i}").into())]),
        }
    }

    #[test]
    fn ingest_stages_then_publishes_at_the_batch_threshold() {
        let server = mini_server(ServerConfig {
            auto_reoptimize: false,
            ingest: IngestConfig { publish_batch: 4, publish_interval: Duration::from_secs(3600) },
            ..ServerConfig::default()
        });
        let before = serve(&server, &lookup()).matches;
        let report = server.ingest(vec![new_drug(0), new_drug(1)]).unwrap();
        assert!(!report.published);
        assert_eq!(report.pending, 2);
        assert_eq!(report.wal_bytes, 0, "no persistence attached");
        assert_eq!(serve(&server, &lookup()).matches, before, "staged updates stay invisible");
        let report = server.ingest(vec![new_drug(2), new_drug(3)]).unwrap();
        assert!(report.published, "batch threshold crossed");
        assert_eq!(report.pending, 0);
        assert_eq!(server.pending_updates(), 0);
        assert_eq!(server.published_updates(), 4);
        assert_eq!(serve(&server, &lookup()).matches, before + 4, "published updates serve");
        assert_eq!(server.current_epoch().number, 1, "publication is an epoch swap");
    }

    #[test]
    fn flush_ingest_publishes_early() {
        let server = mini_server(ServerConfig { auto_reoptimize: false, ..Default::default() });
        let before = serve(&server, &lookup()).matches;
        let _ = server.ingest(vec![new_drug(0)]).unwrap();
        assert!(server.flush_ingest());
        assert!(!server.flush_ingest(), "nothing left to publish");
        assert_eq!(serve(&server, &lookup()).matches, before + 1);
    }

    #[test]
    fn ingest_swaps_keep_the_plan_cache_warm() {
        let server = mini_server(ServerConfig {
            auto_reoptimize: false,
            ingest: IngestConfig { publish_batch: 1, publish_interval: Duration::ZERO },
            ..ServerConfig::default()
        });
        let _ = serve(&server, &lookup()); // miss: first rewrite
        for i in 0..5 {
            let report = server.ingest(vec![new_drug(i)]).unwrap();
            assert!(report.published);
            let _ = serve(&server, &lookup());
        }
        let stats = server.cache_stats();
        assert_eq!(stats.misses, 1, "data-only swaps must not invalidate plans");
        assert_eq!(stats.hits, 5);
        assert_eq!(server.current_epoch().number, 5);
        assert_eq!(server.current_epoch().schema_generation, 0);
    }

    #[test]
    fn ingested_edges_connect_new_vertices_to_old_ones() {
        let server = mini_server(ServerConfig { auto_reoptimize: false, ..Default::default() });
        let epoch = server.current_epoch();
        // Target any pre-existing vertex; updates are physical-graph-level,
        // so the test needs no assumption about the optimized schema's
        // labels. The new vertex gets the next sequential global id.
        let new_id = pgso_graphstore::VertexId(epoch.graph().vertex_count() as u64);
        let target = pgso_graphstore::VertexId(0);
        let updates = vec![
            new_drug(0),
            GraphUpdate::AddEdge { label: "treat".into(), src: new_id, dst: target },
        ];
        let _ = server.ingest(updates).unwrap();
        server.flush_ingest();
        let published = server.current_epoch();
        assert_eq!(
            published.graph().out_neighbours(new_id, "treat"),
            vec![target],
            "the ingested edge must be traversable"
        );
        let result = server
            .serve_text("MATCH (d:Drug) WHERE d.name CONTAINS 'IngestedDrug' RETURN d.name")
            .unwrap();
        assert_eq!(result.rows.len(), 1, "the ingested vertex must be queryable");
    }

    #[test]
    fn persistent_server_recovers_after_a_kill() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ServerConfig {
            auto_reoptimize: false,
            ingest: IngestConfig { publish_batch: 3, publish_interval: Duration::from_secs(3600) },
            ..ServerConfig::default()
        };
        let make = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
            let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
            (ontology, statistics, instance, frequencies)
        };
        let (pre_kill_rows, pre_kill_tracker) = {
            let (o, s, i, f) = make();
            let server = KgServer::new_persistent(
                o,
                s,
                i,
                f,
                cfg,
                pgso_persist::PersistConfig::new_unsynced(dir.path()),
            )
            .unwrap();
            assert!(server.is_persistent());
            for _ in 0..10 {
                let _ = serve(&server, &lookup());
            }
            // 5 updates: 3 published by the batch threshold, 2 still staged
            // (durable in the WAL only) when the server dies.
            let report = server.ingest((0..3).map(new_drug).collect()).unwrap();
            assert!(report.published);
            assert!(report.wal_bytes > 0);
            let report = server.ingest((3..5).map(new_drug).collect()).unwrap();
            assert!(!report.published);
            assert_eq!(report.pending, 2);
            // Taken *before* the final serve: this is the state the last WAL
            // tracker checkpoint captured, which is what recovery restores
            // (counters recorded after the last durable checkpoint die with
            // the process, exactly like un-logged data would).
            let tracker = server.tracker().snapshot();
            let rows = serve(&server, &lookup()).rows;
            (rows, tracker)
            // drop without checkpoint = kill
        };

        let (o, s, i, _) = make();
        let recovered =
            KgServer::recover(o, s, i, cfg, pgso_persist::PersistConfig::new_unsynced(dir.path()))
                .unwrap();
        // All 5 ingested updates are durable, so the recovered graph has the
        // 2 that were still staged at kill time as well.
        assert_eq!(recovered.published_updates(), 5);
        assert_eq!(recovered.pending_updates(), 0);
        // Tracker counters survive exactly: the WAL checkpoint written with
        // the last ingest batch captured the 10 recorded lookups. (Snapshot
        // them before serving anything new on the recovered server.)
        let tracker = recovered.tracker().snapshot();
        let rows = serve(&recovered, &lookup()).rows;
        assert_eq!(rows.len(), pre_kill_rows.len() + 2, "WAL tail replays into the graph");
        assert_eq!(tracker.total_queries, pre_kill_tracker.total_queries);
        assert_eq!(tracker.concept_counts, pre_kill_tracker.concept_counts);
        assert_eq!(tracker.property_counts, pre_kill_tracker.property_counts);
        assert_eq!(recovered.current_epoch().schema_generation, 0);
        assert!(recovered.drift() > 0.0, "recovered counters drive drift immediately");
    }

    #[test]
    fn csr_tier_recovery_matches_memory_tier_bit_for_bit() {
        // The same WAL history recovered onto two storage tiers must yield
        // the same epoch: identical replayable update sequences, identical
        // rows. The tier changes the physical layout, never the contents.
        let make = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
            let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
            (ontology, statistics, instance, frequencies)
        };
        let recovered_on = |tier: StorageTier| {
            let dir = tempfile::tempdir().unwrap();
            let cfg = ServerConfig {
                auto_reoptimize: false,
                storage_tier: tier,
                ingest: IngestConfig {
                    publish_batch: 3,
                    publish_interval: Duration::from_secs(3600),
                },
                ..ServerConfig::default()
            };
            {
                let (o, s, i, f) = make();
                let server = KgServer::new_persistent(
                    o,
                    s,
                    i,
                    f,
                    cfg,
                    pgso_persist::PersistConfig::new_unsynced(dir.path()),
                )
                .unwrap();
                // 3 updates publish via the batch threshold, 2 stay staged
                // (WAL-only) when the server dies — recovery must replay
                // both kinds.
                server.ingest((0..3).map(new_drug).collect()).unwrap();
                server.ingest((3..5).map(new_drug).collect()).unwrap();
                // drop without checkpoint = kill
            }
            let (o, s, i, _) = make();
            let server = KgServer::recover(
                o,
                s,
                i,
                cfg,
                pgso_persist::PersistConfig::new_unsynced(dir.path()),
            )
            .unwrap();
            (server, dir)
        };

        let (mem, _mem_dir) = recovered_on(StorageTier::Memory);
        let (csr, _csr_dir) = recovered_on(StorageTier::Csr);
        assert_eq!(mem.current_epoch().graph().backend_name(), "memory");
        assert_eq!(csr.current_epoch().graph().backend_name(), "csr");
        // Strongest equivalence first: both recovered epochs replay into
        // the identical update sequence (ids, labels, properties, edge
        // order — everything).
        let mem_updates = mem.current_epoch().graph().export_updates();
        let csr_updates = csr.current_epoch().graph().export_updates();
        assert!(mem_updates.is_some() && mem_updates == csr_updates);
        assert_eq!(mem.published_updates(), csr.published_updates());
        assert_eq!(csr.pending_updates(), 0);
        // And the serving surface agrees, lookups through aggregations.
        for text in [
            "MATCH (d:Drug) RETURN d.name ORDER BY d.name",
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN i.desc",
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN size(collect(i.desc))",
        ] {
            let expected = mem.serve_text(text).expect(text).rows;
            assert_eq!(csr.serve_text(text).expect(text).rows, expected, "{text}");
            assert!(!expected.is_empty(), "{text} must exercise real data");
        }
    }

    #[test]
    fn recovering_an_empty_directory_fails_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let ontology = catalog::med_mini();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
        let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
        let err = KgServer::recover(
            ontology,
            statistics,
            instance,
            ServerConfig::default(),
            pgso_persist::PersistConfig::new_unsynced(dir.path()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn new_persistent_refuses_a_directory_with_existing_generations() {
        let dir = tempfile::tempdir().unwrap();
        let build = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
            let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
            KgServer::new_persistent(
                ontology,
                statistics,
                instance,
                frequencies,
                ServerConfig::default(),
                pgso_persist::PersistConfig::new_unsynced(dir.path()),
            )
        };
        drop(build().unwrap());
        // A second fresh server on the same directory would *not* subsume the
        // existing generations; it must refuse instead of pruning them away.
        let err = build().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        let (snapshots, _) = pgso_persist::list_generations(dir.path()).unwrap();
        assert!(!snapshots.is_empty(), "existing state must be untouched");
    }

    #[test]
    fn checkpoint_rotates_the_wal() {
        let dir = tempfile::tempdir().unwrap();
        let ontology = catalog::med_mini();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
        let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
        let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
        let server = KgServer::new_persistent(
            ontology,
            statistics,
            instance,
            frequencies,
            ServerConfig { auto_reoptimize: false, ..ServerConfig::default() },
            pgso_persist::PersistConfig::new_unsynced(dir.path()),
        )
        .unwrap();
        let before = server.ingest((0..8).map(new_drug).collect()).unwrap().wal_bytes;
        assert!(before > 0);
        assert!(server.checkpoint().unwrap());
        let after = server.ingest(vec![new_drug(8)]).unwrap().wal_bytes;
        assert!(after < before, "rotation must have started a fresh WAL ({after} vs {before})");
        // Older generations are pruned once the new snapshot is durable.
        let (snapshots, wals) = pgso_persist::list_generations(dir.path()).unwrap();
        assert_eq!(snapshots.len(), 1, "one live snapshot generation: {snapshots:?}");
        assert_eq!(wals.len(), 1);
        // A non-persistent server's checkpoint is a no-op.
        let plain = mini_server(ServerConfig::default());
        assert!(!plain.checkpoint().unwrap());
        assert!(!plain.is_persistent());
    }

    #[test]
    fn serve_text_parses_and_answers() {
        let server = mini_server(ServerConfig::default());
        let result = server
            .serve_text("MATCH (d:Drug) WHERE d.name CONTAINS 'Drug_name' RETURN d.name LIMIT 3")
            .unwrap();
        assert!(result.matches > 0);
        assert!(result.rows.len() <= 3);
        assert!(server.serve_text("MATCH (d:Drug RETURN d").is_err(), "syntax errors surface");
    }

    #[test]
    fn prepare_text_registers_a_statement() {
        let server = mini_server(ServerConfig::default());
        let ps = server
            .prepare_text("MATCH (d:Drug)-[:treat]->(i:Indication) RETURN i.desc ORDER BY i.desc")
            .unwrap();
        let a = run(&server, &ps);
        let b = run(&server, &ps);
        assert_eq!(a.rows, b.rows);
        assert_eq!(server.cache_stats().hits, 1);
    }

    #[test]
    fn literal_variations_share_one_cached_plan() {
        let server = mini_server(ServerConfig::default());
        for i in 0..20 {
            let result = server
                .serve_text(&format!(
                    "MATCH (d:Drug) WHERE d.name CONTAINS 'Drug_name_{i}' RETURN d.name LIMIT {}",
                    i + 1
                ))
                .unwrap();
            // Auto-parameterization canonicalizes the constants away, so the
            // plan is shared while each request binds its own values.
            assert!(result.rows.len() <= i + 1);
        }
        let stats = server.cache_stats();
        assert_eq!(stats.misses, 1, "one shape, one rewrite");
        assert_eq!(stats.hits, 19);
    }

    #[test]
    fn auto_parameterization_returns_the_right_rows_per_literal() {
        let server = mini_server(ServerConfig::default());
        let narrow =
            server.serve_text("MATCH (d:Drug) WHERE d.name = 'Drug_name_0' RETURN d.name").unwrap();
        let broad = server
            .serve_text("MATCH (d:Drug) WHERE d.name CONTAINS 'Drug_name' RETURN d.name")
            .unwrap();
        // Different shapes (different op): both rewrites, no interference.
        assert!(broad.rows.len() >= narrow.rows.len());
        // Same shape, different literal: second call hits the cache but must
        // not see the first call's value.
        let a = server
            .serve_text("MATCH (i:Indication) WHERE i.desc CONTAINS 'instance 0' RETURN i.desc")
            .unwrap();
        let b = server
            .serve_text("MATCH (i:Indication) WHERE i.desc CONTAINS 'no_such_value' RETURN i.desc")
            .unwrap();
        assert!(!a.rows.is_empty());
        assert!(b.rows.is_empty(), "the bound value must apply");
        // And crucially: two literals swapping roles cannot mis-bind, the
        // failure mode of the positional rebinding this design replaced.
        let swapped_a = server
            .serve_text(
                "MATCH (d:Drug) WHERE d.name CONTAINS 'Drug' AND d.name CONTAINS 'name_1' \
                 RETURN d.name",
            )
            .unwrap();
        let swapped_b = server
            .serve_text(
                "MATCH (d:Drug) WHERE d.name CONTAINS 'name_1' AND d.name CONTAINS 'Drug' \
                 RETURN d.name",
            )
            .unwrap();
        assert_eq!(swapped_a.rows, swapped_b.rows, "conjunction order must not matter");
    }

    #[test]
    fn aggregation_group_by_serves_through_the_cache() {
        let server = mini_server(ServerConfig { auto_reoptimize: false, ..Default::default() });
        let text = "MATCH (d:Drug)-[:treat]->(i:Indication) \
                    RETURN d.name, count(i) GROUP BY d ORDER BY d.name";
        let a = server.serve_text(text).unwrap();
        let b = server.serve_text(text).unwrap();
        assert!(!a.rows.is_empty());
        assert_eq!(a.rows, b.rows);
        assert_eq!(server.cache_stats().hits, 1, "grouped aggregations cache too");
        // Every row is (name, count) with a positive count.
        for row in &a.rows {
            assert!(row[0].as_str().is_some());
            assert!(row[1].as_int().unwrap_or(0) >= 1);
        }
    }

    #[test]
    fn run_prepared_workload_executes_across_threads() {
        let server = mini_server(ServerConfig { auto_reoptimize: false, ..Default::default() });
        let ps = server
            .prepare_text("MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n")
            .unwrap();
        // Warm the cache serially: concurrent cold-start threads can race
        // get-before-insert and legitimately rewrite the same plan twice.
        let _ = server.execute(&ps, &Params::new().set("needle", "x").set("n", 1i64)).unwrap();
        let jobs: Vec<(PreparedStatement, Params)> = (0..32)
            .map(|i| {
                (
                    ps.clone(),
                    Params::new().set("needle", format!("Drug_name_{}", i % 5)).set("n", 4i64),
                )
            })
            .collect();
        replay(&server, &jobs, 4);
        assert_eq!(server.served(), 33);
        let stats = server.cache_stats();
        assert_eq!(stats.misses, 1, "one prepared shape, one rewrite");
        assert_eq!(stats.hits, 32);
    }

    #[test]
    fn prepared_handles_survive_recovery_with_signatures() {
        let dir = tempfile::tempdir().unwrap();
        let make = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
            let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
            (ontology, statistics, instance, frequencies)
        };
        let cfg = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
        let text = "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n";
        let params = Params::new().set("needle", "Drug_name").set("n", 3i64);
        let (plain_rows, param_rows) = {
            let (o, s, i, f) = make();
            let server = KgServer::new_persistent(
                o,
                s,
                i,
                f,
                cfg,
                pgso_persist::PersistConfig::new_unsynced(dir.path()),
            )
            .unwrap();
            let plain = prepare(&server, &lookup());
            let parameterized = server.prepare_text(text).unwrap();
            (run(&server, &plain).rows, server.execute(&parameterized, &params).unwrap().rows)
            // drop without checkpoint = kill; registrations live in the WAL
        };
        let (o, s, i, _) = make();
        let recovered =
            KgServer::recover(o, s, i, cfg, pgso_persist::PersistConfig::new_unsynced(dir.path()))
                .unwrap();
        let restored = recovered.prepared_statements();
        assert_eq!(restored.len(), 2, "both registrations recovered in order");
        assert!(restored[0].signature().is_empty());
        assert_eq!(restored[1].signature().names().collect::<Vec<_>>(), ["needle", "n"]);
        assert_eq!(run(&recovered, &restored[0]).rows, plain_rows);
        assert_eq!(recovered.execute(&restored[1], &params).unwrap().rows, param_rows);
    }

    #[test]
    fn metrics_snapshot_reports_latency_cache_and_stage_series() {
        let server = mini_server(ServerConfig { auto_reoptimize: false, ..Default::default() });
        let ps = prepare(&server, &lookup());
        for _ in 0..8 {
            let _ = run(&server, &ps);
        }
        let snapshot = server.metrics_snapshot();
        let latency = snapshot.histogram("query.latency").expect("query.latency registered");
        assert_eq!(latency.count, 8);
        assert!(latency.p50() > 0 && latency.p99() >= latency.p50());
        let root = snapshot.histogram("query.stage.root_selection").unwrap();
        // 8 serves draw detail tickets 0..8; only ticket 0 samples the
        // stage series (DETAIL_SAMPLE_EVERY = 8).
        assert_eq!(root.count, 1, "detail series is sampled 1-in-8");
        // Ids are dense registration indices: the first statement is 0.
        let per_prepared = snapshot.histogram("prepared.0.latency").unwrap();
        assert_eq!(per_prepared.count, 8);
        assert_eq!(snapshot.gauge("plan_cache.hits"), Some(7.0));
        assert_eq!(snapshot.gauge("plan_cache.misses"), Some(1.0));
        assert_eq!(snapshot.gauge("plan_cache.hit_ratio"), Some(7.0 / 8.0));
        assert_eq!(snapshot.gauge("server.served"), Some(8.0));
        assert_eq!(snapshot.gauge("epoch.number"), Some(0.0));
        let text = server.metrics_text();
        assert!(text.contains("query_latency_bucket"), "histogram exposition:\n{text}");
        assert!(text.contains("plan_cache_hit_ratio"), "gauge exposition:\n{text}");
    }

    #[test]
    fn metrics_snapshot_without_telemetry_still_mirrors_state() {
        let server = mini_server(ServerConfig {
            telemetry_enabled: false,
            auto_reoptimize: false,
            ..Default::default()
        });
        let _ = serve(&server, &lookup());
        assert!(server.telemetry().is_none());
        assert!(server.trace_events().is_empty());
        let snapshot = server.metrics_snapshot();
        assert!(snapshot.histograms.is_empty(), "no hot-path series when disabled");
        assert_eq!(snapshot.gauge("server.served"), Some(1.0));
        assert_eq!(snapshot.gauge("plan_cache.misses"), Some(1.0));
    }

    #[test]
    fn slow_query_log_emits_a_structured_event_past_the_threshold() {
        let server = mini_server(ServerConfig {
            // Zero threshold: every serve is "slow", deterministically.
            slow_query_log_threshold: Some(Duration::ZERO),
            auto_reoptimize: false,
            ..Default::default()
        });
        let text = "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n";
        let ps = server.prepare_text(text).unwrap();
        let params = Params::new().set("needle", "Drug").set("n", 3i64);
        let _ = server.execute(&ps, &params).unwrap();
        let events = server.trace_events();
        let slow: Vec<_> = events.iter().filter(|e| e.name == "slow_query").collect();
        assert_eq!(slow.len(), 1);
        let event = slow[0];
        assert!(event.duration.is_some());
        let field = |name: &str| {
            event
                .fields
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("field {name} in {event}"))
                .1
                .to_string()
        };
        let fp = fingerprint_statement(&parse_named(text, "prepared").unwrap());
        assert_eq!(field("fingerprint"), format!("{fp:016x}"));
        assert_eq!(field("params_hash"), format!("{:016x}", params_hash(&params)));
        assert_eq!(field("rows"), "3");
        assert!(field("expansion_ns").parse::<u64>().is_ok());
        assert_eq!(
            server.metrics_snapshot().counter("server.slow_queries"),
            Some(1),
            "slow-query counter tracks the log"
        );
        // Same shape, different bindings: the fingerprint stays, the
        // params hash distinguishes the executions.
        let other = Params::new().set("needle", "other").set("n", 9i64);
        let _ = server.execute(&ps, &other).unwrap();
        let events = server.trace_events();
        let second = events.iter().filter(|e| e.name == "slow_query").nth(1).unwrap();
        let second_hash =
            second.fields.iter().find(|(n, _)| *n == "params_hash").unwrap().1.to_string();
        assert_ne!(second_hash, field("params_hash"));
    }

    #[test]
    fn slow_query_log_is_off_by_default() {
        let server = mini_server(ServerConfig { auto_reoptimize: false, ..Default::default() });
        let _ = serve(&server, &lookup());
        assert!(server.trace_events().iter().all(|e| e.name != "slow_query"));
        assert_eq!(server.metrics_snapshot().counter("server.slow_queries"), Some(0));
    }

    #[test]
    fn params_hash_is_insertion_order_independent() {
        let a = Params::new().set("x", 1i64).set("y", "v");
        let b = Params::new().set("y", "v").set("x", 1i64);
        assert_eq!(params_hash(&a), params_hash(&b));
        assert_ne!(params_hash(&a), params_hash(&Params::new().set("x", 2i64).set("y", "v")));
        // Field boundaries matter: ("ab","c") != ("a","bc").
        assert_ne!(
            params_hash(&Params::new().set("ab", "c")),
            params_hash(&Params::new().set("a", "bc"))
        );
    }

    #[test]
    fn ingest_swaps_and_recovery_emit_trace_events() {
        let dir = tempfile::tempdir().unwrap();
        let make = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
            let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
            (ontology, statistics, instance, frequencies)
        };
        let cfg = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
        {
            let (o, s, i, f) = make();
            let server = KgServer::new_persistent(
                o,
                s,
                i,
                f,
                cfg,
                pgso_persist::PersistConfig::new_unsynced(dir.path()),
            )
            .unwrap();
            let _ = server.ingest(vec![new_drug(0), new_drug(1)]).unwrap();
            assert!(server.flush_ingest());
            let events = server.trace_events();
            let swap = events.iter().find(|e| e.name == "epoch.swap").expect("swap event");
            assert!(swap.to_string().contains("kind=ingest"));
            assert!(swap.to_string().contains("published=2"));
            let snapshot = server.metrics_snapshot();
            assert_eq!(snapshot.counter("epoch.ingest_swaps"), Some(1));
            assert!(snapshot.histogram("wal.append").unwrap().count >= 1, "ingest logged");
            assert!(snapshot.histogram("snapshot.write").unwrap().count >= 1, "anchor written");
        }
        let (o, s, i, _) = make();
        let recovered =
            KgServer::recover(o, s, i, cfg, pgso_persist::PersistConfig::new_unsynced(dir.path()))
                .unwrap();
        let snapshot = recovered.metrics_snapshot();
        assert_eq!(snapshot.histogram("recovery.replay").unwrap().count, 1);
        assert!(recovered.trace_events().iter().any(|e| e.name == "recovery.replay"));
    }
}

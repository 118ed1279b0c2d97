//! The concurrent serving engine.
//!
//! [`KgServer`] owns the schema-independent instance data and serves DIR
//! pattern queries from any number of threads. The mutable world is a single
//! [`Epoch`] — optimized schema plus the backend loaded under it — held in an
//! `Arc` behind an `RwLock`. Serving threads clone the `Arc` (one brief read
//! lock), so a schema swap is one pointer store under the write lock and
//! in-flight queries finish on the epoch they started with. No graph a
//! reader can reach is ever mutated: publication extends a retired epoch's
//! graph only once no one else holds that epoch.
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
//! Typed [`pgso_query::Statement`] values reach the server through their
//! `Display` text, which re-parses to an equal statement.
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
use crate::durable::{claim_fresh_dir, recover_start, PersistHandle};
use crate::publish::IngestState;
use crate::serve::PreparedEntry;
use crate::serve::ServedPlan;
use crate::telemetry::ServerTelemetry;
use crate::tracker::WorkloadTracker;
use parking_lot::{Mutex, RwLock};
use pgso_core::{OptimizerConfig, OptimizerInput};
use pgso_datagen::{load_into, InstanceKg};
use pgso_graphstore::{AccessStats, GraphBackend, GraphUpdate, MemoryGraph};
use pgso_ontology::{AccessFrequencies, DataStatistics, Ontology};
use pgso_persist::{JournaledGraph, PersistConfig};
use pgso_pgschema::PropertyGraphSchema;
use pgso_query::parse_named;
use pgso_telemetry::{MetricsRegistry, MetricsSnapshot, TraceEvent, WindowRates, WINDOW_SECS};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    pub(crate) graph: MemoryGraph,
}

impl Epoch {
    /// The backend, usable with [`pgso_query::execute_statement`].
    pub fn graph(&self) -> &dyn GraphBackend {
        &self.graph
    }

    /// Access counters of this generation's backend.
    pub fn stats(&self) -> AccessStats {
        self.graph.stats()
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
    /// schema came out identical, or when ingested updates name vertex ids
    /// that the new schema's base would give other labels or not hold).
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
    pub(crate) plan_cache: PlanCache<ServedPlan>,
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
        let (graph, base_journal) = build_graph(&self.ontology, &schema, &self.instance);
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
        let start = recover_start(&self.ontology, &persist.dir, telemetry.as_ref())?;
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
                retired: None,
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
            server.register_prepared(stmt, text);
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
    ///     .config(ServerConfig { check_interval: 64, ..ServerConfig::default() })
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

/// Loads `instance` under `schema` into a fresh [`MemoryGraph`], capturing
/// the construction journal through a [`pgso_persist::JournaledGraph`] — the
/// journal is what snapshots persist and what a publication that cannot
/// extend a retired graph replays.
pub(crate) fn build_graph(
    ontology: &Ontology,
    schema: &PropertyGraphSchema,
    instance: &InstanceKg,
) -> (MemoryGraph, Vec<GraphUpdate>) {
    let mut journaled = JournaledGraph::new(MemoryGraph::new());
    load_into(&mut journaled, ontology, schema, instance);
    journaled.into_parts()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{params_hash, PreparedStatement};
    use pgso_graphstore::apply_updates;
    use pgso_ontology::{catalog, StatisticsConfig};
    use pgso_query::{
        execute_statement, fingerprint_statement, rewrite_statement, BindError, Params, QueryMode,
        QueryPlan, QueryResult, Row, Statement,
    };

    fn mini_server(config: ServerConfig) -> KgServer {
        let ontology = catalog::med_mini();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
        let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
        let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
        KgServer::new(ontology, statistics, instance, frequencies, config)
    }

    fn lookup() -> Statement {
        Statement::builder("lookup").node("d", "Drug").ret_property("d", "name").build()
    }

    /// Typed statements reach the server the one way there is: as text.
    fn serve(server: &KgServer, stmt: &Statement) -> QueryResult {
        server.serve_text(&stmt.to_string()).expect("a statement's Display text parses")
    }

    fn prepare(server: &KgServer, stmt: &Statement) -> PreparedStatement {
        server.prepare_text(&stmt.to_string()).expect("a statement's Display text parses")
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
            // NaN is never equal to itself, so this statement does not
            // re-parse to an equal one; it is persisted as the text it was
            // prepared from, and must prepare and serve …
            let nan =
                server.prepare_text("MATCH (d:Drug) WHERE d.name = NaN RETURN d.name").unwrap();
            assert!(run(&server, &nan).rows.is_empty(), "NaN never compares");
            // … beside null/list literals.
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
        // Both registrations survive.
        assert_eq!(recovered.prepared_statements().len(), 2);
    }

    #[test]
    fn prepared_statements_recover_from_the_text_they_were_prepared_from() {
        let dir = tempfile::tempdir().unwrap();
        let make = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
            (ontology, statistics, instance)
        };
        let cfg = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
        let persist = || pgso_persist::PersistConfig::new_unsynced(dir.path());
        let statements = [
            ("MATCH (d:Drug) WHERE d.name = NaN RETURN d.name", Params::new()),
            (
                "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n",
                Params::new().set("needle", "Drug").set("n", 3i64),
            ),
        ];
        let before: Vec<_> = {
            let (o, s, i) = make();
            let f = AccessFrequencies::uniform(&o, 10_000.0);
            let server = KgServer::new_persistent(o, s, i, f, cfg, persist()).unwrap();
            let before = (statements.iter())
                .map(|(text, params)| {
                    let prepared = server.prepare_text(text).unwrap();
                    let rows = server.execute(&prepared, params).unwrap().rows;
                    (prepared.id(), prepared.signature().clone(), rows)
                })
                .collect();
            // kill without checkpoint
            before
        };
        assert!(!before[1].2.is_empty(), "the plain statement answers something");
        let (o, s, i) = make();
        let recovered = KgServer::recover(o, s, i, cfg, persist()).unwrap();
        let handles = recovered.prepared_statements();
        assert_eq!(handles.len(), statements.len(), "every registration survives");
        for ((id, signature, rows), (handle, (text, params))) in
            before.iter().zip(handles.iter().zip(&statements))
        {
            assert_eq!(handle.id(), *id, "{text}");
            assert_eq!(handle.signature(), signature, "{text}");
            assert_eq!(&recovered.execute(handle, params).unwrap().rows, rows, "{text}");
        }
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

    /// What the structural validator finds in a published epoch today:
    /// ingest applies physical updates unchecked, so a `treat` edge between
    /// two ingested drugs lands although the optimized schema has only
    /// `(Drug)-[treat]->(IndicationCondition)`. Direction 11 (ingest in
    /// the ontology's vocabulary) must empty this list; a listed violation
    /// that stops being reported fails the test until it is taken off.
    const INGEST_KNOWN_VIOLATIONS: [&str; 1] =
        ["edge {a} -> {b} is (Drug)-[treat]->(Drug), which is no edge type"];

    #[test]
    fn validator_reports_an_ingested_edge_the_schema_lacks() {
        let server = mini_server(ServerConfig { auto_reoptimize: false, ..Default::default() });
        let epoch = server.current_epoch();
        assert_eq!(pgso_datagen::validate(epoch.graph(), &epoch.schema), [], "the loaded base");
        let a = epoch.graph().vertex_count() as u64;
        let (src, dst) = (pgso_graphstore::VertexId(a), pgso_graphstore::VertexId(a + 1));
        let edge = GraphUpdate::AddEdge { label: "treat".into(), src, dst };
        server.ingest(vec![new_drug(0), new_drug(1), edge]).unwrap();
        assert!(server.flush_ingest());
        let published = server.current_epoch();
        let found: Vec<String> = pgso_datagen::validate(published.graph(), &published.schema)
            .iter()
            .map(ToString::to_string)
            .collect();
        let known = INGEST_KNOWN_VIOLATIONS
            .map(|v| v.replace("{a}", &a.to_string()).replace("{b}", &(a + 1).to_string()));
        assert_eq!(found, known);
    }

    #[test]
    fn ingest_refuses_names_the_record_format_cannot_hold() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ServerConfig {
            auto_reoptimize: false,
            ingest: IngestConfig { publish_batch: 1, publish_interval: Duration::from_secs(3600) },
            ..ServerConfig::default()
        };
        let make = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.2, 7);
            (ontology, statistics, instance)
        };
        let persist = || pgso_persist::PersistConfig::new_unsynced(dir.path());
        let before = {
            let (o, s, i) = make();
            let f = AccessFrequencies::uniform(&o, 10_000.0);
            let server = KgServer::new_persistent(o, s, i, f, cfg, persist()).unwrap();
            server.ingest(vec![new_drug(0)]).unwrap();
            // A 70,000-byte property name used to be acked with a wrapped
            // u16 length — and every later `recover` panicked decoding it.
            let name = "n".repeat(70_000);
            let long_name = GraphUpdate::AddVertex {
                label: "Drug".into(),
                properties: pgso_graphstore::props([(name.as_str(), "x".into())]),
            };
            let err = server.ingest(vec![new_drug(1), long_name]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!((server.published_updates(), server.pending_updates()), (1, 0));
            serve(&server, &lookup()).rows
        };
        let (o, s, i) = make();
        let recovered = KgServer::recover(o, s, i, cfg, persist()).unwrap();
        assert_eq!(recovered.published_updates(), 1, "nothing of the refused batch was logged");
        assert_eq!(serve(&recovered, &lookup()).rows, before);
    }

    #[test]
    fn ingest_refuses_edges_to_vertices_that_do_not_exist() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ServerConfig {
            auto_reoptimize: false,
            ingest: IngestConfig { publish_batch: 8, publish_interval: Duration::from_secs(3600) },
            ..ServerConfig::default()
        };
        let make = || {
            let ontology = catalog::med_mini();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.2, 7);
            (ontology, statistics, instance)
        };
        let persist = || pgso_persist::PersistConfig::new_unsynced(dir.path());
        let edge = |src: u64, dst: u64| GraphUpdate::AddEdge {
            label: "treat".into(),
            src: pgso_graphstore::VertexId(src),
            dst: pgso_graphstore::VertexId(dst),
        };
        let before = {
            let (o, s, i) = make();
            let f = AccessFrequencies::uniform(&o, 10_000.0);
            let server = KgServer::new_persistent(o, s, i, f, cfg, persist()).unwrap();
            let published = server.current_epoch().graph().vertex_count() as u64;
            // Vertex ids are predicted: a staged vertex and one added earlier
            // in the same batch are both valid endpoints.
            server.ingest(vec![new_drug(0)]).unwrap();
            server.ingest(vec![new_drug(1), edge(published, published + 1)]).unwrap();
            // One past the last vertex that will exist, in either position.
            // These used to be acked into the WAL, and then the publication
            // and every later `recover` panicked applying them.
            for dangling in [edge(published + 3, 0), edge(0, published + 3)] {
                let err = server.ingest(vec![new_drug(2), dangling]).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
                assert_eq!((server.published_updates(), server.pending_updates()), (0, 3));
            }
            assert!(server.flush_ingest());
            serve(&server, &lookup()).rows
        };
        let (o, s, i) = make();
        let recovered = KgServer::recover(o, s, i, cfg, persist()).unwrap();
        assert_eq!(recovered.published_updates(), 3, "nothing of the refused batches was logged");
        assert_eq!(serve(&recovered, &lookup()).rows, before);
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

    /// Statements the publication tests compare rows on: a label scan that
    /// sees ingested vertices, and a hop that sees ingested edges.
    const PUBLISHED_TEXTS: [&str; 2] = [
        "MATCH (d:Drug) RETURN d.name ORDER BY d.name",
        "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc",
    ];

    /// `text`'s rows on `graph`, rewritten onto `schema` as the server
    /// rewrites it.
    fn rows_on(graph: &dyn GraphBackend, schema: &PropertyGraphSchema, text: &str) -> Vec<Row> {
        let stmt = parse_named(text, "adhoc").unwrap();
        execute_statement(&rewrite_statement(&stmt, schema), graph).rows
    }

    /// Asserts that the served epoch is `base_journal ++ ingested` replayed
    /// into a fresh graph — the same update sequence, the same rows — and
    /// that it conforms to the schema it serves.
    fn assert_serves_a_fresh_replay(server: &KgServer, step: &str) {
        let (epoch, fresh) = {
            let ing = server.ingest.lock();
            let mut fresh = MemoryGraph::new();
            apply_updates(&mut fresh, &ing.base_journal);
            apply_updates(&mut fresh, &ing.ingested);
            (server.current_epoch(), fresh)
        };
        assert!(
            epoch.graph().export_updates() == fresh.export_updates(),
            "{step}: the served graph is not the journal"
        );
        assert_eq!(pgso_datagen::validate(epoch.graph(), &epoch.schema), [], "{step}");
        for text in PUBLISHED_TEXTS {
            let expected = rows_on(&fresh, &epoch.schema, text);
            assert!(!expected.is_empty(), "{text} must exercise real data");
            assert_eq!(server.serve_text(text).unwrap().rows, expected, "{step}: {text}");
        }
    }

    /// How each publication got its graph, oldest first: the `graph` field
    /// of every ingest `epoch.swap` event.
    fn publication_graphs(server: &KgServer) -> Vec<String> {
        let events = server.trace_events();
        let swaps = events.iter().filter(|e| e.name == "epoch.swap");
        swaps
            .filter_map(|e| e.fields.iter().find(|(name, _)| *name == "graph"))
            .map(|(_, how)| how.to_string())
            .collect()
    }

    /// Four new drugs and two `treat` edges between base vertices, looked
    /// up on the current epoch: each runs from a vertex of the label its
    /// schema's `treat` edge type starts at to one of the label it ends at,
    /// so the published graph keeps conforming. Base ids exist under any
    /// schema (a schema swap that would renumber the base declines while
    /// ingested updates name its ids).
    fn publication_batch(server: &KgServer, first: u32) -> Vec<GraphUpdate> {
        let epoch = server.current_epoch();
        let treat = epoch.schema.edges().find(|edge| edge.label == "treat").expect("treat edges");
        let with_label = |label: &str| {
            let mut ids = Vec::new();
            epoch.graph().for_each_with_label(label, &mut |id| ids.push(id));
            ids
        };
        let (sources, targets) = (with_label(&treat.src), with_label(&treat.dst));
        let edge = |at: usize| GraphUpdate::AddEdge {
            label: "treat".into(),
            src: sources[at % sources.len()],
            dst: targets[at % targets.len()],
        };
        let at = first as usize % 8;
        let mut batch: Vec<GraphUpdate> = (first..first + 4).map(new_drug).collect();
        batch.extend([edge(at), edge(at + 2)]);
        batch
    }

    #[test]
    fn publication_serves_what_a_fresh_replay_serves_on_every_tier() {
        // Patient-centric statements the schema is optimized for, and the
        // drug-centric mix that drifts it: with a space budget the schema
        // is workload-sensitive, so the drift re-optimizes and swaps.
        const PATIENT_MIX: [&str; 2] = [
            "MATCH (p:Patient)-[:hasEncounter]->(e:Encounter) RETURN size(collect(e.encounterId))",
            "MATCH (p:Patient)-[:hasDiagnosis]->(g:Diagnosis) RETURN size(collect(g.code))",
        ];
        const DRUG_MIX: [&str; 2] = [
            "MATCH (d:Drug)-[:hasDrugRoute]->(r:DrugRoute) RETURN size(collect(r.drugRouteId))",
            "MATCH (d:Drug)-[:hasSideEffect]->(s:SideEffect) RETURN size(collect(s.name))",
        ];
        let make = || {
            let ontology = catalog::medical();
            let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 23);
            let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 23);
            (ontology, statistics, instance)
        };
        let dir = tempfile::tempdir().unwrap();
        let persist = || pgso_persist::PersistConfig::new_unsynced(dir.path());
        let (o, s, i) = make();
        let tracker = WorkloadTracker::new(&o);
        for text in PATIENT_MIX.iter().cycle().take(20) {
            tracker.record_statement(&o, &parse_named(text, "mix").unwrap());
        }
        let initial = tracker.to_frequencies(&o, 10_000.0);
        let nsc = pgso_core::optimize_nsc(
            OptimizerInput::new(&o, &s, &initial),
            &OptimizerConfig::default(),
        );
        let cfg = ServerConfig {
            optimizer: OptimizerConfig::with_space_limit(nsc.total_cost / 8),
            auto_reoptimize: false,
            ingest: IngestConfig {
                publish_batch: usize::MAX,
                publish_interval: Duration::from_secs(3600),
            },
            ..ServerConfig::default()
        };
        let cycle = |server: &KgServer, first: u32| {
            server.ingest(publication_batch(server, first)).unwrap();
            assert!(server.flush_ingest());
            assert_serves_a_fresh_replay(server, &format!("publication {first}"));
        };
        {
            let server = KgServer::new_persistent(o, s, i, initial, cfg, persist()).unwrap();
            let drift_to = |mix: [&str; 2]| {
                for text in mix.iter().cycle().take(120) {
                    server.serve_text(text).unwrap();
                }
                server.try_reoptimize().expect("the mix drifts past 0.25")
            };
            // Nothing ingested yet: the swap loads the new schema's base.
            assert!(drift_to(DRUG_MIX).swapped, "the schema must change");
            assert_serves_a_fresh_replay(&server, "after the schema swap");
            for first in [0, 4, 8] {
                cycle(&server, first);
            }
            // Drifting back changes what the base's vertices store, not
            // which vertex each id names, so this swap goes through with the
            // published updates in place.
            assert!(drift_to(PATIENT_MIX).swapped, "the schema must change back");
            assert_serves_a_fresh_replay(&server, "after the swap back");
            for first in [12, 16] {
                cycle(&server, first);
            }
            // The first publication rebuilds, and so does the first after
            // the swap back; every other one extends the retired graph.
            let graphs = ["rebuilt", "reused", "reused", "rebuilt", "reused"];
            assert_eq!(publication_graphs(&server), graphs);
            // Staged (WAL-only) at the kill.
            server.ingest(publication_batch(&server, 20)).unwrap();
        }
        let (o, s, i) = make();
        let recovered = KgServer::recover(o, s, i, cfg, persist()).unwrap();
        assert_eq!(recovered.published_updates(), 6 * publication_batch(&recovered, 0).len());
        assert_eq!(recovered.current_epoch().schema_generation, 2);
        assert_serves_a_fresh_replay(&recovered, "after recovery");
        for first in [24, 28] {
            cycle(&recovered, first);
        }
        assert_eq!(publication_graphs(&recovered), ["rebuilt", "reused"]);
    }

    #[test]
    fn a_held_epoch_is_never_written() {
        let server = mini_server(ServerConfig {
            auto_reoptimize: false,
            ingest: IngestConfig {
                publish_batch: usize::MAX,
                publish_interval: Duration::from_secs(3600),
            },
            ..ServerConfig::default()
        });
        let publish = |first: u32| {
            server.ingest(publication_batch(&server, first)).unwrap();
            assert!(server.flush_ingest());
            publication_graphs(&server).pop().unwrap()
        };
        let state = |epoch: &Epoch| {
            let graph = epoch.graph();
            let rows = PUBLISHED_TEXTS.map(|text| rows_on(graph, &epoch.schema, text));
            (graph.vertex_count(), graph.edge_count(), rows)
        };
        let drugs = serve(&server, &lookup()).matches;
        let first = server.current_epoch();
        assert!(first.stats().vertex_reads > 0, "epoch 0 has served reads");
        drop(first);
        assert_eq!(publish(0), "rebuilt", "nothing is retired yet");
        let held = server.current_epoch();
        let before = state(&held);
        // Nobody holds epoch 0 any more: its graph is extended, and its
        // counters start again from zero.
        assert_eq!(publish(4), "reused");
        assert_eq!(server.current_epoch().stats(), AccessStats::default());
        assert_serves_a_fresh_replay(&server, "extending the retired graph");
        // That publication retired the epoch this test holds, so the next one
        // must not write it: it rebuilds.
        assert_eq!(publish(8), "rebuilt");
        assert_serves_a_fresh_replay(&server, "rebuilding beside a held epoch");
        assert_eq!(state(&held), before, "the held epoch is untouched");
        assert_eq!(serve(&server, &lookup()).matches, drugs + 12);
    }
}

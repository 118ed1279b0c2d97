//! Server-side observability: the engine's pre-registered metric handles
//! and its structured trace.
//!
//! One [`ServerTelemetry`] is created per [`crate::KgServer`] (when
//! [`crate::ServerConfig::telemetry_enabled`] is on) and shared by serving,
//! ingest, snapshot and recovery paths. Every instrument the hot path
//! touches is resolved once here — serving a query records into `Arc`'d
//! atomics and never takes the registry lock.
//!
//! # Metric names
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `query.latency` | histogram | end-to-end serve time, ns |
//! | `query.stage.root_selection` … `query.stage.windowing` | histogram | executor stage time, ns (sampled) |
//! | `server.parse` / `server.parameterize` | histogram | text-path front-end time, ns |
//! | `server.cache_lookup` / `server.rewrite` / `server.execute` | histogram | serve pipeline phases, ns (sampled; `rewrite` always); `execute` includes checking the parameters |
//! | `prepared.<id>.latency` | histogram | per-prepared-statement serve time, ns (first [`DEFAULT_PREPARED_SERIES_LIMIT`] ids) |
//! | `prepared.other.latency` | histogram | shared overflow series for prepared ids past the limit |
//! | `server.slow_queries` | counter | serves past the slow-query threshold |
//! | `epoch.ingest_swaps` / `epoch.schema_swaps` | counter | epoch publications / re-optimizations |
//! | `wal.append` / `wal.fsync` / `wal.batch_records` / `wal.appends` / `wal.appended_bytes` | see `pgso_persist::WalTelemetry` | |
//! | `snapshot.write` | histogram | snapshot write+rename+dirsync time, ns |
//! | `snapshot.bytes` | counter | snapshot bytes written |
//! | `snapshot.rotations` | counter | WAL rotations |
//! | `recovery.replay` | histogram | journal replay time on recover, ns |
//! | `trace.dropped` | gauge | trace-ring events overwritten before being read (refreshed at snapshot read) |
//!
//! A listener in front of the engine (`pgso-net`) registers its wire-layer
//! series into this same registry, so one exposition covers both:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `net.connections.open` / `net.connections.total` | gauge / counter | currently connected peers / connections ever accepted |
//! | `net.bytes.in` / `net.bytes.out` | counter | payload bytes read from / written to sockets |
//! | `net.requests` / `net.errors` | counter | frames decoded into requests / ERROR responses sent |
//! | `net.request.latency` | histogram | wire latency of EXECUTE/RUN, ns |
//! | `net.slow_requests` | counter | wire requests past the listener's slow threshold |
//!
//! Gauges (`plan_cache.*`, `server.served`, `epoch.number`, …) are mirrors
//! of engine state, refreshed by [`crate::KgServer::metrics_snapshot`] at
//! read time rather than written on the hot path.
//!
//! Besides the registry series, [`ServerTelemetry`] owns the
//! [`RollingWindows`] behind [`crate::KgServer::health_summary`]: every
//! serve records a request (and the wire layer records its errors) into
//! lock-free per-second buckets, from which the summary reports 1 s / 10 s /
//! 60 s q/s and error rates without any per-event retention.
//!
//! # Detail sampling
//!
//! The end-to-end series (`query.latency`, `prepared.<id>.latency`, the
//! slow-query log) record **every** serve. The detail series — per-stage
//! executor timings and the cache-lookup/execute pipeline phases — are
//! recorded for one serve in [`DETAIL_SAMPLE_EVERY`], chosen round-robin by
//! a shared counter. The phase breakdown of serves that all take a few
//! microseconds is statistically identical at 1-in-8 resolution, and
//! sampling is what keeps the always-on overhead of the instrumented hot
//! path under the 5% q/s budget (each detail serve costs two extra clock
//! reads and eight extra histogram records).

use parking_lot::RwLock;
use pgso_persist::WalTelemetry;
use pgso_telemetry::{Counter, Histogram, MetricsRegistry, RollingWindows, TraceBuffer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One serve in this many records the detail series (stage timings and
/// pipeline phase histograms). The first serve is always sampled.
pub const DETAIL_SAMPLE_EVERY: u64 = 8;

/// Cap on distinct `prepared.<id>.latency` series: the first this-many
/// prepared ids get their own series, later ones share
/// `prepared.other.latency`, so a workload preparing statements without
/// bound cannot grow the metrics registry without bound.
pub const DEFAULT_PREPARED_SERIES_LIMIT: usize = 256;

/// Capacity of the structured trace ring (events retained before the oldest
/// are overwritten).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Pre-resolved instrument handles plus the trace ring for one server.
#[derive(Debug)]
pub struct ServerTelemetry {
    registry: Arc<MetricsRegistry>,
    trace: Arc<TraceBuffer>,
    /// `query.latency`.
    pub query_latency: Arc<Histogram>,
    /// `query.stage.*`, in [`pgso_telemetry::StageTimings::stages`] order.
    pub stage: [Arc<Histogram>; 5],
    /// `server.parse`.
    pub parse: Arc<Histogram>,
    /// `server.parameterize`.
    pub parameterize: Arc<Histogram>,
    /// `server.cache_lookup`.
    pub cache_lookup: Arc<Histogram>,
    /// `server.rewrite`.
    pub rewrite: Arc<Histogram>,
    /// `server.execute`.
    pub execute: Arc<Histogram>,
    /// `server.slow_queries`.
    pub slow_queries: Arc<Counter>,
    /// `epoch.ingest_swaps`.
    pub ingest_swaps: Arc<Counter>,
    /// `epoch.schema_swaps`.
    pub schema_swaps: Arc<Counter>,
    /// `snapshot.write`.
    pub snapshot_write: Arc<Histogram>,
    /// `snapshot.bytes`.
    pub snapshot_bytes: Arc<Counter>,
    /// `snapshot.rotations`.
    pub snapshot_rotations: Arc<Counter>,
    /// `recovery.replay`.
    pub recovery_replay: Arc<Histogram>,
    /// WAL handles, cloned into every [`pgso_persist::WalWriter`] the
    /// server opens (rotation included), so the series survives rotations.
    pub wal: WalTelemetry,
    /// `prepared.<id>.latency`, lazily registered per prepared statement.
    per_prepared: RwLock<HashMap<usize, Arc<Histogram>>>,
    /// Cap on distinct per-prepared series; ids past it share
    /// [`ServerTelemetry::prepared_overflow`].
    prepared_series_limit: usize,
    /// `prepared.other.latency` — the shared overflow series.
    prepared_overflow: Arc<Histogram>,
    /// Rolling request/error rate windows behind
    /// [`crate::KgServer::health_summary`].
    pub windows: RollingWindows,
    /// Metric-name prefix every instrument was registered under (empty for
    /// a private registry; `tenant.<name>.` under a multi-tenant host).
    prefix: String,
    /// Round-robin chooser for the detail series (see the module docs).
    detail_counter: AtomicU64,
}

impl ServerTelemetry {
    /// Resolves every engine instrument inside `registry`, prefixing each
    /// metric name with `prefix` — empty for a server that owns its
    /// registry, `tenant.alpha.` and the like under a multi-tenant host,
    /// which is how each tenant gets its own series
    /// (`{prefix}query.latency`, `{prefix}prepared.<id>.latency`, …) in one
    /// shared exposition without name collisions. The trace ring and the
    /// rolling health windows stay private to this instance: traces and q/s
    /// summaries are per-tenant even when the registry is shared.
    pub fn new(registry: Arc<MetricsRegistry>, prefix: String) -> Self {
        Self::with_limits(registry, prefix, DEFAULT_TRACE_CAPACITY, DEFAULT_PREPARED_SERIES_LIMIT)
    }

    /// [`ServerTelemetry::new`] with explicit ring and series caps, so the
    /// unit tests can reach the overflow paths with a handful of events.
    fn with_limits(
        registry: Arc<MetricsRegistry>,
        prefix: String,
        trace_capacity: usize,
        prepared_series_limit: usize,
    ) -> Self {
        let name = |suffix: &str| format!("{prefix}{suffix}");
        let stage = [
            registry.histogram(&name("query.stage.root_selection")),
            registry.histogram(&name("query.stage.expansion")),
            registry.histogram(&name("query.stage.optional")),
            registry.histogram(&name("query.stage.aggregate")),
            registry.histogram(&name("query.stage.windowing")),
        ];
        Self {
            trace: Arc::new(TraceBuffer::new(trace_capacity)),
            query_latency: registry.histogram(&name("query.latency")),
            stage,
            parse: registry.histogram(&name("server.parse")),
            parameterize: registry.histogram(&name("server.parameterize")),
            cache_lookup: registry.histogram(&name("server.cache_lookup")),
            rewrite: registry.histogram(&name("server.rewrite")),
            execute: registry.histogram(&name("server.execute")),
            slow_queries: registry.counter(&name("server.slow_queries")),
            ingest_swaps: registry.counter(&name("epoch.ingest_swaps")),
            schema_swaps: registry.counter(&name("epoch.schema_swaps")),
            snapshot_write: registry.histogram(&name("snapshot.write")),
            snapshot_bytes: registry.counter(&name("snapshot.bytes")),
            snapshot_rotations: registry.counter(&name("snapshot.rotations")),
            recovery_replay: registry.histogram(&name("recovery.replay")),
            wal: WalTelemetry::register_prefixed(&registry, &prefix),
            per_prepared: RwLock::new(HashMap::new()),
            prepared_series_limit,
            prepared_overflow: registry.histogram(&name("prepared.other.latency")),
            windows: RollingWindows::new(),
            detail_counter: AtomicU64::new(0),
            prefix,
            registry,
        }
    }

    /// True when the serve drawing this ticket should record the detail
    /// series: one in [`DETAIL_SAMPLE_EVERY`], starting with the first.
    #[inline]
    pub fn sample_detail(&self) -> bool {
        self.detail_counter.fetch_add(1, Ordering::Relaxed).is_multiple_of(DETAIL_SAMPLE_EVERY)
    }

    /// The underlying registry (for mirrors, snapshots and bench readers).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The metric-name prefix this instance registers under (`""` for a
    /// private registry). Gauge mirrors use it so read-time series like
    /// `plan_cache.size` land next to the hot-path series of the same
    /// server.
    pub fn metric_prefix(&self) -> &str {
        &self.prefix
    }

    /// The structured trace ring.
    pub fn trace(&self) -> &Arc<TraceBuffer> {
        &self.trace
    }

    /// The latency histogram of prepared statement `id`, registered as
    /// `prepared.<id>.latency` on first use. Once `prepared_series_limit`
    /// distinct ids have their own series, further ids share
    /// `prepared.other.latency` — the registry stays bounded however many
    /// statements a workload prepares.
    pub fn prepared_latency(&self, id: usize) -> Arc<Histogram> {
        if let Some(hist) = self.per_prepared.read().get(&id) {
            return hist.clone();
        }
        let mut map = self.per_prepared.write();
        if let Some(hist) = map.get(&id) {
            return hist.clone();
        }
        if map.len() >= self.prepared_series_limit {
            return self.prepared_overflow.clone();
        }
        let hist = self.registry.histogram(&format!("{}prepared.{id}.latency", self.prefix));
        map.insert(id, hist.clone());
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_series_cap_overflows_into_shared_histogram() {
        let telemetry =
            ServerTelemetry::with_limits(Arc::new(MetricsRegistry::new()), String::new(), 16, 2);
        telemetry.prepared_latency(0).record(10);
        telemetry.prepared_latency(1).record(20);
        // Past the cap: both land in the shared overflow series.
        telemetry.prepared_latency(2).record(30);
        telemetry.prepared_latency(3).record(40);
        // A capped id keeps its own series on re-lookup.
        telemetry.prepared_latency(0).record(11);
        // Dots render as underscores in the text exposition.
        let text = telemetry.registry().snapshot().render_text();
        assert!(text.contains("prepared_0_latency"), "{text}");
        assert!(text.contains("prepared_1_latency_count 1"), "{text}");
        assert!(!text.contains("prepared_2_latency"), "{text}");
        assert!(!text.contains("prepared_3_latency"), "{text}");
        assert!(text.contains("prepared_other_latency_count 2"), "{text}");
    }

    #[test]
    fn prefixed_instances_coexist_in_one_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let a = ServerTelemetry::with_limits(registry.clone(), "tenant.a.".into(), 16, 4);
        let b = ServerTelemetry::with_limits(registry.clone(), "tenant.b.".into(), 16, 4);
        assert_eq!(a.metric_prefix(), "tenant.a.");
        a.query_latency.record(10);
        b.query_latency.record(20);
        b.query_latency.record(30);
        a.prepared_latency(0).record(5);
        b.prepared_latency(0).record(7);
        a.wal.appends.inc();
        let text = registry.snapshot().render_text();
        assert!(text.contains("tenant_a_query_latency_count 1"), "{text}");
        assert!(text.contains("tenant_b_query_latency_count 2"), "{text}");
        assert!(text.contains("tenant_a_prepared_0_latency_count 1"), "{text}");
        assert!(text.contains("tenant_b_prepared_0_latency_count 1"), "{text}");
        assert!(text.contains("tenant_a_wal_appends 1"), "{text}");
        // Traces stay per-instance even though the registry is shared.
        assert!(!Arc::ptr_eq(a.trace(), b.trace()));
    }
}

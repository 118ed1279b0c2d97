//! # pgso — Property Graph Schema Optimization for Domain-Specific Knowledge Graphs
//!
//! A Rust reproduction of Lei et al., *"Property Graph Schema Optimization
//! for Domain-Specific Knowledge Graphs"* (ICDE 2021). This facade crate
//! re-exports the workspace crates so applications can depend on a single
//! crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ontology`] | `pgso-ontology` | ontology model, DSL, MED/FIN catalog, statistics, workload summaries |
//! | [`pgschema`] | `pgso-pgschema` | property graph schema model, DDL emission, diffs |
//! | [`optimizer`] | `pgso-core` | relationship rules, OntologyPR, cost-benefit model, NSC / CC / RC / PGSG |
//! | [`graphstore`] | `pgso-graphstore` | in-memory, disk-backed (paged, buffer pool) and CSR read-optimized property graph storage |
//! | [`query`] | `pgso-query` | one statement type (pattern plus WHERE/OPTIONAL/ORDER BY/LIMIT, `$name` parameters, aggregation + GROUP BY), Cypher-like text parser, executor, DIR→OPT rewriter, plan fingerprints |
//! | [`datagen`] | `pgso-datagen` | synthetic instance generation, schema-conforming loading, streaming update generation |
//! | [`persist`] | `pgso-persist` | write-ahead log, epoch snapshots, crash recovery |
//! | [`telemetry`] | `pgso-telemetry` | metrics registry (counters, gauges, log-scaled latency histograms), structured trace ring, Prometheus-style text exposition |
//! | [`server`] | `pgso-server` | concurrent serving engine: one builder, a `prepare_text` / `execute` / `serve_text` statement surface with named parameters, plan cache, workload tracking, adaptive re-optimization, WAL-backed ingest |
//! | [`net`] | `pgso-net` | binary wire protocol + thread-per-connection TCP layer: `KgListener` serves a `TenantHost` (or a single `KgServer`) to remote `KgClient`s with pipelining, `USE` tenant selection and graceful shutdown |
//! | [`tenant`] | `pgso-tenant` | multi-tenant hosting: `TenantHost` runs many independent graphs in one process with per-tenant quotas, admission control and namespaced persistence |
//!
//! ## Quick start
//!
//! ```
//! use pgso::prelude::*;
//!
//! // 1. Take a domain ontology (here: the paper's motivating example).
//! let ontology = pgso::ontology::catalog::med_mini();
//!
//! // 2. Describe the data and the workload.
//! let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 42);
//! let workload = AccessFrequencies::generate(
//!     &ontology,
//!     WorkloadDistribution::default_zipf(),
//!     10_000.0,
//!     42,
//! );
//!
//! // 3. Optimize the property graph schema (here without a space budget).
//! let outcome = optimize_nsc(
//!     OptimizerInput::new(&ontology, &stats, &workload),
//!     &OptimizerConfig::default(),
//! );
//!
//! // The optimized schema replicates Indication.desc onto Drug as a LIST
//! // property and removes the Risk union vertex (Figure 1(c) of the paper).
//! assert!(outcome.schema.vertex("Drug").unwrap().has_property("Indication.desc"));
//! assert!(!outcome.schema.has_vertex("Risk"));
//! ```
//!
//! ## Observability
//!
//! The serving stack is instrumented end to end through [`telemetry`]
//! (enabled by default, [`server::ServerConfig::telemetry_enabled`]):
//!
//! * [`server::KgServer::metrics_snapshot`] returns a
//!   [`telemetry::MetricsSnapshot`] — serve-latency percentiles
//!   (`query.latency`), sampled per-stage executor timings
//!   (`query.stage.*`), serve-pipeline phases, per-prepared-statement
//!   series, WAL append/fsync and snapshot/recovery timings, and gauges
//!   mirroring engine state (plan-cache hit ratio, epoch, drift, ingest
//!   backlog). [`telemetry::MetricsSnapshot::render_text`] emits it in
//!   Prometheus-style text exposition format, and a
//!   [`net::KgClient`] scrapes the same snapshot over the wire
//!   (`observe_metrics_snapshot`).
//! * [`server::KgServer::trace_events`] drains a bounded in-memory ring of
//!   structured [`telemetry::TraceEvent`]s: epoch swaps (ingest and schema
//!   re-optimization), recovery replay, and — when
//!   [`server::ServerConfig::slow_query_log_threshold`] is set — a
//!   slow-query log entry carrying the statement fingerprint, a hash of the
//!   bound parameters and nanosecond stage timings.
//! * Every [`query::QueryResult`] carries its [`query::StageTimings`], and
//!   [`query::emit_exec_trace`] turns them into per-stage trace events under
//!   a span the caller holds.
//! * `EXPLAIN` / `PROFILE` are statement prefixes:
//!   [`server::KgServer::serve_text`] answers them with the typed
//!   [`query::QueryPlan`] lowered onto tagged rows, and
//!   [`query::QueryPlan::from_rows`] rebuilds it — in process exactly as a
//!   wire client does.
//! * What any of this costs is measured by the repository benchmark
//!   (`benchmark/`, declared in `BENCHMARK.json`): end-to-end metrics per
//!   workload plus an outside-in per-layer trace, the only numbers a
//!   performance claim may cite. See `examples/networked_kg.rs` for a live
//!   tour over the wire (EXPLAIN/PROFILE, trace drain, OBSERVE scrape).
//!
//! ## Storage backends
//!
//! [`graphstore`] has three backends behind one [`graphstore::GraphBackend`]
//! trait, with bit-identical query answers: [`graphstore::MemoryGraph`]
//! (adjacency lists and per-vertex property maps),
//! [`graphstore::DiskGraph`] (paged vertex records behind an LRU buffer
//! pool, the disk store of the paper's Neo4j comparison) and
//! [`graphstore::CsrGraph`] (type-segmented, delta/varint-compressed CSR
//! adjacency and typed property columns, compiled from any replayable
//! backend by [`graphstore::CsrGraph::freeze`]). `MemoryGraph` is the one
//! that serves: every [`server::Epoch`] holds one. The other two are what
//! the paper's figures and `benchmark/`'s `graphstore.*` per-layer probes
//! measure the same graph on.
//!
//! ## Networking
//!
//! [`net`] puts a TCP front-end on the serving engine, so real clients reach
//! a [`server::KgServer`] over a socket instead of only in-process calls:
//!
//! * a length-framed **binary wire protocol** (`len(u32 le) opcode(u8)
//!   payload`, one protocol revision) carrying the handshake, PREPARE with
//!   client-chosen handles, EXECUTE with named parameters, ad-hoc RUN,
//!   streamed ROWS chunks + SUMMARY, and typed ERROR frames — parameter and
//!   result values travel in the same [`graphstore`] codec bytes the WAL and
//!   disk backend use (full format: `crates/net/README.md`);
//! * [`net::KgListener`] — a blocking thread-per-connection server (accept
//!   thread + one thread per connection, no async runtime) with
//!   **pipelining**: many requests queued per connection, responses
//!   strictly in request order, and graceful [`net::KgListener::shutdown`]
//!   that lets a request in progress finish before closing;
//! * [`net::KgClient`] — a blocking client mirroring the in-process
//!   prepare/execute shape, plus explicit send/recv halves for pipelining;
//! * wire observability as `net.*` metrics (connections, bytes, request
//!   latency histogram, slow-request trace events) in the host's shared
//!   registry, and per-connection served/error accounting via
//!   [`net::listener::NetRunReport`]. See `examples/networked_kg.rs`.
//!
//! ## Multi-tenancy
//!
//! [`tenant`] hosts **many independent knowledge graphs in one process** —
//! each tenant owns its full serving stack (ontology, optimized schema,
//! instance graph, workload tracker, plan cache, WAL + snapshot directory),
//! so one tenant's epoch swaps, WAL rotations and re-optimizations never
//! stall a sibling's readers:
//!
//! * [`tenant::TenantHost`] routes names to [`tenant::Tenant`]s:
//!   [`tenant::TenantHost::create_tenant`] optimizes and loads a fresh
//!   graph, [`tenant::TenantHost::open`] recovers one bit-identically from
//!   its namespaced `<root>/tenants/<name>` directory, and
//!   [`tenant::TenantHost::drop_tenant`] retires name and directory;
//! * **resource governance** per tenant ([`tenant::TenantQuotas`]):
//!   bounded in-flight queries (admission control with RAII release), a
//!   lifetime query budget, and an ingest-update budget — exhaustion is a
//!   typed, survivable [`tenant::TenantError::Quota`] rejection
//!   (`QuotaExceeded` on the wire), back-pressure rather than failure;
//! * **one observability plane**: every tenant's series lands in the
//!   host's shared [`telemetry::MetricsRegistry`] under `tenant.<name>.`
//!   prefixes — [`tenant::TenantHost::metrics_text`] is a single
//!   exposition covering all engines plus the `net.*` wire series — and
//!   [`tenant::TenantHost::health`] reports per-tenant
//!   [`tenant::TenantHealth`] (engine health + admission counters);
//! * **on the wire**: [`net::KgListener::bind_host`] serves a whole host
//!   behind one socket; connections land on the default tenant (so
//!   single-tenant clients never select one) and re-target with the `USE`
//!   request ([`net::KgClient::use_tenant`]). Prepared
//!   handles stay bound to the tenant that prepared them.
//!
//! See `examples/networked_kg.rs` for a two-ontology tour over the wire and
//! `tests/tenant_isolation.rs` for the isolation acceptance suite.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use pgso_core as optimizer;
pub use pgso_datagen as datagen;
pub use pgso_graphstore as graphstore;
pub use pgso_net as net;
pub use pgso_ontology as ontology;
pub use pgso_persist as persist;
pub use pgso_pgschema as pgschema;
pub use pgso_query as query;
pub use pgso_server as server;
pub use pgso_telemetry as telemetry;
pub use pgso_tenant as tenant;

/// Commonly used types, re-exported for `use pgso::prelude::*`.
pub mod prelude {
    pub use pgso_core::{
        optimize_concept_centric, optimize_nsc, optimize_pgsg, optimize_relation_centric,
        OptimizationOutcome, OptimizerConfig, OptimizerInput,
    };
    pub use pgso_datagen::{load_into, streaming_updates, InstanceKg};
    pub use pgso_graphstore::{
        props, CsrGraph, DiskGraph, DiskGraphConfig, GraphBackend, GraphUpdate, MemoryGraph,
        PropertyValue,
    };
    pub use pgso_net::{KgClient, KgListener, NetConfig};
    pub use pgso_ontology::{
        AccessFrequencies, DataStatistics, DataType, Ontology, OntologyBuilder, RelationshipKind,
        StatisticsConfig, WorkloadDistribution,
    };
    pub use pgso_persist::{JournaledGraph, PersistConfig};
    pub use pgso_pgschema::{ddl, PropertyGraphSchema};
    pub use pgso_query::{
        execute_statement, fingerprint_statement, parse, parse_named, rewrite_statement, Aggregate,
        BindError, CmpOp, CountTerm, Params, ParseError, Statement, Term,
    };
    pub use pgso_server::{
        IngestConfig, KgServer, PreparedStatement, ServerConfig, WorkloadTracker,
    };
    pub use pgso_telemetry::{MetricsRegistry, MetricsSnapshot, TraceEvent};
    pub use pgso_tenant::{
        Tenant, TenantError, TenantHost, TenantHostConfig, TenantQuotas, TenantSpec,
    };
}

//! # pgso-server
//!
//! Concurrent knowledge-graph serving layer for the `pgso` workspace.
//!
//! The paper's optimizer (Lei et al., ICDE 2021) is workload-driven: access
//! frequencies feed the concept-centric and relation-centric algorithms. The
//! rest of this workspace applies it *offline*; this crate closes the loop
//! for a *serving* system, where the workload is observed rather than given
//! and drifts over time:
//!
//! * [`KgServer`] — a thread-safe engine that owns a
//!   [`pgso_graphstore::MemoryGraph`] behind a shared read path and serves
//!   DIR statements from any number of threads.
//!   There is **one way to build one** — [`KgServer::builder`], closed by
//!   [`KgServerBuilder::build`] or [`KgServerBuilder::recover`], with
//!   [`KgServer::new`] / [`KgServer::new_persistent`] /
//!   [`KgServer::recover`] as shorthands — and **one way to run a
//!   statement on it**, three methods wide: [`KgServer::prepare_text`]
//!   registers a statement with `$name` parameters and returns a
//!   [`PreparedStatement`] handle carrying its typed signature;
//!   [`KgServer::execute`] binds a [`Params`] set by name ([`BindError`] on
//!   missing/mismatched/undeclared names, and on a handle some other
//!   server issued); [`KgServer::serve_text`] is the ad-hoc path — parse →
//!   auto-parameterize → execute — so one-off texts still share cached
//!   plans across literal variations, and an `EXPLAIN` / `PROFILE` prefix
//!   turns it into the plan surface ([`QueryPlan::from_rows`] rebuilds the
//!   typed plan). Typed [`pgso_query::Statement`] values go in as their
//!   `Display` text;
//! * [`PlanCache`] — a fingerprint-keyed DIR→OPT rewrite cache, invalidated
//!   wholesale by schema-generation bumps. Keys are *parameterized
//!   statements*: one prepared statement (or one auto-parameterized ad-hoc
//!   shape) has one cached plan, and each execution binds its values into
//!   that plan by name;
//! * [`WorkloadTracker`] — lock-free accumulation of the paper's per-concept
//!   / per-relationship / per-property access frequencies from served
//!   queries;
//! * adaptive re-optimization — when the observed mix drifts past a
//!   threshold, the engine re-runs PGSG off the hot path, diffs the schemas
//!   via [`pgso_pgschema::diff()`], reloads the graph under the new schema and
//!   atomically swaps it in ([`Epoch`]);
//! * write-ahead-logged ingest and crash recovery — [`KgServer::ingest`]
//!   group-commits mutation batches to a `pgso-persist` WAL and publishes
//!   them with non-blocking epoch swaps; snapshot generations capture the
//!   schema, the graph journal, the learned workload counters *and the
//!   prepared-statement registry*, and [`KgServer::recover`] resumes a
//!   killed server bit-identically — prepared ids and parameter signatures
//!   included ([`KgServer::prepared_statements`]).
//!
//! ```
//! use pgso_datagen::InstanceKg;
//! use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
//! use pgso_server::{BindError, KgServer, Params, QueryPlan, ServerConfig};
//!
//! let ontology = catalog::med_mini();
//! let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 42);
//! let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 42);
//! let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
//! // `.persist(..)` would attach a WAL, `.telemetry_sink(..)` a shared registry.
//! let server = KgServer::builder(ontology.clone(), statistics.clone(), instance.clone())
//!     .config(ServerConfig { auto_reoptimize: false, ..ServerConfig::default() })
//!     .build(frequencies.clone())
//!     .unwrap();
//!
//! // Prepare once (the $parameters are part of the statement) ...
//! let ps = server
//!     .prepare_text("MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n")
//!     .unwrap();
//! // ... execute many, binding values by name.
//! let result = server
//!     .execute(&ps, &Params::new().set("needle", "Drug").set("n", 5i64))
//!     .unwrap();
//! assert!(result.matches > 0);
//! assert_eq!(server.cache_stats().misses, 1); // first execution rewrote the plan
//! let _ = server
//!     .execute(&ps, &Params::new().set("needle", "other").set("n", 9i64))
//!     .unwrap();
//! assert_eq!(server.cache_stats().hits, 1); // same plan, new bindings
//!
//! // Ad-hoc text is auto-parameterized into the same machinery ...
//! let text = "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc LIMIT 5";
//! let rows = server.serve_text(text).unwrap().rows;
//! // ... and a PROFILE prefix returns the plan that produced those rows.
//! let profiled = server.serve_text(&format!("PROFILE {text}")).unwrap();
//! let plan = QueryPlan::from_rows(&profiled.rows).unwrap();
//! assert!(plan.cache_hit);
//! assert_eq!(plan.actuals.unwrap().rows, rows.len() as u64);
//!
//! // A handle is good on the server that issued it and nowhere else.
//! let other = KgServer::new(ontology, statistics, instance, frequencies,
//!                           ServerConfig::default());
//! assert!(matches!(other.execute(&ps, &Params::new()), Err(BindError::UnknownStatement)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
mod durable;
pub mod engine;
mod publish;
mod serve;
pub mod telemetry;
pub mod tracker;

pub use cache::{CacheStats, PlanCache};
pub use engine::{
    Epoch, HealthSummary, IngestConfig, IngestReport, KgServer, KgServerBuilder,
    ReoptimizationEvent, ServerConfig, TelemetrySink,
};
pub use serve::{PreparedId, PreparedStatement};
pub use telemetry::{ServerTelemetry, DEFAULT_PREPARED_SERIES_LIMIT, DEFAULT_TRACE_CAPACITY};
// The durability vocabulary callers need for `KgServer::ingest` /
// `KgServer::recover`, and the binding vocabulary for
// `KgServer::prepare_text` / `KgServer::execute`, re-exported so
// applications do not have to depend on the lower-level crates directly.
pub use pgso_graphstore::GraphUpdate;
pub use pgso_persist::PersistConfig;
pub use pgso_query::{BindError, ParamKind, ParamSignature, Params};
// The plan vocabulary behind `EXPLAIN` / `PROFILE` through `KgServer::serve_text`.
pub use pgso_query::{AppliedRule, PlanActuals, QueryMode, QueryPlan};
// Observability vocabulary for `KgServer::metrics_snapshot` /
// `KgServer::trace_events` / `KgServer::health_summary` readers.
pub use pgso_telemetry::{
    HistogramSnapshot, MetricsSnapshot, StageTimings, TraceEvent, WindowRates, WINDOW_SECS,
};
pub use tracker::{
    frequencies_from_bytes, frequencies_to_bytes, TrackedAccess, WorkloadSnapshot, WorkloadTracker,
    WORKLOAD_SNAPSHOT_VERSION,
};

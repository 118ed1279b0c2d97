//! Serving-layer throughput: queries/sec of a shared `KgServer` across a
//! **shard-count × thread-count grid** (1/2/4/8 storage shards × 1/2/4/8
//! worker threads), plus the plan-cache hit ratio accumulated across the
//! run. Adaptive re-optimization is disabled so every sample measures the
//! same schema epoch.
//!
//! Two workload mixes are measured on the monolithic (1-shard) server:
//!
//! * **pattern** — the original mix of lookups, patterns and aggregations
//!   (structurally identical repeats, the best case for the plan cache);
//! * **prepared_params** — four statements prepared **once** with `$name`
//!   parameters, then executed 512 times with per-request values and
//!   `SKIP`/`LIMIT` counts bound by name (`KgServer::execute`). This is the
//!   regression gate for the prepare/execute redesign: the plan cache keys
//!   on the parameterized statement, so a value-varying workload must keep a
//!   ≥90% hit ratio with no literal splicing anywhere.
//!
//! An **ingest-while-serving** mix then measures reader degradation: 4
//! reader threads replay the pattern mix while one ingest thread pushes
//! streaming-update batches that publish via non-blocking epoch swaps —
//! once without durability (isolating the epoch-swap interference) and once
//! with a WAL attached (adding the group-commit logging overhead; fsync off
//! so the number is not just the disk). Readers must retain throughput
//! (data-only swaps keep the plan cache warm), asserted with a loose floor.
//!
//! The shard grid then replays the pattern mix against servers whose epochs
//! are hash-partitioned `ShardedGraph`s, printing q/s per cell and the
//! per-shard balance of vertex reads. On a multi-core host the executor's
//! parallel fan-out should make the multi-shard rows beat the single-shard
//! row at 8 serving threads; on a single core the fan-out gate keeps
//! execution serial, so multi-shard throughput must merely stay close to
//! monolithic (the global→local indirection is the only overhead).
//!
//! A **loopback wire grid** measures the same value-varying prepared mix
//! over real TCP through `pgso-net`: 1/2/4/8 concurrent `KgClient`
//! connections × pipeline depths 1/4/16, each connection preparing the
//! four texts once and streaming `EXECUTE` bursts. Per-connection
//! served/error balance is asserted per cell and the wire plan-cache hit
//! ratio must stay ≥ 0.90 — the protocol must not reintroduce literal
//! rebinding the prepare/execute redesign removed.
//!
//! A **multi-tenant hosting grid** replays the same value-varying prepared
//! mix against a `pgso_tenant::TenantHost` carrying 1/2/4 independent
//! medical-catalog tenants — each its own optimized schema, graph and plan
//! cache, all in one process — × 1/2 client threads per tenant. Each cell
//! records total q/s, per-tenant q/s and a **fairness ratio** (min/max of
//! the per-tenant numbers; 1.0 is perfectly fair hosting). Full runs
//! assert fairness ≥ 0.5, zero quota rejections and a ≥ 90% post-warm
//! plan-cache hit ratio on *every* tenant — hosting N graphs must not
//! cross-pollute their caches or starve any one of them.
//!
//! A **storage-tier scale ladder** closes the run: a [`ScaleLadder`] of
//! deterministic instance chunks (≈10⁴ vertices per rung) is served at
//! rungs 1 and 10 (and 100 with `PGSO_BENCH_SCALE100=1`; `--test` smoke
//! runs stop at rung 1) on the memory and CSR tiers — plus the disk tier
//! at rung 1 for layout coverage — replaying a traversal-heavy mix (label
//! scans, expansions, a collect aggregation; no plain lookups) where
//! adjacency layout, not parsing or planning, dominates. Rungs above 1
//! arrive through the ingest path: the suffix journal beyond the base
//! chunk is staged and published in a single epoch swap, exactly how a
//! production server would grow. Each cell records q/s and the epoch's
//! resident bytes.
//!
//! # Recorded baseline — `BENCH_serving.json`
//!
//! Every run ends by writing a machine-readable summary to
//! `BENCH_serving.json` at the repository root (`PGSO_BENCH_OUT` overrides
//! the path): q/s per mix and thread count, serve-latency percentiles and
//! per-stage p50s from the server's own telemetry, plan-cache hit ratio,
//! WAL append/fsync percentiles from a durable run, per-shard vertex-read
//! balance, the loopback wire grid (q/s per connections × depth cell plus
//! the wire hit ratio), the telemetry on/off overhead ratio, the
//! multi-tenant grid (per-cell total/per-tenant q/s + fairness, plus flat
//! `tenant_grid_t<tenants>_x<threads>_qps` keys), and the scale ladder
//! (one cell per scale × storage tier, each tagged with `scale` and
//! `storage_tier` plus a flat `scale_ladder_s<scale>_<tier>_qps` key). The
//! committed copy is a record of one run on one host, not a gate: absolute
//! q/s is not comparable across machines, so performance claims go through
//! `benchmark/` (interleaved parent/change runs, within-run ratios).
//! Telemetry overhead is asserted `< 5%` in full (non `--test`) runs.
//!
//! Beside the baseline, the durable telemetry run also dumps two plain-text
//! observability artifacts for CI upload: `BENCH_exposition.txt` (the full
//! Prometheus-style exposition of that server) and `BENCH_trace.txt` (its
//! trace ring, including one explicitly trace-stamped prepare + serve so
//! the dump carries a complete engine → executor → WAL span chain).

use criterion::{criterion_group, criterion_main, Criterion};
use pgso_datagen::{load_into, streaming_updates, InstanceKg, ScaleLadder, UpdateStreamConfig};
use pgso_graphstore::MemoryGraph;
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_persist::JournaledGraph;
use pgso_query::{Aggregate, Params, Query, Statement};
use pgso_server::{
    IngestConfig, KgServer, PersistConfig, PreparedStatement, ServerConfig, StorageTier,
};
use pgso_telemetry::{set_current_trace, Json};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn build_server(shard_count: usize) -> KgServer {
    build_server_with(shard_count, None)
}

fn build_server_with(shard_count: usize, persist: Option<PersistConfig>) -> KgServer {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 42);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 42);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let config = ServerConfig {
        auto_reoptimize: false,
        shard_count,
        ingest: IngestConfig {
            publish_batch: 128,
            publish_interval: std::time::Duration::from_millis(50),
        },
        ..ServerConfig::default()
    };
    match persist {
        None => KgServer::new(ontology, statistics, instance, frequencies, config),
        Some(p) => KgServer::new_persistent(ontology, statistics, instance, frequencies, config, p)
            .expect("persistent bench server builds"),
    }
}

/// 512-statement mixed workload: lookups, patterns and aggregations.
fn pattern_workload() -> Vec<Statement> {
    let shapes = [
        Query::builder("lookup").node("d", "Drug").ret_property("d", "name").build(),
        Query::builder("treat")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .build(),
        Query::builder("q9")
            .node("d", "Drug")
            .node("dr", "DrugRoute")
            .edge("d", "hasDrugRoute", "dr")
            .ret_aggregate(Aggregate::CollectCount, "dr", Some("drugRouteId"))
            .build(),
        Query::builder("encounters")
            .node("p", "Patient")
            .node("e", "Encounter")
            .edge("p", "hasEncounter", "e")
            .ret_property("e", "encounterId")
            .build(),
    ];
    (0..512).map(|i| Statement::from(shapes[i % shapes.len()].clone())).collect()
}

/// The four `$param` statement texts of the value-varying mix. Prepared
/// **once**; every request binds its own values by name.
const PREPARED_TEXTS: [&str; 4] = [
    "MATCH (d:Drug) WHERE d.name CONTAINS $needle \
     RETURN d.name ORDER BY d.name LIMIT $n",
    "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name CONTAINS $needle \
     RETURN DISTINCT i.desc ORDER BY i.desc DESC LIMIT $n",
    "MATCH (p:Patient) OPTIONAL MATCH (p)-[:hasEncounter]->(e:Encounter) \
     WHERE p.mrn CONTAINS $needle RETURN p.mrn, e.encounterId SKIP $offset LIMIT $n",
    "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) WHERE d.name CONTAINS $needle \
     RETURN size(collect(dr.drugRouteId)) LIMIT $n",
];

/// The value set for request `i` of the value-varying mixes (in-process
/// prepared workload and the loopback wire grid alike): needles, offsets
/// and limits all vary per request, statement `i % 4`.
fn varying_params(i: usize) -> Params {
    match i % 4 {
        0 => Params::new()
            .set("needle", format!("Drug_name_{}", i / 4))
            .set("n", (1 + i % 16) as i64),
        1 => Params::new().set("needle", format!("_{}", i % 10)).set("n", (2 + i % 8) as i64),
        2 => Params::new()
            .set("needle", format!("{}", i % 7))
            .set("offset", (i % 3) as i64)
            .set("n", (4 + i % 12) as i64),
        _ => Params::new().set("needle", "Drug_name").set("n", (1 + i % 4) as i64),
    }
}

/// 512-execution prepared workload: each request picks one of the four
/// prepared handles and a *different* parameter set (needles, offsets and
/// limits all vary per request).
fn prepared_param_workload(server: &KgServer) -> Vec<(PreparedStatement, Params)> {
    let handles: Vec<PreparedStatement> = PREPARED_TEXTS
        .iter()
        .map(|text| server.prepare_text(text).expect("workload statement prepares"))
        .collect();
    (0..512).map(|i| (handles[i % 4].clone(), varying_params(i))).collect()
}

fn run_mix(
    c: &mut Criterion,
    server: &KgServer,
    name: &str,
    workload: &[Statement],
) -> (Vec<(usize, f64)>, f64) {
    // Warm the plan cache so the throughput numbers measure the steady state.
    let _ = server.run_workload(workload, 1);
    let warm = server.cache_stats();

    let mut qps_by_threads = Vec::new();
    let mut group = c.benchmark_group(format!("server_throughput/{name}"));
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter_custom(|iters| {
                (0..iters).map(|_| server.run_workload(workload, threads).elapsed).sum()
            })
        });
        let report = server.run_workload(workload, threads);
        println!(
            "server_throughput/{name}/threads_{threads:<2} {:>12.0} queries/sec",
            report.queries_per_second()
        );
        qps_by_threads.push((threads, report.queries_per_second()));
    }
    group.finish();

    let stats = server.cache_stats();
    // Hit ratio over everything served after the warm-up pass: with
    // shape-based keys, value-varying literals must still hit.
    let hits = stats.hits - warm.hits;
    let misses = stats.misses - warm.misses;
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "server_throughput/{name}/plan_cache  post-warm hits {hits} misses {misses} \
         hit_ratio {ratio:.4} (cumulative: {} hits / {} misses, {} entries)",
        stats.hits, stats.misses, stats.entries
    );
    assert!(
        ratio >= 0.90,
        "plan-cache hit ratio {ratio:.4} for {name} fell below 0.90 — shape keys regressed?"
    );
    (qps_by_threads, ratio)
}

/// Like [`run_mix`] but through the prepare/execute path: handles are
/// prepared once, values bind by name per request. The ≥90% hit-ratio gate
/// is the regression check for the parameterized plan cache — prepared
/// statements must rewrite once however much their bound values vary.
fn run_prepared_mix(
    c: &mut Criterion,
    server: &KgServer,
    name: &str,
    jobs: &[(PreparedStatement, Params)],
) -> (Vec<(usize, f64)>, f64) {
    // Warm the plan cache so the throughput numbers measure the steady state.
    let _ = server.run_prepared_workload(jobs, 1);
    let warm = server.cache_stats();

    let mut qps_by_threads = Vec::new();
    let mut group = c.benchmark_group(format!("server_throughput/{name}"));
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter_custom(|iters| {
                (0..iters).map(|_| server.run_prepared_workload(jobs, threads).elapsed).sum()
            })
        });
        let report = server.run_prepared_workload(jobs, threads);
        println!(
            "server_throughput/{name}/threads_{threads:<2} {:>12.0} queries/sec",
            report.queries_per_second()
        );
        qps_by_threads.push((threads, report.queries_per_second()));
    }
    group.finish();

    let stats = server.cache_stats();
    let hits = stats.hits - warm.hits;
    let misses = stats.misses - warm.misses;
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "server_throughput/{name}/plan_cache  post-warm hits {hits} misses {misses} \
         hit_ratio {ratio:.4} (cumulative: {} hits / {} misses, {} entries)",
        stats.hits, stats.misses, stats.entries
    );
    assert!(
        ratio >= 0.90,
        "plan-cache hit ratio {ratio:.4} for {name} fell below 0.90 — \
         parameterized plans must be shared across executions"
    );
    (qps_by_threads, ratio)
}

/// One shard-grid row at 8 serving threads: throughput plus how evenly the
/// storage work spread across the shards.
struct GridRow {
    shards: usize,
    qps_at_8_threads: f64,
    /// Per-shard vertex reads of the last 8-thread replay.
    vertex_read_balance: Vec<u64>,
}

/// The shard-count × thread-count grid over the pattern mix. Returns the
/// 8-serving-thread row per shard count.
fn shard_grid(c: &mut Criterion, workload: &[Statement]) -> Vec<GridRow> {
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let server = build_server(shards);
        let _ = server.run_workload(workload, 1); // warm the plan cache
        let mut group = c.benchmark_group(format!("server_throughput/shards_{shards}"));
        group.sample_size(5);
        for threads in [1usize, 2, 4, 8] {
            group.bench_function(format!("threads_{threads}"), |b| {
                b.iter_custom(|iters| {
                    (0..iters).map(|_| server.run_workload(workload, threads).elapsed).sum()
                })
            });
            // Average a few replays for the printed/compared q/s: a single
            // run is too noisy to gate anything on.
            let replays = 3;
            let mut qps_sum = 0.0;
            let mut last_report = None;
            for _ in 0..replays {
                let report = server.run_workload(workload, threads);
                qps_sum += report.queries_per_second();
                last_report = Some(report);
            }
            let qps = qps_sum / replays as f64;
            let report = last_report.expect("at least one replay ran");
            let reads: Vec<u64> = report.per_shard_stats.iter().map(|s| s.vertex_reads).collect();
            println!(
                "server_throughput/grid shards_{shards} threads_{threads:<2} \
                 {qps:>12.0} queries/sec  shard vertex-read balance {reads:?}"
            );
            if threads == 8 {
                rows.push(GridRow { shards, qps_at_8_threads: qps, vertex_read_balance: reads });
            }
            assert_eq!(report.shard_count, shards);
            assert_eq!(report.per_shard_stats.len(), shards);
        }
        group.finish();
    }
    rows
}

/// Ingest-while-serving: `reader_threads` replay the pattern mix while one
/// ingest thread pushes streaming-update batches (epoch swaps publish them
/// without blocking the readers). Returns (reader q/s, batches ingested).
fn serve_with_ingest(
    server: &KgServer,
    workload: &[Statement],
    reader_threads: usize,
    replays: usize,
) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let batches = AtomicU64::new(0);
    // Pregenerate one long deterministic stream against the current epoch;
    // since only this stream mutates the graph, its predictive vertex ids
    // stay valid for the whole run.
    let epoch = server.current_epoch();
    let updates = streaming_updates(
        server.ontology(),
        &epoch.schema,
        epoch.graph(),
        4_096,
        7,
        &UpdateStreamConfig::default(),
    );
    drop(epoch);
    let mut qps_sum = 0.0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for batch in updates.chunks(64) {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                server.ingest(batch.to_vec()).expect("ingest succeeds");
                batches.fetch_add(1, Ordering::Relaxed);
            }
            // Stream exhausted: keep the flag semantics simple and just stop.
        });
        for _ in 0..replays {
            qps_sum += server.run_workload(workload, reader_threads).queries_per_second();
        }
        stop.store(true, Ordering::Relaxed);
    });
    (qps_sum / replays as f64, batches.load(Ordering::Relaxed))
}

/// The ingest-while-serving mix: reader q/s degradation versus the
/// read-only baseline, without and with a (page-cache-durability) WAL.
fn ingest_mix(workload: &[Statement], quick: bool) {
    let reader_threads = 4;
    let replays = if quick { 2 } else { 6 };

    let server = build_server(1);
    let _ = server.run_workload(workload, 1); // warm the plan cache
    let mut baseline = 0.0;
    for _ in 0..replays {
        baseline += server.run_workload(workload, reader_threads).queries_per_second();
    }
    let baseline = baseline / replays as f64;

    let (qps_ingest, batches) = serve_with_ingest(&server, workload, reader_threads, replays);
    let retained = qps_ingest / baseline.max(1e-9);
    println!(
        "server_throughput/ingest_mix {reader_threads} readers: read-only {baseline:>10.0} q/s, \
         +1 ingest thread {qps_ingest:>10.0} q/s (x{retained:.2}, {batches} batches published, \
         {} updates live)",
        server.published_updates()
    );
    assert!(batches > 0, "the ingest thread must have pushed batches");
    assert!(server.published_updates() > 0, "published updates must be serving");
    // Readers must keep serving while epochs swap underneath them. The bound
    // is deliberately loose: publication rebuilds cost CPU that readers
    // share on small hosts.
    assert!(
        retained > 0.10,
        "ingest must not starve readers ({qps_ingest:.0} vs {baseline:.0} q/s)"
    );

    // Same mix with durability attached (WAL group commit, no fsync so the
    // number isolates the logging overhead rather than the disk).
    let dir = std::env::temp_dir().join(format!("pgso-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persistent = build_server_with(1, Some(PersistConfig::new_unsynced(&dir)));
    let _ = persistent.run_workload(workload, 1);
    let (qps_wal, wal_batches) = serve_with_ingest(&persistent, workload, reader_threads, replays);
    println!(
        "server_throughput/ingest_mix WAL-logged: {qps_wal:>10.0} q/s \
         (x{:.2} of read-only, {wal_batches} batches)",
        qps_wal / baseline.max(1e-9)
    );
    assert!(wal_batches > 0);
    drop(persistent);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Latency and durability detail for the recorded baseline, read from the
/// server's own telemetry after a durable (fsync-on) mixed run: pattern
/// statements, prepared executions and ingest batches on one server.
fn telemetry_profile(pattern: &[Statement], quick: bool) -> Json {
    let dir = std::env::temp_dir().join(format!("pgso-bench-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // fsync ON: this is the run whose `wal.fsync` percentiles the baseline
    // records (the ingest mix keeps fsync off to isolate logging overhead).
    let server = build_server_with(1, Some(PersistConfig::new(&dir)));
    // `jobs` was prepared against a different server; re-prepare here so the
    // handles belong to this one.
    let local_jobs = prepared_param_workload(&server);
    let replays = if quick { 1 } else { 4 };
    for _ in 0..replays {
        let _ = server.run_workload(pattern, 4);
        let _ = server.run_prepared_workload(&local_jobs, 4);
    }
    // A little ingest so WAL append/fsync have samples beyond the prepare
    // registrations.
    let epoch = server.current_epoch();
    let updates = streaming_updates(
        server.ontology(),
        &epoch.schema,
        epoch.graph(),
        512,
        7,
        &UpdateStreamConfig::default(),
    );
    drop(epoch);
    for batch in updates.chunks(64) {
        server.ingest(batch.to_vec()).expect("ingest succeeds");
    }

    let snapshot = server.metrics_snapshot();
    let latency = snapshot.histogram("query.latency").expect("telemetry is on");
    let mut stage_p50 = Json::obj();
    for stage in ["root_selection", "expansion", "optional", "aggregate", "windowing"] {
        let hist = snapshot.histogram(&format!("query.stage.{stage}")).expect("stage series");
        stage_p50.set(stage, hist.p50());
    }
    let wal_append = snapshot.histogram("wal.append").expect("durable server logs");
    let wal_fsync = snapshot.histogram("wal.fsync").expect("fsync is on");
    assert!(latency.count > 0, "the mixed run must have recorded serve latencies");
    assert!(wal_fsync.count > 0, "the durable run must have recorded fsyncs");
    println!(
        "server_throughput/telemetry query.latency p50 {} p90 {} p99 {} max {} ns \
         ({} serves); wal.fsync p50 {} p99 {} ns ({} syncs)",
        latency.p50(),
        latency.p90(),
        latency.p99(),
        latency.max(),
        latency.count,
        wal_fsync.p50(),
        wal_fsync.p99(),
        wal_fsync.count
    );
    let profile = Json::obj()
        .with("serves", latency.count)
        .with(
            "query_latency_ns",
            Json::obj()
                .with("p50", latency.p50())
                .with("p90", latency.p90())
                .with("p99", latency.p99())
                .with("max", latency.max()),
        )
        .with("stage_p50_ns", stage_p50)
        .with(
            "wal_ns",
            Json::obj()
                .with("append_p50", wal_append.p50())
                .with("append_p99", wal_append.p99())
                .with("fsync_p50", wal_fsync.p50())
                .with("fsync_p99", wal_fsync.p99())
                .with("appends", wal_append.count)
                .with("fsyncs", wal_fsync.count),
        )
        .with(
            "plan_cache_hit_ratio",
            snapshot.gauge("plan_cache.hit_ratio").expect("mirrored gauge"),
        );

    // The CI observability artifacts, dumped from this same server. One
    // prepare + serve runs under an explicit trace id so the trace dump
    // carries a complete engine → executor → WAL span chain.
    {
        let _guard = set_current_trace(ARTIFACT_TRACE_ID, 0);
        let _ = server
            .prepare_text("MATCH (d:Drug) WHERE d.name CONTAINS $probe RETURN d.name LIMIT $n");
        let _ = server.serve_statement(&pattern[0]);
    }
    write_artifact("BENCH_exposition.txt", &server.metrics_text());
    let trace_dump: String =
        server.trace_events().iter().map(|event| format!("{event}\n")).collect();
    write_artifact("BENCH_trace.txt", &trace_dump);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    profile
}

/// The trace id stamped on the artifact-dump request chain, recognizable in
/// `BENCH_trace.txt`.
const ARTIFACT_TRACE_ID: u64 = 0xB6C4;

/// Writes one observability artifact beside the recorded baseline.
fn write_artifact(name: &str, contents: &str) {
    let path = baseline_path().with_file_name(name);
    std::fs::write(&path, contents).expect("artifact file writes");
    println!("server_throughput/artifact written to {}", path.display());
}

/// Telemetry on vs off on the same workload: the instrumented hot path must
/// stay within 5% of the uninstrumented one (asserted only in full runs —
/// one quick pass is noise, not a measurement). Returns the JSON fragment
/// plus the telemetry-on average q/s (the report's headline number).
fn telemetry_overhead(pattern: &[Statement], quick: bool) -> (Json, f64) {
    let build = |enabled: bool| {
        let ontology = catalog::medical();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 42);
        let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 42);
        let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
        let config = ServerConfig {
            auto_reoptimize: false,
            telemetry_enabled: enabled,
            ..ServerConfig::default()
        };
        KgServer::new(ontology, statistics, instance, frequencies, config)
    };
    let on = build(true);
    let off = build(false);
    let _ = on.run_workload(pattern, 1); // warm both plan caches
    let _ = off.run_workload(pattern, 1);
    // Interleave the replay rounds so frequency scaling and cache effects
    // hit both sides equally — back-to-back blocks systematically favour
    // whichever side runs second — and alternate which side goes first
    // within each round, cancelling the residual first-runner penalty a
    // fixed order bakes in. Kept well-sampled even in quick mode:
    // `enabled_qps` doubles as the report's headline, and a single-replay
    // number is far too noisy to record.
    let rounds = if quick { 8 } else { 12 };
    let (mut enabled_qps, mut disabled_qps) = (0.0f64, 0.0f64);
    for round in 0..rounds {
        if round % 2 == 0 {
            enabled_qps += on.run_workload(pattern, 4).queries_per_second();
            disabled_qps += off.run_workload(pattern, 4).queries_per_second();
        } else {
            disabled_qps += off.run_workload(pattern, 4).queries_per_second();
            enabled_qps += on.run_workload(pattern, 4).queries_per_second();
        }
    }
    let enabled_qps = enabled_qps / rounds as f64;
    let disabled_qps = disabled_qps / rounds as f64;
    let overhead = 1.0 - enabled_qps / disabled_qps.max(1e-9);
    println!(
        "server_throughput/telemetry_overhead on {enabled_qps:>10.0} q/s, \
         off {disabled_qps:>10.0} q/s ({:+.2}%)",
        overhead * 100.0
    );
    if !quick {
        assert!(
            overhead < 0.05,
            "telemetry instrumentation costs {:.2}% q/s (budget: 5%)",
            overhead * 100.0
        );
    }
    let fragment = Json::obj()
        .with("enabled_qps", enabled_qps)
        .with("disabled_qps", disabled_qps)
        .with("overhead_fraction", overhead);
    (fragment, enabled_qps)
}

/// One loopback-grid cell: wire q/s at a connections × pipelining-depth
/// point.
struct LoopbackRow {
    connections: usize,
    depth: usize,
    qps: f64,
}

/// The loopback wire grid: real TCP clients against a `KgListener` on
/// 127.0.0.1, over a **connections × pipelining-depth grid** (1/2/4/8
/// connections × 1/4/16 in-flight requests). Every connection prepares the
/// four `$param` statements once and executes with per-request values —
/// the wire twin of the `prepared_params` mix. Returns the grid rows, the
/// loopback headline q/s (4 connections × depth 16) and the plan-cache hit
/// ratio accumulated over the wire.
fn loopback_grid(quick: bool) -> (Vec<LoopbackRow>, f64, f64) {
    use pgso_net::{KgClient, KgListener, NetConfig};
    use std::sync::Arc;

    let server = Arc::new(build_server(1));
    // Warm: register the four texts and the plan cache through one wire
    // client so the grid measures the steady state.
    let executes_per_cell = if quick { 512 } else { 4096 };
    let warm_listener = {
        let mut listener =
            KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default()).expect("binds");
        listener.serve().expect("serves");
        let mut client = KgClient::connect(listener.local_addr()).expect("connects");
        let stmts: Vec<_> = PREPARED_TEXTS
            .iter()
            .map(|text| client.prepare(text).expect("prepares over the wire"))
            .collect();
        for (i, stmt) in stmts.iter().enumerate() {
            client.execute(stmt, &varying_params(i)).expect("warm execute");
        }
        client.goodbye().expect("closes");
        listener
    };
    warm_listener.shutdown();
    let warm = server.cache_stats();

    let mut rows = Vec::new();
    let mut headline = 0.0;
    for connections in [1usize, 2, 4, 8] {
        for depth in [1usize, 4, 16] {
            let per_conn = executes_per_cell / connections;
            let mut listener =
                KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default())
                    .expect("binds");
            listener.serve().expect("serves");
            let addr = listener.local_addr();
            let started = std::time::Instant::now();
            std::thread::scope(|scope| {
                for conn_index in 0..connections {
                    scope.spawn(move || {
                        let mut client = KgClient::connect(addr).expect("connects");
                        let stmts: Vec<_> = PREPARED_TEXTS
                            .iter()
                            .map(|text| client.prepare(text).expect("prepares"))
                            .collect();
                        let base = conn_index * per_conn;
                        let mut done = 0;
                        while done < per_conn {
                            let burst = depth.min(per_conn - done);
                            for k in 0..burst {
                                let i = base + done + k;
                                client
                                    .send_execute(&stmts[i % 4], &varying_params(i))
                                    .expect("queues");
                            }
                            for _ in 0..burst {
                                client.recv_result().expect("result arrives");
                            }
                            done += burst;
                        }
                        client.goodbye().expect("closes");
                    });
                }
            });
            let elapsed = started.elapsed();
            let total = (connections * per_conn) as f64;
            let qps = total / elapsed.as_secs_f64().max(1e-9);
            // Per-connection wire accounting: the served counts must balance
            // exactly (every connection ran the same request share).
            let report = listener.run_report();
            assert_eq!(report.served as usize, connections * per_conn, "wire accounting");
            assert_eq!(report.errors, 0, "no wire errors in the grid");
            let balance = report.served_balance();
            assert!(
                balance.iter().all(|&served| served as usize == per_conn),
                "per-connection balance must be even, got {balance:?}"
            );
            println!(
                "server_throughput/loopback conns_{connections} depth_{depth:<2} \
                 {qps:>12.0} queries/sec  served balance {balance:?}"
            );
            listener.shutdown();
            if connections == 4 && depth == 16 {
                headline = qps;
            }
            rows.push(LoopbackRow { connections, depth, qps });
        }
    }

    // The wire path must ride the plan cache exactly like in-process
    // serving: per-request values, shared parameterized plans.
    let stats = server.cache_stats();
    let hits = stats.hits - warm.hits;
    let misses = stats.misses - warm.misses;
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "server_throughput/loopback/plan_cache  post-warm hits {hits} misses {misses} \
         hit_ratio {ratio:.4}"
    );
    assert!(
        ratio >= 0.90,
        "plan-cache hit ratio {ratio:.4} over the wire fell below 0.90 — \
         remote prepare/execute must share parameterized plans"
    );
    (rows, headline, ratio)
}

/// One multi-tenant grid cell: `tenants` equally-provisioned tenants in
/// one host, each served by `threads_per_tenant` client threads.
struct TenantRow {
    tenants: usize,
    threads_per_tenant: usize,
    total_qps: f64,
    per_tenant_qps: Vec<f64>,
    /// min/max of `per_tenant_qps` — 1.0 is perfectly fair hosting.
    fairness: f64,
}

impl TenantRow {
    /// Flat report key, e.g. `tenant_grid_t2_x2_qps` — unique across the
    /// report, so a plain string search finds it.
    fn flat_key(&self) -> String {
        format!("tenant_grid_t{}_x{}_qps", self.tenants, self.threads_per_tenant)
    }
}

/// The multi-tenant hosting grid: the value-varying prepared mix replayed
/// against a [`pgso_tenant::TenantHost`] carrying 1/2/4 independent
/// medical-catalog tenants (distinct seeds, so distinct graphs) × 1/2
/// client threads per tenant. Beyond throughput, the cells are isolation
/// gates: every tenant must keep its own plan cache ≥ 90% hot (hosting N
/// graphs must not cross-pollute the caches), no open-quota request may
/// be rejected, and in full runs the per-tenant q/s spread must stay
/// within 2× (fairness ≥ 0.5 — no tenant starved by its siblings).
fn tenant_grid(quick: bool) -> Vec<TenantRow> {
    use pgso_tenant::{Tenant, TenantHost, TenantHostConfig, TenantSpec};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // Duration-based cells: every thread loops until a shared stop flag and
    // counts what it served. Fixed-request cells mismeasure fairness badly —
    // a few hundred executes finish inside one scheduling quantum, so the
    // OS runs the threads nearly back-to-back and elapsed-from-start makes
    // whichever tenant ran first look several times faster.
    let cell_duration = Duration::from_millis(if quick { 100 } else { 500 });
    let mut rows = Vec::new();
    for tenants in [1usize, 2, 4] {
        let mut config = TenantHostConfig::default();
        config.server.auto_reoptimize = false;
        let host = TenantHost::new(config);
        let cohort: Vec<Arc<Tenant>> = (0..tenants)
            .map(|i| {
                let seed = 42 + i as u64;
                let ontology = catalog::medical();
                let statistics =
                    DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), seed);
                let instance = InstanceKg::generate(&ontology, &statistics, 0.04, seed);
                let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
                host.create_tenant(
                    &format!("t{i}"),
                    TenantSpec { ontology, statistics, instance, frequencies },
                )
                .expect("grid tenant builds")
            })
            .collect();
        // Prepare the four texts and warm every tenant's plan cache once so
        // the cells measure steady-state serving.
        let prepared: Vec<Vec<PreparedStatement>> = cohort
            .iter()
            .map(|tenant| {
                PREPARED_TEXTS
                    .iter()
                    .map(|text| tenant.prepare_text(text).expect("grid statement prepares"))
                    .collect()
            })
            .collect();
        for (tenant, stmts) in cohort.iter().zip(&prepared) {
            for (i, stmt) in stmts.iter().enumerate() {
                tenant.execute(stmt, &varying_params(i)).expect("warm execute admits");
            }
        }
        let warm: Vec<_> = cohort.iter().map(|tenant| tenant.server().cache_stats()).collect();
        let mut served_by_tenant = vec![0u64; tenants];

        for threads_per_tenant in [1usize, 2] {
            let stop = AtomicBool::new(false);
            let counts: Vec<AtomicU64> = (0..tenants).map(|_| AtomicU64::new(0)).collect();
            let started = Instant::now();
            std::thread::scope(|scope| {
                for (t, (tenant, stmts)) in cohort.iter().zip(&prepared).enumerate() {
                    for worker in 0..threads_per_tenant {
                        let (stop, counts) = (&stop, &counts);
                        scope.spawn(move || {
                            // Offset each thread's value stream so siblings
                            // don't execute in lockstep.
                            let mut i = worker * 7919;
                            while !stop.load(Ordering::Relaxed) {
                                tenant
                                    .execute(&stmts[i % 4], &varying_params(i))
                                    .expect("open-quota execute admits");
                                counts[t].fetch_add(1, Ordering::Relaxed);
                                i += 1;
                            }
                        });
                    }
                }
                std::thread::sleep(cell_duration);
                stop.store(true, Ordering::Relaxed);
            });
            let wall = started.elapsed().as_secs_f64().max(1e-9);
            let per_tenant_qps: Vec<f64> =
                counts.iter().map(|count| count.load(Ordering::Relaxed) as f64 / wall).collect();
            for (t, count) in counts.iter().enumerate() {
                served_by_tenant[t] += count.load(Ordering::Relaxed);
            }
            let total_qps: f64 = per_tenant_qps.iter().sum();
            let slowest = per_tenant_qps.iter().cloned().fold(f64::INFINITY, f64::min);
            let fastest = per_tenant_qps.iter().cloned().fold(0.0f64, f64::max);
            let fairness = slowest / fastest.max(1e-9);
            let rounded: Vec<i64> = per_tenant_qps.iter().map(|&q| q as i64).collect();
            println!(
                "server_throughput/tenant_grid tenants_{tenants} threads_{threads_per_tenant} \
                 {total_qps:>12.0} queries/sec total  per-tenant {rounded:?}  \
                 fairness {fairness:.2}"
            );
            if quick {
                assert!(slowest > 0.0, "every tenant must have served its share");
            } else {
                assert!(
                    fairness >= 0.5,
                    "per-tenant q/s spread exceeded 2x (fairness {fairness:.2}) — \
                     a tenant is being starved by its siblings"
                );
            }
            rows.push(TenantRow {
                tenants,
                threads_per_tenant,
                total_qps,
                per_tenant_qps,
                fairness,
            });
        }

        // Isolation accounting: exact per-tenant admission counts, zero
        // rejections (all quotas open), and a hot private plan cache.
        for (idx, tenant) in cohort.iter().enumerate() {
            let health = tenant.health();
            let expected_admitted = PREPARED_TEXTS.len() as u64 + served_by_tenant[idx];
            assert_eq!(
                health.admitted,
                expected_admitted,
                "tenant {} admission count off — requests leaked across tenants?",
                tenant.name()
            );
            assert_eq!(health.rejected, 0, "open quotas must reject nothing");
            let stats = tenant.server().cache_stats();
            let hits = stats.hits - warm[idx].hits;
            let misses = stats.misses - warm[idx].misses;
            let ratio = hits as f64 / (hits + misses).max(1) as f64;
            assert!(
                ratio >= 0.90,
                "tenant {} post-warm plan-cache hit ratio {ratio:.4} fell below 0.90 — \
                 multi-tenant hosting must not cross-pollute per-tenant caches",
                tenant.name()
            );
        }
    }
    rows
}

/// Per-rung chunk size of the scale ladder: ≈10⁴ vertices / 1.6×10⁴ edges
/// per chunk with the medical catalog and the seed-42 small statistics, so
/// rung 10 serves ≈10⁵ vertices and rung 100 ≈10⁶.
const LADDER_BASE_SCALE: f64 = 3.3;
const LADDER_SEED: u64 = 42;

/// One measured ladder cell: the traversal mix served at `scale` (rung)
/// on `tier`.
struct LadderCell {
    scale: usize,
    tier: StorageTier,
    qps: f64,
    resident_bytes: u64,
    vertices: usize,
    edges: usize,
}

impl LadderCell {
    /// Flat report key, e.g. `scale_ladder_s10_csr_qps` — unique across
    /// the report, so a plain string search finds it.
    fn flat_key(&self) -> String {
        format!("scale_ladder_s{}_{}_qps", self.scale, self.tier.name())
    }
}

/// 256-statement traversal-heavy mix: label scans feeding one-hop
/// expansions and a collect aggregation, no plain lookups — the shapes
/// whose physical cost is adjacency and property layout rather than
/// parsing or planning, i.e. where the storage tiers actually differ.
fn ladder_workload() -> Vec<Statement> {
    let shapes = [
        Query::builder("treat")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .build(),
        Query::builder("encounters")
            .node("p", "Patient")
            .node("e", "Encounter")
            .edge("p", "hasEncounter", "e")
            .ret_property("e", "encounterId")
            .build(),
        Query::builder("q9")
            .node("d", "Drug")
            .node("dr", "DrugRoute")
            .edge("d", "hasDrugRoute", "dr")
            .ret_aggregate(Aggregate::CollectCount, "dr", Some("drugRouteId"))
            .build(),
    ];
    (0..256).map(|i| Statement::from(shapes[i % shapes.len()].clone())).collect()
}

/// Builds a `tier`-layout server holding ladder rung `rung`. The base
/// chunk goes in through construction; everything above it goes through
/// the ingest path — the suffix of the rung's deterministic load journal
/// beyond the base chunk, staged and published in one epoch swap. That
/// exercises the same path a growing production server uses, and keeps
/// vertex ids bit-identical across tiers (the prefix property of
/// [`ScaleLadder`]).
fn ladder_server(ladder: &ScaleLadder, rung: usize, tier: StorageTier) -> KgServer {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), LADDER_SEED);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let config = ServerConfig {
        auto_reoptimize: false,
        storage_tier: tier,
        ingest: IngestConfig {
            // Never publish mid-stream: the whole suffix lands in one
            // explicit flush below, so each cell pays exactly one rebuild.
            publish_batch: usize::MAX,
            publish_interval: std::time::Duration::from_secs(3600),
        },
        ..ServerConfig::default()
    };
    let server = KgServer::new(
        ontology.clone(),
        statistics,
        ladder.base_chunk().clone(),
        frequencies,
        config,
    );
    if rung > 1 {
        // Replaying the loader into a journaled scratch graph under the
        // server's own (possibly optimized) schema reproduces the exact
        // update sequence the server built its base epoch from; the slice
        // past the base chunk is therefore a valid continuation.
        let schema = server.current_epoch().schema.clone();
        let mut scratch = JournaledGraph::new(MemoryGraph::new());
        load_into(&mut scratch, &ontology, &schema, ladder.base_chunk());
        let prefix_len = scratch.journal().len();
        for chunk in ladder.chunks_above_base(rung) {
            load_into(&mut scratch, &ontology, &schema, chunk);
        }
        let suffix = scratch.journal()[prefix_len..].to_vec();
        server.ingest(suffix).expect("ladder suffix ingests");
        assert!(server.flush_ingest(), "ladder suffix publishes in one swap");
    }
    server
}

/// The scale × storage-tier ladder. Quick (`--test`) runs measure rung 1
/// only; full runs add rung 10, and `PGSO_BENCH_SCALE100=1` rung 100
/// (≈10⁶ vertices — minutes of generation and load, so opt-in). The disk
/// tier joins at rung 1 only: enough to record the paged layout's
/// position without paying its page-read tax at every scale.
fn scale_ladder(quick: bool) -> Vec<LadderCell> {
    let mut rungs = vec![1usize];
    if !quick {
        rungs.push(10);
    }
    if std::env::var("PGSO_BENCH_SCALE100").map(|v| v == "1").unwrap_or(false) {
        rungs.push(100);
    }
    let max_rung = *rungs.iter().max().expect("at least one rung");
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), LADDER_SEED);
    let ladder =
        ScaleLadder::generate(&ontology, &statistics, LADDER_BASE_SCALE, LADDER_SEED, max_rung);
    let workload = ladder_workload();
    let threads = 4;
    let replays = if quick { 2 } else { 4 };

    let mut cells = Vec::new();
    for &rung in &rungs {
        let mut tiers = vec![StorageTier::Memory, StorageTier::Csr];
        if rung == 1 {
            tiers.push(StorageTier::Disk);
        }
        for tier in tiers {
            let server = ladder_server(&ladder, rung, tier);
            let epoch = server.current_epoch();
            let (vertices, edges) = (epoch.graph().vertex_count(), epoch.graph().edge_count());
            let resident_bytes = epoch.graph().resident_bytes();
            drop(epoch);
            let _ = server.run_workload(&workload, 1); // warm the plan cache
            let qps = (0..replays)
                .map(|_| server.run_workload(&workload, threads).queries_per_second())
                .sum::<f64>()
                / replays as f64;
            println!(
                "server_throughput/scale_ladder s{rung:<3} {:<6} {qps:>12.0} queries/sec  \
                 {vertices:>7} vertices {edges:>7} edges  {resident_bytes:>10} resident bytes",
                tier.name()
            );
            cells.push(LadderCell { scale: rung, tier, qps, resident_bytes, vertices, edges });
        }
        let qps_of = |t: StorageTier| {
            cells.iter().find(|c| c.scale == rung && c.tier == t).map(|c| c.qps).unwrap_or(0.0)
        };
        println!(
            "server_throughput/scale_ladder s{rung:<3} csr/memory ratio x{:.2}",
            qps_of(StorageTier::Csr) / qps_of(StorageTier::Memory).max(1e-9)
        );
    }
    cells
}

/// Where the recorded baseline lives: `PGSO_BENCH_OUT`, or
/// `BENCH_serving.json` at the repository root.
fn baseline_path() -> PathBuf {
    match std::env::var_os("PGSO_BENCH_OUT") {
        Some(path) => PathBuf::from(path),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_serving.json"),
    }
}

fn bench(c: &mut Criterion) {
    // Capture before the benchmark groups borrow `c`.
    let quick = c.is_test_mode();
    let server = build_server(1);
    let pattern = pattern_workload();
    let (pattern_qps, pattern_hit_ratio) = run_mix(c, &server, "pattern", &pattern);
    let prepared = prepared_param_workload(&server);
    let (prepared_qps, prepared_hit_ratio) =
        run_prepared_mix(c, &server, "prepared_params", &prepared);
    drop(server);

    ingest_mix(&pattern, quick);

    let grid = shard_grid(c, &pattern);
    let single = grid.iter().find(|r| r.shards == 1).map(|r| r.qps_at_8_threads).unwrap_or(0.0);
    let best_multi = grid
        .iter()
        .filter(|r| r.shards > 1)
        .map(|r| r.qps_at_8_threads)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "server_throughput/grid summary @8 threads: 1 shard {single:.0} q/s, \
         best multi-shard {best_multi:.0} q/s (x{:.2})",
        best_multi / single.max(1e-9)
    );
    // `--test` smoke runs (CI) only check that the grid executes: timing a
    // single quick pass is not a measurement, so no performance gate there.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if quick {
        assert!(single > 0.0 && best_multi > 0.0, "grid must have produced throughput numbers");
    } else if cores > 1 {
        assert!(
            best_multi > single,
            "on a {cores}-core host, multi-shard fan-out must beat the single shard \
             at 8 serving threads ({best_multi:.0} vs {single:.0} q/s)"
        );
    } else {
        // Single core: fan-out stays gated off; sharding must not cost more
        // than the global→local indirection.
        assert!(
            best_multi > 0.5 * single,
            "sharded serving regressed far beyond indirection overhead \
             ({best_multi:.0} vs {single:.0} q/s)"
        );
    }

    let profile = telemetry_profile(&pattern, quick);
    // The headline numbers of the report: the interleaved
    // multi-round pattern-mix average at 4 threads, telemetry on (the
    // default serving configuration), and the loopback wire cell at 4
    // connections × depth 16. The overhead comparison runs *before* the
    // loopback grid: the grid's socket churn (tens of thousands of wire
    // round-trips, a listener per cell) disturbs the machine enough to
    // distort the narrow on/off delta measured here.
    let (overhead, headline_qps) = telemetry_overhead(&pattern, quick);
    let (loopback_rows, loopback_headline_qps, loopback_hit_ratio) = loopback_grid(quick);
    let ladder = scale_ladder(quick);
    let ladder_flat: Vec<(String, f64)> =
        ladder.iter().map(|cell| (cell.flat_key(), cell.qps)).collect();
    let tenant_rows = tenant_grid(quick);
    let tenant_flat: Vec<(String, f64)> =
        tenant_rows.iter().map(|row| (row.flat_key(), row.total_qps)).collect();

    let qps_obj = |rows: &[(usize, f64)]| {
        let mut obj = Json::obj();
        for &(threads, qps) in rows {
            obj.set(&format!("threads_{threads}"), qps);
        }
        obj
    };
    let grid_rows: Vec<Json> = grid
        .iter()
        .map(|row| {
            Json::obj().with("shards", row.shards).with("threads_8_qps", row.qps_at_8_threads).with(
                "vertex_read_balance",
                row.vertex_read_balance.iter().map(|&r| Json::from(r)).collect::<Vec<_>>(),
            )
        })
        .collect();
    let loopback_grid_rows: Vec<Json> = loopback_rows
        .iter()
        .map(|row| {
            Json::obj()
                .with("connections", row.connections)
                .with("pipeline_depth", row.depth)
                .with("qps", row.qps)
        })
        .collect();
    let tenant_grid_rows: Vec<Json> = tenant_rows
        .iter()
        .map(|row| {
            Json::obj()
                .with("tenants", row.tenants)
                .with("threads_per_tenant", row.threads_per_tenant)
                .with("total_qps", row.total_qps)
                .with(
                    "per_tenant_qps",
                    row.per_tenant_qps.iter().map(|&q| Json::from(q)).collect::<Vec<_>>(),
                )
                .with("fairness", row.fairness)
        })
        .collect();
    let ladder_rows: Vec<Json> = ladder
        .iter()
        .map(|cell| {
            Json::obj()
                .with("scale", cell.scale)
                .with("storage_tier", cell.tier.name())
                .with("qps", cell.qps)
                .with("resident_bytes", cell.resident_bytes)
                .with("vertices", cell.vertices)
                .with("edges", cell.edges)
        })
        .collect();
    let mut report = Json::obj()
        .with("bench", "server_throughput")
        .with("mode", if quick { "quick" } else { "full" })
        // The tier and instance scale every non-ladder entry below was
        // measured on; the ladder cells carry their own.
        .with("storage_tier", StorageTier::Memory.name())
        .with("instance_scale", 0.05)
        .with("statements_per_replay", pattern.len())
        .with("headline_qps", headline_qps)
        .with("loopback_headline_qps", loopback_headline_qps)
        .with(
            "pattern",
            Json::obj()
                .with("queries_per_second", qps_obj(&pattern_qps))
                .with("plan_cache_hit_ratio", pattern_hit_ratio),
        )
        .with(
            "prepared_params",
            Json::obj()
                .with("queries_per_second", qps_obj(&prepared_qps))
                .with("plan_cache_hit_ratio", prepared_hit_ratio),
        )
        .with(
            "loopback",
            Json::obj()
                .with("grid", loopback_grid_rows)
                .with("plan_cache_hit_ratio", loopback_hit_ratio),
        )
        .with("telemetry", profile)
        .with("telemetry_overhead", overhead)
        .with("shard_grid_at_8_threads", grid_rows)
        .with("tenant_grid", tenant_grid_rows)
        .with("scale_ladder", ladder_rows);
    // Flat per-cell keys, findable by a plain string search; full runs
    // record every rung, quick runs only the rung-1 cells they measured.
    for (key, qps) in ladder_flat.iter().chain(&tenant_flat) {
        report.set(key, *qps);
    }
    let path = baseline_path();
    std::fs::write(&path, report.pretty()).expect("baseline file writes");
    println!("server_throughput/baseline written to {}", path.display());
}

criterion_group!(benches, bench);
criterion_main!(benches);

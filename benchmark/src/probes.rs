//! The per-layer probes of the traced run: each layer's public calls timed
//! from outside, on small fixed fixtures (MED ladder rung 1 for the serving
//! stack, MED 0.1 / FIN 0.03 for the paper's pipeline), identical whichever
//! workload's traced run they ride in. Times are medians per call; counts
//! come from return values (`QueryResult`, `cache_stats`, reports, file
//! sizes). Nothing inside the program is instrumented.

use crate::fixtures::{
    med_parts, med_server, prepare, server_config, ParamPool, Rng, ScratchDir, CLASSES, GRAPH_SEED,
    LADDER_BASE_SCALE, SMALL_CLASSES,
};
use crate::harness::RunSpec;
use crate::host;
use crate::metrics::MetricSet;
use crate::spans::Recorder;
use crate::stats::{geomean, median, percentile};
use crate::workloads::serve_mix::ALL_CLASSES;
use crate::workloads::{paper_micro, wire_small, Reference};
use pgso_bench::{DatasetId, GraphPair, Workbench};
use pgso_core::{optimize_nsc, optimize_pgsg, OptimizerConfig};
use pgso_datagen::{load_into, streaming_updates, InstanceKg, UpdateStreamConfig};
use pgso_graphstore::codec::encode_update;
use pgso_graphstore::{
    apply_updates, CsrGraph, DiskGraph, DiskGraphConfig, GraphBackend, GraphUpdate, MemoryGraph,
    VertexId,
};
use pgso_net::frame::write_frame;
use pgso_net::proto::{decode_request, decode_response, encode_request, encode_response};
use pgso_net::{FrameReader, KgClient, Request, Response, MAX_FRAME_LEN};
use pgso_ontology::WorkloadDistribution;
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_persist::{
    latest_generation, read_wal, snapshot_path, write_snapshot, PersistConfig, Snapshot, WalRecord,
    WalTelemetry, WalWriter,
};
use pgso_pgschema::PropertyGraphSchema;
use pgso_query::{execute_statement, fingerprint_statement, parse, rewrite_statement, Params};
use pgso_server::{KgServer, ServerConfig};
use pgso_telemetry::MetricsRegistry;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MED_PROBE_SCALE: f64 = 0.1;
const FIN_PROBE_SCALE: f64 = 0.03;

pub fn run_all(spec: &RunSpec) -> MetricSet {
    let mut m = MetricSet::new();
    let scratch = ScratchDir::new("probes");
    paper_pipeline(&mut m);
    // One rung-1 server carries the storage, query, server-read, tenant and
    // telemetry probes; the wire and durability probes build their own.
    let server = med_server(1, server_config(), None);
    let pool = ParamPool::from_server(&server);
    let mut rng = Rng::new(spec.seed);
    let params: Vec<Params> = ALL_CLASSES.iter().map(|&c| pool.params(c, &mut rng)).collect();
    storage_tiers(&mut m, &server, &scratch);
    let exec_us = query_layer(&mut m, &server, &params);
    server_reads(&mut m, &server, &params, &exec_us);
    telemetry_layer(&mut m, &server);
    datagen_updates(&mut m, &server);
    drop(server);
    durability(&mut m, &scratch, spec.seed);
    wire(&mut m, spec.seed);
    let host = host::measure(Duration::from_millis(100));
    m.put("bench.host_parallel_speedup", host.parallel_speedup);
    m.put("bench.host_spin_rate", host.spin_rate_per_s);
    m
}

/// ontology → core → pgschema → datagen, then the paper's cycle at probe
/// scale: the pieces `paper_micro`'s set-up is made of, timed one by one.
fn paper_pipeline(m: &mut MetricSet) {
    let mut synth_ms = 0.0;
    let mut nsc_ms = 0.0;
    let mut rules = 0usize;
    let (mut vertex_types, mut edge_types, mut payload_opt) = (0usize, 0usize, 0u64);
    let mut pairs = Vec::new();
    for (dataset, tag, scale) in
        [(DatasetId::Med, "med", MED_PROBE_SCALE), (DatasetId::Fin, "fin", FIN_PROBE_SCALE)]
    {
        let (workbench, ms) =
            ms_of(|| Workbench::new(dataset, WorkloadDistribution::Uniform, GRAPH_SEED));
        synth_ms += ms;
        let (outcome, ms) = ms_of(|| optimize_nsc(workbench.input(), &OptimizerConfig::default()));
        nsc_ms += ms;
        rules += outcome.selected.len();
        vertex_types += outcome.schema.vertex_count();
        edge_types += outcome.schema.edge_count();
        let (instance, ms) = ms_of(|| {
            InstanceKg::generate(&workbench.ontology, &workbench.statistics, scale, GRAPH_SEED)
        });
        m.put(format!("datagen.generate_ms.{tag}"), ms);
        let direct_schema = PropertyGraphSchema::direct_from_ontology(&workbench.ontology);
        let mut direct = MemoryGraph::new();
        let (_, ms) =
            ms_of(|| load_into(&mut direct, &workbench.ontology, &direct_schema, &instance));
        m.put(format!("datagen.load_dir_ms.{tag}"), ms);
        let mut optimized = MemoryGraph::new();
        let (_, ms) =
            ms_of(|| load_into(&mut optimized, &workbench.ontology, &outcome.schema, &instance));
        m.put(format!("datagen.load_opt_ms.{tag}"), ms);
        m.put(
            format!("datagen.load_opt_us_per_vertex.{tag}"),
            ms * 1e3 / optimized.vertex_count().max(1) as f64,
        );
        payload_opt += optimized.payload_bytes();
        pairs.push(GraphPair { direct, optimized, optimized_schema: outcome.schema });
    }
    m.put("ontology.synthesize_ms", synth_ms);
    m.put("core.optimize_nsc_ms", nsc_ms);
    m.put("core.rules_applied", rules as f64);
    m.put("pgschema.opt_vertex_types", vertex_types as f64);
    m.put("pgschema.opt_edge_types", edge_types as f64);
    m.put("pgschema.payload_bytes_opt", payload_opt as f64);

    // What the serving layer runs at construction: PGSG on the medical
    // catalog with uniform frequencies.
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), GRAPH_SEED);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let input = pgso_core::OptimizerInput::new(&ontology, &statistics, &frequencies);
    let (_, ms) = ms_of(|| optimize_pgsg(input, &ServerConfig::default().optimizer));
    m.put("core.optimize_pgsg_ms", ms);

    let fin = pairs.pop().expect("FIN pair");
    let med = pairs.pop().expect("MED pair");
    let fixture = paper_micro::Fixture::from_pairs(med, fin);
    let eq = paper_micro::check_equivalence(&fixture);
    for family in ["pattern", "lookup", "aggregation"] {
        m.put(format!("core.trav_ratio.{family}"), eq.traversal_ratio(Some(family)));
    }
    m.put("query.equiv_failed", eq.mismatched.len() as f64);
    // Geomean over Q1-Q12 of p50(DIR) / p50(OPT), 15 executions each.
    let ratios: Vec<f64> = (0..12)
        .map(|k| {
            let dir = us_per_call(15, || drop(black_box(fixture.execute(2 * k))));
            let opt = us_per_call(15, || drop(black_box(fixture.execute(2 * k + 1))));
            dir / opt
        })
        .collect();
    m.put("core.speedup_geomean", geomean(&ratios));
}

/// The four read calls of `GraphBackend` on each storage tier holding the
/// same rung-1 graph.
fn storage_tiers(m: &mut MetricSet, server: &KgServer, scratch: &ScratchDir) {
    let epoch = server.current_epoch();
    let memory = epoch.graph();
    let (csr, compile_ms) = ms_of(|| CsrGraph::freeze(memory));
    m.put("graphstore.csr.compile_ms", compile_ms);
    let journal = memory.export_updates().expect("memory tier exports its journal");
    let mut disk = DiskGraph::create(scratch.0.join("probe.store"), DiskGraphConfig::default())
        .expect("disk store creates");
    apply_updates(&mut disk, &journal);
    disk.flush().expect("disk store flushes");

    // The edge type whose source label has the most vertices: scans and
    // expansions on it touch the most data. Ties break by name.
    let mut edges: Vec<_> = epoch.schema.edges().collect();
    edges.sort_by(|a, b| (&a.src, &a.label, &a.dst).cmp(&(&b.src, &b.label, &b.dst)));
    let edge = edges
        .into_iter()
        .max_by_key(|e| memory.vertices_with_label(&e.src).len())
        .expect("the served schema has edge types");
    let sources: Vec<VertexId> = memory.vertices_with_label(&edge.src);
    let sample: Vec<VertexId> = sources.iter().copied().take(256).collect();
    let property = memory
        .vertex(sample[0])
        .and_then(|v| v.properties.keys().next().cloned())
        .expect("sampled vertex has a property");

    let tiers: [(&str, &dyn GraphBackend); 3] =
        [("memory", memory), ("csr", &csr), ("disk", &disk)];
    for (tier, graph) in tiers {
        graph.reset_stats();
        let scan_us = us_per_call(15, || drop(black_box(graph.vertices_with_label(&edge.src))));
        m.put(
            format!("graphstore.{tier}.label_scan_ns_per_vertex"),
            scan_us * 1e3 / sources.len() as f64,
        );
        let mut next = 0usize;
        let mut each = |f: &mut dyn FnMut(VertexId)| {
            ns_per_call(15, sample.len(), || {
                f(sample[next % sample.len()]);
                next += 1;
            })
        };
        m.put(
            format!("graphstore.{tier}.out_neighbours_ns"),
            each(&mut |v| drop(black_box(graph.out_neighbours(v, &edge.label)))),
        );
        m.put(
            format!("graphstore.{tier}.property_of_ns"),
            each(&mut |v| drop(black_box(graph.property_of(v, &property)))),
        );
        m.put(
            format!("graphstore.{tier}.vertex_ns"),
            each(&mut |v| drop(black_box(graph.vertex(v)))),
        );
        m.put(format!("graphstore.{tier}.resident_bytes"), graph.resident_bytes() as f64);
        if tier == "disk" {
            m.put("graphstore.disk.page_hit_ratio", graph.stats().hit_ratio());
        }
    }
}

/// Parse, fingerprint, rewrite, bind and execute for each statement class,
/// on the server's epoch graph but without the server. Returns the per-class
/// `(bind µs, execute µs)` for `server.overhead_us`.
fn query_layer(m: &mut MetricSet, server: &KgServer, params: &[Params]) -> Vec<(f64, f64)> {
    let epoch = server.current_epoch();
    let graph = epoch.graph();
    let (mut parse_us, mut fingerprint_ns, mut rewrite_us, mut bind_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stage_us = [0.0f64; 5];
    let (mut rows, mut reads, mut traversals, mut checks) = (0.0, 0.0, 0.0, 0.0);
    let mut per_class = Vec::new();
    const RUNS: usize = 25;
    for (class, params) in CLASSES.iter().zip(params) {
        parse_us.push(us_per_call(25, || drop(black_box(parse(class.text)))));
        let dir = parse(class.text).expect("class statement parses");
        fingerprint_ns.push(ns_per_call(15, 64, || {
            black_box(fingerprint_statement(&dir));
        }));
        rewrite_us
            .push(us_per_call(25, || drop(black_box(rewrite_statement(&dir, &epoch.schema)))));
        let plan = rewrite_statement(&dir, &epoch.schema);
        let bind = us_per_call(50, || drop(black_box(plan.bind(params))));
        bind_us.push(bind);
        let bound = plan.bind(params).expect("generated params bind");
        let mut last = execute_statement(&bound, graph);
        let exec = us_per_call(RUNS, || {
            last = execute_statement(&bound, graph);
            for (slot, (_, took)) in stage_us.iter_mut().zip(last.stage_timings.stages()) {
                *slot += took.as_nanos() as f64 / 1e3;
            }
        });
        m.put(format!("query.exec_us.{}", class.name), exec);
        m.put(
            format!("query.reads_per_row.{}", class.name),
            last.stats.vertex_reads as f64 / last.rows.len().max(1) as f64,
        );
        if class.name == "scan" {
            m.put("query.ns_per_row", exec * 1e3 / last.rows.len().max(1) as f64);
        }
        rows += last.rows.len() as f64;
        reads += last.stats.vertex_reads as f64;
        traversals += last.stats.edge_traversals as f64;
        checks += last.predicate_checks as f64;
        per_class.push((bind, exec));
    }
    let classes = CLASSES.len() as f64;
    m.put("query.parse_us", median(&parse_us));
    m.put("query.fingerprint_ns", median(&fingerprint_ns));
    m.put("query.rewrite_us", median(&rewrite_us));
    m.put("query.bind_us", median(&bind_us));
    for (name, total) in
        ["root_selection", "expansion", "optional", "aggregate", "windowing"].iter().zip(stage_us)
    {
        m.put(format!("query.stage.{name}_us"), total / (classes * RUNS as f64));
    }
    m.put("query.rows_per_query", rows / classes);
    m.put("query.predicate_checks_per_query", checks / classes);
    m.put("graphstore.vertex_reads_per_query", reads / classes);
    m.put("graphstore.edge_traversals_per_query", traversals / classes);
    per_class
}

/// `KgServer`'s read path: prepare, execute per class, what the server adds
/// on top of bind + execute, the plan cache, and telemetry on against off.
fn server_reads(m: &mut MetricSet, server: &KgServer, params: &[Params], query: &[(f64, f64)]) {
    let fresh = med_server(1, server_config(), None);
    let prepare_us: Vec<f64> = CLASSES
        .iter()
        .map(|class| {
            let t = Instant::now();
            black_box(fresh.prepare_text(class.text)).expect("class statement prepares");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    m.put("server.prepare_us", median(&prepare_us));

    let handles = prepare(server, &ALL_CLASSES);
    for (handle, p) in handles.iter().zip(params) {
        server.execute(handle, p).expect("warm execute"); // plan-cache fill
    }
    let warm = server.cache_stats();
    let mut overhead = Vec::new();
    for (class, ((handle, p), (bind_us, exec_us))) in
        handles.iter().zip(params).zip(query).enumerate()
    {
        let us = us_per_call(40, || drop(black_box(server.execute(handle, p))));
        m.put(format!("server.execute_us.{}", CLASSES[class].name), us);
        if SMALL_CLASSES.contains(&class) {
            overhead.push(us - (bind_us + exec_us));
        }
    }
    m.put("server.overhead_us", overhead.iter().sum::<f64>() / overhead.len() as f64);
    let stats = server.cache_stats();
    let (hits, misses) = (stats.hits - warm.hits, stats.misses - warm.misses);
    m.put("server.plan_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);

    // Telemetry on against off: two otherwise identical servers, the small
    // classes, interleaved rounds so drift hits both alike.
    let quiet = med_server(1, ServerConfig { telemetry_enabled: false, ..server_config() }, None);
    let quiet_handles = prepare(&quiet, &SMALL_CLASSES);
    let round = |s: &KgServer, hs: &[pgso_server::PreparedStatement]| {
        let t = Instant::now();
        for _ in 0..40 {
            for (h, &class) in hs.iter().zip(&SMALL_CLASSES) {
                black_box(s.execute(h, &params[class])).ok();
            }
        }
        t.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> =
        (0..5).map(|_| round(server, &handles[..3]) / round(&quiet, &quiet_handles)).collect();
    m.put("server.telemetry_overhead_frac", median(&ratios) - 1.0);

    // Tenant admission: the gate alone, and `Tenant::execute` against the
    // bare `KgServer::execute` on the point class, interleaved.
    let host = pgso_tenant::TenantHost::single(std::sync::Arc::new(fresh));
    let tenant = host.default_tenant().expect("single host has a default tenant");
    let handle = &tenant.server().prepared_statements()[0];
    m.put("tenant.admit_ns", ns_per_call(15, 1024, || drop(black_box(tenant.admit()))));
    let deltas: Vec<f64> = (0..7)
        .map(|_| {
            let gated = us_per_call(40, || drop(black_box(tenant.execute(handle, &params[0]))));
            let bare =
                us_per_call(40, || drop(black_box(tenant.server().execute(handle, &params[0]))));
            (gated - bare) * 1e3
        })
        .collect();
    m.put("tenant.overhead_ns", median(&deltas));
    m.put("tenant.quota_rejections", tenant.health().rejected as f64);
}

fn telemetry_layer(m: &mut MetricSet, server: &KgServer) {
    let registry = MetricsRegistry::new();
    let hist = registry.histogram("probe.latency");
    let counter = registry.counter("probe.count");
    let mut value = 1u64;
    m.put(
        "telemetry.hist_record_ns",
        ns_per_call(15, 4096, || {
            value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(value >> 40);
        }),
    );
    m.put("telemetry.counter_inc_ns", ns_per_call(15, 4096, || counter.inc()));
    m.put(
        "telemetry.metrics_text_ms",
        us_per_call(7, || drop(black_box(server.metrics_text()))) / 1e3,
    );
}

fn datagen_updates(m: &mut MetricSet, server: &KgServer) {
    let epoch = server.current_epoch();
    let (_, ms) = ms_of(|| {
        black_box(streaming_updates(
            server.ontology(),
            &epoch.schema,
            epoch.graph(),
            1024,
            GRAPH_SEED,
            &UpdateStreamConfig::default(),
        ))
    });
    m.put("datagen.updates_gen_ms", ms);
}

/// `persist` on its own (WAL append, sync, read; snapshot write), then the
/// server's write path on a persistent rung-1 server with fsync on.
fn durability(m: &mut MetricSet, scratch: &ScratchDir, seed: u64) {
    let persist = PersistConfig::new(scratch.0.join("store"));
    let server = med_server(1, server_config(), Some(persist.clone()));
    let epoch = server.current_epoch();
    let updates = streaming_updates(
        server.ontology(),
        &epoch.schema,
        epoch.graph(),
        6 * 16 * 64,
        seed,
        &UpdateStreamConfig::default(),
    );
    let mut batches: Vec<Vec<GraphUpdate>> =
        updates.chunks(64).take(6 * 16).map(<[GraphUpdate]>::to_vec).collect();
    // The second three cycles run beside a reader thread, further down.
    let beside_reader = batches.split_off(3 * 16);
    let payload_bytes: usize = batches.iter().flatten().map(|u| encode_update(u).len()).sum();
    let update_count: usize = batches.iter().map(Vec::len).sum();

    // persist alone: the same batches as WAL records.
    let records: Vec<Vec<WalRecord>> =
        batches.iter().map(|b| b.iter().cloned().map(WalRecord::Update).collect()).collect();
    let wal_path = scratch.0.join("probe.wal");
    let mut wal = WalWriter::create(&wal_path, false).expect("probe WAL creates");
    let mut append_us = Vec::new();
    let mut sync_us = Vec::new();
    for batch in &records {
        let t = Instant::now();
        wal.append(batch).expect("WAL append");
        append_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        wal.sync().expect("WAL sync");
        sync_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    m.put("persist.wal_append_us", median(&append_us));
    m.put("persist.wal_sync_us", median(&sync_us));
    m.put("persist.wal_bytes_per_update", wal.len() as f64 / update_count as f64);
    drop(wal);
    let (outcome, ms) = ms_of(|| read_wal(&wal_path).expect("probe WAL reads back"));
    assert_eq!(outcome.records.len(), update_count, "WAL read returns every record");
    m.put("persist.wal_read_ms", ms);

    // fsyncs per group commit, from the writer's own telemetry handles.
    let registry = MetricsRegistry::new();
    let telemetry = WalTelemetry::register(&registry);
    let mut synced = WalWriter::create(scratch.0.join("synced.wal"), true).expect("WAL creates");
    synced.set_telemetry(Some(telemetry.clone()));
    for batch in records.iter().take(8) {
        synced.append(batch).expect("WAL append");
    }
    m.put(
        "persist.fsyncs_per_batch",
        telemetry.fsync.count() as f64 / telemetry.appends.get().max(1) as f64,
    );
    drop(synced);

    let snapshot = Snapshot {
        epoch: epoch.number,
        schema_generation: epoch.schema_generation,
        shard_count: 1,
        schema: epoch.schema.clone(),
        journal: epoch.graph().export_updates().expect("memory tier exports its journal"),
        ingested: Vec::new(),
        tracker: Vec::new(),
        baseline: Vec::new(),
        prepared: Vec::new(),
    };
    let (bytes, ms) =
        ms_of(|| write_snapshot(&snapshot_path(&scratch.0, 0), &snapshot).expect("snapshot"));
    m.put("persist.snapshot_write_ms", ms);
    m.put("persist.snapshot_bytes", bytes as f64);
    drop(epoch);

    // The server's write path: three cycles of 16 durable batches and one
    // publication, then checkpoint, drop and recover.
    let vertices = server.current_epoch().graph().vertex_count();
    let mut ingest_us = Vec::new();
    let mut publish_ms = Vec::new();
    let mut wal_bytes = 0;
    for (n, batch) in batches.into_iter().enumerate() {
        let t = Instant::now();
        wal_bytes = server.ingest(batch).expect("durable ingest").wal_bytes;
        ingest_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if (n + 1) % 16 == 0 {
            let (swapped, ms) = ms_of(|| server.flush_ingest());
            assert!(swapped, "a staged cycle publishes");
            publish_ms.push(ms);
        }
    }
    m.put("server.ingest_call_us", median(&ingest_us));
    m.put("server.publish_ms", median(&publish_ms));
    m.put("server.publish_us_per_vertex", median(&publish_ms) * 1e3 / vertices as f64);
    read_beside_writer(m, &server, beside_reader);
    let (_, ms) = ms_of(|| server.checkpoint().expect("checkpoint"));
    m.put("server.checkpoint_ms", ms);
    // Bytes written for the updates — this generation's WAL plus the
    // snapshot the checkpoint wrote — per byte of update payload.
    let newest = latest_generation(&persist.dir).ok().flatten().unwrap_or(0);
    let snapshot_bytes =
        std::fs::metadata(snapshot_path(&persist.dir, newest)).map_or(0, |meta| meta.len());
    m.put("persist.write_amp", (wal_bytes + snapshot_bytes) as f64 / payload_bytes as f64);
    let ontology = server.ontology().clone();
    drop(server);
    let (state, ms) = ms_of(|| pgso_persist::recover(&persist.dir).expect("store recovers"));
    assert!(state.is_some(), "a checkpointed store holds a snapshot");
    m.put("persist.recover_read_ms", ms);
    let (_, statistics) = med_parts();
    let base = InstanceKg::generate(&ontology, &statistics, LADDER_BASE_SCALE, GRAPH_SEED);
    let (recovered, ms) =
        ms_of(|| KgServer::recover(ontology, statistics, base, server_config(), persist));
    let recovered = recovered.expect("server recovers");
    assert!(
        recovered.current_epoch().graph().vertex_count() > vertices,
        "ingested vertices survive"
    );
    m.put("server.recover_ms", ms);
}

/// What a concurrent reader sees while the writer ingests and publishes:
/// one reader thread runs the point class closed-loop, alone first, then
/// beside three write cycles. Two threads, so the numbers depend on whether
/// the host gives them two cores (`bench.host_parallel_speedup`).
fn read_beside_writer(m: &mut MetricSet, server: &KgServer, batches: Vec<Vec<GraphUpdate>>) {
    if host::check_clients(2).is_err() {
        m.put("server.read_stall_ms", f64::NAN);
        m.put("server.read_slowdown_beside_writer", f64::NAN);
        return;
    }
    let handle = &prepare(server, &[0])[0];
    let pool = ParamPool::from_server(server);
    let params = pool.params(0, &mut Rng::new(GRAPH_SEED));
    let alone = us_per_call(200, || drop(black_box(server.execute(handle, &params))));
    let done = std::sync::atomic::AtomicBool::new(false);
    let origin = Instant::now();
    let (publishes, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // (start, latency) in seconds since `origin`.
            let mut reads: Vec<(f64, f64)> = Vec::with_capacity(1 << 14);
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let start = origin.elapsed().as_secs_f64();
                black_box(server.execute(handle, &params)).ok();
                reads.push((start, origin.elapsed().as_secs_f64() - start));
            }
            reads
        });
        let mut publishes: Vec<(f64, f64)> = Vec::new();
        for (n, batch) in batches.into_iter().enumerate() {
            server.ingest(batch).expect("durable ingest");
            if (n + 1) % 16 == 0 {
                let start = origin.elapsed().as_secs_f64();
                server.flush_ingest();
                publishes.push((start, origin.elapsed().as_secs_f64()));
            }
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        (publishes, reader.join().expect("reader thread"))
    });
    // Per publication: the slowest read that overlapped it.
    let stalls: Vec<f64> = publishes
        .iter()
        .map(|&(from, to)| {
            reads
                .iter()
                .filter(|&&(start, took)| start < to && start + took > from)
                .map(|&(_, took)| took * 1e3)
                .fold(0.0, f64::max)
        })
        .collect();
    m.put("server.read_stall_ms", median(&stalls));
    let beside: Vec<f64> = reads.iter().map(|&(_, took)| took * 1e6).collect();
    m.put("server.read_slowdown_beside_writer", median(&beside) / alone);
}

/// The wire: codec and framing calls on their own, then the waterfall of
/// sampled round trips on a rung-1 listener — `wire_small`'s own fixture and
/// traced operation.
fn wire(m: &mut MetricSet, seed: u64) {
    let mut fixture = wire_small::build();
    let addr = fixture.wire.listener.local_addr();
    let connect_us: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let client = KgClient::connect(addr).expect("probe client connects");
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            client.goodbye().ok();
            us
        })
        .collect();
    m.put("net.connect_us", median(&connect_us));
    let prepare_us: Vec<f64> = CLASSES
        .iter()
        .map(|class| {
            let t = Instant::now();
            fixture.wire.client.prepare(class.text).expect("prepares over the wire");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    m.put("net.prepare_us", median(&prepare_us));

    let mut rng = Rng::new(seed);
    let point = fixture.pool.params(0, &mut rng);
    let request = Request::Execute { handle: 0, params: point, trace: None };
    m.put(
        "net.encode_request_ns",
        ns_per_call(15, 256, || drop(black_box(encode_request(&request)))),
    );
    let (opcode, payload) = encode_request(&request);
    m.put(
        "net.decode_request_ns",
        ns_per_call(15, 256, || drop(black_box(decode_request(opcode, &payload)))),
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, opcode, &payload);
    m.put(
        "net.frame_read_ns",
        ns_per_call(15, 256, || {
            let mut reader = FrameReader::new(MAX_FRAME_LEN);
            reader.extend(&frame);
            black_box(reader.next_frame()).ok();
        }),
    );
    // One full ROWS chunk of real result rows.
    let scan = fixture.server.serve_text(CLASSES[4].text).expect("scan statement serves");
    let rows: Vec<_> = scan.rows.into_iter().take(128).collect();
    let per_row = rows.len().max(1) as f64;
    let response = Response::Rows { rows };
    m.put(
        "net.encode_response_ns_per_row",
        ns_per_call(15, 16, || drop(black_box(encode_response(&response)))) / per_row,
    );
    let (opcode, payload) = encode_response(&response);
    m.put(
        "net.decode_response_ns_per_row",
        ns_per_call(15, 16, || drop(black_box(decode_response(opcode, &payload)))) / per_row,
    );

    let reference = Reference::new(&fixture.server, &SMALL_CLASSES);
    let mut recorder = Recorder::new();
    let before = fixture.wire.listener.run_report();
    for op in 0..240u64 {
        let class = (op % 3) as usize;
        let params = fixture.pool.params(SMALL_CLASSES[class], &mut rng);
        wire_small::traced_request(&mut recorder, op, &mut fixture, &reference, class, &params);
    }
    let summary = recorder.summary();
    let rtt_us = summary["client.execute"].1 / 1e3;
    let served_us = summary["server.execute"].1 / 1e3;
    m.put("net.rtt_us", rtt_us);
    m.put("net.wire_overhead_us", rtt_us - served_us);
    m.put("net.unattributed_us", summary["client.execute"].2 / 1e3);
    let report = fixture.wire.close();
    let served = (report.served - before.served).max(1);
    m.put("net.bytes_per_response", (report.bytes_out - before.bytes_out) as f64 / served as f64);
    m.put("net.errors", report.errors as f64);
}

/// Median nanoseconds per call of `f`, from `batches` timed batches of
/// `per_batch` calls — the probe primitive for ns-scale public calls.
pub fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_batch_ns = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        per_batch_ns.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per_batch_ns)
}

/// Median microseconds of `calls` individually timed calls of `f`.
pub fn us_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    percentile(&mut us, 0.5)
}

/// Milliseconds one call of `f` takes, with its result.
pub fn ms_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

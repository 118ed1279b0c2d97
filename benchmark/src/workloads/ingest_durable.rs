//! `ingest_durable` — writes between reads. A persistent server (WAL with
//! fsync on) on MED rung 3; one closed-loop client pushes a seeded update
//! stream in cycles of 16 `ingest()` batches of 64 updates and one
//! `flush_ingest()` publication, and reads a burst of the three small
//! classes on every freshly published epoch. Then checkpoint, a short WAL
//! tail, drop and `KgServer::recover`.
//!
//! The work is fixed, not the time, so bytes, flushes and publications
//! repeat exactly: each of the run's three builds of the server ingests the
//! same stream of four cycles per `--seconds` (40 by default), and the
//! statistics are medians over the builds.
//!
//! One thread on purpose. A reader thread *beside* the writer was measured
//! first: on the reference host the two vCPUs are at times SMT siblings
//! (`bench.host_parallel_speedup` reads 1.0) and at times not, and the
//! reader's median moved 450-790 us between runs of one commit. What a
//! concurrent reader sees during publication is therefore reported per
//! layer (`server.read_stall_ms`, `server.read_slowdown_beside_writer`),
//! unbounded, and the bounded numbers come from this interleaved loop.

use super::serve_mix::{param_sets, PARAMS_PER_CLASS};
use super::Reference;
use crate::alloc;
use crate::digest::{digest_rows, RowDigest};
use crate::fixtures::{
    med_parts, med_server, prepare, server_config, ParamPool, ScratchDir, CLASSES, GRAPH_SEED,
    LADDER_BASE_SCALE, SMALL_CLASSES,
};
use crate::harness::{
    peak_rss_mb, timed_setup, trace_metrics, write_trace, Outcome, Round, RunSpec, Timed,
};
use crate::host;
use crate::metrics::MetricSet;
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use pgso_datagen::{streaming_updates, ScaleLadder, UpdateStreamConfig};
use pgso_graphstore::{apply_updates, GraphBackend, GraphUpdate, MemoryGraph};
use pgso_persist::{PersistConfig, WalRecord, WalWriter};
use pgso_query::Params;
use pgso_server::{KgServer, PreparedStatement};
use std::hint::black_box;
use std::time::Instant;

pub const RUNG: usize = 3;
pub const BATCH: usize = 64;
pub const BATCHES_PER_CYCLE: usize = 16;
/// Publication cycles per measured second on each build of the fixture:
/// the fixed work.
const CYCLES_PER_SECOND: f64 = 4.0;
/// Batches ingested after the checkpoint, so recovery replays a WAL tail and
/// not only a snapshot.
const TAIL_BATCHES: usize = 4;
const DIGEST_QUERY: &str = "MATCH (d:Drug) RETURN d.name";

pub struct Fixture {
    pub server: KgServer,
    pub handles: Vec<PreparedStatement>,
    pub pool: ParamPool,
    /// The measured cycles' update stream, cut into `ingest()` batches.
    pub batches: Vec<Vec<GraphUpdate>>,
    /// The batches ingested after the checkpoint.
    pub tail: Vec<Vec<GraphUpdate>>,
    /// Vertices plus edges of the graph as built.
    pub base_elements: usize,
    pub persist: PersistConfig,
    // Last, so the directory outlives the server that writes into it.
    pub dir: ScratchDir,
}

pub fn cycles_for(seconds: f64) -> usize {
    ((seconds * CYCLES_PER_SECOND).round() as usize).max(3)
}

pub fn build(rung: usize, cycles: usize) -> Fixture {
    let dir = ScratchDir::new("ingest");
    let persist = PersistConfig::new(dir.0.join("store"));
    let server = med_server(rung, server_config(), Some(persist.clone()));
    let handles = prepare(&server, &SMALL_CLASSES);
    let pool = ParamPool::from_server(&server);
    let wanted = (cycles * BATCHES_PER_CYCLE + TAIL_BATCHES) * BATCH;
    let epoch = server.current_epoch();
    // Every generated entity yields at least its vertex, so `wanted`
    // entities always cover `wanted` updates; the stream is cut to size (a
    // prefix of a valid stream is valid).
    let mut updates = streaming_updates(
        server.ontology(),
        &epoch.schema,
        epoch.graph(),
        wanted,
        // Like the graph it extends, the stream does not depend on `--seed`:
        // which concepts it happens to grow decides what the O(V) reads
        // cost, and that input variance would drown the measurement's own.
        GRAPH_SEED,
        &UpdateStreamConfig::default(),
    );
    updates.truncate(wanted);
    let mut batches: Vec<Vec<GraphUpdate>> =
        updates.chunks(BATCH).map(<[GraphUpdate]>::to_vec).collect();
    let tail = batches.split_off(cycles * BATCHES_PER_CYCLE);
    let base_elements = epoch.graph().vertex_count() + epoch.graph().edge_count();
    drop(epoch);
    Fixture { server, handles, pool, batches, tail, base_elements, persist, dir }
}

fn graph_state(server: &KgServer) -> (usize, usize, RowDigest) {
    let epoch = server.current_epoch();
    let rows = server.serve_text(DIGEST_QUERY).expect("digest query parses").rows;
    (epoch.graph().vertex_count(), epoch.graph().edge_count(), digest_rows(&rows))
}

/// Reads issued on each freshly published epoch.
const BURST: usize = 36;

/// What one client measured over its cycles.
#[derive(Default)]
struct CycleLog {
    ack_us: Vec<f64>,
    publish_ms: Vec<f64>,
    /// Per cycle, per class: the burst's read latencies in µs.
    bursts: Vec<Vec<Vec<f64>>>,
    /// Seconds spent in `ingest()` and `flush_ingest()` (bursts excluded).
    write_s: f64,
    read_allocs: u64,
    failed: u64,
}

/// The closed loop of one client: per cycle, [`BATCHES_PER_CYCLE`] durable
/// `ingest()` batches, one `flush_ingest()` publication, then `read(class,
/// n)` [`BURST`] times on the epoch just published.
fn run_cycles(
    server: &KgServer,
    batches: Vec<Vec<GraphUpdate>>,
    mut read: impl FnMut(usize, usize) -> bool,
) -> CycleLog {
    let mut log = CycleLog::default();
    let mut reads = 0usize;
    for (n, batch) in batches.into_iter().enumerate() {
        let t = Instant::now();
        log.failed += u64::from(server.ingest(batch).is_err());
        log.ack_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        log.write_s += t.elapsed().as_secs_f64();
        if (n + 1) % BATCHES_PER_CYCLE == 0 {
            let t = Instant::now();
            log.failed += u64::from(!server.flush_ingest());
            log.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
            log.write_s += t.elapsed().as_secs_f64();
            let mut burst: Vec<Vec<f64>> = vec![Vec::new(); 3];
            let allocs_before = alloc::current_thread();
            for k in 0..BURST {
                let t = Instant::now();
                let ok = read(k % 3, reads);
                burst[k % 3].push(t.elapsed().as_nanos() as f64 / 1e3);
                log.failed += u64::from(!ok);
                reads += 1;
            }
            log.read_allocs += alloc::current_thread() - allocs_before;
            log.bursts.push(burst);
        }
    }
    log
}

/// All read latencies of one build's cycles as one round.
fn as_round(log: &CycleLog) -> Round {
    Round {
        class_us: (0..3)
            .map(|class| log.bursts.iter().flat_map(|b| b[class].iter().copied()).collect())
            .collect(),
        wall_s: log.write_s,
    }
}

pub fn run(spec: &RunSpec) -> Outcome {
    host::check_clients(1).expect("one client");
    let cycles = cycles_for(spec.seconds);
    let mut logs: Vec<CycleLog> = Vec::new();
    let mut ratios = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let read = |fixture: &Fixture, params: &[Vec<Params>], class: usize, n: usize| {
        let p = &params[class][(n / 3) % PARAMS_PER_CLASS];
        black_box(fixture.server.execute(&fixture.handles[class], p)).is_ok()
    };
    // Untraced, every build ingests the same cycles.
    let (mut fixture, setup_s) = timed_setup(
        spec.setups(),
        || build(RUNG, cycles),
        |fixture| {
            if spec.traced {
                return;
            }
            let params = param_sets(&fixture.pool, &SMALL_CLASSES, spec.seed);
            let batches = std::mem::take(&mut fixture.batches);
            let fixture = &*fixture;
            // The paper's ratios are taken on the graph as built: the update
            // stream is physical (OPT labels), so it has no DIR twin.
            ratios.get_or_insert_with(|| {
                Reference::new(&fixture.server, &SMALL_CLASSES).paper_ratios(
                    &fixture.server,
                    RUNG,
                    &fixture.pool,
                )
            });
            logs.push(run_cycles(&fixture.server, batches, |c, n| read(fixture, &params, c, n)));
        },
    );
    let cycle_updates = cycles * BATCHES_PER_CYCLE * BATCH;
    let mut notes = Vec::new();
    let mut metrics = MetricSet::new();
    if spec.traced {
        // Every write a span: `ingest()` with its WAL append replayed on a
        // scratch log of the same fsync mode, and `flush_ingest()` with the
        // journal replay publication performs (export the epoch's updates,
        // apply them to a fresh graph). The first half of the cycles runs
        // plain, for the tracing overhead and the plain tail.
        let params = param_sets(&fixture.pool, &SMALL_CLASSES, spec.seed);
        let mut batches = std::mem::take(&mut fixture.batches);
        let server = &fixture.server;
        let mut recorder = Recorder::new();
        let mut wal = WalWriter::create(fixture.dir.0.join("trace.wal"), fixture.persist.fsync)
            .expect("scratch WAL");
        let half = (cycles / 2).max(1) * BATCHES_PER_CYCLE;
        let plain = run_cycles(server, batches.drain(..half).collect(), |c, n| {
            read(&fixture, &params, c, n)
        });
        let mut traced_ack_us = Vec::new();
        for (n, batch) in batches.into_iter().enumerate() {
            let op = n as u64;
            let records: Vec<WalRecord> = batch.iter().cloned().map(WalRecord::Update).collect();
            let (result, root) = recorder.time("server.ingest", op, None, || server.ingest(batch));
            failed += u64::from(result.is_err());
            let span = &recorder.spans()[root];
            traced_ack_us.push((span.end_ns - span.start_ns) as f64 / 1e3);
            let mut cursor = span.start_ns;
            let (logged, _) = recorder
                .replay("persist.wal_append", op, root, &mut cursor, || wal.append(&records));
            failed += u64::from(logged.is_err());
            if (n + 1) % BATCHES_PER_CYCLE == 0 {
                let (swapped, root) =
                    recorder.time("server.flush_ingest", op, None, || server.flush_ingest());
                failed += u64::from(!swapped);
                let mut cursor = recorder.spans()[root].start_ns;
                let epoch = server.current_epoch();
                let (journal, _) =
                    recorder.replay("graphstore.export_updates", op, root, &mut cursor, || {
                        epoch.graph().export_updates().unwrap_or_default()
                    });
                recorder.replay("graphstore.apply_updates", op, root, &mut cursor, || {
                    let mut fresh = MemoryGraph::new();
                    apply_updates(&mut fresh, &journal);
                    black_box(fresh.vertex_count())
                });
            }
        }
        failed += plain.failed;
        attempted += (cycle_updates / BATCH + cycles + plain.bursts.len() * BURST) as u64;
        let mut plain_ack = plain.ack_us.clone();
        let overhead = percentile(&mut traced_ack_us, 0.5) / percentile(&mut plain_ack, 0.5) - 1.0;
        metrics.extend(trace_metrics(&recorder));
        metrics.put("bench.trace_overhead_frac", overhead);
        let plain = Timed { rounds: vec![as_round(&plain)] };
        metrics.put("trace.plain_p99_us", plain.query_tail_us().0);
        write_trace("ingest_durable", &recorder);
    } else {
        let timed = Timed { rounds: logs.iter().map(as_round).collect() };
        let reads = logs.iter().map(|l| l.bursts.len() * BURST).sum::<usize>();
        failed += logs.iter().map(|l| l.failed).sum::<u64>();
        attempted += ((cycle_updates / BATCH + cycles) * logs.len() + reads) as u64;
        let per_build: Vec<f64> = logs.iter().map(|l| cycle_updates as f64 / l.write_s).collect();
        metrics.put("setup_s", setup_s);
        metrics.put("query_p50_us", timed.query_p50_us());
        metrics.put("throughput_ops", median(&per_build));
        metrics.put(
            "allocs_per_query",
            logs.iter().map(|l| l.read_allocs).sum::<u64>() as f64 / reads.max(1) as f64,
        );
        metrics.put("peak_rss_mb", peak_rss_mb());
        let (traversal_ratio, space_ratio) = ratios.expect("measured on the first build");
        metrics.put("traversal_ratio", traversal_ratio);
        metrics.put("space_ratio", space_ratio);
        let names: Vec<&str> = SMALL_CLASSES.iter().map(|&c| CLASSES[c].name).collect();
        notes.push(format!("reads on fresh epochs: {}", timed.note(&names)));
        let mut ack: Vec<f64> = logs.iter().flat_map(|l| l.ack_us.iter().copied()).collect();
        let mut publish: Vec<f64> =
            logs.iter().flat_map(|l| l.publish_ms.iter().copied()).collect();
        notes.push(format!(
            "writes: {cycle_updates} updates per build, {:.0?} updates/s per build; ingest ack p50 \
             {:.0}us ({} samples); publish p50 {:.1}ms ({} samples)",
            per_build,
            percentile(&mut ack, 0.5),
            ack.len(),
            percentile(&mut publish, 0.5),
            publish.len()
        ));
    }

    // On the last build: the answers against the reference evaluator, the
    // paper's ratios, then checkpoint, a tail that reaches only the new WAL
    // (published, so the answers to compare are visible before the
    // restart), and the restart: recovery loads the snapshot and replays
    // the tail.
    let Fixture { server, handles, pool, tail, base_elements, persist, dir, .. } = fixture;
    let reference = Reference::new(&server, &SMALL_CLASSES);
    let (verified, differ) = reference.verify(&server, &pool, spec.seed, 8, |position, params| {
        server.execute(&handles[position], params).ok().map(|r| digest_rows(&r.rows))
    });
    attempted += verified;
    failed += differ;
    let t = Instant::now();
    let checkpointed = server.checkpoint().unwrap_or(false);
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let tail_updates: usize = tail.iter().map(Vec::len).sum();
    for batch in tail {
        failed += u64::from(server.ingest(batch).is_err());
    }
    server.flush_ingest();
    let before = graph_state(&server);
    drop(handles);
    drop(server);
    let (ontology, statistics) = med_parts();
    let base = ScaleLadder::generate(&ontology, &statistics, LADDER_BASE_SCALE, GRAPH_SEED, 1)
        .base_chunk()
        .clone();
    let t = Instant::now();
    let recovered = KgServer::recover(ontology, statistics, base, server_config(), persist);
    let after = recovered.as_ref().ok().map(graph_state);
    let recover_s = t.elapsed().as_secs_f64();
    attempted += 2;
    // Every update adds exactly one vertex or one edge.
    let acked = cycle_updates + tail_updates;
    let recovered_ok =
        checkpointed && after == Some(before) && before.0 + before.1 == base_elements + acked;
    failed += u64::from(!recovered_ok);
    notes.push(format!(
        "checkpoint {checkpoint_ms:.1}ms; recover to first answer {recover_s:.3}s; (vertices, \
         edges) before restart {:?}, after {:?}; {base_elements} built + {acked} acknowledged",
        (before.0, before.1),
        after.map(|(v, e, _)| (v, e)),
    ));
    drop(recovered);
    drop(dir);
    Outcome { attempted, failed, correct: failed == 0, metrics, notes }
}

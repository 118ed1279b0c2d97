//! `serve_mix` — prepared statements through `KgServer::execute`, in
//! process, on the MED ladder's rung 10 (≈75k vertices / 128k edges). Seven
//! statement classes round-robin, parameters varied per request. Executor,
//! storage reads, plan cache, bind and the workload tracker do the work; the
//! wire and the WAL are idle, so a change there must show no change here.

use super::{record_stages, Reference};
use crate::alloc;
use crate::digest::digest_rows;
use crate::fixtures::{med_server, prepare, server_config, ParamPool, Rng, CLASSES};
use crate::harness::{
    peak_rss_mb, run_round, timed_setup, trace_rounds, write_trace, Outcome, RunSpec, Timed,
};
use crate::metrics::MetricSet;
use crate::spans::Recorder;
use pgso_query::{execute_statement, BindError, Params, QueryResult, Statement};
use pgso_server::{KgServer, PreparedStatement};
use std::hint::black_box;

pub const RUNG: usize = 10;
pub const ALL_CLASSES: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];
/// Parameter sets pre-generated per class, so the timed loop allocates
/// nothing of its own.
pub const PARAMS_PER_CLASS: usize = 512;
const VERIFY_PER_CLASS: usize = 8;

pub struct Fixture {
    pub server: KgServer,
    pub handles: Vec<PreparedStatement>,
    pub pool: ParamPool,
}

pub fn build(rung: usize, classes: &[usize]) -> Fixture {
    let server = med_server(rung, server_config(), None);
    let handles = prepare(&server, classes);
    let pool = ParamPool::from_server(&server);
    Fixture { server, handles, pool }
}

/// `PARAMS_PER_CLASS` seeded parameter sets for each class in `classes`.
pub fn param_sets(pool: &ParamPool, classes: &[usize], seed: u64) -> Vec<Vec<Params>> {
    let mut rng = Rng::new(seed);
    classes
        .iter()
        .map(|&class| (0..PARAMS_PER_CLASS).map(|_| pool.params(class, &mut rng)).collect())
        .collect()
}

/// One sampled operation: the real `KgServer::execute` as a span, then its
/// parts replayed through the public calls the server makes — bind, then
/// `execute_statement` on the epoch graph. What the replays do not cover is
/// the server's own share: plan lookup, tracker, telemetry.
///
/// With `inside: None` the call is the operation's root span; with
/// `Some((parent, cursor))` it is itself a replayed part of a larger
/// operation (a wire request) and is laid inside `parent` at the cursor.
pub fn traced_execute(
    recorder: &mut Recorder,
    op: u64,
    inside: Option<(usize, &mut u64)>,
    server: &KgServer,
    handle: &PreparedStatement,
    plan: &Statement,
    params: &Params,
) -> Result<QueryResult, BindError> {
    let call = || server.execute(handle, params);
    let (result, span) = match inside {
        None => recorder.time("server.execute", op, None, call),
        Some((parent, cursor)) => recorder.replay("server.execute", op, parent, cursor, call),
    };
    let mut cursor = recorder.spans()[span].start_ns;
    let (bound, _) = recorder.replay("query.bind", op, span, &mut cursor, || plan.bind(params));
    if let Ok(bound) = bound {
        let epoch = server.current_epoch();
        let (replayed, exec) =
            recorder.replay("query.execute_statement", op, span, &mut cursor, || {
                execute_statement(&bound, epoch.graph())
            });
        record_stages(recorder, op, exec, &replayed);
    }
    result
}

/// Verification, warm-up and this build's share of the timed rounds.
struct Measured {
    timed: Timed,
    attempted: u64,
    failed: u64,
    allocs: u64,
    index: u64,
    /// Plan-cache `(hits, misses)` after warm-up, summed over builds.
    cache: (u64, u64),
}

fn measure(spec: &RunSpec, fixture: &Fixture, m: &mut Measured) {
    let Fixture { server, handles, pool } = fixture;
    let reference = Reference::new(server, &ALL_CLASSES);
    let params = param_sets(pool, &ALL_CLASSES, spec.seed);
    let (verified, differ) =
        reference.verify(server, pool, spec.seed, VERIFY_PER_CLASS, |position, params| {
            server.execute(&handles[position], params).ok().map(|r| digest_rows(&r.rows))
        });
    m.attempted += verified;
    m.failed += differ;
    let mut op = |class: usize, index: u64| {
        let params = &params[class][(index as usize / 7) % PARAMS_PER_CLASS];
        black_box(server.execute(&handles[class], params)).is_ok()
    };
    run_round(7, spec.warmup(), &mut m.index, &mut m.failed, &mut op);
    let warm = server.cache_stats();
    let allocs_before = alloc::total();
    for _ in 0..spec.rounds_per_setup() {
        m.timed.rounds.push(run_round(7, spec.round(), &mut m.index, &mut m.failed, &mut op));
    }
    m.allocs += alloc::total() - allocs_before;
    let stats = server.cache_stats();
    m.cache.0 += stats.hits - warm.hits;
    m.cache.1 += stats.misses - warm.misses;
}

pub fn run(spec: &RunSpec) -> Outcome {
    let mut m = Measured {
        timed: Timed::default(),
        attempted: 0,
        failed: 0,
        allocs: 0,
        index: 0,
        cache: (0, 0),
    };
    // Untraced, every build of the server carries its share of the rounds.
    let (fixture, setup_s) = timed_setup(
        spec.setups(),
        || build(RUNG, &ALL_CLASSES),
        |fixture| {
            if !spec.traced {
                measure(spec, fixture, &mut m);
            }
        },
    );
    let Fixture { server, handles, pool } = &fixture;
    let reference = Reference::new(server, &ALL_CLASSES);
    let mut notes = Vec::new();
    let mut metrics = MetricSet::new();
    if spec.traced {
        let params = param_sets(pool, &ALL_CLASSES, spec.seed);
        let (verified, differ) =
            reference.verify(server, pool, spec.seed, VERIFY_PER_CLASS, |position, params| {
                server.execute(&handles[position], params).ok().map(|r| digest_rows(&r.rows))
            });
        m.attempted += verified;
        m.failed += differ;
        let mut op = |class: usize, index: u64, recorder: Option<&mut Recorder>| {
            let params = &params[class][(index as usize / 7) % PARAMS_PER_CLASS];
            match recorder {
                None => black_box(server.execute(&handles[class], params)).is_ok(),
                Some(recorder) => {
                    let plan = reference.plan(class);
                    traced_execute(recorder, index, None, server, &handles[class], plan, params)
                        .is_ok()
                }
            }
        };
        run_round(7, spec.warmup(), &mut m.index, &mut m.failed, |c, i| op(c, i, None));
        let warm = server.cache_stats();
        let mut recorder = Recorder::new();
        let (trace, ops) = trace_rounds(spec, 7, &mut m.failed, &mut recorder, &mut op);
        m.attempted += ops;
        let stats = server.cache_stats();
        m.cache = (stats.hits - warm.hits, stats.misses - warm.misses);
        metrics.extend(trace);
        write_trace("serve_mix", &recorder);
    } else {
        let timed = &m.timed;
        m.attempted += timed.ops();
        // Before the DIR twin is built: it is the checker's memory, not the system's.
        metrics.put("peak_rss_mb", peak_rss_mb());
        let (traversal_ratio, space_ratio) = reference.paper_ratios(server, RUNG, pool);
        metrics.put("setup_s", setup_s);
        metrics.put("query_p50_us", timed.query_p50_us());
        metrics.put("throughput_ops", timed.throughput());
        metrics.put("allocs_per_query", m.allocs as f64 / timed.ops() as f64);
        metrics.put("traversal_ratio", traversal_ratio);
        metrics.put("space_ratio", space_ratio);
        let names: Vec<&str> = CLASSES.iter().map(|c| c.name).collect();
        notes.push(timed.note(&names));
    }
    let (hits, misses) = m.cache;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    notes.push(format!(
        "{} answers verified against the reference evaluator; plan cache after warm-up: {hits} \
         hits, {misses} misses",
        VERIFY_PER_CLASS * 7 * spec.setups()
    ));
    let correct = m.failed == 0 && hit_ratio >= 0.99;
    Outcome { attempted: m.attempted, failed: m.failed, correct, metrics, notes }
}

//! `wire_small` — the three small statement classes over real loopback TCP:
//! `KgListener::bind` (so tenant admission is on the path) with
//! `NetConfig::default()`, one `KgClient`, MED rung 1 (≈7.5k vertices).
//! Every round measures pipelining depth 1 (`execute`) and depth 16
//! (`send_execute` × 16, `recv_result` × 16). Engine work is small, so
//! framing, codec, the readiness loop and the worker hop dominate;
//! `serve_mix` bypasses all of them. The process's threads share one CPU, so
//! a hand-off between them is a context switch and not a cross-vCPU wake-up
//! whose cost is the hypervisor's.

use super::serve_mix::{param_sets, traced_execute, PARAMS_PER_CLASS};
use super::Reference;
use crate::alloc;
use crate::digest::digest_rows;
use crate::fixtures::{med_server, prepare, server_config, ParamPool, CLASSES, SMALL_CLASSES};
use crate::harness::{
    peak_rss_mb, run_round, timed_setup, trace_rounds, write_trace, Outcome, Round, RunSpec, Timed,
};
use crate::host;
use crate::metrics::MetricSet;
use crate::spans::Recorder;
use crate::stats::percentile;
use pgso_net::frame::write_frame;
use pgso_net::proto::{decode_request, decode_response, encode_request, encode_response};
use pgso_net::{FrameReader, KgClient, KgListener, NetConfig, NetPrepared, Request, Response};
use pgso_net::{NetRunReport, MAX_FRAME_LEN};
use pgso_query::Params;
use pgso_server::{KgServer, PreparedStatement};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const RUNG: usize = 1;
pub const DEPTH: usize = 16;
/// Each round measures both depths, a tenth of a second each at the default
/// ten seconds; the run reports the quietest round of each (see
/// [`Timed::quietest_p50_us`]).
const WIRE_ROUNDS: usize = 50;
const VERIFY_PER_CLASS: usize = 8;

/// The connection layer of the fixture.
pub struct Wire {
    // Field order is drop order: the client hangs up before the listener
    // drains and joins its threads.
    pub client: KgClient,
    pub listener: KgListener,
    pub net_handles: Vec<NetPrepared>,
}

impl Wire {
    pub fn open(server: &Arc<KgServer>) -> Self {
        host::check_clients(1).expect("one wire client");
        let mut listener = KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default())
            .expect("loopback listener binds");
        listener.serve().expect("listener serves");
        let mut client = KgClient::connect(listener.local_addr()).expect("client connects");
        let net_handles = SMALL_CLASSES
            .iter()
            .map(|&c| {
                client.prepare(CLASSES[c].text).expect("class statement prepares over the wire")
            })
            .collect();
        Wire { client, listener, net_handles }
    }

    /// Orderly close; returns the listener's wire accounting.
    pub fn close(self) -> NetRunReport {
        let Wire { client, listener, .. } = self;
        let _ = client.goodbye();
        let report = listener.run_report();
        listener.shutdown();
        report
    }
}

pub struct Fixture {
    pub wire: Wire,
    pub server: Arc<KgServer>,
    /// The same statements prepared in process: the reference the wire rows
    /// must equal, and the handle the traced replay executes.
    pub handles: Vec<PreparedStatement>,
    pub pool: ParamPool,
    /// Client, listener loop and workers share one CPU while the fixture
    /// lives (see [`host::pin_to_current_cpu`]); `None` if the kernel refused.
    pub pinned: Option<host::Pinned>,
}

pub fn build() -> Fixture {
    // Before the listener starts, so that its threads inherit the CPU.
    let pinned = host::pin_to_current_cpu();
    let server = Arc::new(med_server(RUNG, server_config(), None));
    let wire = Wire::open(&server);
    let handles = prepare(&server, &SMALL_CLASSES);
    let pool = ParamPool::from_server(&server);
    Fixture { wire, server, handles, pool, pinned }
}

/// Bursts (at least one) until `duration` has passed: queue [`DEPTH`] executes, then
/// collect their results. Returns `(queries per second at the median burst,
/// queries completed)` — the median, like a round's latency, so that a
/// stalled burst does not decide the round's rate.
fn pipelined_round(
    wire: &mut Wire,
    params: &[Vec<Params>],
    duration: Duration,
    next_index: &mut u64,
    failed: &mut u64,
) -> (f64, u64) {
    let started = Instant::now();
    let mut burst_s = Vec::new();
    loop {
        let t = Instant::now();
        for k in 0..DEPTH {
            let i = *next_index as usize + k;
            let class = i % 3;
            let p = &params[class][(i / 3) % PARAMS_PER_CLASS];
            *failed += u64::from(wire.client.send_execute(&wire.net_handles[class], p).is_err());
        }
        for _ in 0..DEPTH {
            *failed += u64::from(black_box(wire.client.recv_result()).is_err());
        }
        burst_s.push(t.elapsed().as_secs_f64());
        *next_index += DEPTH as u64;
        if started.elapsed() >= duration {
            break;
        }
    }
    (DEPTH as f64 / percentile(&mut burst_s, 0.5), (burst_s.len() * DEPTH) as u64)
}

fn depth1_round(
    wire: &mut Wire,
    params: &[Vec<Params>],
    duration: Duration,
    next_index: &mut u64,
    failed: &mut u64,
) -> Round {
    run_round(3, duration, next_index, failed, |class, i| {
        let p = &params[class][(i as usize / 3) % PARAMS_PER_CLASS];
        black_box(wire.client.execute(&wire.net_handles[class], p)).is_ok()
    })
}

/// One sampled wire request: the real `KgClient::execute` as the root, then
/// every part of the request's path replayed through the public layer calls
/// in server order. What the replays leave uncovered is the connection
/// layer's own share — readiness loop, worker-queue hop, socket syscalls.
pub fn traced_request(
    recorder: &mut Recorder,
    op: u64,
    fixture: &mut Fixture,
    reference: &Reference,
    class: usize,
    params: &Params,
) -> bool {
    let Fixture { wire: Wire { client, listener, net_handles }, server, handles, .. } = fixture;
    let (wire, root) =
        recorder.time("client.execute", op, None, || client.execute(&net_handles[class], params));
    let mut cursor = recorder.spans()[root].start_ns;
    let at = &mut cursor;

    let request = Request::Execute {
        handle: net_handles[class].handle(),
        params: params.clone(),
        trace: None,
    };
    let ((opcode, payload), _) =
        recorder.replay("net.encode_request", op, root, at, || encode_request(&request));
    let mut bytes = Vec::new();
    recorder.replay("net.write_frame", op, root, at, || write_frame(&mut bytes, opcode, &payload));
    let (frame, _) = recorder.replay("net.frame_read", op, root, at, || {
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        reader.extend(&bytes);
        reader.next_frame()
    });
    if let Ok(Some((opcode, payload))) = frame {
        recorder.replay("net.decode_request", op, root, at, || {
            black_box(decode_request(opcode, &payload)).ok()
        });
    }

    let tenant = listener.host().default_tenant().expect("single-server listener has a default");
    let (ticket, _) = recorder.replay("tenant.admit", op, root, at, || tenant.admit());
    let plan = reference.plan(class);
    let served =
        traced_execute(recorder, op, Some((root, &mut *at)), server, &handles[class], plan, params);
    drop(ticket);

    if let Ok(result) = &served {
        let (frames, _) = recorder.replay("net.encode_response", op, root, at, || {
            let mut frames: Vec<(u8, Vec<u8>)> = result
                .rows
                .chunks(NetConfig::default().rows_per_chunk)
                .map(|chunk| encode_response(&Response::Rows { rows: chunk.to_vec() }))
                .collect();
            frames.push(encode_response(&Response::Summary {
                matches: result.matches as u64,
                rows: result.rows.len() as u64,
            }));
            frames
        });
        let mut bytes = Vec::new();
        recorder.replay("net.write_frame", op, root, at, || {
            for (opcode, payload) in &frames {
                write_frame(&mut bytes, *opcode, payload);
            }
        });
        let (frames, _) = recorder.replay("net.frame_read", op, root, at, || {
            let mut reader = FrameReader::new(MAX_FRAME_LEN);
            reader.extend(&bytes);
            let mut frames = Vec::new();
            while let Ok(Some(frame)) = reader.next_frame() {
                frames.push(frame);
            }
            frames
        });
        recorder.replay("net.decode_response", op, root, at, || {
            for (opcode, payload) in &frames {
                black_box(decode_response(*opcode, payload)).ok();
            }
        });
    }
    wire.is_ok()
}

pub fn run(spec: &RunSpec) -> Outcome {
    // No round depends on which build it runs on, and a build is 0.13 s: the
    // median of three times as many steadies the smallest `setup_s` of all.
    let (mut fixture, setup_s) = timed_setup(3 * spec.setups(), build, |_| ());
    let reference = Reference::new(&fixture.server, &SMALL_CLASSES);
    let params = param_sets(&fixture.pool, &SMALL_CLASSES, spec.seed);
    let mut notes = Vec::new();
    notes.push(match &fixture.pinned {
        Some(pinned) => format!("client, listener loop and workers pinned to CPU {}", pinned.cpu),
        None => "could not pin to one CPU: hand-offs cross vCPUs".to_string(),
    });

    // Wire rows must be bit-identical — order included — to the rows the
    // same statement and parameters return in process.
    let (mut attempted, mut failed) = {
        let Fixture { wire, server, handles, pool, .. } = &mut fixture;
        reference.verify(server, pool, spec.seed, VERIFY_PER_CLASS, |position, params| {
            let remote = wire.client.execute(&wire.net_handles[position], params).ok()?;
            let local = server.execute(&handles[position], params).ok()?;
            (remote.rows == local.rows).then(|| digest_rows(&remote.rows))
        })
    };
    notes.push(format!(
        "verified {attempted} wire answers against in-process rows, {failed} differ"
    ));

    let mut metrics = MetricSet::new();
    let mut index = 0u64;
    let warm = fixture.server.cache_stats();
    if spec.traced {
        let mut recorder = Recorder::new();
        let (trace, ops) =
            trace_rounds(spec, 3, &mut failed, &mut recorder, |class, i, recorder| {
                let p = &params[class][(i as usize / 3) % PARAMS_PER_CLASS];
                match recorder {
                    None => {
                        let Wire { client, net_handles, .. } = &mut fixture.wire;
                        client.execute(&net_handles[class], p).is_ok()
                    }
                    Some(rec) => traced_request(rec, i, &mut fixture, &reference, class, p),
                }
            });
        attempted += ops;
        metrics.extend(trace);
        write_trace("wire_small", &recorder);
    } else {
        let rounds = if spec.quick { 1 } else { WIRE_ROUNDS };
        let each = Duration::from_secs_f64(spec.seconds / (2 * rounds) as f64);
        let mut depth1 = Timed::default();
        let mut depth16_qps = Vec::new();
        let mut queries = 0u64;
        let wire = &mut fixture.wire;
        depth1_round(wire, &params, spec.warmup() / 2, &mut index, &mut failed);
        pipelined_round(wire, &params, spec.warmup() / 2, &mut index, &mut failed);
        let allocs_before = alloc::total();
        for _ in 0..rounds {
            let round = depth1_round(wire, &params, each, &mut index, &mut failed);
            let (qps, done) = pipelined_round(wire, &params, each, &mut index, &mut failed);
            queries += round.ops() as u64 + done;
            depth1.rounds.push(round);
            depth16_qps.push(qps);
        }
        let allocs = alloc::total() - allocs_before;
        attempted += queries;
        metrics.put("peak_rss_mb", peak_rss_mb());
        let (traversal_ratio, space_ratio) =
            reference.paper_ratios(&fixture.server, RUNG, &fixture.pool);
        metrics.put("setup_s", setup_s);
        metrics.put("query_p50_us", depth1.quietest_p50_us());
        let depth16 = depth16_qps.iter().copied().fold(f64::NAN, f64::max);
        metrics.put("throughput_ops", depth16);
        metrics.put("allocs_per_query", allocs as f64 / queries as f64);
        metrics.put("traversal_ratio", traversal_ratio);
        metrics.put("space_ratio", space_ratio);
        let names: Vec<&str> = SMALL_CLASSES.iter().map(|&c| CLASSES[c].name).collect();
        notes.push(format!(
            "depth 1, quietest round {:.1}us; medians over rounds: {}",
            depth1.quietest_p50_us(),
            depth1.note(&names)
        ));
        notes.push(format!(
            "depth 1 {:.0} q/s; depth {DEPTH} {depth16:.0} q/s, per round {depth16_qps:.0?}",
            depth1.throughput()
        ));
    }
    let stats = fixture.server.cache_stats();
    let (hits, misses) = (stats.hits - warm.hits, stats.misses - warm.misses);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let report = fixture.wire.close();
    notes.push(format!(
        "plan cache after warm-up: {hits} hits, {misses} misses; listener served {}, errors {}",
        report.served, report.errors
    ));
    failed += report.errors;
    let correct = failed == 0 && hit_ratio >= 0.99;
    Outcome { attempted, failed, correct, metrics, notes }
}

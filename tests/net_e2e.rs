//! Wire-serving acceptance: a loopback client can handshake, PREPARE once
//! and EXECUTE 1000 times with varying parameters across 4 concurrent
//! pipelined connections, with row sets **bit-identical** to the in-process
//! `KgServer::execute` path — and the plan cache must stay hot over the
//! wire (hit ratio ≥ 0.9 across the whole run). A peer that pipelines
//! without reading stops being served instead of piling responses up
//! server-side, and shutdown force-closes it after the drain timeout.

use pgso::net::{KgClient, KgListener, NetConfig};
use pgso::ontology::catalog;
use pgso::prelude::*;
use pgso_net::frame::write_frame;
use pgso_net::proto::{decode_response, encode_request, opcode};
use pgso_net::{FrameReader, Request, Response, MAX_FRAME_LEN, PROTOCOL_VERSION};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn build_server() -> Arc<KgServer> {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 31);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.04, 31);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let config = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
    Arc::new(KgServer::new(ontology, statistics, instance, frequencies, config))
}

/// The statements every connection prepares; parameters vary per execution.
const TEXTS: [&str; 4] = [
    "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name ORDER BY d.name LIMIT $n",
    "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc ORDER BY d.name LIMIT $n",
    "MATCH (d:Drug)-[:treat]->(i:Indication) \
     RETURN d.name, count(i) GROUP BY d ORDER BY d.name LIMIT $n",
    "MATCH (d:Drug) RETURN d.name ORDER BY d.name SKIP $skip LIMIT $n",
];

fn params_for(text_index: usize, call: usize) -> Params {
    let call = call as i64;
    match text_index {
        0 => Params::new().set("needle", "Drug_name").set("n", 1 + call % 7),
        1 => Params::new().set("n", 1 + call % 5),
        2 => Params::new().set("n", 1 + call % 4),
        _ => Params::new().set("skip", call % 3).set("n", 1 + call % 6),
    }
}

const CONNECTIONS: usize = 4;
const EXECUTES_PER_CONNECTION: usize = 250; // 4 × 250 = 1000 wire EXECUTEs
const PIPELINE_DEPTH: usize = 10;

#[test]
fn four_pipelined_connections_serve_1000_executes_bit_identically() {
    let server = build_server();
    let mut listener =
        KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default()).expect("binds");
    listener.serve().expect("serves");
    let addr = listener.local_addr();

    let baseline = server.cache_stats();

    // 4 concurrent client threads, each preparing all 4 texts once and
    // pipelining its executes in bursts of PIPELINE_DEPTH. Each thread
    // returns its wire results for the bit-identical comparison.
    let workers: Vec<_> = (0..CONNECTIONS)
        .map(|conn_index| {
            std::thread::spawn(move || {
                let mut client = KgClient::connect(addr).expect("connects");
                let stmts: Vec<_> = TEXTS
                    .iter()
                    .map(|text| client.prepare(text).expect("prepares over the wire"))
                    .collect();
                let mut results = Vec::with_capacity(EXECUTES_PER_CONNECTION);
                for burst in 0..EXECUTES_PER_CONNECTION / PIPELINE_DEPTH {
                    let calls: Vec<(usize, usize)> = (0..PIPELINE_DEPTH)
                        .map(|i| {
                            let call = burst * PIPELINE_DEPTH + i;
                            ((conn_index + call) % TEXTS.len(), call)
                        })
                        .collect();
                    for &(text_index, call) in &calls {
                        client
                            .send_execute(&stmts[text_index], &params_for(text_index, call))
                            .expect("queues");
                    }
                    for &(text_index, call) in &calls {
                        let result = client.recv_result().expect("result arrives");
                        results.push((text_index, call, result));
                    }
                }
                client.goodbye().expect("orderly close");
                results
            })
        })
        .collect();

    let mut total = 0usize;
    for worker in workers {
        let results = worker.join().expect("client thread");
        for (text_index, call, wire) in results {
            let prepared = server.prepare_text(TEXTS[text_index]).expect("prepares in-process");
            let local = server
                .execute(&prepared, &params_for(text_index, call))
                .expect("executes in-process");
            assert_eq!(
                wire.rows, local.rows,
                "text {text_index} call {call}: wire rows must be bit-identical"
            );
            assert_eq!(wire.matches, local.matches as u64);
            total += 1;
        }
    }
    assert_eq!(total, CONNECTIONS * EXECUTES_PER_CONNECTION);

    // The wire path must ride the plan cache exactly like in-process
    // serving: 4 texts × 4 connections can miss at most once per text (plus
    // the in-process comparison preparations), everything else must hit.
    let stats = server.cache_stats();
    let hits = stats.hits - baseline.hits;
    let misses = stats.misses - baseline.misses;
    let ratio = hits as f64 / (hits + misses) as f64;
    assert!(
        ratio >= 0.9,
        "plan-cache hit ratio over the wire must stay ≥ 0.9, got {ratio:.4} \
         ({hits} hits / {misses} misses)"
    );

    let report = listener.run_report();
    assert_eq!(report.connections, CONNECTIONS);
    assert_eq!(report.served as usize, CONNECTIONS * EXECUTES_PER_CONNECTION);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.served_balance(),
        vec![EXECUTES_PER_CONNECTION as u64; CONNECTIONS],
        "per-connection accounting must balance"
    );
    assert!(listener.shutdown().drained);
}

/// 26 rows, ≈930 bytes per response on the wire.
const CROSS: &str = "MATCH (a:Drug), (b:Indication) RETURN a.name, b.desc";
/// ≈18.6 MB of responses: far more than the socket buffers hold.
const FLOOD: usize = 20_000;

/// Connects and, from a second thread, writes HELLO plus [`FLOOD`] pipelined
/// RUNs of [`CROSS`] without reading anything. The writer's result is the
/// outcome of its `write_all`.
fn flood(listener: &KgListener) -> (TcpStream, JoinHandle<std::io::Result<()>>) {
    let stream = TcpStream::connect(listener.local_addr()).expect("connects");
    let mut bytes = Vec::new();
    let (op, payload) = encode_request(&Request::Hello { version: PROTOCOL_VERSION });
    write_frame(&mut bytes, op, &payload);
    let (op, payload) = encode_request(&Request::Run { text: CROSS.to_string(), trace: None });
    for _ in 0..FLOOD {
        write_frame(&mut bytes, op, &payload);
    }
    let mut writer = stream.try_clone().expect("clones");
    (stream, std::thread::spawn(move || writer.write_all(&bytes)))
}

/// A peer that pipelines without reading stops being served: the server
/// blocks writing to it rather than executing everything and buffering the
/// replies. Once the peer reads, every response arrives, in order.
#[test]
fn a_peer_that_never_reads_stops_being_served() {
    let server = build_server();
    let expected_rows = server.serve_text(CROSS).expect("serves in-process").rows.len() as u64;
    assert_eq!(expected_rows, 26);
    let mut listener =
        KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default()).expect("binds");
    listener.serve().expect("serves");
    let (mut stream, writer) = flood(&listener);

    std::thread::sleep(Duration::from_millis(1500));
    let served = listener.run_report().served;
    assert!(served < FLOOD as u64, "served all {served} requests to a peer that reads nothing");

    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    let mut buf = vec![0u8; 64 * 1024];
    let mut next_frame = |stream: &mut TcpStream| loop {
        if let Some(frame) = reader.next_frame().expect("server frames are legal") {
            return frame;
        }
        let n = stream.read(&mut buf).expect("reads");
        assert!(n > 0, "the server closed the connection mid-stream");
        reader.extend(&buf[..n]);
    };
    let (op, _) = next_frame(&mut stream);
    assert_eq!(op, opcode::HELLO_OK);
    for i in 0..FLOOD {
        let (op, payload) = loop {
            let (op, payload) = next_frame(&mut stream);
            if op != opcode::ROWS {
                break (op, payload);
            }
        };
        match decode_response(op, &payload).expect("decodes") {
            Response::Summary { rows, .. } => assert_eq!(rows, expected_rows, "response {i}"),
            other => panic!("response {i}: expected SUMMARY, got {other:?}"),
        }
    }
    writer.join().expect("writer thread").expect("the whole flood was written");
    assert_eq!(listener.run_report().served, FLOOD as u64);
    drop(stream);
    assert!(listener.shutdown().drained);
}

/// Shutdown does not wait forever on that peer: past the drain timeout the
/// connection blocked writing to it is force-closed.
#[test]
fn shutdown_force_closes_a_peer_that_never_reads() {
    let config = NetConfig { drain_timeout: Duration::from_millis(200), ..NetConfig::default() };
    let mut listener = KgListener::bind(build_server(), "127.0.0.1:0", config).expect("binds");
    listener.serve().expect("serves");
    let (stream, writer) = flood(&listener);

    // Wait until the server has stopped serving: it is blocked on the peer.
    // A count that holds still for half a second is a blocked write, not a
    // connection thread that merely lost the CPU for a moment.
    let (mut served, mut still) = (0, 0);
    while still < 5 {
        std::thread::sleep(Duration::from_millis(100));
        let now = listener.run_report().served;
        still = if now > 0 && now == served { still + 1 } else { 0 };
        served = now;
    }
    assert!(served < FLOOD as u64, "served all {served} requests to a peer that reads nothing");

    let started = Instant::now();
    let report = listener.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "shutdown took {took:?}");
    assert_eq!(report.force_closed, 1);
    assert!(!report.drained);
    let _ = stream.shutdown(Shutdown::Both);
    let _ = writer.join().expect("writer thread");
}

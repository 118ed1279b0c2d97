//! Loopback integration tests for the wire protocol: handshake,
//! prepare/execute equivalence with the in-process API, pipelining order,
//! malformed-input hardening (sibling connections must survive), and
//! graceful shutdown draining.

use pgso_net::proto::opcode;
use pgso_net::{
    ErrorCode, FrameReader, KgClient, KgListener, NetConfig, NetError, Response, MAX_FRAME_LEN,
    PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_query::Params;
use pgso_server::{KgServer, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn build_server() -> Arc<KgServer> {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 31);
    let instance = pgso_datagen::InstanceKg::generate(&ontology, &statistics, 0.04, 31);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let config = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
    Arc::new(KgServer::new(ontology, statistics, instance, frequencies, config))
}

fn serve(server: Arc<KgServer>, config: NetConfig) -> KgListener {
    let mut listener = KgListener::bind(server, "127.0.0.1:0", config).expect("binds");
    listener.serve().expect("serves");
    listener
}

const PARAM_TEXT: &str =
    "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name ORDER BY d.name LIMIT $n";
const PLAIN_TEXT: &str = "MATCH (d:Drug) RETURN d.name ORDER BY d.name LIMIT 7";

fn params(n: i64) -> Params {
    Params::new().set("needle", "Drug_name").set("n", n)
}

/// Raw-socket helper: write arbitrary bytes, then read server frames.
struct RawConn {
    stream: TcpStream,
    reader: FrameReader,
}

impl RawConn {
    fn connect(listener: &KgListener) -> Self {
        let stream = TcpStream::connect(listener.local_addr()).expect("connects");
        stream.set_nodelay(true).expect("nodelay");
        Self { stream, reader: FrameReader::new(MAX_FRAME_LEN) }
    }

    fn hello(&mut self) {
        let mut payload = Vec::new();
        payload.extend_from_slice(&PROTOCOL_MAGIC.to_le_bytes());
        payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        self.send_frame(opcode::HELLO, &payload);
        match self.recv_frame().expect("HELLO_OK arrives") {
            (op, _) if op == opcode::HELLO_OK => {}
            other => panic!("expected HELLO_OK, got {other:?}"),
        }
    }

    fn send_frame(&mut self, op: u8, payload: &[u8]) {
        let mut frame = Vec::new();
        pgso_net::frame::write_frame(&mut frame, op, payload);
        self.stream.write_all(&frame).expect("writes");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("writes");
    }

    /// Blocks for the next frame; `None` once the server closed the socket.
    fn recv_frame(&mut self) -> Option<(u8, Vec<u8>)> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = self.reader.next_frame().expect("server frames are legal") {
                return Some(frame);
            }
            let n = self.stream.read(&mut buf).expect("reads");
            if n == 0 {
                return None;
            }
            self.reader.extend(&buf[..n]);
        }
    }

    fn recv_error(&mut self) -> (ErrorCode, String) {
        let (op, payload) = self.recv_frame().expect("an ERROR frame arrives");
        assert_eq!(op, opcode::ERROR, "expected ERROR, got opcode {op:#04x}");
        match pgso_net::proto::decode_response(op, &payload).expect("decodes") {
            Response::Error { code, message } => (code, message),
            other => panic!("expected Error, got {other:?}"),
        }
    }
}

#[test]
fn handshake_prepare_execute_matches_in_process() {
    let server = build_server();
    let listener = serve(server.clone(), NetConfig::default());

    let mut client = KgClient::connect(listener.local_addr()).expect("handshake succeeds");
    let stmt = client.prepare(PARAM_TEXT).expect("prepares");
    assert_eq!(stmt.signature().names().collect::<Vec<_>>(), ["needle", "n"]);

    let in_process = server.prepare_text(PARAM_TEXT).expect("prepares in-process");
    for n in [1i64, 3, 5, 17] {
        let wire = client.execute(&stmt, &params(n)).expect("wire execute");
        let local = server.execute(&in_process, &params(n)).expect("local execute");
        assert_eq!(wire.rows, local.rows, "LIMIT {n}: wire rows must be bit-identical");
        assert_eq!(wire.matches, local.matches as u64);
    }

    // Parameterless ad-hoc text over the wire == serve_text in-process.
    let wire = client.run(PLAIN_TEXT).expect("wire run");
    let local = server.serve_text(PLAIN_TEXT).expect("local serve");
    assert_eq!(wire.rows, local.rows);

    client.goodbye().expect("orderly close");
    let report = listener.shutdown();
    assert!(report.drained, "nothing should be force-closed");
}

#[test]
fn rows_stream_in_chunks_and_reassemble() {
    let server = build_server();
    // One row per chunk forces every multi-row result into a multi-frame
    // ROWS stream.
    let config = NetConfig { rows_per_chunk: 1, ..NetConfig::default() };
    let listener = serve(server.clone(), config);

    let mut client = KgClient::connect(listener.local_addr()).expect("connects");
    let text = "MATCH (d:Drug) RETURN d.name ORDER BY d.name LIMIT 11";
    let wire = client.run(text).expect("runs");
    let local = server.serve_text(text).expect("serves");
    assert!(local.rows.len() >= 2, "need at least two rows to span chunks");
    assert_eq!(wire.rows, local.rows, "chunked stream must reassemble bit-identically");
    drop(client);
    listener.shutdown();
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let server = build_server();
    let listener = serve(server.clone(), NetConfig::default());

    let mut client = KgClient::connect(listener.local_addr()).expect("connects");
    let stmt = client.prepare(PARAM_TEXT).expect("prepares");
    let in_process = server.prepare_text(PARAM_TEXT).expect("prepares");

    // A burst of varying-parameter requests without reading a single
    // response; the row sets must come back in exactly request order.
    let limits: Vec<i64> = (1..=24).collect();
    for &n in &limits {
        client.send_execute(&stmt, &params(n)).expect("queues");
    }
    for &n in &limits {
        let wire = client.recv_result().expect("result arrives");
        let local = server.execute(&in_process, &params(n)).expect("local");
        assert_eq!(wire.rows, local.rows, "response for LIMIT {n} out of order");
    }
    client.goodbye().expect("orderly close");
    listener.shutdown();
}

#[test]
fn prepare_then_execute_pipelined_in_one_burst() {
    let server = build_server();
    let listener = serve(server.clone(), NetConfig::default());

    // Hand-roll PREPARE immediately followed by EXECUTE on the same handle
    // in one write: the server must apply them in receive order.
    let mut raw = RawConn::connect(&listener);
    raw.hello();
    let (prep_op, prep_payload) = pgso_net::proto::encode_request(&pgso_net::Request::Prepare {
        handle: 9,
        text: PARAM_TEXT.to_string(),
        trace: None,
    });
    let (exec_op, exec_payload) = pgso_net::proto::encode_request(&pgso_net::Request::Execute {
        handle: 9,
        params: params(4),
        trace: None,
    });
    let mut burst = Vec::new();
    pgso_net::frame::write_frame(&mut burst, prep_op, &prep_payload);
    pgso_net::frame::write_frame(&mut burst, exec_op, &exec_payload);
    raw.send_raw(&burst);

    let (op, _) = raw.recv_frame().expect("PREPARED arrives");
    assert_eq!(op, opcode::PREPARED);
    let (op, payload) = raw.recv_frame().expect("rows arrive");
    assert_eq!(op, opcode::ROWS, "EXECUTE right behind PREPARE must see the handle");
    let rows = match pgso_net::proto::decode_response(op, &payload).expect("decodes") {
        Response::Rows { rows } => rows,
        other => panic!("expected Rows, got {other:?}"),
    };
    let local = server.prepare_text(PARAM_TEXT).expect("prepares");
    assert_eq!(rows, server.execute(&local, &params(4)).expect("local").rows);
    listener.shutdown();
}

#[test]
fn malformed_inputs_are_rejected_without_killing_siblings() {
    let server = build_server();
    let listener = serve(server.clone(), NetConfig::default());

    // The sibling: a healthy client that must keep working throughout.
    let mut sibling = KgClient::connect(listener.local_addr()).expect("connects");
    let stmt = sibling.prepare(PARAM_TEXT).expect("prepares");

    // 1. Bad magic: connection-fatal handshake rejection.
    let mut raw = RawConn::connect(&listener);
    let mut payload = Vec::new();
    payload.extend_from_slice(&0xdead_beefu32.to_le_bytes());
    payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    raw.send_frame(opcode::HELLO, &payload);
    let (code, _) = raw.recv_error();
    assert_eq!(code, ErrorCode::BadHandshake);
    assert_eq!(raw.recv_frame(), None, "bad magic must close the connection");

    // 2. Any revision but the one: same treatment, for old clients too.
    for version in [1, 2, 3, 99] {
        let mut raw = RawConn::connect(&listener);
        let mut payload = Vec::new();
        payload.extend_from_slice(&PROTOCOL_MAGIC.to_le_bytes());
        payload.extend_from_slice(&u16::to_le_bytes(version));
        raw.send_frame(opcode::HELLO, &payload);
        let (code, message) = raw.recv_error();
        assert_eq!(code, ErrorCode::BadHandshake, "revision {version}");
        assert!(message.contains("version"), "{message}");
        assert_eq!(raw.recv_frame(), None, "revision {version} must drain and close");
    }

    // 3. Oversized length prefix: typed rejection, then close — before any
    //    16 MiB allocation happens server-side.
    let mut raw = RawConn::connect(&listener);
    raw.hello();
    raw.send_raw(&(MAX_FRAME_LEN + 1).to_le_bytes());
    let (code, _) = raw.recv_error();
    assert_eq!(code, ErrorCode::Oversized);
    assert_eq!(raw.recv_frame(), None, "an unframeable stream must close");

    // 4. Zero-length frame: the other framing violation.
    let mut raw = RawConn::connect(&listener);
    raw.hello();
    raw.send_raw(&0u32.to_le_bytes());
    let (code, _) = raw.recv_error();
    assert_eq!(code, ErrorCode::Oversized);
    assert_eq!(raw.recv_frame(), None);

    // 5. Unknown opcode: survivable — the frame boundary is intact.
    let mut raw = RawConn::connect(&listener);
    raw.hello();
    raw.send_frame(0x6f, b"whatever");
    let (code, _) = raw.recv_error();
    assert_eq!(code, ErrorCode::UnknownOpcode);
    // ...and the same connection still serves real requests afterwards.
    let (op, payload) = pgso_net::proto::encode_request(&pgso_net::Request::Run {
        text: PLAIN_TEXT.to_string(),
        trace: None,
    });
    raw.send_frame(op, &payload);
    let (op, _) = raw.recv_frame().expect("the connection survived");
    assert_eq!(op, opcode::ROWS);

    // 6. Malformed payload bytes under a legal opcode: survivable too.
    let mut raw = RawConn::connect(&listener);
    raw.hello();
    raw.send_frame(opcode::EXECUTE, &[1, 2, 3]);
    let (code, _) = raw.recv_error();
    assert_eq!(code, ErrorCode::Malformed);

    // 7. A torn frame followed by an abrupt disconnect: nothing to assert on
    //    this socket, but it must not poison the server.
    let mut raw = RawConn::connect(&listener);
    raw.hello();
    raw.send_raw(&[200, 0, 0, 0, opcode::RUN]); // claims 200 bytes, sends 1
    drop(raw);

    // 8. EXECUTE on a never-prepared handle: typed, survivable.
    let mut raw = RawConn::connect(&listener);
    raw.hello();
    let (op, payload) = pgso_net::proto::encode_request(&pgso_net::Request::Execute {
        handle: 404,
        params: Params::new(),
        trace: None,
    });
    raw.send_frame(op, &payload);
    let (code, message) = raw.recv_error();
    assert_eq!(code, ErrorCode::UnknownHandle);
    assert!(message.contains("404"), "{message}");

    // Parse and bind failures arrive as typed errors on a healthy client.
    match sibling.run("THIS IS NOT A STATEMENT") {
        Err(NetError::Remote { code: ErrorCode::Parse, .. }) => {}
        other => panic!("expected a Parse error, got {other:?}"),
    }
    match sibling.execute(&stmt, &Params::new()) {
        Err(NetError::Remote { code: ErrorCode::Bind, .. }) => {}
        other => panic!("expected a Bind error, got {other:?}"),
    }

    // The sibling never noticed any of it.
    let wire = sibling.execute(&stmt, &params(5)).expect("sibling still serves");
    let local = server.prepare_text(PARAM_TEXT).expect("prepares");
    assert_eq!(wire.rows, server.execute(&local, &params(5)).expect("local").rows);
    sibling.goodbye().expect("orderly close");
    listener.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_work_and_reports_accounting() {
    let server = build_server();
    let listener = serve(server.clone(), NetConfig::default());

    let mut clients: Vec<(KgClient, pgso_net::NetPrepared)> = (0..3)
        .map(|_| {
            let mut c = KgClient::connect(listener.local_addr()).expect("connects");
            let s = c.prepare(PARAM_TEXT).expect("prepares");
            (c, s)
        })
        .collect();
    for (client, stmt) in &mut clients {
        for n in 1..=8i64 {
            client.send_execute(stmt, &params(n)).expect("queues");
        }
    }
    for (client, _) in &mut clients {
        for _ in 0..8 {
            client.recv_result().expect("drains");
        }
    }

    let report = listener.run_report();
    assert_eq!(report.connections, 3);
    assert_eq!(report.served, 24, "every EXECUTE must be accounted");
    assert_eq!(report.errors, 0);
    assert_eq!(report.served_balance(), vec![8, 8, 8]);
    assert!(report.bytes_in > 0 && report.bytes_out > 0);
    for conn in &report.per_connection {
        assert!(conn.bytes_in > 0 && conn.bytes_out > 0, "per-connection byte accounting");
    }

    let addr = listener.local_addr();
    let shutdown = listener.shutdown();
    assert!(shutdown.drained, "in-flight-free shutdown must drain cleanly");
    assert_eq!(shutdown.force_closed, 0);

    // After shutdown the port no longer accepts connections.
    assert!(KgClient::connect(addr).is_err());
}

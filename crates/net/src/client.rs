//! Blocking client for the wire protocol: [`KgClient`] speaks to a
//! [`crate::KgListener`] over TCP with the same prepare/execute shape as the
//! in-process [`pgso_server::KgServer`] API.
//!
//! The connection is pipelined: [`KgClient::send_execute`] queues any number
//! of requests without waiting, and [`KgClient::recv_result`] collects the
//! responses, which arrive strictly in request order. The convenience
//! methods ([`KgClient::execute`], [`KgClient::run`]) are one send + one
//! receive.
//!
//! Every PREPARE/EXECUTE/RUN is stamped with a fresh wire trace id
//! ([`KgClient::last_trace_id`]) that the server propagates through engine,
//! query stages and WAL into its trace ring, and the `observe_*` methods
//! scrape the server's metrics / trace / health surfaces remotely.
//! [`KgClient::use_tenant`] selects which hosted tenant subsequent
//! RUN/PREPARE requests route to (multi-tenant listeners; connections start
//! on the host default).

use crate::frame::{write_frame, FrameReader, MAX_FRAME_LEN};
use crate::proto::{
    decode_response, encode_request, ErrorCode, ObserveReply, ObserveRequest, Request, Response,
    TraceContext, WireTraceEvent, PROTOCOL_VERSION,
};
use pgso_query::{ParamSignature, Params, Row};
use pgso_server::HealthSummary;
use pgso_telemetry::MetricsSnapshot;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Process-wide trace-id source: a time-seeded counter pushed through a
/// splitmix64 finalizer, so ids from concurrent clients (and across client
/// processes started at different times) don't collide in a shared server
/// trace ring. Uniqueness is best-effort — trace ids are correlation keys,
/// not capabilities.
fn next_trace_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0x9e37)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 0 means "untraced" on the wire; remap the one forbidden value.
    if z == 0 {
        z = 1;
    }
    z
}

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The server answered with an ERROR frame.
    Remote {
        /// Typed error code from the server.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server's bytes violated the protocol (client-side decode).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Remote { code, message } => write!(f, "server error ({code:?}): {message}"),
            NetError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// A statement prepared over the wire: the client-chosen handle plus the
/// server-reported parameter signature.
#[derive(Debug, Clone)]
pub struct NetPrepared {
    handle: u32,
    signature: ParamSignature,
}

impl NetPrepared {
    /// The wire handle EXECUTE frames reference.
    pub fn handle(&self) -> u32 {
        self.handle
    }

    /// The statement's typed parameter signature, as reported by the server.
    pub fn signature(&self) -> &ParamSignature {
        &self.signature
    }
}

/// One complete result stream, reassembled from ROWS chunks + SUMMARY.
#[derive(Debug, Clone, PartialEq)]
pub struct NetResult {
    /// All result rows, chunk order preserved.
    pub rows: Vec<Row>,
    /// Matches enumerated (before aggregation/windowing); a plain window
    /// stops at `SKIP + LIMIT`.
    pub matches: u64,
}

/// Blocking wire-protocol client.
///
/// ```no_run
/// use pgso_net::KgClient;
/// use pgso_query::Params;
///
/// # fn demo(addr: std::net::SocketAddr) -> Result<(), pgso_net::NetError> {
/// let mut client = KgClient::connect(addr)?;
/// let stmt = client.prepare(
///     "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n",
/// )?;
/// let result = client.execute(&stmt, &Params::new().set("needle", "ol").set("n", 10i64))?;
/// println!("{} rows", result.rows.len());
/// client.goodbye()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KgClient {
    stream: TcpStream,
    reader: FrameReader,
    next_handle: u32,
    last_trace_id: u64,
}

impl KgClient {
    /// Connects and performs the HELLO handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Self {
            stream,
            reader: FrameReader::new(MAX_FRAME_LEN),
            next_handle: 0,
            last_trace_id: 0,
        };
        client.send(&Request::Hello { version: PROTOCOL_VERSION })?;
        match client.recv_response()? {
            Response::HelloOk { version: PROTOCOL_VERSION } => Ok(client),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!(
                "expected HELLO_OK at revision {PROTOCOL_VERSION}, got {other:?}"
            ))),
        }
    }

    /// The trace id stamped on the most recent PREPARE/EXECUTE/RUN, `0`
    /// before the first request. Feed it to [`KgClient::observe_trace`] to
    /// pull that request's server-side spans.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Stamps (and remembers) a fresh trace context.
    fn stamp_trace(&mut self) -> Option<TraceContext> {
        let trace_id = next_trace_id();
        self.last_trace_id = trace_id;
        Some(TraceContext { trace_id, parent_span: 0 })
    }

    /// Prepares `text` under a fresh handle and waits for the signature.
    pub fn prepare(&mut self, text: &str) -> Result<NetPrepared, NetError> {
        let handle = self.next_handle;
        self.next_handle += 1;
        let trace = self.stamp_trace();
        self.send(&Request::Prepare { handle, text: text.to_string(), trace })?;
        match self.recv_response()? {
            Response::Prepared { handle: echoed, signature } if echoed == handle => {
                Ok(NetPrepared { handle, signature })
            }
            Response::Prepared { handle: echoed, .. } => Err(NetError::Protocol(format!(
                "PREPARED echoed handle {echoed}, expected {handle}"
            ))),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected PREPARED, got {other:?}"))),
        }
    }

    /// Selects the tenant subsequent RUN/PREPARE requests route to.
    /// Selection is sticky for the connection; handles already prepared
    /// keep executing on the tenant that prepared them. An unknown name
    /// fails with [`ErrorCode::UnknownTenant`] and leaves the previous
    /// selection in effect — the connection stays usable.
    pub fn use_tenant(&mut self, tenant: &str) -> Result<(), NetError> {
        self.send(&Request::Use { tenant: tenant.to_string() })?;
        match self.recv_response()? {
            Response::UseOk { tenant: echoed } if echoed == tenant => Ok(()),
            Response::UseOk { tenant: echoed } => {
                Err(NetError::Protocol(format!("USE_OK echoed `{echoed}`, expected `{tenant}`")))
            }
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected USE_OK, got {other:?}"))),
        }
    }

    /// One EXECUTE round trip: send, then collect the full result stream.
    pub fn execute(&mut self, stmt: &NetPrepared, params: &Params) -> Result<NetResult, NetError> {
        self.send_execute(stmt, params)?;
        self.recv_result()
    }

    /// One RUN round trip for a parameterless statement text.
    pub fn run(&mut self, text: &str) -> Result<NetResult, NetError> {
        let trace = self.stamp_trace();
        self.send(&Request::Run { text: text.to_string(), trace })?;
        self.recv_result()
    }

    /// Queues an EXECUTE without waiting (pipelining). Pair each call with
    /// one later [`KgClient::recv_result`]; responses arrive in send order.
    pub fn send_execute(&mut self, stmt: &NetPrepared, params: &Params) -> Result<(), NetError> {
        let trace = self.stamp_trace();
        self.send(&Request::Execute { handle: stmt.handle, params: params.clone(), trace })
    }

    /// Scrapes the server's Prometheus-style text exposition
    /// ([`pgso_server::KgServer::metrics_text`] over the wire).
    pub fn observe_metrics_text(&mut self) -> Result<String, NetError> {
        match self.observe(ObserveRequest::MetricsText)? {
            ObserveReply::MetricsText(text) => Ok(text),
            other => Err(NetError::Protocol(format!("expected MetricsText, got {other:?}"))),
        }
    }

    /// Scrapes the host's structured metrics snapshot.
    pub fn observe_metrics_snapshot(&mut self) -> Result<MetricsSnapshot, NetError> {
        match self.observe(ObserveRequest::MetricsSnapshot)? {
            ObserveReply::MetricsSnapshot(snapshot) => Ok(snapshot),
            other => Err(NetError::Protocol(format!("expected MetricsSnapshot, got {other:?}"))),
        }
    }

    /// Drains the server's trace ring; `trace_id != 0` keeps only that
    /// trace's spans (use [`KgClient::last_trace_id`] for the previous
    /// request's).
    pub fn observe_trace(&mut self, trace_id: u64) -> Result<Vec<WireTraceEvent>, NetError> {
        match self.observe(ObserveRequest::Trace { trace_id })? {
            ObserveReply::Trace(events) => Ok(events),
            other => Err(NetError::Protocol(format!("expected Trace, got {other:?}"))),
        }
    }

    /// Scrapes the engine's liveness summary with rolling request/error
    /// rates.
    pub fn observe_health(&mut self) -> Result<HealthSummary, NetError> {
        match self.observe(ObserveRequest::Health)? {
            ObserveReply::Health(health) => Ok(health),
            other => Err(NetError::Protocol(format!("expected Health, got {other:?}"))),
        }
    }

    fn observe(&mut self, observe: ObserveRequest) -> Result<ObserveReply, NetError> {
        self.send(&Request::Observe(observe))?;
        match self.recv_response()? {
            Response::Observe(reply) => Ok(reply),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected OBSERVE_OK, got {other:?}"))),
        }
    }

    /// Collects one result stream (ROWS chunks until SUMMARY), or the ERROR
    /// that replaced it.
    pub fn recv_result(&mut self) -> Result<NetResult, NetError> {
        let mut rows = Vec::new();
        loop {
            match self.recv_response()? {
                Response::Rows { rows: chunk } => rows.extend(chunk),
                Response::Summary { matches, .. } => return Ok(NetResult { rows, matches }),
                Response::Error { code, message } => {
                    return Err(NetError::Remote { code, message })
                }
                other => {
                    return Err(NetError::Protocol(format!("expected ROWS/SUMMARY, got {other:?}")))
                }
            }
        }
    }

    /// Orderly close: GOODBYE, wait for the acknowledgment, drop the socket.
    pub fn goodbye(mut self) -> Result<(), NetError> {
        self.send(&Request::Goodbye)?;
        match self.recv_response()? {
            Response::GoodbyeOk => Ok(()),
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Protocol(format!("expected GOODBYE_OK, got {other:?}"))),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), NetError> {
        let (op, payload) = encode_request(request);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        write_frame(&mut frame, op, &payload);
        self.stream.write_all(&frame)?;
        Ok(())
    }

    /// Blocks for the next complete response frame.
    fn recv_response(&mut self) -> Result<Response, NetError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.reader.next_frame() {
                Ok(Some((op, payload))) => {
                    return decode_response(op, &payload).map_err(|v| NetError::Protocol(v.message))
                }
                Ok(None) => {}
                Err(e) => return Err(NetError::Protocol(e.to_string())),
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                )));
            }
            self.reader.extend(&buf[..n]);
        }
    }
}

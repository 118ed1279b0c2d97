//! The serving side: [`KgListener`] accepts TCP connections and serves the
//! wire protocol on top of a [`pgso_tenant::TenantHost`] — one listener,
//! many independent tenant graphs, with [`KgListener::bind`] as the
//! single-server bridge (it wraps the server as a host's sole `default`
//! tenant).
//!
//! # Architecture
//!
//! One thread per connection, plain blocking `std` sockets — no async
//! runtime, no readiness polling, no hand-off between threads:
//!
//! * **one accept thread** blocks in [`TcpListener::accept`] and spawns a
//!   thread for every fresh connection (`TCP_NODELAY`). After a lasting
//!   accept error (`EMFILE`, say) it backs off, 1 ms doubling up to
//!   100 ms, instead of spinning; a healthy accept never sleeps;
//! * **each connection thread** blocks in `read` into its
//!   [`FrameReader`], handles every frame that read completed in receive
//!   order — EXECUTE and RUN included, against the engines, on this same
//!   thread — and writes all of that read's responses with one blocking
//!   `write_all`. A peer that stops reading therefore stops being served:
//!   the blocked write is the backpressure, and nothing buffers behind it.
//!
//! Parallelism comes from having several connections; one connection's
//! requests run one after another.
//!
//! **Pipelining.** A client may send any number of requests without waiting.
//! Responses come back strictly in request order because requests are
//! handled in that order.
//!
//! **Tenant routing.** Every connection lands on the host's default tenant
//! at accept; a `USE <tenant>` re-targets subsequent requests — and only
//! those, since every earlier request has already run. Selection is sticky
//! per connection, and prepared handles stay bound to the tenant that
//! prepared them — `USE b` after `PREPARE h` does not move `h`. An unknown
//! tenant name answers with a survivable [`ErrorCode::UnknownTenant`] and
//! the previous selection stays in effect. Per-tenant quota rejections
//! surface as [`ErrorCode::QuotaExceeded`] — back-pressure, not failure:
//! the connection keeps serving. Requests carrying a wire trace context run
//! under [`pgso_telemetry::set_current_trace`], so engine/query/WAL spans
//! land in the serving tenant's trace ring under the client's id.
//!
//! **Hardening.** Every decode failure maps to a typed ERROR frame. Payload
//! violations (bad opcode, malformed message, unknown tenant, quota
//! rejection) keep the connection alive — the length-prefixed framing is
//! intact. Framing violations (oversized or zero length) and handshake
//! violations are connection-fatal, but only for that connection: siblings
//! and the engines are untouched, and a panic inside a request is caught
//! and answered with `ErrorCode::Internal`.

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::proto::{
    decode_request, encode_response, ErrorCode, ObserveReply, ObserveRequest, Request, Response,
    WireTraceEvent,
};
use crate::telemetry::NetTelemetry;
use parking_lot::Mutex as PlMutex;
use pgso_server::{KgServer, PreparedStatement};
use pgso_telemetry::{set_current_trace, TraceBuffer};
use pgso_tenant::{Tenant, TenantError, TenantHost};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Frame-length cap; peers claiming more are rejected with
    /// [`ErrorCode::Oversized`] before any allocation.
    pub max_frame_len: u32,
    /// Result rows per ROWS chunk frame.
    pub rows_per_chunk: usize,
    /// Wire requests slower than this count in `net.slow_requests` and emit
    /// a `net.slow_request` trace event. `None` disables the log.
    pub slow_request_threshold: Option<Duration>,
    /// How long [`KgListener::shutdown`] waits for connections to finish the
    /// request they are serving and write its reply before force-closing
    /// them.
    pub drain_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_frame_len: crate::frame::MAX_FRAME_LEN,
            rows_per_chunk: 128,
            slow_request_threshold: None,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Live per-connection counters (atomics; read via [`ConnectionReport`]).
#[derive(Debug)]
struct ConnectionStats {
    id: u64,
    served: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    open: AtomicBool,
}

/// Snapshot of one connection's wire accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionReport {
    /// Accept-order connection id.
    pub id: u64,
    /// EXECUTE/RUN requests answered with a result stream.
    pub served: u64,
    /// ERROR frames sent.
    pub errors: u64,
    /// Bytes read from the socket.
    pub bytes_in: u64,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// Still connected?
    pub open: bool,
}

/// Wire-path accounting for a whole listener: totals plus the
/// per-connection breakdown.
#[derive(Debug, Clone)]
pub struct NetRunReport {
    /// Connections ever accepted.
    pub connections: usize,
    /// Total results served.
    pub served: u64,
    /// Total ERROR frames sent.
    pub errors: u64,
    /// Total bytes read.
    pub bytes_in: u64,
    /// Total bytes written.
    pub bytes_out: u64,
    /// Per-connection breakdown, accept order.
    pub per_connection: Vec<ConnectionReport>,
}

impl NetRunReport {
    /// Served counts per connection, accept order: how evenly the
    /// connections shared the work.
    pub fn served_balance(&self) -> Vec<u64> {
        self.per_connection.iter().map(|c| c.served).collect()
    }
}

/// Outcome of a graceful [`KgListener::shutdown`].
#[derive(Debug, Clone, Copy)]
pub struct ShutdownReport {
    /// True when every connection drained (its last request completed and
    /// its reply written) inside [`NetConfig::drain_timeout`].
    pub drained: bool,
    /// Connections force-closed by the drain deadline.
    pub force_closed: usize,
}

/// Handshake progress of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Nothing accepted yet except HELLO.
    AwaitingHello,
    /// Serving requests.
    Ready,
    /// No further frames; close once this read's replies are written.
    Draining,
}

/// A live connection as [`KgListener::shutdown`] sees it: a second handle
/// on its socket (to end its blocked read, or force it closed) and its
/// thread.
struct LiveConn {
    socket: TcpStream,
    thread: JoinHandle<()>,
}

/// State shared by every thread of one listener.
struct Inner {
    host: Arc<TenantHost>,
    config: NetConfig,
    listener: TcpListener,
    shutdown: AtomicBool,
    telemetry: Option<NetTelemetry>,
    /// Every connection ever accepted, accept order (stats outlive closes).
    stats: PlMutex<Vec<Arc<ConnectionStats>>>,
    /// Connections whose thread may still run; finished ones are pruned at
    /// each accept.
    live: PlMutex<Vec<LiveConn>>,
    /// (tenant, statement text) → (issuing tenant, engine handle), shared
    /// across connections: N clients preparing the same text on one tenant
    /// register it with that tenant's engine (and its WAL) once, not N
    /// times. The tenant name in the key keeps sibling tenants' identical
    /// texts apart; the issuing tenant answers only for that very instance,
    /// so a tenant closed and re-created under its old name never gets its
    /// predecessor's handles.
    prepared_by_text: PlMutex<HashMap<(String, String), SharedPrepared>>,
    next_conn_id: AtomicU64,
    open_connections: AtomicU64,
}

/// An engine handle and the tenant instance that issued it.
type SharedPrepared = (Weak<Tenant>, PreparedStatement);

impl Inner {
    /// Counts one ERROR frame against the tenant that served (or would have
    /// served) the request. Feeds the connection stats, the listener-global
    /// `net.errors` counter, and the serving tenant's rolling error window
    /// (behind its health summary).
    fn count_error(&self, stats: &ConnectionStats, tenant: Option<&Tenant>) {
        stats.errors.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.record_error();
        }
        if let Some(st) = tenant.and_then(|t| t.server().telemetry()) {
            st.windows.record_error();
        }
    }

    /// The engine handle `tenant` issued for `text`, preparing it there on
    /// a miss. Texts dedup across connections *per tenant instance* — each
    /// tenant's engine (and its WAL) sees each distinct statement once.
    fn prepare_shared(
        &self,
        tenant: &Arc<Tenant>,
        text: &str,
    ) -> Result<PreparedStatement, TenantError> {
        let key = (tenant.name().to_string(), text.to_string());
        // The `Weak` keeps the issuing tenant's allocation alive, so equal
        // pointers mean the same instance.
        let cached = self.prepared_by_text.lock().get(&key).and_then(|(issuer, ps)| {
            std::ptr::eq(issuer.as_ptr(), Arc::as_ptr(tenant)).then(|| ps.clone())
        });
        match cached {
            Some(ps) => Ok(ps),
            None => tenant.prepare_text(text).inspect(|ps| {
                self.prepared_by_text.lock().insert(key, (Arc::downgrade(tenant), ps.clone()));
            }),
        }
    }
}

/// The trace ring wire events for this request should land in — the serving
/// tenant's, when it has telemetry.
fn trace_ring(tenant: Option<&Tenant>) -> Option<Arc<TraceBuffer>> {
    tenant.and_then(|t| t.server().telemetry()).map(|st| st.trace().clone())
}

/// TCP front-end for a [`TenantHost`]: bind, serve, drain, shut down.
///
/// ```no_run
/// use pgso_server::KgServer;
/// use pgso_net::{KgClient, KgListener, NetConfig};
/// use std::sync::Arc;
///
/// # fn demo(server: Arc<KgServer>) -> std::io::Result<()> {
/// let mut listener = KgListener::bind(server, "127.0.0.1:0", NetConfig::default())?;
/// listener.serve()?;
/// let addr = listener.local_addr();
/// // ... clients connect to `addr` ...
/// let report = listener.shutdown();
/// assert!(report.drained);
/// # Ok(())
/// # }
/// ```
pub struct KgListener {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl KgListener {
    /// Binds a single-server listener (port 0 picks a free port): the
    /// server becomes the sole `default` tenant of a fresh
    /// [`TenantHost`] ([`TenantHost::single`]), so pre-tenancy callers see
    /// identical behavior. Serving starts with [`KgListener::serve`].
    pub fn bind(
        server: Arc<KgServer>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<Self> {
        Self::bind_host(TenantHost::single(server), addr, config)
    }

    /// Binds a multi-tenant listener over `host`: connections land on the
    /// host's default tenant and re-target with `USE <tenant>`.
    pub fn bind_host(
        host: Arc<TenantHost>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let telemetry = NetTelemetry::for_host(&host, config.slow_request_threshold);
        let inner = Arc::new(Inner {
            host,
            config,
            listener,
            shutdown: AtomicBool::new(false),
            telemetry,
            stats: PlMutex::new(Vec::new()),
            live: PlMutex::new(Vec::new()),
            prepared_by_text: PlMutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
        });
        Ok(Self { inner, accept: None, addr })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tenant host this listener serves.
    pub fn host(&self) -> &Arc<TenantHost> {
        &self.inner.host
    }

    /// Spawns the accept thread, then returns — serving continues in the
    /// background until [`KgListener::shutdown`].
    pub fn serve(&mut self) -> io::Result<()> {
        if self.accept.is_some() {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "listener already serving"));
        }
        let inner = self.inner.clone();
        self.accept = Some(
            std::thread::Builder::new()
                .name("pgso-net-accept".to_string())
                .spawn(move || accept_loop(&inner))?,
        );
        Ok(())
    }

    /// Per-connection wire accounting, accept order, closed connections
    /// included.
    pub fn connection_reports(&self) -> Vec<ConnectionReport> {
        self.inner
            .stats
            .lock()
            .iter()
            .map(|s| ConnectionReport {
                id: s.id,
                served: s.served.load(Ordering::Relaxed),
                errors: s.errors.load(Ordering::Relaxed),
                bytes_in: s.bytes_in.load(Ordering::Relaxed),
                bytes_out: s.bytes_out.load(Ordering::Relaxed),
                open: s.open.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Totals plus the per-connection breakdown.
    pub fn run_report(&self) -> NetRunReport {
        let per_connection = self.connection_reports();
        NetRunReport {
            connections: per_connection.len(),
            served: per_connection.iter().map(|c| c.served).sum(),
            errors: per_connection.iter().map(|c| c.errors).sum(),
            bytes_in: per_connection.iter().map(|c| c.bytes_in).sum(),
            bytes_out: per_connection.iter().map(|c| c.bytes_out).sum(),
            per_connection,
        }
    }

    /// Graceful shutdown: stops accepting, ends every connection's read so
    /// that a connection mid-request finishes it and writes its reply (up to
    /// [`NetConfig::drain_timeout`]), force-closes the rest, and joins every
    /// thread.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> ShutdownReport {
        let Some(accept) = self.accept.take() else {
            return ShutdownReport { drained: true, force_closed: 0 };
        };
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake the blocked accept: it sees the flag and exits. Once it is
        // joined, `live` holds every connection there will ever be.
        let _ = TcpStream::connect(loopback(self.addr));
        let _ = accept.join();
        let live = std::mem::take(&mut *self.inner.live.lock());
        for conn in &live {
            let _ = conn.socket.shutdown(Shutdown::Read);
        }
        let deadline = Instant::now() + self.inner.config.drain_timeout;
        while live.iter().any(|c| !c.thread.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut force_closed = 0;
        for conn in &live {
            if !conn.thread.is_finished() {
                let _ = conn.socket.shutdown(Shutdown::Both);
                force_closed += 1;
            }
        }
        for conn in live {
            let _ = conn.thread.join();
        }
        ShutdownReport { drained: force_closed == 0, force_closed }
    }
}

impl Drop for KgListener {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Where a connection to `addr` reaches this host: an unspecified bind
/// address (`0.0.0.0`, `::`) is answered on loopback.
fn loopback(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
        _ => addr,
    }
}

// ---- accept thread ------------------------------------------------------

/// The longest pause between two failing accepts.
const MAX_ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// How long the accept thread pauses after an accept that returned `error`
/// (`None`: it succeeded), given the pause after the accept before it. A
/// success or a transient error — the peer aborted, a signal interrupted —
/// retries at once; any other error is taken to last (out of descriptors,
/// say), and the pause starts at 1 ms and doubles up to
/// [`MAX_ACCEPT_BACKOFF`].
fn accept_backoff(previous: Duration, error: Option<io::ErrorKind>) -> Duration {
    match error {
        None | Some(io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted) => {
            Duration::ZERO
        }
        Some(_) => (previous * 2).clamp(Duration::from_millis(1), MAX_ACCEPT_BACKOFF),
    }
}

fn accept_loop(inner: &Arc<Inner>) {
    let mut backoff = Duration::ZERO;
    loop {
        let accepted = inner.listener.accept();
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        backoff = accept_backoff(backoff, accepted.as_ref().err().map(io::Error::kind));
        if !backoff.is_zero() {
            // Shutdown's wake-up connection waits in the backlog: the next
            // accept returns it, or fails again and sees the flag.
            std::thread::sleep(backoff);
        }
        let Ok((stream, _peer)) = accepted else { continue };
        let Ok(socket) = stream.try_clone() else { continue };
        let _ = stream.set_nodelay(true);
        let id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::new(ConnectionStats {
            id,
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            open: AtomicBool::new(true),
        });
        inner.stats.lock().push(stats.clone());
        let open = inner.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(t) = &inner.telemetry {
            t.connections_total.inc();
            t.connections_open.set(open as f64);
        }
        let conn = Conn {
            stream,
            reader: FrameReader::new(inner.config.max_frame_len),
            state: ConnState::AwaitingHello,
            next_seq: 0,
            tenant: inner.host.default_tenant(),
            prepared: HashMap::new(),
            out: Vec::new(),
            stats: stats.clone(),
        };
        let spawned = std::thread::Builder::new().name(format!("pgso-net-conn-{id}")).spawn({
            let inner = inner.clone();
            move || conn.serve(&inner)
        });
        match spawned {
            Ok(thread) => {
                let mut live = inner.live.lock();
                live.retain(|c| !c.thread.is_finished());
                live.push(LiveConn { socket, thread });
            }
            // The connection went down with the closure; only the books
            // remain to close.
            Err(_) => close_conn(inner, &stats),
        }
    }
}

fn close_conn(inner: &Inner, stats: &ConnectionStats) {
    stats.open.store(false, Ordering::Relaxed);
    let open = inner.open_connections.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
    if let Some(t) = &inner.telemetry {
        t.connections_open.set(open as f64);
    }
}

// ---- connection thread --------------------------------------------------

/// One connection, owned by the thread serving it.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    state: ConnState,
    /// Requests decoded so far: the `seq` of this connection's wire events.
    next_seq: u64,
    /// The tenant unrouted requests run on: the host default at accept,
    /// re-targeted by USE. `None` only when the host has no tenants at all.
    tenant: Option<Arc<Tenant>>,
    /// Wire handle → (preparing tenant, engine handle). The tenant rides
    /// along because handles must execute on the engine that issued them —
    /// a later USE re-targets ad-hoc RUNs, never prepared handles.
    prepared: HashMap<u32, (Arc<Tenant>, PreparedStatement)>,
    /// The current read's responses, written with one `write_all`.
    out: Vec<u8>,
    stats: Arc<ConnectionStats>,
}

impl Conn {
    /// Reads, handles and replies until the peer hangs up, a fatal error
    /// drains the connection, or the listener shuts down.
    fn serve(mut self, inner: &Inner) {
        let mut buf = vec![0u8; 64 * 1024];
        while self.state != ConnState::Draining && !inner.shutdown.load(Ordering::Acquire) {
            let n = match (&self.stream).read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
            if let Some(t) = &inner.telemetry {
                t.bytes_in.add(n as u64);
            }
            self.reader.extend(&buf[..n]);
            self.drain_frames(inner);
            if (&self.stream).write_all(&self.out).is_err() {
                break;
            }
            let written = self.out.len() as u64;
            self.stats.bytes_out.fetch_add(written, Ordering::Relaxed);
            if let Some(t) = &inner.telemetry {
                t.bytes_out.add(written);
            }
            self.out.clear();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        close_conn(inner, &self.stats);
    }

    /// Handles every complete frame buffered on the connection, stopping
    /// early once the connection starts draining.
    fn drain_frames(&mut self, inner: &Inner) {
        while self.state != ConnState::Draining {
            match self.reader.next_frame() {
                Ok(None) => return,
                Ok(Some((op, payload))) => self.handle_frame(inner, op, &payload),
                Err(e) => {
                    // The stream can no longer be framed: answer with the
                    // typed error, then close this connection only.
                    let code = match e {
                        FrameError::Oversized { .. } => ErrorCode::Oversized,
                        FrameError::Empty => ErrorCode::Oversized,
                    };
                    self.fail(inner, code, &e.to_string());
                    self.state = ConnState::Draining;
                }
            }
        }
    }

    /// Appends an ERROR response, counted against the selected tenant.
    fn fail(&mut self, inner: &Inner, code: ErrorCode, message: &str) {
        inner.count_error(&self.stats, self.tenant.as_deref());
        push_error(&mut self.out, code, message);
    }

    /// Handles one decoded frame and appends its response.
    fn handle_frame(&mut self, inner: &Inner, op: u8, payload: &[u8]) {
        let received = inner.telemetry.as_ref().map(|_| Instant::now());
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(t) = &inner.telemetry {
            t.requests.inc();
        }
        let request = match decode_request(op, payload) {
            Ok(request) => request,
            Err(violation) => {
                self.fail(inner, violation.code, &violation.message);
                if violation.code == ErrorCode::BadHandshake {
                    self.state = ConnState::Draining;
                }
                return;
            }
        };
        match (self.state, request) {
            (ConnState::AwaitingHello, Request::Hello { version }) => {
                // The decoder already refused every revision but this one.
                self.state = ConnState::Ready;
                push_response(&mut self.out, &Response::HelloOk { version });
            }
            (ConnState::AwaitingHello, _) => {
                self.fail(inner, ErrorCode::BadHandshake, "HELLO must be the first request");
                self.state = ConnState::Draining;
            }
            (ConnState::Ready, Request::Hello { .. }) => {
                self.fail(inner, ErrorCode::BadHandshake, "duplicate HELLO");
                self.state = ConnState::Draining;
            }
            (ConnState::Ready, Request::Use { tenant }) => {
                // Unknown names are survivable — the previous selection
                // stays in effect.
                match inner.host.tenant(&tenant) {
                    Ok(routed) => {
                        self.tenant = Some(routed);
                        push_response(&mut self.out, &Response::UseOk { tenant });
                    }
                    Err(err) => self.fail(inner, ErrorCode::UnknownTenant, &err.to_string()),
                }
            }
            (ConnState::Ready, Request::Prepare { handle, text, trace }) => {
                // A wire trace context is installed for the engine call so
                // the WAL group-commit span lands under the client's trace id.
                let Some(tenant) = self.tenant.clone() else {
                    self.fail(
                        inner,
                        ErrorCode::UnknownTenant,
                        "no tenant selected (host is empty)",
                    );
                    return;
                };
                let _trace_guard =
                    trace.map(|ctx| set_current_trace(ctx.trace_id, ctx.parent_span));
                match inner.prepare_shared(&tenant, &text) {
                    Ok(ps) => {
                        let signature = ps.signature().clone();
                        self.prepared.insert(handle, (tenant.clone(), ps));
                        push_response(&mut self.out, &Response::Prepared { handle, signature });
                    }
                    Err(err) => self.fail(inner, wire_code(&err), &err.to_string()),
                }
                if let (Some(t), Some(ctx), Some(received)) = (&inner.telemetry, trace, received) {
                    let ring = trace_ring(Some(&tenant));
                    t.record_traced_request(
                        ring.as_ref(),
                        ctx.trace_id,
                        self.stats.id,
                        seq,
                        received.elapsed(),
                    );
                }
            }
            (ConnState::Ready, Request::Observe(observe)) => {
                // Scrapes are cheap reads over already-aggregated state.
                let response = observe_response(inner, self.tenant.as_deref(), observe);
                if matches!(response, Response::Error { .. }) {
                    inner.count_error(&self.stats, self.tenant.as_deref());
                }
                push_response(&mut self.out, &response);
            }
            (ConnState::Ready, Request::Goodbye) => {
                push_response(&mut self.out, &Response::GoodbyeOk);
                self.state = ConnState::Draining;
            }
            (ConnState::Ready, request @ (Request::Execute { .. } | Request::Run { .. })) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    self.fail(inner, ErrorCode::ShuttingDown, "listener is draining");
                } else {
                    self.run_engine(inner, seq, op, received, &request);
                }
            }
            (ConnState::Draining, _) => unreachable!("no frames are handled while draining"),
        }
    }

    /// Runs one EXECUTE/RUN, appending its response stream and doing its
    /// accounting. A panic anywhere inside becomes `ERROR(Internal)`.
    fn run_engine(
        &mut self,
        inner: &Inner,
        seq: u64,
        op: u8,
        received: Option<Instant>,
        request: &Request,
    ) {
        let trace = request.trace();
        let start = self.out.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The guard lives for the engine call only: spans emitted by
            // the engine, query stages and WAL inherit the wire trace id.
            let _trace_guard = trace.map(|ctx| set_current_trace(ctx.trace_id, ctx.parent_span));
            self.execute(inner, request)
        }));
        let (is_error, tenant) = outcome.unwrap_or_else(|_| {
            self.out.truncate(start);
            push_error(&mut self.out, ErrorCode::Internal, "request panicked server-side");
            (true, None)
        });
        if is_error {
            inner.count_error(&self.stats, tenant.as_deref());
        } else {
            self.stats.served.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(t), Some(received)) = (&inner.telemetry, received) {
            let ring = trace_ring(tenant.as_deref());
            let elapsed = received.elapsed();
            t.record_request(ring.as_ref(), self.stats.id, seq, op, elapsed);
            if let Some(ctx) = trace {
                t.record_traced_request(ring.as_ref(), ctx.trace_id, self.stats.id, seq, elapsed);
            }
        }
    }

    /// Runs one EXECUTE/RUN against its tenant's engine, appending the full
    /// response stream (ROWS* SUMMARY, or one ERROR). Returns
    /// `(is_error, serving tenant)` — the tenant errors and trace events are
    /// attributed to: EXECUTE runs on the handle's tenant, which may differ
    /// from the current selection.
    fn execute(&mut self, inner: &Inner, request: &Request) -> (bool, Option<Arc<Tenant>>) {
        let (tenant, outcome) = match request {
            Request::Execute { handle, params, .. } => {
                let Some((tenant, prepared)) = self.prepared.get(handle) else {
                    let message = format!("handle {handle} was never prepared on this connection");
                    push_error(&mut self.out, ErrorCode::UnknownHandle, &message);
                    return (true, None);
                };
                (tenant.clone(), tenant.execute(prepared, params))
            }
            Request::Run { text, .. } => {
                let Some(tenant) = self.tenant.clone() else {
                    let message = "no tenant selected (host is empty)";
                    push_error(&mut self.out, ErrorCode::UnknownTenant, message);
                    return (true, None);
                };
                let outcome = tenant.serve_text(text);
                (tenant, outcome)
            }
            other => unreachable!("{other:?} is not engine work"),
        };
        match outcome {
            Ok(result) => {
                let chunk = inner.config.rows_per_chunk.max(1);
                push_result(&mut self.out, chunk, result.rows, result.matches as u64);
                (false, Some(tenant))
            }
            Err(err) => {
                push_error(&mut self.out, wire_code(&err), &err.to_string());
                (true, Some(tenant))
            }
        }
    }
}

/// Builds the OBSERVE_OK for one scrape. Host-wide modes (metrics) cover
/// every tenant in one exposition; per-tenant modes (trace, health) read
/// the connection's selected tenant. Every mode reads state the engines
/// aggregate anyway; none of them perturbs the serving counters.
fn observe_response(inner: &Inner, tenant: Option<&Tenant>, observe: ObserveRequest) -> Response {
    let no_tenant = || Response::Error {
        code: ErrorCode::UnknownTenant,
        message: "no tenant selected (host is empty)".to_string(),
    };
    let reply = match observe {
        ObserveRequest::MetricsText => ObserveReply::MetricsText(inner.host.metrics_text()),
        ObserveRequest::MetricsSnapshot => {
            ObserveReply::MetricsSnapshot(inner.host.metrics_snapshot())
        }
        ObserveRequest::Trace { trace_id } => {
            let Some(tenant) = tenant else { return no_tenant() };
            ObserveReply::Trace(
                tenant
                    .server()
                    .trace_events()
                    .iter()
                    .filter(|event| trace_id == 0 || event.span_id == trace_id)
                    .map(WireTraceEvent::from)
                    .collect(),
            )
        }
        ObserveRequest::Health => {
            let Some(tenant) = tenant else { return no_tenant() };
            ObserveReply::Health(tenant.server().health_summary())
        }
    };
    Response::Observe(reply)
}

/// Maps a tenant-layer failure to its wire error code. Quota rejections get
/// their own survivable code so clients can tell back-pressure from broken
/// requests.
fn wire_code(err: &TenantError) -> ErrorCode {
    match err {
        TenantError::Quota { .. } => ErrorCode::QuotaExceeded,
        TenantError::Bind(_) => ErrorCode::Bind,
        TenantError::Parse(_) => ErrorCode::Parse,
        TenantError::UnknownTenant(_) => ErrorCode::UnknownTenant,
        TenantError::Io(_) | TenantError::AlreadyExists(_) | TenantError::InvalidName(_) => {
            ErrorCode::Internal
        }
    }
}

/// Appends a result as streamed ROWS chunks plus the terminating SUMMARY.
fn push_result(out: &mut Vec<u8>, chunk_size: usize, rows: Vec<pgso_query::Row>, matches: u64) {
    let total = rows.len() as u64;
    let mut rows = rows;
    while !rows.is_empty() {
        let rest = rows.split_off(rows.len().min(chunk_size));
        push_response(out, &Response::Rows { rows });
        rows = rest;
    }
    push_response(out, &Response::Summary { matches, rows: total });
}

fn push_response(out: &mut Vec<u8>, response: &Response) {
    let (op, payload) = encode_response(response);
    write_frame(out, op, &payload);
}

fn push_error(out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    push_response(out, &Response::Error { code, message: message.to_string() });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backs_off_only_after_lasting_errors() {
        let ms = Duration::from_millis;
        let lasting = Some(io::ErrorKind::Other);
        // A healthy accept never sleeps, whatever came before it.
        assert_eq!(accept_backoff(Duration::ZERO, None), Duration::ZERO);
        assert_eq!(accept_backoff(ms(64), None), Duration::ZERO, "a success resets");
        // Transient errors retry at once.
        for kind in [io::ErrorKind::ConnectionAborted, io::ErrorKind::Interrupted] {
            assert_eq!(accept_backoff(ms(8), Some(kind)), Duration::ZERO, "{kind:?}");
        }
        // A lasting error: 1 ms, doubling, capped.
        let mut pause = Duration::ZERO;
        let pauses: Vec<Duration> = (0..9)
            .map(|_| {
                pause = accept_backoff(pause, lasting);
                pause
            })
            .collect();
        let expected = [1, 2, 4, 8, 16, 32, 64, 100, 100].map(ms);
        assert_eq!(pauses, expected);
    }
}

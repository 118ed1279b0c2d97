//! The serving side: [`KgListener`] accepts TCP connections and serves the
//! wire protocol on top of a [`pgso_tenant::TenantHost`] — one listener,
//! many independent tenant graphs, with [`KgListener::bind`] as the
//! single-server bridge (it wraps the server as a host's sole `default`
//! tenant).
//!
//! # Architecture
//!
//! The environment is offline (no `tokio`, no `mio`, no `libc`), so the
//! non-blocking machinery is self-built from `std`:
//!
//! * **one accept thread** polls a non-blocking [`TcpListener`] and hands
//!   fresh connections (non-blocking, `TCP_NODELAY`) to a readiness loop;
//! * **readiness loop threads** ([`NetConfig::loop_threads`]) each own a set
//!   of connections, mio-style: every pass drains readable bytes into the
//!   connection's [`FrameReader`], decodes complete frames, and flushes
//!   pending response bytes — `WouldBlock` just moves on to the next
//!   connection. Loops spin while any socket makes progress and back off to
//!   a short sleep when everything is idle;
//! * **a shared worker pool** ([`NetConfig::worker_threads`]) executes the
//!   decoded EXECUTE/RUN requests against the engines. This is the
//!   ROADMAP's worker-pool item folded in: parallelism pays off at
//!   *wire-request* granularity — requests from one pipelined connection
//!   run concurrently across the pool — instead of per-query scoped-thread
//!   fan-out alone.
//!
//! **Pipelining.** A client may send any number of requests without waiting.
//! Each request gets a per-connection sequence number at decode time;
//! responses are released strictly in request order through a per-connection
//! reorder buffer, however the pool interleaves the executions.
//!
//! **Tenant routing.** Every connection lands on the host's default tenant
//! at accept; a `USE <tenant>` re-targets subsequent requests.
//! Selection is sticky per connection, and prepared handles stay bound to
//! the tenant that prepared them — `USE b` after `PREPARE h` does not move
//! `h`, so pipelined bursts spanning a switch stay correct. An unknown
//! tenant name answers with a survivable [`ErrorCode::UnknownTenant`] and
//! the previous selection stays in effect. Per-tenant quota rejections
//! surface as [`ErrorCode::QuotaExceeded`] — back-pressure, not failure:
//! the connection keeps serving.
//!
//! **Request routing.** HELLO, USE, PREPARE, OBSERVE and GOODBYE are handled
//! inline on the loop thread — PREPARE deliberately so: the handle map is
//! updated in receive order, which makes `PREPARE h1; EXECUTE h1` correct in
//! one pipelined burst without a round trip. EXECUTE and RUN go to the pool.
//! Requests carrying a wire trace context run under
//! [`pgso_telemetry::set_current_trace`], so engine/query/WAL spans land in
//! the serving tenant's trace ring under the client's id.
//!
//! **Hardening.** Every decode failure maps to a typed ERROR frame. Payload
//! violations (bad opcode, malformed message, unknown tenant, quota
//! rejection) keep the connection alive — the length-prefixed framing is
//! intact. Framing violations (oversized or zero length) and handshake
//! violations are connection-fatal, but only for that connection: siblings
//! and the engines are untouched, and a worker panic is caught and answered
//! with `ErrorCode::Internal`.

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::proto::{
    decode_request, encode_response, ErrorCode, ObserveReply, ObserveRequest, Request, Response,
    WireTraceEvent,
};
use crate::telemetry::NetTelemetry;
use parking_lot::{Mutex as PlMutex, RwLock};
use pgso_server::{KgServer, PreparedStatement};
use pgso_telemetry::{set_current_trace, TraceBuffer};
use pgso_tenant::{Tenant, TenantError, TenantHost};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Threads in the shared request-execution pool; `0` means one per
    /// available core.
    pub worker_threads: usize,
    /// Readiness loop threads sharing the connections.
    pub loop_threads: usize,
    /// Frame-length cap; peers claiming more are rejected with
    /// [`ErrorCode::Oversized`] before any allocation.
    pub max_frame_len: u32,
    /// Result rows per ROWS chunk frame.
    pub rows_per_chunk: usize,
    /// Wire requests slower than this count in `net.slow_requests` and emit
    /// a `net.slow_request` trace event. `None` disables the log.
    pub slow_request_threshold: Option<Duration>,
    /// How long [`KgListener::shutdown`] waits for in-flight requests to
    /// drain and response bytes to flush before force-closing connections.
    pub drain_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            worker_threads: 0,
            loop_threads: 2,
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
    /// True when every connection drained (in-flight requests completed and
    /// response bytes flushed) inside [`NetConfig::drain_timeout`].
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
    /// No further reads; close once in-flight work drains and flushes.
    Draining,
}

/// Response-ordering state: completed responses park in `pending` until
/// every earlier sequence number has been released into `outbuf`.
#[derive(Debug, Default)]
struct WriteState {
    next_seq: u64,
    pending: BTreeMap<u64, Vec<u8>>,
    outbuf: Vec<u8>,
}

/// The connection state shared between its readiness loop and the worker
/// pool.
#[derive(Debug)]
struct ConnShared {
    id: u64,
    stream: TcpStream,
    write: PlMutex<WriteState>,
    /// Requests decoded but not yet answered (reorder buffer included).
    inflight: AtomicU64,
    /// The tenant unrouted requests run on: the host default at accept,
    /// re-targeted by USE (written inline on the loop thread, read by pool
    /// workers). `None` only when the host has no tenants at all.
    tenant: RwLock<Option<Arc<Tenant>>>,
    /// Wire handle → (preparing tenant, engine handle), written inline by
    /// PREPARE (receive order), read by pool workers. The tenant rides
    /// along because handles must execute on the engine that issued them —
    /// a later USE re-targets ad-hoc RUNs, never prepared handles.
    prepared: RwLock<HashMap<u32, (Arc<Tenant>, PreparedStatement)>>,
    /// Set on any socket error; the owning loop closes the connection.
    dead: AtomicBool,
    stats: Arc<ConnectionStats>,
}

/// One decoded request routed to the worker pool.
struct Job {
    conn: Arc<ConnShared>,
    seq: u64,
    op: u8,
    received: Option<Instant>,
    request: Request,
}

/// Blocking MPMC job queue (std `Mutex` + `Condvar`; the `parking_lot`
/// stand-in has no condvar).
struct JobQueue {
    inner: StdMutex<QueueInner>,
    ready: Condvar,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new() -> Self {
        Self {
            inner: StdMutex::new(QueueInner { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once closed *and* empty, so workers
    /// finish everything queued before exiting.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// State shared by every thread of one listener.
struct Inner {
    host: Arc<TenantHost>,
    config: NetConfig,
    listener: TcpListener,
    shutdown: AtomicBool,
    accept_done: AtomicBool,
    queue: JobQueue,
    /// Accept → loop handoff, one slot per readiness loop.
    handoff: Vec<PlMutex<Vec<Arc<ConnShared>>>>,
    telemetry: Option<NetTelemetry>,
    /// Every connection ever accepted, accept order (stats outlive closes).
    stats: PlMutex<Vec<Arc<ConnectionStats>>>,
    /// (tenant, statement text) → engine handle, shared across connections:
    /// N clients preparing the same text on one tenant register it with
    /// that tenant's engine (and its WAL) once, not N times. The tenant
    /// name in the key keeps sibling tenants' identical texts apart — each
    /// engine must own its registration.
    prepared_by_text: PlMutex<HashMap<(String, String), PreparedStatement>>,
    next_conn_id: AtomicU64,
    open_connections: AtomicU64,
    force_closed: AtomicU64,
}

impl Inner {
    /// Counts an error against the connection's *currently selected*
    /// tenant — for inline (loop-thread) failures, where the selection is
    /// the serving tenant by construction.
    fn count_error(&self, conn: &ConnShared) {
        let tenant = conn.tenant.read().clone();
        self.count_error_for(conn, tenant.as_deref());
    }

    /// Counts an error against an explicit serving tenant (pool results:
    /// EXECUTE runs on the handle's bound tenant, which may differ from the
    /// connection's current selection). Feeds the connection stats, the
    /// listener-global `net.errors` counter, and the serving tenant's
    /// rolling error window (behind its health summary).
    fn count_error_for(&self, conn: &ConnShared, tenant: Option<&Tenant>) {
        conn.stats.errors.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.record_error();
        }
        if let Some(st) = tenant.and_then(|t| t.server().telemetry()) {
            st.windows.record_error();
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
    threads: Vec<JoinHandle<()>>,
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
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let telemetry = NetTelemetry::for_host(&host, config.slow_request_threshold);
        let loops = config.loop_threads.max(1);
        let inner = Arc::new(Inner {
            host,
            config,
            listener,
            shutdown: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            queue: JobQueue::new(),
            handoff: (0..loops).map(|_| PlMutex::new(Vec::new())).collect(),
            telemetry,
            stats: PlMutex::new(Vec::new()),
            prepared_by_text: PlMutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            force_closed: AtomicU64::new(0),
        });
        Ok(Self { inner, threads: Vec::new(), addr })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tenant host this listener serves.
    pub fn host(&self) -> &Arc<TenantHost> {
        &self.inner.host
    }

    /// Spawns the accept thread, the readiness loops and the worker pool,
    /// then returns — serving continues in the background until
    /// [`KgListener::shutdown`].
    pub fn serve(&mut self) -> io::Result<()> {
        if !self.threads.is_empty() {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "listener already serving"));
        }
        let workers = match self.inner.config.worker_threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            n => n,
        };
        let inner = &self.inner;
        self.threads.push(spawn_named("pgso-net-accept", {
            let inner = inner.clone();
            move || accept_loop(&inner)
        }));
        for idx in 0..inner.handoff.len() {
            self.threads.push(spawn_named(&format!("pgso-net-loop-{idx}"), {
                let inner = inner.clone();
                move || readiness_loop(&inner, idx)
            }));
        }
        for idx in 0..workers {
            self.threads.push(spawn_named(&format!("pgso-net-worker-{idx}"), {
                let inner = inner.clone();
                move || worker_loop(&inner)
            }));
        }
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

    /// Graceful shutdown: stops accepting, lets every decoded request finish
    /// and its response flush (up to [`NetConfig::drain_timeout`]), closes
    /// the connections, and joins every thread.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> ShutdownReport {
        self.inner.shutdown.store(true, Ordering::Release);
        // Join order matters: accept first (stops new connections), then the
        // readiness loops (they wait for the pool to drain each connection's
        // in-flight work — workers are still alive here), then the pool.
        let mut threads = std::mem::take(&mut self.threads);
        join_matching(&mut threads, "pgso-net-accept");
        join_matching(&mut threads, "pgso-net-loop");
        self.inner.queue.close();
        join_matching(&mut threads, "pgso-net-worker");
        for thread in threads {
            let _ = thread.join();
        }
        let force_closed = self.inner.force_closed.load(Ordering::Relaxed) as usize;
        ShutdownReport { drained: force_closed == 0, force_closed }
    }
}

impl Drop for KgListener {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_impl();
        }
    }
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name.to_string()).spawn(f).expect("thread spawns")
}

/// Joins (and removes) every thread whose name starts with `prefix`.
fn join_matching(threads: &mut Vec<JoinHandle<()>>, prefix: &str) {
    let mut rest = Vec::new();
    for thread in threads.drain(..) {
        if thread.thread().name().is_some_and(|n| n.starts_with(prefix)) {
            let _ = thread.join();
        } else {
            rest.push(thread);
        }
    }
    *threads = rest;
}

// ---- accept thread ------------------------------------------------------

fn accept_loop(inner: &Inner) {
    let mut next_loop = 0usize;
    while !inner.shutdown.load(Ordering::Acquire) {
        match inner.listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
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
                let conn = Arc::new(ConnShared {
                    id,
                    stream,
                    write: PlMutex::new(WriteState::default()),
                    inflight: AtomicU64::new(0),
                    tenant: RwLock::new(inner.host.default_tenant()),
                    prepared: RwLock::new(HashMap::new()),
                    dead: AtomicBool::new(false),
                    stats,
                });
                inner.handoff[next_loop % inner.handoff.len()].lock().push(conn);
                next_loop += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    inner.accept_done.store(true, Ordering::Release);
}

// ---- readiness loop -----------------------------------------------------

/// Loop-local view of one connection.
struct ConnLocal {
    shared: Arc<ConnShared>,
    reader: FrameReader,
    state: ConnState,
    next_seq: u64,
    read_closed: bool,
    finished: bool,
}

impl ConnLocal {
    /// Allocates the next response slot: sequence number + in-flight ticket.
    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        seq
    }
}

fn readiness_loop(inner: &Inner, idx: usize) {
    let mut conns: Vec<ConnLocal> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut idle_passes = 0u32;
    let mut shutting_since: Option<Instant> = None;
    loop {
        for conn in inner.handoff[idx].lock().drain(..) {
            conns.push(ConnLocal {
                shared: conn,
                reader: FrameReader::new(inner.config.max_frame_len),
                state: ConnState::AwaitingHello,
                next_seq: 0,
                read_closed: false,
                finished: false,
            });
        }
        let shutting = inner.shutdown.load(Ordering::Acquire);
        if shutting && shutting_since.is_none() {
            shutting_since = Some(Instant::now());
        }
        let force = shutting_since.is_some_and(|s| s.elapsed() > inner.config.drain_timeout);
        let mut progress = false;
        for conn in &mut conns {
            progress |= service_conn(inner, conn, &mut read_buf, shutting);
            if force && !conn.finished {
                inner.force_closed.fetch_add(1, Ordering::Relaxed);
                conn.finished = true;
            }
            if conn.finished {
                close_conn(inner, conn);
            }
        }
        conns.retain(|c| !c.finished);
        if shutting
            && conns.is_empty()
            && inner.accept_done.load(Ordering::Acquire)
            && inner.handoff[idx].lock().is_empty()
        {
            break;
        }
        if progress {
            idle_passes = 0;
        } else {
            idle_passes += 1;
            if idle_passes > 64 {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// One service pass over a connection: read + decode, flush, decide close.
/// Returns true when any byte moved.
fn service_conn(inner: &Inner, conn: &mut ConnLocal, buf: &mut [u8], shutting: bool) -> bool {
    let mut progress = false;
    let draining = conn.state == ConnState::Draining;
    if !conn.read_closed && !draining && !shutting && !conn.shared.dead.load(Ordering::Acquire) {
        loop {
            match (&conn.shared.stream).read(buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    conn.shared.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    if let Some(t) = &inner.telemetry {
                        t.bytes_in.add(n as u64);
                    }
                    conn.reader.extend(&buf[..n]);
                    if !drain_frames(inner, conn) {
                        break; // fatal framing: reads are over
                    }
                    if n < buf.len() {
                        break; // socket very likely drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.shared.dead.store(true, Ordering::Release);
                    break;
                }
            }
        }
    }
    let (flushed_some, fully_flushed) = {
        let mut w = conn.shared.write.lock();
        let before = w.outbuf.len();
        flush_locked(inner, &conn.shared, &mut w);
        (w.outbuf.len() != before, w.outbuf.is_empty() && w.pending.is_empty())
    };
    progress |= flushed_some;
    let done_reading = conn.read_closed || conn.state == ConnState::Draining || shutting;
    let inflight = conn.shared.inflight.load(Ordering::Acquire);
    if conn.shared.dead.load(Ordering::Acquire) || (done_reading && inflight == 0 && fully_flushed)
    {
        conn.finished = true;
    }
    progress
}

fn close_conn(inner: &Inner, conn: &ConnLocal) {
    let _ = conn.shared.stream.shutdown(Shutdown::Both);
    conn.shared.stats.open.store(false, Ordering::Relaxed);
    let open = inner.open_connections.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
    if let Some(t) = &inner.telemetry {
        t.connections_open.set(open as f64);
    }
}

/// Decodes every complete frame buffered on the connection. Returns false on
/// a fatal framing violation (reads must stop).
fn drain_frames(inner: &Inner, conn: &mut ConnLocal) -> bool {
    loop {
        match conn.reader.next_frame() {
            Ok(None) => return true,
            Ok(Some((op, payload))) => {
                handle_frame(inner, conn, op, &payload);
                if conn.state == ConnState::Draining {
                    return false;
                }
            }
            Err(e) => {
                // The stream can no longer be framed: answer with the typed
                // error, then drain and close this connection only.
                let code = match e {
                    FrameError::Oversized { .. } => ErrorCode::Oversized,
                    FrameError::Empty => ErrorCode::Oversized,
                };
                let seq = conn.alloc_seq();
                inner.count_error(&conn.shared);
                finish(inner, &conn.shared, seq, error_bytes(code, &e.to_string()));
                conn.state = ConnState::Draining;
                return false;
            }
        }
    }
}

/// Routes one decoded frame: inline protocol/state handling here, engine
/// work to the pool.
fn handle_frame(inner: &Inner, conn: &mut ConnLocal, op: u8, payload: &[u8]) {
    let received = inner.telemetry.as_ref().map(|_| Instant::now());
    let seq = conn.alloc_seq();
    if let Some(t) = &inner.telemetry {
        t.requests.inc();
    }
    let request = match decode_request(op, payload) {
        Ok(request) => request,
        Err(violation) => {
            inner.count_error(&conn.shared);
            finish(inner, &conn.shared, seq, error_bytes(violation.code, &violation.message));
            if violation.code == ErrorCode::BadHandshake {
                conn.state = ConnState::Draining;
            }
            return;
        }
    };
    match (conn.state, request) {
        (ConnState::AwaitingHello, Request::Hello { version }) => {
            // The decoder already refused every revision but this one.
            conn.state = ConnState::Ready;
            finish(inner, &conn.shared, seq, response_bytes(&Response::HelloOk { version }));
        }
        (ConnState::AwaitingHello, _) => {
            inner.count_error(&conn.shared);
            finish(
                inner,
                &conn.shared,
                seq,
                error_bytes(ErrorCode::BadHandshake, "HELLO must be the first request"),
            );
            conn.state = ConnState::Draining;
        }
        (ConnState::Ready, Request::Hello { .. }) => {
            inner.count_error(&conn.shared);
            finish(
                inner,
                &conn.shared,
                seq,
                error_bytes(ErrorCode::BadHandshake, "duplicate HELLO"),
            );
            conn.state = ConnState::Draining;
        }
        (ConnState::Ready, Request::Use { tenant }) => {
            // Inline, like PREPARE: `USE a; RUN q` in one pipelined burst
            // must route `q` to `a`. Unknown names are survivable — the
            // previous selection stays in effect.
            match inner.host.tenant(&tenant) {
                Ok(routed) => {
                    *conn.shared.tenant.write() = Some(routed);
                    finish(inner, &conn.shared, seq, response_bytes(&Response::UseOk { tenant }));
                }
                Err(err) => {
                    inner.count_error(&conn.shared);
                    finish(
                        inner,
                        &conn.shared,
                        seq,
                        error_bytes(ErrorCode::UnknownTenant, &err.to_string()),
                    );
                }
            }
        }
        (ConnState::Ready, Request::Prepare { handle, text, trace }) => {
            // Inline on the loop thread so the handle map is updated in
            // receive order: `PREPARE h; EXECUTE h` works in one burst.
            // Texts dedup across connections *per tenant* — each tenant's
            // engine (and its WAL) sees each distinct statement once. A
            // wire trace context is installed for the engine call so the
            // WAL group-commit span lands under the client's trace id.
            let tenant = conn.shared.tenant.read().clone();
            let Some(tenant) = tenant else {
                inner.count_error(&conn.shared);
                finish(
                    inner,
                    &conn.shared,
                    seq,
                    error_bytes(ErrorCode::UnknownTenant, "no tenant selected (host is empty)"),
                );
                return;
            };
            let _trace_guard = trace.map(|ctx| set_current_trace(ctx.trace_id, ctx.parent_span));
            let key = (tenant.name().to_string(), text.clone());
            let existing = inner.prepared_by_text.lock().get(&key).cloned();
            let outcome = match existing {
                Some(ps) => Ok(ps),
                None => tenant.prepare_text(&text).inspect(|ps| {
                    inner.prepared_by_text.lock().insert(key, ps.clone());
                }),
            };
            match outcome {
                Ok(ps) => {
                    let signature = ps.signature().clone();
                    conn.shared.prepared.write().insert(handle, (tenant.clone(), ps));
                    finish(
                        inner,
                        &conn.shared,
                        seq,
                        response_bytes(&Response::Prepared { handle, signature }),
                    );
                }
                Err(err) => {
                    inner.count_error_for(&conn.shared, Some(&tenant));
                    finish(
                        inner,
                        &conn.shared,
                        seq,
                        error_bytes(wire_code(&err), &err.to_string()),
                    );
                }
            }
            if let (Some(t), Some(ctx), Some(received)) = (&inner.telemetry, trace, received) {
                let ring = trace_ring(Some(&tenant));
                t.record_traced_request(
                    ring.as_ref(),
                    ctx.trace_id,
                    conn.shared.id,
                    seq,
                    received.elapsed(),
                );
            }
        }
        (ConnState::Ready, Request::Observe(observe)) => {
            // Scrapes are cheap reads over already-aggregated state, so they
            // run inline on the loop thread like PREPARE — no pool detour,
            // and a scrape can never be reordered behind the queries it is
            // trying to observe on the same connection.
            let tenant = conn.shared.tenant.read().clone();
            let response = observe_response(inner, tenant.as_deref(), observe);
            if matches!(response, Response::Error { .. }) {
                inner.count_error(&conn.shared);
            }
            finish(inner, &conn.shared, seq, response_bytes(&response));
        }
        (ConnState::Ready, Request::Goodbye) => {
            finish(inner, &conn.shared, seq, response_bytes(&Response::GoodbyeOk));
            conn.state = ConnState::Draining;
        }
        (ConnState::Ready, request @ (Request::Execute { .. } | Request::Run { .. })) => {
            if inner.shutdown.load(Ordering::Acquire) {
                inner.count_error(&conn.shared);
                finish(
                    inner,
                    &conn.shared,
                    seq,
                    error_bytes(ErrorCode::ShuttingDown, "listener is draining"),
                );
            } else {
                inner.queue.push(Job { conn: conn.shared.clone(), seq, op, received, request });
            }
        }
        (ConnState::Draining, _) => unreachable!("no frames are decoded while draining"),
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

// ---- worker pool --------------------------------------------------------

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        let trace = job.request.trace();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The guard lives for the engine call only: spans emitted by
            // the engine, query stages and WAL inherit the wire trace id.
            let _trace_guard = trace.map(|ctx| set_current_trace(ctx.trace_id, ctx.parent_span));
            execute_job(inner, &job)
        }));
        let (bytes, is_error, tenant) = outcome.unwrap_or_else(|_| {
            (error_bytes(ErrorCode::Internal, "request panicked server-side"), true, None)
        });
        if is_error {
            inner.count_error_for(&job.conn, tenant.as_deref());
        } else {
            job.conn.stats.served.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(t), Some(received)) = (&inner.telemetry, job.received) {
            let ring = trace_ring(tenant.as_deref());
            t.record_request(ring.as_ref(), job.conn.id, job.seq, job.op, received.elapsed());
            if let Some(ctx) = trace {
                t.record_traced_request(
                    ring.as_ref(),
                    ctx.trace_id,
                    job.conn.id,
                    job.seq,
                    received.elapsed(),
                );
            }
        }
        finish(inner, &job.conn, job.seq, bytes);
    }
}

/// Runs one EXECUTE/RUN against its tenant's engine, encoding the full
/// response stream (ROWS* SUMMARY, or one ERROR). Returns
/// `(frame bytes, is_error, serving tenant)` — the tenant rides back so the
/// worker loop can attribute errors and trace events to the engine that
/// actually served the request.
fn execute_job(inner: &Inner, job: &Job) -> (Vec<u8>, bool, Option<Arc<Tenant>>) {
    match &job.request {
        Request::Execute { handle, params, .. } => {
            let prepared = job.conn.prepared.read().get(handle).cloned();
            let Some((tenant, prepared)) = prepared else {
                return (
                    error_bytes(
                        ErrorCode::UnknownHandle,
                        &format!("handle {handle} was never prepared on this connection"),
                    ),
                    true,
                    None,
                );
            };
            match tenant.execute(&prepared, params) {
                Ok(result) => {
                    (result_bytes(inner, result.rows, result.matches as u64), false, Some(tenant))
                }
                Err(err) => (error_bytes(wire_code(&err), &err.to_string()), true, Some(tenant)),
            }
        }
        Request::Run { text, .. } => {
            let tenant = job.conn.tenant.read().clone();
            let Some(tenant) = tenant else {
                return (
                    error_bytes(ErrorCode::UnknownTenant, "no tenant selected (host is empty)"),
                    true,
                    None,
                );
            };
            match tenant.serve_text(text) {
                Ok(result) => {
                    (result_bytes(inner, result.rows, result.matches as u64), false, Some(tenant))
                }
                Err(err) => (error_bytes(wire_code(&err), &err.to_string()), true, Some(tenant)),
            }
        }
        other => {
            (error_bytes(ErrorCode::Internal, &format!("{other:?} is not pool work")), true, None)
        }
    }
}

/// Encodes a result as streamed ROWS chunks plus the terminating SUMMARY.
fn result_bytes(inner: &Inner, rows: Vec<pgso_query::Row>, matches: u64) -> Vec<u8> {
    let total = rows.len() as u64;
    let mut out = Vec::new();
    let chunk_size = inner.config.rows_per_chunk.max(1);
    let mut rows = rows;
    while !rows.is_empty() {
        let rest = rows.split_off(rows.len().min(chunk_size));
        let (op, payload) = encode_response(&Response::Rows { rows });
        write_frame(&mut out, op, &payload);
        rows = rest;
    }
    let (op, payload) = encode_response(&Response::Summary { matches, rows: total });
    write_frame(&mut out, op, &payload);
    out
}

fn response_bytes(response: &Response) -> Vec<u8> {
    let (op, payload) = encode_response(response);
    let mut out = Vec::new();
    write_frame(&mut out, op, &payload);
    out
}

fn error_bytes(code: ErrorCode, message: &str) -> Vec<u8> {
    response_bytes(&Response::Error { code, message: message.to_string() })
}

// ---- response ordering + socket writes ----------------------------------

/// Parks `bytes` as the response for `seq`, releases every response that is
/// now next in line, opportunistically flushes, and returns the in-flight
/// ticket.
fn finish(inner: &Inner, conn: &Arc<ConnShared>, seq: u64, bytes: Vec<u8>) {
    {
        let mut w = conn.write.lock();
        w.pending.insert(seq, bytes);
        loop {
            let next = w.next_seq;
            match w.pending.remove(&next) {
                Some(ready) => {
                    w.outbuf.extend_from_slice(&ready);
                    w.next_seq += 1;
                }
                None => break,
            }
        }
        flush_locked(inner, conn, &mut w);
    }
    conn.inflight.fetch_sub(1, Ordering::AcqRel);
}

/// Writes as much of `outbuf` as the socket accepts right now; leftovers
/// stay for the readiness loop. Any hard error marks the connection dead.
fn flush_locked(inner: &Inner, conn: &ConnShared, w: &mut WriteState) {
    while !w.outbuf.is_empty() {
        match (&conn.stream).write(&w.outbuf) {
            Ok(0) => {
                conn.dead.store(true, Ordering::Release);
                break;
            }
            Ok(n) => {
                w.outbuf.drain(..n);
                conn.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                if let Some(t) = &inner.telemetry {
                    t.bytes_out.add(n as u64);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead.store(true, Ordering::Release);
                break;
            }
        }
    }
}

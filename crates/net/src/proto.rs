//! Message layer: typed requests/responses and their binary payload codec.
//!
//! Payloads are written in the workspace's one primitive grammar
//! ([`pgso_graphstore::codec`]: little-endian integers, `str32` strings,
//! `count`-prefixed sequences), and every
//! [`pgso_graphstore::PropertyValue`] — parameters and result cells —
//! travels in exactly the bytes the disk backend and WAL use. See
//! `crates/net/README.md` for the full wire format.
//!
//! Decoding is total: any byte sequence decodes to either a message or a
//! [`ProtoViolation`] carrying a typed [`ErrorCode`]; nothing in this module
//! panics on foreign input.

use pgso_graphstore::codec::{
    put_count, put_f64, put_i64, put_str32, put_u16, put_u32, put_u64, put_u8, put_value,
    read_value, DecodeError, Reader,
};
use pgso_query::{ParamKind, ParamSignature, ParamSpec, Params, Row};
use pgso_server::HealthSummary;
use pgso_telemetry::{FieldValue, HistogramSnapshot, MetricsSnapshot, TraceEvent, WindowRates};
use std::time::Duration;

/// `"PGSO"` in big-endian byte order: the first four payload bytes of every
/// HELLO.
pub const PROTOCOL_MAGIC: u32 = 0x5047_534F;

/// The one protocol revision. A HELLO carrying any other value is refused
/// with [`ErrorCode::BadHandshake`]: revisions 1–3 (optional trace trailer,
/// `u16`-prefixed names, a versioned metrics blob) are not spoken.
pub const PROTOCOL_VERSION: u16 = 4;

/// Frame opcodes. Client→server opcodes occupy the low range, server→client
/// responses are the same ideas with the high bit set.
pub mod opcode {
    /// Client handshake: magic + version.
    pub const HELLO: u8 = 0x01;
    /// Register a parameterized statement under a client-chosen handle.
    pub const PREPARE: u8 = 0x02;
    /// Execute a prepared handle with named parameter bindings.
    pub const EXECUTE: u8 = 0x03;
    /// Parse and run a parameterless statement text ad hoc.
    pub const RUN: u8 = 0x04;
    /// Orderly goodbye; the server drains and closes after replying.
    pub const GOODBYE: u8 = 0x05;
    /// Scrape the server's observability surfaces (metrics, traces, health).
    pub const OBSERVE: u8 = 0x06;
    /// Select the tenant subsequent requests on this connection route to.
    pub const USE: u8 = 0x07;
    /// Handshake accepted.
    pub const HELLO_OK: u8 = 0x81;
    /// PREPARE succeeded; carries the statement's typed signature.
    pub const PREPARED: u8 = 0x82;
    /// One chunk of result rows (a result streams as ROWS* then SUMMARY).
    pub const ROWS: u8 = 0x83;
    /// Terminates a result stream with its match count.
    pub const SUMMARY: u8 = 0x84;
    /// Request-level failure as a typed value.
    pub const ERROR: u8 = 0x85;
    /// GOODBYE acknowledged; the connection closes after this frame.
    pub const GOODBYE_OK: u8 = 0x86;
    /// OBSERVE answered; carries the requested observability payload.
    pub const OBSERVE_OK: u8 = 0x87;
    /// USE accepted; the connection now routes to the named tenant.
    pub const USE_OK: u8 = 0x88;
}

/// Typed wire error codes (the `u16` in an ERROR frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// HELLO missing, repeated, carrying the wrong magic, or a version other
    /// than [`PROTOCOL_VERSION`]. Connection-fatal.
    BadHandshake = 1,
    /// Frame opcode outside the protocol. The frame boundary is intact, so
    /// the connection survives.
    UnknownOpcode = 2,
    /// Payload bytes did not decode as the opcode's message. The connection
    /// survives (framing is intact).
    Malformed = 3,
    /// Frame length prefix violated the cap, or was zero. Connection-fatal:
    /// frame boundaries can no longer be trusted.
    Oversized = 4,
    /// Statement text failed to parse (PREPARE / RUN).
    Parse = 5,
    /// Parameter binding failed (EXECUTE): missing, mismatched or undeclared
    /// names.
    Bind = 6,
    /// EXECUTE referenced a handle this connection never prepared.
    UnknownHandle = 7,
    /// The listener is draining; no new work is accepted.
    ShuttingDown = 8,
    /// The request panicked server-side; the connection (and its siblings)
    /// survive.
    Internal = 9,
    /// USE named a tenant the host does not route (or the connection's
    /// tenant was closed under it). The connection survives: the previous
    /// selection stays in effect.
    UnknownTenant = 10,
    /// The selected tenant's admission control rejected the request
    /// (in-flight cap or lifetime budget). Survivable back-pressure: retry
    /// later, or stay within quota — the connection and its framing are
    /// intact.
    QuotaExceeded = 11,
}

impl ErrorCode {
    /// Decodes the wire representation.
    pub fn from_u16(code: u16) -> Option<Self> {
        Some(match code {
            1 => Self::BadHandshake,
            2 => Self::UnknownOpcode,
            3 => Self::Malformed,
            4 => Self::Oversized,
            5 => Self::Parse,
            6 => Self::Bind,
            7 => Self::UnknownHandle,
            8 => Self::ShuttingDown,
            9 => Self::Internal,
            10 => Self::UnknownTenant,
            11 => Self::QuotaExceeded,
            _ => return None,
        })
    }
}

/// A decode failure: the typed code plus a human-readable reason, ready to
/// be sent back as an ERROR frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoViolation {
    /// Typed error code for the ERROR frame.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoViolation {
    fn handshake(message: String) -> Self {
        Self { code: ErrorCode::BadHandshake, message }
    }

    fn unknown_opcode(direction: &str, op: u8) -> Self {
        Self {
            code: ErrorCode::UnknownOpcode,
            message: format!("unknown {direction} opcode {op:#04x}"),
        }
    }
}

/// Request-scoped tracing identifiers a client stamps into
/// PREPARE/EXECUTE/RUN frames. The server installs them as the handling
/// thread's [`pgso_telemetry::set_current_trace`] context, so every span the
/// request touches — socket, engine, query stages, WAL group commit — lands
/// in the trace ring under this id.
///
/// On the wire the context is a 16-byte trailer every PREPARE/EXECUTE/RUN
/// carries; a zero trace id means untraced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-chosen trace id; `0` means untraced (decodes as no context).
    pub trace_id: u64,
    /// Client-side parent span, `0` for a root request.
    pub parent_span: u64,
}

/// What an OBSERVE request asks the server to scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveRequest {
    /// Prometheus-style text exposition
    /// ([`pgso_server::KgServer::metrics_text`]).
    MetricsText,
    /// The host's [`MetricsSnapshot`], structured.
    MetricsSnapshot,
    /// Drain the trace ring; `trace_id != 0` keeps only that trace's spans.
    Trace {
        /// Trace-id filter; `0` returns every retained event.
        trace_id: u64,
    },
    /// The engine's [`HealthSummary`] with rolling request/error rates.
    Health,
}

/// An owned mirror of [`pgso_telemetry::TraceEvent`] for the wire: event
/// names and field keys are `&'static str` in-process, so a decoded copy
/// owns its strings instead.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTraceEvent {
    /// Emission order in the server's ring.
    pub seq: u64,
    /// Time since the server's trace ring was created.
    pub at: Duration,
    /// Span id (the trace id for request-scoped spans); `0` for span-less
    /// events.
    pub span_id: u64,
    /// Event name, e.g. `"server.serve"` or `"wal.group_commit"`.
    pub name: String,
    /// Wall time covered, for span-closing events.
    pub duration: Option<Duration>,
    /// Structured payload.
    pub fields: Vec<(String, FieldValue)>,
}

impl From<&TraceEvent> for WireTraceEvent {
    fn from(event: &TraceEvent) -> Self {
        Self {
            seq: event.seq,
            at: event.at,
            span_id: event.span_id,
            name: event.name.to_string(),
            duration: event.duration,
            fields: event
                .fields
                .iter()
                .map(|(key, value)| (key.to_string(), value.clone()))
                .collect(),
        }
    }
}

/// The payload of an OBSERVE_OK, mirroring the [`ObserveRequest`] modes.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserveReply {
    /// Text exposition bytes.
    MetricsText(String),
    /// Every counter, gauge and histogram of the host's registry.
    MetricsSnapshot(MetricsSnapshot),
    /// Retained trace events, oldest first, post-filter.
    Trace(Vec<WireTraceEvent>),
    /// Engine liveness summary.
    Health(HealthSummary),
}

/// One client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake (magic and version already verified by the decoder).
    Hello {
        /// Protocol revision the client speaks.
        version: u16,
    },
    /// Register `text` under the client-chosen `handle` (re-preparing a
    /// handle rebinds it, like named statements in other wire protocols).
    Prepare {
        /// Client-chosen handle for subsequent EXECUTEs.
        handle: u32,
        /// Statement text, `$name` parameters included.
        text: String,
        /// Request tracing context.
        trace: Option<TraceContext>,
    },
    /// Execute a prepared handle with named bindings.
    Execute {
        /// Handle from an earlier PREPARE on this connection.
        handle: u32,
        /// Named parameter values.
        params: Params,
        /// Request tracing context.
        trace: Option<TraceContext>,
    },
    /// Parse and serve a parameterless statement text.
    Run {
        /// Statement text.
        text: String,
        /// Request tracing context.
        trace: Option<TraceContext>,
    },
    /// Scrape an observability surface.
    Observe(ObserveRequest),
    /// Route subsequent requests on this connection to the named tenant.
    /// Handles prepared before the switch stay bound to the tenant that
    /// prepared them.
    Use {
        /// Tenant name as registered with the host.
        tenant: String,
    },
    /// Orderly close.
    Goodbye,
}

impl Request {
    /// The tracing context stamped on this request, if any.
    pub fn trace(&self) -> Option<TraceContext> {
        match self {
            Request::Prepare { trace, .. }
            | Request::Execute { trace, .. }
            | Request::Run { trace, .. } => *trace,
            _ => None,
        }
    }
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The server's protocol revision ([`PROTOCOL_VERSION`]).
        version: u16,
    },
    /// PREPARE succeeded.
    Prepared {
        /// The handle the client chose.
        handle: u32,
        /// The statement's typed parameter signature.
        signature: ParamSignature,
    },
    /// One chunk of result rows.
    Rows {
        /// The rows in this chunk.
        rows: Vec<Row>,
    },
    /// End of a result stream.
    Summary {
        /// Matches enumerated (before aggregation/windowing); a plain
        /// window stops at `SKIP + LIMIT`.
        matches: u64,
        /// Total rows streamed for this result.
        rows: u64,
    },
    /// Request failed.
    Error {
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// OBSERVE answered.
    Observe(ObserveReply),
    /// USE accepted.
    UseOk {
        /// The tenant now routing this connection.
        tenant: String,
    },
    /// GOODBYE acknowledged.
    GoodbyeOk,
}

/// Encodes a request as `(opcode, payload)`.
pub fn encode_request(request: &Request) -> (u8, Vec<u8>) {
    let mut buf = Vec::with_capacity(64);
    let op = match request {
        Request::Hello { version } => {
            put_u32(&mut buf, PROTOCOL_MAGIC);
            put_u16(&mut buf, *version);
            opcode::HELLO
        }
        Request::Prepare { handle, text, trace } => {
            put_u32(&mut buf, *handle);
            put_str32(&mut buf, text);
            put_trace(&mut buf, *trace);
            opcode::PREPARE
        }
        Request::Execute { handle, params, trace } => {
            put_u32(&mut buf, *handle);
            put_count(&mut buf, params.len());
            for (name, value) in params.iter() {
                put_str32(&mut buf, name);
                put_value(&mut buf, value);
            }
            put_trace(&mut buf, *trace);
            opcode::EXECUTE
        }
        Request::Run { text, trace } => {
            put_str32(&mut buf, text);
            put_trace(&mut buf, *trace);
            opcode::RUN
        }
        Request::Observe(observe) => {
            match observe {
                ObserveRequest::MetricsText => put_u8(&mut buf, 0),
                ObserveRequest::MetricsSnapshot => put_u8(&mut buf, 1),
                ObserveRequest::Trace { trace_id } => {
                    put_u8(&mut buf, 2);
                    put_u64(&mut buf, *trace_id);
                }
                ObserveRequest::Health => put_u8(&mut buf, 3),
            }
            opcode::OBSERVE
        }
        Request::Use { tenant } => {
            put_str32(&mut buf, tenant);
            opcode::USE
        }
        Request::Goodbye => opcode::GOODBYE,
    };
    (op, buf)
}

/// Runs `body` over the whole payload of one `what` message: any
/// [`DecodeError`] — trailing bytes included — is [`ErrorCode::Malformed`].
fn decode_payload<T>(
    payload: &[u8],
    what: &str,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, ProtoViolation> {
    let mut r = Reader::new(payload);
    body(&mut r).and_then(|message| r.finish().map(|()| message)).map_err(|err| ProtoViolation {
        code: ErrorCode::Malformed,
        message: format!("malformed {what} payload: {}", err.0),
    })
}

/// Decodes a request frame. Every failure carries the [`ErrorCode`] the
/// server should answer with.
pub fn decode_request(op: u8, payload: &[u8]) -> Result<Request, ProtoViolation> {
    match op {
        opcode::HELLO => {
            let (magic, version) = decode_payload(payload, "HELLO", |r| Ok((r.u32()?, r.u16()?)))?;
            if magic != PROTOCOL_MAGIC {
                return Err(ProtoViolation::handshake(format!(
                    "bad magic {magic:#010x} (expected {PROTOCOL_MAGIC:#010x})"
                )));
            }
            if version != PROTOCOL_VERSION {
                return Err(ProtoViolation::handshake(format!(
                    "unsupported version {version} (this server speaks only {PROTOCOL_VERSION})"
                )));
            }
            Ok(Request::Hello { version })
        }
        opcode::PREPARE => decode_payload(payload, "PREPARE", |r| {
            Ok(Request::Prepare { handle: r.u32()?, text: read_string(r)?, trace: read_trace(r)? })
        }),
        opcode::EXECUTE => decode_payload(payload, "EXECUTE", |r| {
            let handle = r.u32()?;
            let mut params = Params::new();
            // A binding is at least a str32 prefix and a value tag.
            for _ in 0..r.count(5)? {
                let name = read_string(r)?;
                params.insert(name, read_value(r)?);
            }
            Ok(Request::Execute { handle, params, trace: read_trace(r)? })
        }),
        opcode::RUN => decode_payload(payload, "RUN", |r| {
            Ok(Request::Run { text: read_string(r)?, trace: read_trace(r)? })
        }),
        opcode::OBSERVE => decode_payload(payload, "OBSERVE", |r| {
            Ok(Request::Observe(match r.u8()? {
                0 => ObserveRequest::MetricsText,
                1 => ObserveRequest::MetricsSnapshot,
                2 => ObserveRequest::Trace { trace_id: r.u64()? },
                3 => ObserveRequest::Health,
                _ => return Err(DecodeError("unknown observe mode")),
            }))
        }),
        opcode::USE => {
            decode_payload(payload, "USE", |r| Ok(Request::Use { tenant: read_string(r)? }))
        }
        opcode::GOODBYE => decode_payload(payload, "GOODBYE", |_| Ok(Request::Goodbye)),
        other => Err(ProtoViolation::unknown_opcode("request", other)),
    }
}

/// Encodes a response as `(opcode, payload)`.
pub fn encode_response(response: &Response) -> (u8, Vec<u8>) {
    let mut buf = Vec::with_capacity(64);
    let op = match response {
        Response::HelloOk { version } => {
            put_u16(&mut buf, *version);
            opcode::HELLO_OK
        }
        Response::Prepared { handle, signature } => {
            put_u32(&mut buf, *handle);
            put_count(&mut buf, signature.len());
            for spec in signature.specs() {
                put_str32(&mut buf, &spec.name);
                put_u8(
                    &mut buf,
                    match spec.kind {
                        ParamKind::Value => 0,
                        ParamKind::Count => 1,
                    },
                );
            }
            opcode::PREPARED
        }
        Response::Rows { rows } => {
            put_count(&mut buf, rows.len());
            for row in rows {
                put_count(&mut buf, row.len());
                row.iter().for_each(|value| put_value(&mut buf, value));
            }
            opcode::ROWS
        }
        Response::Summary { matches, rows } => {
            put_u64(&mut buf, *matches);
            put_u64(&mut buf, *rows);
            opcode::SUMMARY
        }
        Response::Error { code, message } => {
            put_u16(&mut buf, *code as u16);
            put_str32(&mut buf, message);
            opcode::ERROR
        }
        Response::Observe(reply) => {
            match reply {
                ObserveReply::MetricsText(text) => {
                    put_u8(&mut buf, 0);
                    put_str32(&mut buf, text);
                }
                ObserveReply::MetricsSnapshot(snapshot) => {
                    put_u8(&mut buf, 1);
                    put_metrics(&mut buf, snapshot);
                }
                ObserveReply::Trace(events) => {
                    put_u8(&mut buf, 2);
                    put_count(&mut buf, events.len());
                    events.iter().for_each(|event| put_trace_event(&mut buf, event));
                }
                ObserveReply::Health(health) => {
                    put_u8(&mut buf, 3);
                    put_u64(&mut buf, health.served);
                    put_u64(&mut buf, health.epoch);
                    put_u64(&mut buf, health.schema_generation);
                    put_f64(&mut buf, health.drift);
                    for window in &health.windows {
                        put_u64(&mut buf, window.window_secs);
                        put_u64(&mut buf, window.requests);
                        put_u64(&mut buf, window.errors);
                    }
                    put_u64(&mut buf, health.trace_dropped);
                }
            }
            opcode::OBSERVE_OK
        }
        Response::UseOk { tenant } => {
            put_str32(&mut buf, tenant);
            opcode::USE_OK
        }
        Response::GoodbyeOk => opcode::GOODBYE_OK,
    };
    (op, buf)
}

/// Decodes a response frame (the client side of [`decode_request`]).
pub fn decode_response(op: u8, payload: &[u8]) -> Result<Response, ProtoViolation> {
    match op {
        opcode::HELLO_OK => {
            decode_payload(payload, "HELLO_OK", |r| Ok(Response::HelloOk { version: r.u16()? }))
        }
        opcode::PREPARED => decode_payload(payload, "PREPARED", |r| {
            let handle = r.u32()?;
            // A spec is a str32 prefix and a kind byte.
            let count = r.count(5)?;
            let mut specs = Vec::with_capacity(count);
            for _ in 0..count {
                let name = read_string(r)?;
                let kind = match r.u8()? {
                    0 => ParamKind::Value,
                    1 => ParamKind::Count,
                    _ => return Err(DecodeError("unknown parameter kind")),
                };
                specs.push(ParamSpec { name, kind });
            }
            Ok(Response::Prepared { handle, signature: ParamSignature::from_specs(specs) })
        }),
        opcode::ROWS => decode_payload(payload, "ROWS", |r| {
            // A row is at least its column count.
            let count = r.count(4)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                let cols = r.count(1)?;
                let mut row = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(read_value(r)?);
                }
                rows.push(row);
            }
            Ok(Response::Rows { rows })
        }),
        opcode::SUMMARY => decode_payload(payload, "SUMMARY", |r| {
            Ok(Response::Summary { matches: r.u64()?, rows: r.u64()? })
        }),
        opcode::ERROR => decode_payload(payload, "ERROR", |r| {
            let code = ErrorCode::from_u16(r.u16()?).ok_or(DecodeError("unknown error code"))?;
            Ok(Response::Error { code, message: read_string(r)? })
        }),
        opcode::OBSERVE_OK => decode_payload(payload, "OBSERVE_OK", |r| {
            Ok(Response::Observe(match r.u8()? {
                0 => ObserveReply::MetricsText(read_string(r)?),
                1 => ObserveReply::MetricsSnapshot(read_metrics(r)?),
                2 => {
                    // seq, at, span id, name prefix, duration flag, field count.
                    let count = r.count(8 + 8 + 8 + 4 + 1 + 4)?;
                    let mut events = Vec::with_capacity(count);
                    for _ in 0..count {
                        events.push(read_trace_event(r)?);
                    }
                    ObserveReply::Trace(events)
                }
                3 => {
                    let (served, epoch, schema_generation) = (r.u64()?, r.u64()?, r.u64()?);
                    let drift = r.f64()?;
                    let mut windows = [WindowRates::default(); 3];
                    for window in &mut windows {
                        *window = WindowRates {
                            window_secs: r.u64()?,
                            requests: r.u64()?,
                            errors: r.u64()?,
                        };
                    }
                    ObserveReply::Health(HealthSummary {
                        served,
                        epoch,
                        schema_generation,
                        drift,
                        windows,
                        trace_dropped: r.u64()?,
                    })
                }
                _ => return Err(DecodeError("unknown observe mode")),
            }))
        }),
        opcode::USE_OK => {
            decode_payload(payload, "USE_OK", |r| Ok(Response::UseOk { tenant: read_string(r)? }))
        }
        opcode::GOODBYE_OK => decode_payload(payload, "GOODBYE_OK", |_| Ok(Response::GoodbyeOk)),
        other => Err(ProtoViolation::unknown_opcode("response", other)),
    }
}

// ---- payload pieces -------------------------------------------------------

fn read_string(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    Ok(r.str32()?.to_owned())
}

/// Writes the 16-byte trace trailer; `None` and a zero trace id both write
/// zeros, so an untraced request has one encoding.
fn put_trace(buf: &mut Vec<u8>, trace: Option<TraceContext>) {
    let ctx = trace.filter(|ctx| ctx.trace_id != 0).unwrap_or_default();
    put_u64(buf, ctx.trace_id);
    put_u64(buf, ctx.parent_span);
}

fn read_trace(r: &mut Reader<'_>) -> Result<Option<TraceContext>, DecodeError> {
    let ctx = TraceContext { trace_id: r.u64()?, parent_span: r.u64()? };
    Ok((ctx.trace_id != 0).then_some(ctx))
}

fn put_trace_event(buf: &mut Vec<u8>, event: &WireTraceEvent) {
    put_u64(buf, event.seq);
    put_u64(buf, event.at.as_nanos() as u64);
    put_u64(buf, event.span_id);
    put_str32(buf, &event.name);
    match event.duration {
        Some(duration) => {
            put_u8(buf, 1);
            put_u64(buf, duration.as_nanos() as u64);
        }
        None => put_u8(buf, 0),
    }
    put_count(buf, event.fields.len());
    for (key, value) in &event.fields {
        put_str32(buf, key);
        match value {
            FieldValue::U64(v) => {
                put_u8(buf, 0);
                put_u64(buf, *v);
            }
            FieldValue::I64(v) => {
                put_u8(buf, 1);
                put_i64(buf, *v);
            }
            FieldValue::F64(v) => {
                put_u8(buf, 2);
                put_f64(buf, *v);
            }
            FieldValue::Str(v) => {
                put_u8(buf, 3);
                put_str32(buf, v);
            }
        }
    }
}

fn read_trace_event(r: &mut Reader<'_>) -> Result<WireTraceEvent, DecodeError> {
    let seq = r.u64()?;
    let at = Duration::from_nanos(r.u64()?);
    let span_id = r.u64()?;
    let name = read_string(r)?;
    let duration = match r.u8()? {
        0 => None,
        1 => Some(Duration::from_nanos(r.u64()?)),
        _ => return Err(DecodeError("bad duration flag")),
    };
    // A field is at least a str32 prefix and a tagged 4-byte payload.
    let count = r.count(9)?;
    let mut fields = Vec::with_capacity(count);
    for _ in 0..count {
        let key = read_string(r)?;
        let value = match r.u8()? {
            0 => FieldValue::U64(r.u64()?),
            1 => FieldValue::I64(r.i64()?),
            2 => FieldValue::F64(r.f64()?),
            3 => FieldValue::Str(read_string(r)?),
            _ => return Err(DecodeError("unknown field tag")),
        };
        fields.push((key, value));
    }
    Ok(WireTraceEvent { seq, at, span_id, name, duration, fields })
}

/// The OBSERVE snapshot body: `count { str32, u64 }` counters, `count
/// { str32, f64 }` gauges, `count { str32, count { u32 bucket, u64 n },
/// u64 count, u64 sum, u64 min, u64 max }` histograms.
fn put_metrics(buf: &mut Vec<u8>, snapshot: &MetricsSnapshot) {
    put_count(buf, snapshot.counters.len());
    for (name, value) in &snapshot.counters {
        put_str32(buf, name);
        put_u64(buf, *value);
    }
    put_count(buf, snapshot.gauges.len());
    for (name, value) in &snapshot.gauges {
        put_str32(buf, name);
        put_f64(buf, *value);
    }
    put_count(buf, snapshot.histograms.len());
    for (name, hist) in &snapshot.histograms {
        put_str32(buf, name);
        put_count(buf, hist.buckets.len());
        for &(index, n) in &hist.buckets {
            put_u32(buf, index);
            put_u64(buf, n);
        }
        for v in [hist.count, hist.sum, hist.min, hist.max] {
            put_u64(buf, v);
        }
    }
}

fn read_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, DecodeError> {
    let mut snapshot = MetricsSnapshot::default();
    for _ in 0..r.count(4 + 8)? {
        snapshot.counters.push((read_string(r)?, r.u64()?));
    }
    for _ in 0..r.count(4 + 8)? {
        snapshot.gauges.push((read_string(r)?, r.f64()?));
    }
    for _ in 0..r.count(4 + 4 + 4 * 8)? {
        let name = read_string(r)?;
        let mut hist = HistogramSnapshot::default();
        for _ in 0..r.count(4 + 8)? {
            hist.buckets.push((r.u32()?, r.u64()?));
        }
        (hist.count, hist.sum, hist.min, hist.max) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        snapshot.histograms.push((name, hist));
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_graphstore::PropertyValue;

    fn roundtrip_request(request: Request) {
        let (op, payload) = encode_request(&request);
        assert_eq!(decode_request(op, &payload).expect("decodes"), request);
    }

    fn roundtrip_response(response: Response) {
        let (op, payload) = encode_response(&response);
        assert_eq!(decode_response(op, &payload).expect("decodes"), response);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Hello { version: PROTOCOL_VERSION });
        roundtrip_request(Request::Prepare {
            handle: 3,
            text: "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n".into(),
            trace: None,
        });
        roundtrip_request(Request::Execute {
            handle: 3,
            params: Params::new().set("needle", "aspirin").set("n", 5i64),
            trace: None,
        });
        roundtrip_request(Request::Run {
            text: "MATCH (d:Drug) RETURN d.name".into(),
            trace: None,
        });
        roundtrip_request(Request::Use { tenant: "alpha".into() });
        roundtrip_request(Request::Goodbye);
    }

    #[test]
    fn use_frames_roundtrip_and_truncations_are_malformed() {
        roundtrip_response(Response::UseOk { tenant: "alpha".into() });
        roundtrip_response(Response::Error {
            code: ErrorCode::UnknownTenant,
            message: "unknown tenant `ghost`".into(),
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::QuotaExceeded,
            message: "tenant `alpha` quota exceeded: inflight limit 2".into(),
        });
        let (op, payload) = encode_request(&Request::Use { tenant: "alpha".into() });
        assert_eq!(op, opcode::USE);
        for cut in 0..payload.len() {
            let violation = decode_request(op, &payload[..cut]).unwrap_err();
            assert_eq!(violation.code, ErrorCode::Malformed, "cut at {cut}");
        }
        assert_eq!(
            decode_request(op, &[payload, vec![1u8]].concat()).unwrap_err().code,
            ErrorCode::Malformed
        );
    }

    #[test]
    fn traced_requests_roundtrip() {
        let trace = Some(TraceContext { trace_id: 0xdead_beef_cafe_f00d, parent_span: 42 });
        roundtrip_request(Request::Prepare { handle: 1, text: "MATCH (d:Drug)".into(), trace });
        roundtrip_request(Request::Execute {
            handle: 1,
            params: Params::new().set("n", 5i64),
            trace,
        });
        roundtrip_request(Request::Run { text: "MATCH (d:Drug) RETURN d.name".into(), trace });
        // A zero trace id means untraced: no trailer on the wire.
        let (_, with_zero) = encode_request(&Request::Run {
            text: "x".into(),
            trace: Some(TraceContext { trace_id: 0, parent_span: 9 }),
        });
        let (_, without) = encode_request(&Request::Run { text: "x".into(), trace: None });
        assert_eq!(with_zero, without);
    }

    #[test]
    fn prepare_without_its_trailer_is_malformed() {
        // A revision-1 PREPARE: the same payload without the 16-byte trace
        // trailer. Revision 4 always carries it.
        let (op, payload) = encode_request(&Request::Prepare {
            handle: 7,
            text: "MATCH (d:Drug) RETURN d.name".into(),
            trace: None,
        });
        let violation = decode_request(op, &payload[..payload.len() - 16]).unwrap_err();
        assert_eq!(violation.code, ErrorCode::Malformed);
    }

    #[test]
    fn observe_requests_roundtrip() {
        roundtrip_request(Request::Observe(ObserveRequest::MetricsText));
        roundtrip_request(Request::Observe(ObserveRequest::MetricsSnapshot));
        roundtrip_request(Request::Observe(ObserveRequest::Trace { trace_id: 77 }));
        roundtrip_request(Request::Observe(ObserveRequest::Health));
        let (op, payload) = encode_request(&Request::Observe(ObserveRequest::Health));
        assert_eq!(op, opcode::OBSERVE);
        assert_eq!(
            decode_request(op, &[payload, vec![9u8]].concat()).unwrap_err().code,
            ErrorCode::Malformed
        );
    }

    #[test]
    fn observe_replies_roundtrip() {
        roundtrip_response(Response::Observe(ObserveReply::MetricsText(
            "query_latency_count 3\n".into(),
        )));
        roundtrip_response(Response::Observe(ObserveReply::MetricsSnapshot(sample_metrics())));
        roundtrip_response(Response::Observe(ObserveReply::Trace(vec![
            WireTraceEvent {
                seq: 4,
                at: Duration::from_micros(12),
                span_id: 99,
                name: "server.serve".into(),
                duration: Some(Duration::from_nanos(1234)),
                fields: vec![
                    ("rows".into(), FieldValue::U64(7)),
                    ("drift".into(), FieldValue::F64(0.25)),
                    ("delta".into(), FieldValue::I64(-3)),
                    ("fingerprint".into(), FieldValue::Str("abc".into())),
                ],
            },
            WireTraceEvent {
                seq: 5,
                at: Duration::from_micros(13),
                span_id: 0,
                name: "net.request".into(),
                duration: None,
                fields: vec![],
            },
        ])));
        roundtrip_response(Response::Observe(ObserveReply::Health(HealthSummary {
            served: 10,
            epoch: 2,
            schema_generation: 3,
            drift: 0.125,
            windows: [
                WindowRates { window_secs: 1, requests: 5, errors: 0 },
                WindowRates { window_secs: 10, requests: 9, errors: 1 },
                WindowRates { window_secs: 60, requests: 10, errors: 1 },
            ],
            trace_dropped: 4,
        })));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::HelloOk { version: PROTOCOL_VERSION });
        roundtrip_response(Response::Prepared {
            handle: 3,
            signature: ParamSignature::from_specs([
                ParamSpec { name: "needle".into(), kind: ParamKind::Value },
                ParamSpec { name: "n".into(), kind: ParamKind::Count },
            ]),
        });
        roundtrip_response(Response::Rows {
            rows: vec![
                vec![PropertyValue::Str("a".into()), PropertyValue::Int(1)],
                vec![PropertyValue::Null, PropertyValue::Bool(true)],
                vec![PropertyValue::List(vec![PropertyValue::Float(2.5)])],
            ],
        });
        roundtrip_response(Response::Summary { matches: 7, rows: 3 });
        roundtrip_response(Response::Error {
            code: ErrorCode::Parse,
            message: "expected MATCH".into(),
        });
        roundtrip_response(Response::GoodbyeOk);
    }

    fn hello(magic: u32, version: u16) -> Vec<u8> {
        let mut payload = Vec::new();
        pgso_graphstore::codec::put_u32(&mut payload, magic);
        put_u16(&mut payload, version);
        payload
    }

    #[test]
    fn bad_magic_is_a_handshake_violation() {
        let violation =
            decode_request(opcode::HELLO, &hello(0xdead_beef, PROTOCOL_VERSION)).unwrap_err();
        assert_eq!(violation.code, ErrorCode::BadHandshake);
    }

    #[test]
    fn only_the_one_revision_shakes_hands() {
        for version in [0, 1, 2, 3, PROTOCOL_VERSION + 1] {
            let violation = decode_request(opcode::HELLO, &hello(PROTOCOL_MAGIC, version))
                .expect_err("older and newer revisions are refused");
            assert_eq!(violation.code, ErrorCode::BadHandshake, "revision {version}");
            assert!(violation.message.contains(&version.to_string()), "{}", violation.message);
        }
        assert_eq!(
            decode_request(opcode::HELLO, &hello(PROTOCOL_MAGIC, PROTOCOL_VERSION)),
            Ok(Request::Hello { version: PROTOCOL_VERSION })
        );
    }

    #[test]
    fn truncated_and_trailing_payloads_are_malformed_not_panics() {
        let (op, payload) = encode_request(&Request::Execute {
            handle: 1,
            params: Params::new().set("k", 1i64),
            trace: None,
        });
        for cut in 0..payload.len() {
            let violation = decode_request(op, &payload[..cut]).unwrap_err();
            assert_eq!(violation.code, ErrorCode::Malformed, "cut at {cut}");
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert_eq!(decode_request(op, &extended).unwrap_err().code, ErrorCode::Malformed);
        assert_eq!(decode_request(0x77, &payload).unwrap_err().code, ErrorCode::UnknownOpcode);
    }

    fn sample_metrics() -> MetricsSnapshot {
        let registry = pgso_telemetry::MetricsRegistry::new();
        registry.counter("wal.appends").add(9);
        registry.gauge("drift").set(-1.5);
        let h = registry.histogram("query.latency");
        for v in [1u64, 2, 3, 1_000_000, u64::MAX] {
            h.record(v);
        }
        registry.snapshot()
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let snapshot = sample_metrics();
        roundtrip_response(Response::Observe(ObserveReply::MetricsSnapshot(snapshot.clone())));
        roundtrip_response(Response::Observe(ObserveReply::MetricsSnapshot(
            MetricsSnapshot::default(),
        )));
        assert_eq!(snapshot.counter("wal.appends"), Some(9));
    }

    #[test]
    fn snapshot_codec_rejects_garbage() {
        let malformed = |payload: &[u8]| {
            decode_response(opcode::OBSERVE_OK, payload).map_err(|violation| violation.code)
        };
        assert_eq!(malformed(&[]), Err(ErrorCode::Malformed));
        assert_eq!(malformed(&[1, 9, 9, 0, 0]), Err(ErrorCode::Malformed), "impossible count");
        let (_, mut payload) =
            encode_response(&Response::Observe(ObserveReply::MetricsSnapshot(sample_metrics())));
        for cut in 0..payload.len() {
            assert_eq!(malformed(&payload[..cut]), Err(ErrorCode::Malformed), "cut at {cut}");
        }
        payload.push(0);
        assert_eq!(malformed(&payload), Err(ErrorCode::Malformed), "trailing bytes rejected");
    }
}

//! pgso-net: binary wire protocol + TCP connection layer, so a
//! [`pgso_server::KgServer`] serves real clients over a socket instead of
//! only in-process calls.
//!
//! The stack, bottom to top:
//!
//! * [`frame`] — length-delimited framing (`len(u32 le) opcode(u8) payload`)
//!   with an incremental [`frame::FrameReader`] that tolerates torn reads and
//!   rejects pathological length prefixes before allocating;
//! * [`proto`] — typed requests/responses and their payload codec, reusing
//!   the workspace value encoding ([`pgso_graphstore::codec`]) for parameters
//!   and result cells;
//! * [`KgListener`] — the serving side: one accept thread and one thread
//!   per connection, which reads, handles every request in receive order
//!   against the engines, and writes the replies. A listener fronts a
//!   [`pgso_tenant::TenantHost`] ([`KgListener::bind_host`]) — many
//!   independent tenant graphs behind one socket, selected per connection
//!   with the `USE` request — while [`KgListener::bind`] keeps
//!   the single-server shape (the server becomes the host's sole `default`
//!   tenant). Connections are pipelined (many requests queued; responses
//!   strictly in request order) and drain gracefully on
//!   [`KgListener::shutdown`];
//! * [`KgClient`] — a blocking client with the same prepare/execute shape as
//!   the in-process API, plus explicit [`KgClient::send_execute`] /
//!   [`KgClient::recv_result`] for pipelining and
//!   [`KgClient::use_tenant`] for tenant selection.
//!
//! Wire observability threads through the host's shared telemetry registry
//! as `net.*` series (see [`NetTelemetry`]), so one `metrics_text()`
//! exposition covers the connection layer and every tenant engine. The full
//! wire format is documented in `crates/net/README.md`.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod listener;
pub mod proto;
pub mod telemetry;

pub use client::{KgClient, NetError, NetPrepared, NetResult};
pub use frame::{FrameError, FrameReader, MAX_FRAME_LEN};
pub use listener::{ConnectionReport, KgListener, NetConfig, NetRunReport, ShutdownReport};
pub use proto::{
    ErrorCode, ObserveReply, ObserveRequest, ProtoViolation, Request, Response, TraceContext,
    WireTraceEvent, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
pub use telemetry::NetTelemetry;

//! Wire-layer observability: `net.*` instruments registered into the
//! host's shared [`pgso_telemetry::MetricsRegistry`], so one
//! [`pgso_tenant::TenantHost::metrics_text`] exposition covers the
//! connection layer and every tenant engine behind it. (For a single-server
//! listener the host registry *is* the server's own registry —
//! [`pgso_tenant::TenantHost::single`] — so the exposition is unchanged
//! from pre-tenancy builds.)
//!
//! # Metric names
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `net.connections.open` | gauge | currently connected peers |
//! | `net.connections.total` | counter | connections ever accepted |
//! | `net.bytes.in` / `net.bytes.out` | counter | payload bytes read from / written to sockets |
//! | `net.requests` | counter | frames decoded into requests |
//! | `net.errors` | counter | ERROR responses sent (all tenants) |
//! | `net.request.latency` | histogram | wire latency of EXECUTE/RUN: frame decoded → response encoded, ns |
//! | `net.slow_requests` | counter | wire requests past [`crate::NetConfig::slow_request_threshold`] |
//!
//! The wire counters are listener-global (sockets are shared
//! infrastructure); everything tenant-scoped — the rolling error windows
//! behind each tenant's health summary and the trace rings slow-request /
//! traced-request events land in — is routed to the tenant serving the
//! request, which is why [`NetTelemetry::record_request`] and
//! [`NetTelemetry::record_traced_request`] take the target trace ring as an
//! argument.
//!
//! Past the threshold a structured `net.slow_request` trace event lands in
//! the serving tenant's trace ring with the connection id, request sequence
//! number and opcode. Requests stamped with a wire [`crate::TraceContext`]
//! additionally close a `net.request` span under the client's trace id —
//! the outermost span of the socket → engine → query → WAL chain.

use pgso_telemetry::{Counter, FieldValue, Gauge, Histogram, TraceBuffer};
use pgso_tenant::TenantHost;
use std::sync::Arc;
use std::time::Duration;

/// Pre-resolved `net.*` instrument handles (one set per listener).
#[derive(Debug)]
pub struct NetTelemetry {
    /// `net.connections.open`.
    pub connections_open: Arc<Gauge>,
    /// `net.connections.total`.
    pub connections_total: Arc<Counter>,
    /// `net.bytes.in`.
    pub bytes_in: Arc<Counter>,
    /// `net.bytes.out`.
    pub bytes_out: Arc<Counter>,
    /// `net.requests`.
    pub requests: Arc<Counter>,
    /// `net.errors`.
    pub errors: Arc<Counter>,
    /// `net.request.latency`.
    pub request_latency: Arc<Histogram>,
    /// `net.slow_requests`.
    pub slow_requests: Arc<Counter>,
    slow_threshold: Option<Duration>,
}

impl NetTelemetry {
    /// Resolves the `net.*` instruments in the host's shared registry;
    /// `None` when the host runs with telemetry disabled (the wire path
    /// then performs no clock reads or metric updates, matching the
    /// engines).
    pub fn for_host(host: &TenantHost, slow_threshold: Option<Duration>) -> Option<Self> {
        if !host.telemetry_enabled() {
            return None;
        }
        let registry = host.registry();
        Some(Self {
            connections_open: registry.gauge("net.connections.open"),
            connections_total: registry.counter("net.connections.total"),
            bytes_in: registry.counter("net.bytes.in"),
            bytes_out: registry.counter("net.bytes.out"),
            requests: registry.counter("net.requests"),
            errors: registry.counter("net.errors"),
            request_latency: registry.histogram("net.request.latency"),
            slow_requests: registry.counter("net.slow_requests"),
            slow_threshold,
        })
    }

    /// Counts one ERROR response in the listener-global `net.errors`
    /// counter. The per-tenant error-rate window is the caller's job — it
    /// knows which tenant the failing request was routed to.
    pub fn record_error(&self) {
        self.errors.inc();
    }

    /// Records the wire latency of one completed request and, past the
    /// configured threshold, emits the `net.slow_request` trace event into
    /// the serving tenant's ring (`trace` — `None` when the tenant has no
    /// telemetry, which skips the event but still records the latency).
    pub fn record_request(
        &self,
        trace: Option<&Arc<TraceBuffer>>,
        conn_id: u64,
        seq: u64,
        op: u8,
        elapsed: Duration,
    ) {
        self.request_latency.record_duration(elapsed);
        let Some(threshold) = self.slow_threshold else {
            return;
        };
        if elapsed < threshold {
            return;
        }
        self.slow_requests.inc();
        if let Some(trace) = trace {
            trace.emit_with_duration(
                "net.slow_request",
                0,
                elapsed,
                vec![
                    ("conn", FieldValue::from(conn_id)),
                    ("seq", FieldValue::from(seq)),
                    ("opcode", FieldValue::from(op as u64)),
                ],
            );
        }
    }

    /// Closes the `net.request` span for a traced request: the wire-level
    /// event tying the client-supplied trace id to this connection, emitted
    /// into the serving tenant's ring. Emitted only when the request
    /// carried a [`crate::TraceContext`], so untraced hot-path requests
    /// never touch the ring.
    pub fn record_traced_request(
        &self,
        trace: Option<&Arc<TraceBuffer>>,
        trace_id: u64,
        conn_id: u64,
        seq: u64,
        elapsed: Duration,
    ) {
        if let Some(trace) = trace {
            trace.emit_with_duration(
                "net.request",
                trace_id,
                elapsed,
                vec![("conn", FieldValue::from(conn_id)), ("seq", FieldValue::from(seq))],
            );
        }
    }
}

//! # pgso-telemetry
//!
//! Observability layer for the pgso serving stack: a lock-cheap
//! [`MetricsRegistry`] (atomic [`Counter`]s, [`Gauge`]s, and log-scaled
//! latency [`Histogram`]s with mergeable snapshots and p50/p90/p99
//! queries) plus a bounded ring-buffer structured trace ([`TraceBuffer`]).
//!
//! Design constraints, in order:
//!
//! 1. **Recording must be cheap enough to leave on.** Counters and
//!    histograms record through relaxed atomic adds — no locks, no
//!    allocation. A histogram record is a handful of instructions:
//!    a leading-zeros bucket index, one `fetch_add` into the bucket,
//!    and count/sum/min/max updates. Trace emission takes one short
//!    mutex section and is reserved for coarser-grained events
//!    (per-query, not per-vertex).
//! 2. **Bounded memory.** A histogram is a fixed 496-bucket array
//!    (8 sub-buckets per power of two ⇒ ≤12.5% relative error over the
//!    full `u64` range); the trace ring overwrites its oldest event at
//!    capacity and counts the drops.
//! 3. **Mergeable.** Per-thread or per-tenant histograms merge exactly at
//!    bucket resolution ([`Histogram::merge_from`],
//!    [`HistogramSnapshot::merged`]), so the bench harness can aggregate
//!    worker-local recordings without contention.
//!
//! Snapshots render to a Prometheus-style text exposition
//! ([`MetricsSnapshot::render_text`]); their binary form is part of
//! `pgso-net`'s OBSERVE reply, the one place a snapshot leaves the process. [`StageTimings`] is the
//! shared per-query cost breakdown the executor fills in.
//!
//! Two request-scoped facilities round out the layer: [`RollingWindows`]
//! answers "q/s and error rate over the last 1 s / 10 s / 60 s" from a
//! lock-free ring of per-second buckets, and [`set_current_trace`] installs
//! a thread-local `(trace id, parent span)` so subsystems deep in a serving
//! call stack can stamp their [`TraceBuffer`] events with the wire-supplied
//! trace id ([`current_trace_id`]).

#![warn(missing_docs)]

mod hist;
mod metrics;
mod stage;
mod trace;
mod windows;

pub use hist::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot,
};
pub use metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use stage::StageTimings;
pub use trace::{
    current_trace, current_trace_id, set_current_trace, FieldValue, TraceBuffer, TraceContextGuard,
    TraceEvent,
};
pub use windows::{RollingWindows, WindowRates, WINDOW_SECS};

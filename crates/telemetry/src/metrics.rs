//! The metrics registry: named counters, gauges and histograms.
//!
//! Registration is rare and goes through a `RwLock`-guarded map; the hot
//! path never touches it — callers hold `Arc` handles to the instruments
//! and record through relaxed atomics. [`MetricsRegistry::snapshot`]
//! produces an immutable [`MetricsSnapshot`];
//! [`MetricsSnapshot::render_text`] emits a Prometheus-style text
//! exposition (the binary form ships inside `pgso-net`'s OBSERVE reply).

use crate::hist::{bucket_upper_bound, Histogram, HistogramSnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (also the mirror type for
/// counters maintained by another subsystem, e.g. plan-cache hit counts
/// copied in at snapshot time).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// Registry of named instruments. Names are dotted lowercase paths
/// (`"query.latency"`); the text exposition maps them to Prometheus-legal
/// identifiers. Cloning the returned `Arc` handles once at setup keeps the
/// record path free of any map lookup.
#[derive(Default)]
pub struct MetricsRegistry {
    instruments: RwLock<BTreeMap<String, Instrument>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different instrument
    /// kind — metric names identify one instrument for the process lifetime.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Instrument::Counter(c)) = self.lookup(name, "counter") {
            return c;
        }
        let mut map = self.instruments.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => c.clone(),
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics on an instrument-kind conflict, like
    /// [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Instrument::Gauge(g)) = self.lookup(name, "gauge") {
            return g;
        }
        let mut map = self.instruments.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics on an instrument-kind conflict, like
    /// [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(Instrument::Histogram(h)) = self.lookup(name, "histogram") {
            return h;
        }
        let mut map = self.instruments.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new())))
        {
            Instrument::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn lookup(&self, name: &str, expected: &str) -> Option<Instrument> {
        let map = self.instruments.read();
        let instrument = map.get(name)?;
        assert_eq!(
            instrument.kind(),
            expected,
            "metric `{name}` is a {}, not a {expected}",
            instrument.kind()
        );
        Some(match instrument {
            Instrument::Counter(c) => Instrument::Counter(c.clone()),
            Instrument::Gauge(g) => Instrument::Gauge(g.clone()),
            Instrument::Histogram(h) => Instrument::Histogram(h.clone()),
        })
    }

    /// Immutable copy of every instrument's current value, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.instruments.read();
        let mut snapshot = MetricsSnapshot::default();
        for (name, instrument) in map.iter() {
            match instrument {
                Instrument::Counter(c) => snapshot.counters.push((name.clone(), c.get())),
                Instrument::Gauge(g) => snapshot.gauges.push((name.clone(), g.get())),
                Instrument::Histogram(h) => snapshot.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snapshot
    }

    /// Prometheus-style text exposition of the current state
    /// ([`MetricsSnapshot::render_text`]).
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.instruments.read();
        f.debug_struct("MetricsRegistry").field("instruments", &map.len()).finish()
    }
}

/// Point-in-time copy of a [`MetricsRegistry`]: three sorted
/// name→value lists, one per instrument kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of the gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// State of the histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Prometheus-style text exposition: `# TYPE` headers, `_bucket{le=…}`
    /// cumulative histogram series (non-empty buckets only, plus `+Inf`),
    /// `_sum` and `_count`. Dots in metric names become underscores, which
    /// makes every emitted identifier Prometheus-legal.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let id = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {id} counter");
            let _ = writeln!(out, "{id} {value}");
        }
        for (name, value) in &self.gauges {
            let id = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {id} gauge");
            let _ = writeln!(out, "{id} {value}");
        }
        for (name, hist) in &self.histograms {
            let id = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {id} histogram");
            let mut cumulative = 0u64;
            for &(index, n) in &hist.buckets {
                cumulative += n;
                let le = bucket_upper_bound(index as usize);
                let _ = writeln!(out, "{id}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{id}_bucket{{le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(out, "{id}_sum {}", hist.sum);
            let _ = writeln!(out, "{id}_count {}", hist.count);
        }
        out
    }
}

/// Maps a dotted metric name to a Prometheus-legal identifier.
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("queries.total");
        let b = registry.counter("queries.total");
        assert!(Arc::ptr_eq(&a, &b), "same name must return the same counter");
        a.inc();
        b.add(2);
        assert_eq!(registry.snapshot().counter("queries.total"), Some(3));
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_conflicts_panic() {
        let registry = MetricsRegistry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let registry = MetricsRegistry::new();
        registry.counter("b.count").add(5);
        registry.counter("a.count").add(1);
        registry.gauge("drift").set(0.25);
        registry.histogram("lat").record(100);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.count", "b.count"], "counters sorted by name");
        assert_eq!(snap.gauge("drift"), Some(0.25));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let registry = MetricsRegistry::new();
        registry.counter("queries.total").add(7);
        registry.gauge("plan_cache.hit_ratio").set(0.5);
        let h = registry.histogram("query.latency");
        h.record(3);
        h.record(100);
        let text = registry.render_text();
        assert!(text.contains("# TYPE queries_total counter"), "{text}");
        assert!(text.contains("queries_total 7"), "{text}");
        assert!(text.contains("plan_cache_hit_ratio 0.5"), "{text}");
        assert!(text.contains("# TYPE query_latency histogram"), "{text}");
        assert!(text.contains("query_latency_bucket{le=\"3\"} 1"), "{text}");
        assert!(text.contains("query_latency_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("query_latency_sum 103"), "{text}");
        assert!(text.contains("query_latency_count 2"), "{text}");
    }
}

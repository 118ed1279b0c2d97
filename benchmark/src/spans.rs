//! Benchmark-side span recorder. Spans are recorded around calls into the
//! program's public functions (nothing inside the program is instrumented),
//! kept in memory, and written out when the run ends.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover (overlapping children are counted once,
//! and a child is clipped to its parent).

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by every span of one operation.
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span { name, op, parent, start_ns, end_ns: end_ns.max(start_ns) });
        self.spans.len() - 1
    }

    /// Times `f` as a span that really ran inside its parent's interval.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, op, parent, start, end))
    }

    /// Times `f` *after* its parent finished — a replay of one part of the
    /// parent's work through a public call — and lays the measured duration
    /// inside the parent at `*cursor_ns`, advancing the cursor. Replayed
    /// parts therefore sit back to back in server order.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        cursor_ns: &mut u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let started = Instant::now();
        let out = f();
        let took = started.elapsed().as_nanos() as u64;
        let id = self.record(name, op, Some(parent), *cursor_ns, *cursor_ns + took);
        *cursor_ns += took;
        (out, id)
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| (span.end_ns - span.start_ns) - covered_ns(kids))
            .collect()
    }

    /// Per span name: `(spans recorded, mean duration ns, mean self time ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let self_times = self.self_times_ns();
        let mut acc: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(&self_times) {
            let e = acc.entry(span.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += (span.end_ns - span.start_ns) as f64;
            e.2 += *self_ns as f64;
        }
        for e in acc.values_mut() {
            e.1 /= e.0 as f64;
            e.2 /= e.0 as f64;
        }
        acc
    }

    /// Sum over root spans of duration and of the part their descendants'
    /// self times account for: `(Σ root ns, Σ root self ns)`. The second is
    /// the unattributed remainder.
    pub fn root_totals(&self) -> (u64, u64) {
        let self_times = self.self_times_ns();
        self.spans
            .iter()
            .zip(&self_times)
            .filter(|(span, _)| span.parent.is_none())
            .fold((0, 0), |(d, s), (span, self_ns)| (d + span.end_ns - span.start_ns, s + self_ns))
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let self_times = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .zip(&self_times)
            .map(|((id, s), self_ns)| {
                Json::obj()
                    .with("id", id as u64)
                    .with("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64)))
                    .with("op", s.op)
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", *self_ns)
            })
            .collect();
        Json::obj().with("workload", workload).with("spans", Json::Arr(spans))
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut r = Recorder::new();
        let root = r.record("root", 1, None, 0, 100);
        let a = r.record("a", 1, Some(root), 10, 30);
        r.record("b", 1, Some(root), 50, 60);
        r.record("a.inner", 1, Some(a), 12, 20);
        assert_eq!(r.self_times_ns(), vec![70, 12, 10, 8]);
        assert_eq!(r.root_totals(), (100, 70));
        // Self times of one op's spans add up to its root.
        assert_eq!(r.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_the_parent() {
        let mut r = Recorder::new();
        let root = r.record("root", 1, None, 100, 200);
        r.record("x", 1, Some(root), 110, 150);
        r.record("y", 1, Some(root), 140, 170); // overlaps x by 10
        r.record("late", 1, Some(root), 190, 260); // clipped to 190..200
        r.record("outside", 1, Some(root), 300, 400); // contributes nothing
        assert_eq!(r.self_times_ns()[root], 100 - (60 + 10));
    }

    #[test]
    fn replay_lays_parts_back_to_back_inside_the_parent() {
        let mut r = Recorder::new();
        let root = r.record("root", 7, None, 1_000, 1_000_000_000);
        let mut cursor = 1_000;
        let (v, first) = r.replay("p1", 7, root, &mut cursor, || 41 + 1);
        let (_, second) = r.replay("p2", 7, root, &mut cursor, || ());
        assert_eq!(v, 42);
        let s = r.spans();
        assert_eq!(s[first].start_ns, 1_000);
        assert_eq!(s[second].start_ns, s[first].end_ns);
        assert_eq!(cursor, s[second].end_ns);
        let summary = r.summary();
        assert_eq!(summary["root"].0, 1);
        assert!(summary["root"].2 <= summary["root"].1);
    }
}

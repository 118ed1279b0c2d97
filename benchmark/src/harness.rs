//! The closed-loop round runner and the statistics every workload reports
//! the same way.
//!
//! One client issues the next request only after the previous one returned.
//! A run is several rounds; a reported timing is the median over rounds of
//! the per-round statistic, so one disturbed round cannot move it.

use crate::spans::Recorder;
use crate::stats::{geomean, median, percentile, tail_quantile};
use std::time::{Duration, Instant};

/// How often set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Rounds measured on each build by the workloads that measure on all.
pub const ROUNDS_PER_SETUP: usize = 2;

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a correctness check tripped; a failed operation clears it too.
    pub correct: bool,
    pub metrics: crate::metrics::MetricSet,
    /// Human-readable detail for stderr: sample counts, per-class numbers.
    pub notes: Vec<String>,
}

/// How long the run measures, and whether this is the traced run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smoke run: one round, one set-up.
    pub quick: bool,
}

impl RunSpec {
    /// How often the fixture is built. `setup_s` is the median build time,
    /// and the in-process read workloads spread their rounds over the
    /// builds: how a build's memory happens to be laid out moves their
    /// latency by ±10 % on the reference host, and measuring on every build
    /// turns that per-run state into per-round noise.
    pub fn setups(&self) -> usize {
        if self.traced || self.quick {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// Timed rounds measured on each build.
    pub fn rounds_per_setup(&self) -> usize {
        if self.quick {
            1
        } else {
            ROUNDS_PER_SETUP
        }
    }

    /// Warm-up on each build: a fifth of the measured time in all.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 5.0 / self.setups() as f64)
    }

    /// Length of one round when rounds are spread over the builds.
    pub fn round(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / (self.setups() * self.rounds_per_setup()) as f64)
    }
}

/// Latencies of one round, per statement class, in microseconds as measured.
pub struct Round {
    pub class_us: Vec<Vec<f64>>,
    /// Seconds the round took.
    pub wall_s: f64,
}

impl Round {
    pub fn ops(&self) -> usize {
        self.class_us.iter().map(Vec::len).sum()
    }
}

/// Runs `op(class, index)` round-robin over `classes` classes until
/// `duration` has passed, timing each call. `op` returns false on failure.
pub fn run_round(
    classes: usize,
    duration: Duration,
    next_index: &mut u64,
    failed: &mut u64,
    mut op: impl FnMut(usize, u64) -> bool,
) -> Round {
    let mut class_us: Vec<Vec<f64>> = (0..classes).map(|_| Vec::with_capacity(1 << 14)).collect();
    let started = Instant::now();
    loop {
        for (class, samples) in class_us.iter_mut().enumerate() {
            let t = Instant::now();
            let ok = op(class, *next_index);
            samples.push(t.elapsed().as_nanos() as f64 / 1e3);
            *next_index += 1;
            *failed += u64::from(!ok);
        }
        if started.elapsed() >= duration {
            break;
        }
    }
    Round { class_us, wall_s: started.elapsed().as_secs_f64() }
}

/// The rounds of one run and the statistics derived from them.
#[derive(Default)]
pub struct Timed {
    pub rounds: Vec<Round>,
}

impl Timed {
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops() as u64).sum()
    }

    /// Per-class median latency: the median over rounds of the round's p50.
    pub fn class_p50_us(&self, class: usize) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| !r.class_us[class].is_empty())
            .map(|r| percentile(&mut r.class_us[class].clone(), 0.5))
            .collect();
        median(&per_round)
    }

    fn all_classes(&self) -> Vec<usize> {
        (0..self.rounds[0].class_us.len()).collect()
    }

    /// `query_p50_us`: the geometric mean over statement classes of the
    /// per-class median, so a gain on any class moves it by its ratio and a
    /// mix of unlike classes has no cliff at the 50th percentile.
    pub fn query_p50_us(&self) -> f64 {
        self.p50_geomean_us(&self.all_classes())
    }

    /// [`Timed::query_p50_us`] over a subset of the classes.
    pub fn p50_geomean_us(&self, classes: &[usize]) -> f64 {
        geomean(&classes.iter().map(|&c| self.class_p50_us(c)).collect::<Vec<_>>())
    }

    /// [`Timed::query_p50_us`] with each class's *lowest* per-round p50 in
    /// place of the median over rounds, for `wire_small`. Its rounds are a
    /// tenth of a second on one connection, and what moves them is the host
    /// (a busy neighbour on the core), which only ever slows a round: two
    /// runs of one commit read 167 and 237 us by the median over rounds,
    /// whichever state held for most of the run, and 163 and 187 us by the
    /// quietest round. (The in-process workloads keep the median: their
    /// rounds differ by how each build's memory fell, which goes both ways.)
    pub fn quietest_p50_us(&self) -> f64 {
        let quietest = |class: usize| {
            let p50s = self.rounds.iter().map(|r| percentile(&mut r.class_us[class].clone(), 0.5));
            p50s.fold(f64::NAN, f64::min)
        };
        geomean(&self.all_classes().into_iter().map(quietest).collect::<Vec<_>>())
    }

    /// `query_p99_us`: the tail of the whole mix (p99 when every round has
    /// ten samples beyond it, else the highest percentile that does), with
    /// the percentile used.
    pub fn query_tail_us(&self) -> (f64, f64) {
        self.tail_us(&self.all_classes())
    }

    /// [`Timed::query_tail_us`] over a subset of the classes: the median
    /// over groups of consecutive rounds of each group's p99, a group being
    /// as few rounds as give every group the thousand samples a p99 needs
    /// (ten beyond it). When even all rounds together have fewer, one group
    /// at p95 or p90.
    pub fn tail_us(&self, classes: &[usize]) -> (f64, f64) {
        let per_round: Vec<Vec<f64>> = self
            .rounds
            .iter()
            .map(|r| classes.iter().flat_map(|&c| r.class_us[c].iter().copied()).collect())
            .collect();
        let groups = |size: usize| -> Vec<Vec<f64>> {
            per_round.chunks(size).map(|chunk| chunk.concat()).collect()
        };
        let size = (1..per_round.len())
            .find(|&size| groups(size).iter().all(|g| g.len() >= 1000))
            .unwrap_or(per_round.len().max(1));
        let mut grouped = groups(size);
        let q = tail_quantile(grouped.iter().map(Vec::len).min().unwrap_or(0));
        let tails: Vec<f64> = grouped.iter_mut().map(|g| percentile(g, q)).collect();
        (median(&tails), q)
    }

    /// Completed operations per second: median over rounds.
    pub fn throughput(&self) -> f64 {
        let per_round = self.rounds.iter().map(|r| r.ops() as f64 / r.wall_s);
        median(&per_round.collect::<Vec<_>>())
    }

    pub fn note(&self, names: &[&str]) -> String {
        let per_class: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(c, name)| format!("{name} p50 {:.1}us", self.class_p50_us(c)))
            .collect();
        let (tail, q) = self.query_tail_us();
        let raw: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| {
                let medians: Vec<f64> = r
                    .class_us
                    .iter()
                    .filter(|c| !c.is_empty())
                    .map(|c| percentile(&mut c.clone(), 0.5))
                    .collect();
                geomean(&medians)
            })
            .collect();
        format!(
            "{} ops in {} rounds; p50 per round {raw:.0?}us; p{:.0} {tail:.0}us; {}",
            self.ops(),
            self.rounds.len(),
            q * 100.0,
            per_class.join(", ")
        )
    }
}

/// Every `SAMPLE_EVERY`-th operation of the traced round is replayed through
/// the public layer calls. Prime, so that round-robin over any class count
/// samples every class.
pub const SAMPLE_EVERY: u64 = 17;

/// The traced part of a `--trace 1` run: one plain round, then one round in
/// which sampled operations record spans. `op(class, index, recorder)`
/// records a root span (and its replayed children) when handed a recorder.
/// Returns the `trace.*` metrics and `bench.trace_overhead_frac` — how much
/// slower the unsampled operations of the traced round ran than the plain
/// round's, so the perturbation tracing causes is itself a number.
pub fn trace_rounds(
    spec: &RunSpec,
    classes: usize,
    failed: &mut u64,
    recorder: &mut Recorder,
    mut op: impl FnMut(usize, u64, Option<&mut Recorder>) -> bool,
) -> (crate::metrics::MetricSet, u64) {
    let each = Duration::from_secs_f64(spec.seconds / 4.0);
    let mut index = 0;
    let plain = run_round(classes, each, &mut index, failed, |c, i| op(c, i, None));
    let traced = run_round(classes, each, &mut index, failed, |c, i| {
        let sampled = i % SAMPLE_EVERY == 0;
        op(c, i, sampled.then_some(&mut *recorder))
    });
    let ops = (plain.ops() + traced.ops()) as u64;
    // Sampled operations sit in the traced round's tail (they carry their
    // replays), so comparing medians compares the unsampled operations.
    let (plain, traced) = (Timed { rounds: vec![plain] }, Timed { rounds: vec![traced] });
    let overhead = traced.query_p50_us() / plain.query_p50_us() - 1.0;
    let mut metrics = trace_metrics(recorder);
    metrics.put("bench.trace_overhead_frac", overhead);
    metrics.put("trace.plain_p99_us", plain.query_tail_us().0);
    (metrics, ops)
}

/// `trace.*` metrics of a finished recorder.
pub fn trace_metrics(recorder: &Recorder) -> crate::metrics::MetricSet {
    let roots = recorder.spans().iter().filter(|s| s.parent.is_none()).count().max(1) as f64;
    let (root_ns, unattributed_ns) = recorder.root_totals();
    let mut metrics = crate::metrics::MetricSet::new();
    metrics.put("trace.sampled_ops", roots);
    metrics.put("trace.root_us", root_ns as f64 / roots / 1e3);
    metrics.put("trace.attributed_frac", 1.0 - unattributed_ns as f64 / root_ns.max(1) as f64);
    metrics.put("trace.unattributed_us", unattributed_ns as f64 / roots / 1e3);
    metrics
}

/// Writes the recorder to `benchmark/out/<workload>.trace.json`.
pub fn write_trace(workload: &str, recorder: &Recorder) {
    let path = crate::fixtures::out_dir().join(format!("{workload}.trace.json"));
    if let Err(err) = std::fs::write(&path, recorder.to_json(workload).render()) {
        eprintln!("could not write {}: {err}", path.display());
    }
}

/// Builds the fixture `setups` times, timing each build and handing each to
/// `measure` before it is dropped; returns the last one with the median
/// build time in seconds.
pub fn timed_setup<T>(
    setups: usize,
    mut build: impl FnMut() -> T,
    mut measure: impl FnMut(&mut T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(setups);
    let mut fixture = None;
    for _ in 0..setups {
        drop(fixture.take()); // free the previous build before timing the next
        let t = Instant::now();
        let mut built = build();
        times.push(t.elapsed().as_secs_f64());
        measure(&mut built);
        fixture = Some(built);
    }
    (fixture.expect("at least one set-up"), median(&times))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(class_us: Vec<Vec<f64>>, wall_s: f64) -> Round {
        Round { class_us, wall_s }
    }

    #[test]
    fn p50_is_the_geomean_of_class_medians_over_rounds() {
        // Two classes with medians 10 and 1000; one disturbed round.
        let quiet = || round(vec![vec![9.0, 10.0, 11.0], vec![900.0, 1000.0, 1100.0]], 1.0);
        let noisy = round(vec![vec![90.0, 100.0, 110.0], vec![9e3, 1e4, 1.1e4]], 2.0);
        let timed = Timed { rounds: vec![quiet(), noisy, quiet()] };
        assert_eq!(timed.class_p50_us(0), 10.0);
        assert_eq!(timed.class_p50_us(1), 1000.0);
        assert!((timed.query_p50_us() - 100.0).abs() < 1e-9);
        assert_eq!(timed.throughput(), 6.0);
        // The quietest round decides even when most rounds are disturbed.
        let noisy = || round(vec![vec![90.0, 100.0, 110.0], vec![9e3, 1e4, 1.1e4]], 2.0);
        let mostly_noisy = Timed { rounds: vec![noisy(), quiet(), noisy()] };
        assert!((mostly_noisy.query_p50_us() - 1000.0).abs() < 1e-9);
        assert!((mostly_noisy.quietest_p50_us() - 100.0).abs() < 1e-9);
        assert_eq!(timed.ops(), 18);
        // 18 samples in all: the tail falls back to the pooled p90.
        assert_eq!(timed.query_tail_us(), (10_000.0, 0.90));
    }

    #[test]
    fn run_round_is_round_robin_and_counts_failures() {
        let mut next = 0;
        let mut failed = 0;
        let mut seen = Vec::new();
        let r = run_round(3, Duration::ZERO, &mut next, &mut failed, |class, i| {
            seen.push((class, i));
            class != 1
        });
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!((r.ops(), next, failed), (3, 3, 1));
    }

    #[test]
    fn setup_is_repeated_untraced_and_single_traced() {
        let (mut builds, mut measured) = (0, 0);
        let spec = RunSpec { seed: 1, seconds: 1.0, traced: false, quick: false };
        let (_, s) = timed_setup(spec.setups(), || builds += 1, |_| measured += 1);
        assert_eq!((builds, measured), (SETUP_REPEATS, SETUP_REPEATS));
        assert!(s >= 0.0);
        assert_eq!(spec.round(), Duration::from_secs_f64(1.0 / 6.0));
        let mut builds = 0;
        timed_setup(RunSpec { traced: true, ..spec }.setups(), || builds += 1, |_| ());
        assert_eq!(builds, 1);
        assert!(peak_rss_mb() > 0.0);
    }
}

//! Per-stage execution cost breakdown for one query.

use std::time::Duration;

/// Wall time spent in each stage of query execution, filled in by
/// `pgso-query`'s executor and carried on `QueryResult`.
///
/// Stages that a query does not exercise (e.g. `windowing` for a plain
/// match) stay at zero, so the struct is cheap to populate unconditionally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Collecting the root candidates of the match pattern into a list.
    /// The executor visits root candidates in place and times that under
    /// `expansion`, so this stage always reads zero; it stays because
    /// consumers index [`StageTimings::stages`] by position.
    pub root_selection: Duration,
    /// Pattern expansion — the root candidate scan plus the backtracking
    /// walk from each root, predicate checks included.
    pub expansion: Duration,
    /// OPTIONAL clause evaluation.
    pub optional: Duration,
    /// Aggregation (`GROUP BY`, `COUNT`/`SUM`/…) or, for non-aggregate
    /// queries, plain result-row materialization.
    pub aggregate: Duration,
    /// Result windowing: `DISTINCT`, `ORDER BY` sort, `SKIP`/`LIMIT`.
    pub windowing: Duration,
}

impl StageTimings {
    /// Sum of all stage durations.
    pub fn total(&self) -> Duration {
        self.root_selection + self.expansion + self.optional + self.aggregate + self.windowing
    }

    /// `(stage name, duration)` pairs, in execution order — convenient for
    /// emitting trace events or log lines without matching on fields.
    pub fn stages(&self) -> [(&'static str, Duration); 5] {
        [
            ("root_selection", self.root_selection),
            ("expansion", self.expansion),
            ("optional", self.optional),
            ("aggregate", self.aggregate),
            ("windowing", self.windowing),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_stages() {
        let timings = StageTimings {
            root_selection: Duration::from_micros(1),
            expansion: Duration::from_micros(2),
            optional: Duration::from_micros(3),
            aggregate: Duration::from_micros(4),
            windowing: Duration::from_micros(5),
        };
        assert_eq!(timings.total(), Duration::from_micros(15));
        let sum: Duration = timings.stages().iter().map(|&(_, d)| d).sum();
        assert_eq!(sum, timings.total(), "stages() covers every timed stage");
    }
}

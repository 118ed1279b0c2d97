//! Typed query plans for `EXPLAIN` / `PROFILE`.
//!
//! An [`QueryPlan`] describes what the DIR→OPT rewrite did to one statement:
//! the DIR text as submitted, the OPT text actually executed, and one
//! [`AppliedRule`] per schema-optimization rule the rewrite exploited
//! (union / inheritance / one-to-one merge / one-to-many LIST replication —
//! the same vocabulary as `pgso_core::RuleItem::rule_name`). `PROFILE`
//! additionally executes the statement and attaches [`PlanActuals`]: the
//! executor's exact `AccessStats`, predicate checks and per-stage wall
//! times, side by side with the rules' tracker-estimated fan-outs.
//!
//! A plan is an ordinary value *and* an ordinary result: [`QueryPlan::to_rows`]
//! lowers it onto tagged [`PropertyValue`] rows so it streams through every
//! existing result channel (in-process rows, wire `ROWS` frames), and
//! [`QueryPlan::from_rows`] lifts it back on the far side.

use crate::exec::QueryResult;
use pgso_graphstore::PropertyValue;
use std::fmt;

/// Which introspection directive prefixed the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// `EXPLAIN`: rewrite and report, do not execute.
    Explain,
    /// `PROFILE`: execute and report estimates side by side with actuals.
    Profile,
}

impl QueryMode {
    /// The directive keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            QueryMode::Explain => "EXPLAIN",
            QueryMode::Profile => "PROFILE",
        }
    }
}

impl fmt::Display for QueryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One schema-optimization rule the DIR→OPT rewrite exploited for this
/// statement.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedRule {
    /// Rule name in `pgso_core::RuleItem::rule_name` vocabulary:
    /// `"union"`, `"inheritance"`, `"one-to-one"` or `"one-to-many"`.
    pub rule: String,
    /// Human-readable account of what the rule did to the pattern.
    pub detail: String,
    /// The pattern edge label the rule touched (eliminated hop, replicated
    /// relationship), when one is identifiable — the key the serving layer
    /// uses to attach a tracker-estimated fan-out.
    pub edge_label: Option<String>,
    /// Workload-tracker estimate of the relationship's fan-out (average
    /// out-degree), filled in by the serving layer; `None` for rules with no
    /// associated relationship or when no tracker is available.
    pub estimated_fanout: Option<f64>,
}

impl AppliedRule {
    /// A rule record with no fan-out estimate attached yet.
    pub fn new(
        rule: impl Into<String>,
        detail: impl Into<String>,
        edge_label: Option<String>,
    ) -> Self {
        Self { rule: rule.into(), detail: detail.into(), edge_label, estimated_fanout: None }
    }
}

/// Measured per-stage actuals of one `PROFILE` execution — copied verbatim
/// from the executor's [`QueryResult`], so equality against a direct
/// `execute_statement` run is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanActuals {
    /// Matches enumerated (before aggregation and windowing); a plain
    /// window stops at `SKIP + LIMIT`.
    pub matches: u64,
    /// Result rows produced.
    pub rows: u64,
    /// Vertex reads performed by the backend.
    pub vertex_reads: u64,
    /// Edge traversals performed by the backend.
    pub edge_traversals: u64,
    /// Disk pages fetched (disk tier; 0 elsewhere).
    pub page_reads: u64,
    /// Buffer-pool page hits (disk tier; 0 elsewhere).
    pub page_hits: u64,
    /// `WHERE` predicate evaluations.
    pub predicate_checks: u64,
    /// End-to-end execution wall time, nanoseconds.
    pub elapsed_ns: u64,
    /// Per-stage wall times in [`pgso_telemetry::StageTimings::stages`]
    /// order (root selection, expansion, optional, aggregate, windowing),
    /// nanoseconds.
    pub stage_ns: [u64; 5],
}

impl PlanActuals {
    /// Copies the actuals out of an executed [`QueryResult`].
    pub fn from_result(result: &QueryResult) -> Self {
        let mut stage_ns = [0u64; 5];
        for (slot, (_, duration)) in stage_ns.iter_mut().zip(result.stage_timings.stages()) {
            *slot = duration.as_nanos() as u64;
        }
        Self {
            matches: result.matches as u64,
            rows: result.rows.len() as u64,
            vertex_reads: result.stats.vertex_reads,
            edge_traversals: result.stats.edge_traversals,
            page_reads: result.stats.page_reads,
            page_hits: result.stats.page_hits,
            predicate_checks: result.predicate_checks,
            elapsed_ns: result.elapsed.as_nanos() as u64,
            stage_ns,
        }
    }
}

/// The `EXPLAIN` / `PROFILE` report for one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Which directive produced this plan.
    pub mode: QueryMode,
    /// The statement as submitted (DIR text, directive stripped).
    pub dir: String,
    /// The rewritten statement actually executed (OPT text). Equal to
    /// [`QueryPlan::dir`] when the rewrite was an identity.
    pub opt: String,
    /// Schema generation the plan was rewritten against.
    pub schema_generation: u64,
    /// True when the plan came out of the serving layer's plan cache.
    pub cache_hit: bool,
    /// Every optimization rule the rewrite exploited, in application order.
    /// Empty if and only if the rewrite changed nothing.
    pub rules: Vec<AppliedRule>,
    /// `PROFILE` actuals; `None` for `EXPLAIN`.
    pub actuals: Option<PlanActuals>,
}

impl QueryPlan {
    /// True when the DIR→OPT rewrite changed the statement at all.
    pub fn rewritten(&self) -> bool {
        self.dir != self.opt
    }

    /// Lowers the plan onto tagged rows (first cell is the row kind:
    /// `"plan"`, `"rule"` or `"actuals"`) so it can stream through any
    /// existing result channel. [`QueryPlan::from_rows`] inverts this.
    pub fn to_rows(&self) -> Vec<Vec<PropertyValue>> {
        let mut rows = Vec::with_capacity(2 + self.rules.len());
        rows.push(vec![
            PropertyValue::str("plan"),
            PropertyValue::str(self.mode.keyword()),
            PropertyValue::str(&self.dir),
            PropertyValue::str(&self.opt),
            PropertyValue::Int(self.schema_generation as i64),
            PropertyValue::Bool(self.cache_hit),
        ]);
        for rule in &self.rules {
            rows.push(vec![
                PropertyValue::str("rule"),
                PropertyValue::str(&rule.rule),
                PropertyValue::str(&rule.detail),
                match &rule.edge_label {
                    Some(label) => PropertyValue::str(label),
                    None => PropertyValue::Null,
                },
                match rule.estimated_fanout {
                    Some(fanout) => PropertyValue::Float(fanout),
                    None => PropertyValue::Null,
                },
            ]);
        }
        if let Some(actuals) = &self.actuals {
            let mut row = vec![PropertyValue::str("actuals")];
            for value in [
                actuals.matches,
                actuals.rows,
                actuals.vertex_reads,
                actuals.edge_traversals,
                actuals.page_reads,
                actuals.page_hits,
                actuals.predicate_checks,
                actuals.elapsed_ns,
            ] {
                row.push(PropertyValue::Int(value as i64));
            }
            for ns in actuals.stage_ns {
                row.push(PropertyValue::Int(ns as i64));
            }
            rows.push(row);
        }
        rows
    }

    /// Lifts a plan back out of [`QueryPlan::to_rows`] output. Returns
    /// `None` when the rows are not a plan encoding.
    pub fn from_rows(rows: &[Vec<PropertyValue>]) -> Option<Self> {
        let header = rows.first()?;
        if header.first()?.as_str()? != "plan" || header.len() != 6 {
            return None;
        }
        let mode = match header[1].as_str()? {
            "EXPLAIN" => QueryMode::Explain,
            "PROFILE" => QueryMode::Profile,
            _ => return None,
        };
        let mut plan = QueryPlan {
            mode,
            dir: header[2].as_str()?.to_string(),
            opt: header[3].as_str()?.to_string(),
            schema_generation: header[4].as_int()? as u64,
            cache_hit: matches!(header[5], PropertyValue::Bool(true)),
            rules: Vec::new(),
            actuals: None,
        };
        for row in &rows[1..] {
            match row.first()?.as_str()? {
                "rule" if row.len() == 5 => plan.rules.push(AppliedRule {
                    rule: row[1].as_str()?.to_string(),
                    detail: row[2].as_str()?.to_string(),
                    edge_label: row[3].as_str().map(str::to_string),
                    estimated_fanout: row[4].as_float(),
                }),
                "actuals" if row.len() == 14 => {
                    let mut values = [0u64; 13];
                    for (slot, cell) in values.iter_mut().zip(&row[1..]) {
                        *slot = cell.as_int()? as u64;
                    }
                    plan.actuals = Some(PlanActuals {
                        matches: values[0],
                        rows: values[1],
                        vertex_reads: values[2],
                        edge_traversals: values[3],
                        page_reads: values[4],
                        page_hits: values[5],
                        predicate_checks: values[6],
                        elapsed_ns: values[7],
                        stage_ns: values[8..13].try_into().expect("five stage slots"),
                    });
                }
                _ => return None,
            }
        }
        Some(plan)
    }

    /// Human-readable multi-line rendering (the `EXPLAIN` tour format).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} (schema generation {})", self.mode, self.schema_generation);
        let _ = writeln!(out, "  DIR: {}", self.dir);
        if self.rewritten() {
            let _ = writeln!(out, "  OPT: {}", self.opt);
        } else {
            let _ = writeln!(out, "  OPT: (identical — no rule applied)");
        }
        let _ = writeln!(out, "  plan cache: {}", if self.cache_hit { "hit" } else { "miss" });
        for rule in &self.rules {
            let _ = write!(out, "  rule {}: {}", rule.rule, rule.detail);
            if let Some(fanout) = rule.estimated_fanout {
                let _ = write!(out, " (estimated fan-out {fanout:.2})");
            }
            let _ = writeln!(out);
        }
        if let Some(a) = &self.actuals {
            let _ = writeln!(
                out,
                "  actuals: {} matches, {} rows, {} vertex reads, {} edge traversals, \
                 {} predicate checks, {} ns",
                a.matches,
                a.rows,
                a.vertex_reads,
                a.edge_traversals,
                a.predicate_checks,
                a.elapsed_ns,
            );
            let stages = ["root_selection", "expansion", "optional", "aggregate", "windowing"];
            for (name, ns) in stages.iter().zip(a.stage_ns) {
                if ns > 0 {
                    let _ = writeln!(out, "    stage {name}: {ns} ns");
                }
            }
        }
        out
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> QueryPlan {
        QueryPlan {
            mode: QueryMode::Profile,
            dir: "MATCH (d:Drug) RETURN d.name".into(),
            opt: "MATCH (d:Drug) RETURN d.name".into(),
            schema_generation: 3,
            cache_hit: true,
            rules: vec![
                AppliedRule {
                    rule: "union".into(),
                    detail: "folded (r:Risk)".into(),
                    edge_label: Some("cause".into()),
                    estimated_fanout: Some(2.5),
                },
                AppliedRule::new("one-to-many", "LIST shortcut", None),
            ],
            actuals: Some(PlanActuals {
                matches: 10,
                rows: 4,
                vertex_reads: 100,
                edge_traversals: 50,
                page_reads: 0,
                page_hits: 0,
                predicate_checks: 7,
                elapsed_ns: 12_345,
                stage_ns: [1, 2, 0, 3, 4],
            }),
        }
    }

    #[test]
    fn rows_round_trip() {
        let plan = sample_plan();
        let rows = plan.to_rows();
        assert_eq!(QueryPlan::from_rows(&rows), Some(plan));
    }

    #[test]
    fn explain_without_actuals_round_trips() {
        let mut plan = sample_plan();
        plan.mode = QueryMode::Explain;
        plan.actuals = None;
        plan.rules.clear();
        let rows = plan.to_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(QueryPlan::from_rows(&rows), Some(plan));
    }

    #[test]
    fn foreign_rows_are_not_plans() {
        assert_eq!(QueryPlan::from_rows(&[]), None);
        assert_eq!(QueryPlan::from_rows(&[vec![PropertyValue::str("Aspirin")]]), None);
        assert_eq!(
            QueryPlan::from_rows(&[vec![PropertyValue::Int(1), PropertyValue::Int(2)]]),
            None
        );
    }

    #[test]
    fn render_text_names_rules_and_actuals() {
        let text = sample_plan().render_text();
        assert!(text.contains("PROFILE"), "{text}");
        assert!(text.contains("rule union"), "{text}");
        assert!(text.contains("estimated fan-out 2.50"), "{text}");
        assert!(text.contains("100 vertex reads"), "{text}");
        assert!(text.contains("stage expansion: 2 ns"), "{text}");
        assert!(!text.contains("stage optional"), "zero stages are omitted: {text}");
    }
}

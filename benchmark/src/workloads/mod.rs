//! The four workloads, and what the three serving workloads share: the
//! reference evaluator their answers are checked against and the DIR twin
//! graph the paper's ratios are computed from.

pub mod ingest_durable;
pub mod paper_micro;
pub mod serve_mix;
pub mod wire_small;

use crate::digest::{digest_rows, RowDigest};
use crate::fixtures::{med_parts, ParamPool, Rng, CLASSES, GRAPH_SEED, LADDER_BASE_SCALE};
use crate::harness::{Outcome, RunSpec};
use crate::spans::Recorder;
use pgso_datagen::ScaleLadder;
use pgso_graphstore::{GraphBackend, MemoryGraph};
use pgso_pgschema::PropertyGraphSchema;
use pgso_query::{execute_statement, parse, rewrite_statement, Params, QueryResult, Statement};
use pgso_server::KgServer;

pub fn run(workload: &str, spec: &RunSpec) -> Option<Outcome> {
    Some(match workload {
        "paper_micro" => paper_micro::run(spec),
        "serve_mix" => serve_mix::run(spec),
        "wire_small" => wire_small::run(spec),
        "ingest_durable" => ingest_durable::run(spec),
        _ => return None,
    })
}

fn stage_span(stage: &str) -> &'static str {
    match stage {
        "root_selection" => "query.stage.root_selection",
        "expansion" => "query.stage.expansion",
        "optional" => "query.stage.optional",
        "aggregate" => "query.stage.aggregate",
        _ => "query.stage.windowing",
    }
}

/// Lays an execution's stage timings (reported by the executor in its
/// result) back to back inside `parent`.
pub fn record_stages(recorder: &mut Recorder, op: u64, parent: usize, result: &QueryResult) {
    let mut cursor = recorder.spans()[parent].start_ns;
    for (stage, took) in result.stage_timings.stages() {
        if !took.is_zero() {
            let end = cursor + took.as_nanos() as u64;
            recorder.record(stage_span(stage), op, Some(parent), cursor, end);
            cursor = end;
        }
    }
}

/// The reference evaluator for the serving workloads: each class's DIR
/// statement rewritten once against the served schema, then bound and run
/// with `execute_statement` on the epoch's graph — the same public calls the
/// server makes, without the server.
pub struct Reference {
    /// Per position in the workload's class list: `(class index, DIR
    /// statement, its rewrite for the served schema)`.
    plans: Vec<(usize, Statement, Statement)>,
}

impl Reference {
    pub fn new(server: &KgServer, classes: &[usize]) -> Self {
        let epoch = server.current_epoch();
        let plans = classes
            .iter()
            .map(|&class| {
                let dir = parse(CLASSES[class].text).expect("class statement parses");
                let plan = rewrite_statement(&dir, &epoch.schema);
                (class, dir, plan)
            })
            .collect();
        Self { plans }
    }

    pub fn plan(&self, position: usize) -> &Statement {
        &self.plans[position].2
    }

    /// Binds and executes the class at `position` on the server's current
    /// epoch graph.
    pub fn execute(&self, server: &KgServer, position: usize, params: &Params) -> QueryResult {
        let bound = self.plan(position).bind(params).expect("generated params bind");
        execute_statement(&bound, server.current_epoch().graph())
    }

    /// Checks `verify_per_class` parameter sets per class: what `serve`
    /// returns must equal the reference rows (count and order-insensitive
    /// digest). Returns `(attempted, failed)`.
    pub fn verify(
        &self,
        server: &KgServer,
        pool: &ParamPool,
        seed: u64,
        verify_per_class: usize,
        mut serve: impl FnMut(usize, &Params) -> Option<RowDigest>,
    ) -> (u64, u64) {
        let mut rng = Rng::new(seed ^ 0x5eed_c0de);
        let (mut attempted, mut failed) = (0, 0);
        for (position, (class, _, _)) in self.plans.iter().enumerate() {
            for _ in 0..verify_per_class {
                let params = pool.params(*class, &mut rng);
                let want = digest_rows(&self.execute(server, position, &params).rows);
                attempted += 1;
                if serve(position, &params) != Some(want) {
                    failed += 1;
                }
            }
        }
        (attempted, failed)
    }

    /// The paper's two ratios for this workload's statements and graph:
    /// `(Σ OPT edge traversals ÷ Σ DIR, OPT payload bytes ÷ DIR)`. DIR is a
    /// twin `MemoryGraph` holding the same ladder rung under the direct
    /// schema; it is the checker's apparatus, built outside `setup_s`. (The
    /// driver's contract has every workload report every end-to-end metric,
    /// so the serving workloads owe these two as well; the server's schema
    /// choice is what would move them here.)
    pub fn paper_ratios(&self, server: &KgServer, rung: usize, pool: &ParamPool) -> (f64, f64) {
        let (ontology, statistics) = med_parts();
        let ladder =
            ScaleLadder::generate(&ontology, &statistics, LADDER_BASE_SCALE, GRAPH_SEED, rung);
        let direct_schema = PropertyGraphSchema::direct_from_ontology(&ontology);
        let mut twin = MemoryGraph::new();
        ladder.load_rung(&mut twin, &ontology, &direct_schema, rung);
        // Fixed parameters (not the run's seed): the counts are exact and
        // must repeat across seeds.
        let mut rng = Rng::new(GRAPH_SEED);
        let (mut dir_traversals, mut opt_traversals) = (0u64, 0u64);
        for (position, (class, dir, _)) in self.plans.iter().enumerate() {
            let params = pool.params(*class, &mut rng);
            let bound = dir.bind(&params).expect("generated params bind");
            dir_traversals += execute_statement(&bound, &twin).stats.edge_traversals;
            opt_traversals += self.execute(server, position, &params).stats.edge_traversals;
        }
        let space =
            server.current_epoch().graph().payload_bytes() as f64 / twin.payload_bytes() as f64;
        (opt_traversals as f64 / dir_traversals.max(1) as f64, space)
    }
}

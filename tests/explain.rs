//! EXPLAIN/PROFILE acceptance for the microbenchmark ladder: every Q1–Q12
//! PROFILE — asked for the one way there is, a `PROFILE` prefix through
//! `serve_text`, rebuilt with `QueryPlan::from_rows` exactly as a wire
//! client does — must report actuals **exactly** equal to a direct
//! `execute_statement` run of the rewritten statement — backend access
//! counters, match/row counts and predicate checks — and every plan whose
//! DIR and OPT texts differ must name at least one optimization rule. The tagged-row
//! serialization (`QueryPlan::to_rows` / `from_rows`) must round-trip, and
//! the `EXPLAIN` / `PROFILE` statement directives must flow through
//! `serve_text` like any query.

use pgso::ontology::{catalog, AccessFrequencies, DataStatistics, Ontology, StatisticsConfig};
use pgso::prelude::*;
use pgso::query::rewrite_statement_traced;
use pgso::server::{PlanActuals, QueryMode, QueryPlan};
use pgso_bench::{microbenchmark, DatasetId};

fn build_server(ontology: Ontology) -> KgServer {
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 11);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 11);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let config = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
    KgServer::new(ontology, statistics, instance, frequencies, config)
}

/// `EXPLAIN` / `PROFILE` of `text`, the way every client gets a plan.
fn plan(server: &KgServer, mode: QueryMode, text: &str) -> QueryPlan {
    let result = server.serve_text(&format!("{} {text}", mode.keyword())).expect("parses");
    QueryPlan::from_rows(&result.rows).expect("tagged rows rebuild")
}

#[test]
fn profile_actuals_match_direct_execution_exactly() {
    let med = build_server(catalog::medical());
    let fin = build_server(catalog::financial());
    let mut rewritten_plans = 0usize;
    for bench in microbenchmark() {
        let server = match bench.dataset {
            DatasetId::Med => &med,
            DatasetId::Fin => &fin,
        };
        let label = format!("{:?}/{}", bench.dataset, bench.family);

        let plan = plan(server, QueryMode::Profile, &bench.query.to_string());
        let actuals = plan.actuals.expect("PROFILE always carries actuals");

        // The reference run: rewrite against the serving schema and
        // execute on the serving epoch's graph.
        let epoch = server.current_epoch();
        let opt = rewrite_statement(&bench.query, &epoch.schema);
        assert_eq!(opt.to_string(), plan.opt, "{label}: OPT text diverged");
        let expected = execute_statement(&opt, epoch.graph());

        assert_eq!(actuals.matches, expected.matches as u64, "{label}: matches");
        assert_eq!(actuals.rows, expected.rows.len() as u64, "{label}: rows");
        assert_eq!(actuals.vertex_reads, expected.stats.vertex_reads, "{label}: vertex reads");
        assert_eq!(
            actuals.edge_traversals, expected.stats.edge_traversals,
            "{label}: edge traversals"
        );
        assert_eq!(actuals.page_reads, expected.stats.page_reads, "{label}: page reads");
        assert_eq!(actuals.page_hits, expected.stats.page_hits, "{label}: page hits");
        assert_eq!(
            actuals.predicate_checks, expected.predicate_checks,
            "{label}: predicate checks"
        );

        // Rule attribution: a non-identity rewrite must say *why*.
        if plan.rewritten() {
            rewritten_plans += 1;
            assert!(
                !plan.rules.is_empty(),
                "{label}: DIR and OPT differ but no rule was attributed\n\
                 DIR: {}\nOPT: {}",
                plan.dir,
                plan.opt
            );
            for rule in &plan.rules {
                assert!(
                    matches!(
                        rule.rule.as_str(),
                        "union" | "inheritance" | "one-to-one" | "one-to-many"
                    ),
                    "{label}: unknown rule name {:?}",
                    rule.rule
                );
                assert!(!rule.detail.is_empty(), "{label}: rule without detail");
            }
        }

        // The DIR (un-rewritten) side too: `PlanActuals` must be a
        // faithful projection of the executor's `AccessStats` whichever
        // statement form ran.
        let dir_run = execute_statement(&bench.query, epoch.graph());
        let dir_actuals = PlanActuals::from_result(&dir_run);
        assert_eq!(dir_actuals.matches, dir_run.matches as u64, "{label}: DIR matches");
        assert_eq!(
            dir_actuals.vertex_reads, dir_run.stats.vertex_reads,
            "{label}: DIR vertex reads"
        );
        assert_eq!(
            dir_actuals.edge_traversals, dir_run.stats.edge_traversals,
            "{label}: DIR edge traversals"
        );
        assert_eq!(
            dir_actuals.predicate_checks, dir_run.predicate_checks,
            "{label}: DIR predicate checks"
        );

        // The tagged-row wire form is lossless.
        assert_eq!(
            QueryPlan::from_rows(&plan.to_rows()).as_ref(),
            Some(&plan),
            "{label}: plan rows did not round-trip"
        );
    }
    assert!(
        rewritten_plans >= 4,
        "expected most microbenchmark queries to rewrite, got {rewritten_plans}"
    );
}

#[test]
fn explain_never_executes_and_reports_cache_residency() {
    let server = build_server(catalog::medical());
    let text = "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc LIMIT 5";

    let cold = plan(&server, QueryMode::Explain, text);
    assert_eq!(cold.mode, QueryMode::Explain);
    assert!(cold.actuals.is_none(), "EXPLAIN must not execute");
    assert!(!cold.cache_hit, "nothing served yet, the plan cache is cold");
    assert_eq!(server.served(), 0, "EXPLAIN must not count as a serve");

    // Serving the statement warms the cache; the same EXPLAIN now sees it.
    server.serve_text(text).expect("serves");
    let warm = plan(&server, QueryMode::Explain, text);
    assert!(warm.cache_hit, "EXPLAIN after a serve must see the cached plan");
}

#[test]
fn directives_flow_through_serve_text_as_tagged_rows() {
    let server = build_server(catalog::medical());
    let text = "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc LIMIT 7";

    let explained = server.serve_text(&format!("EXPLAIN {text}")).expect("parses");
    let plan = QueryPlan::from_rows(&explained.rows).expect("tagged rows rebuild");
    assert_eq!(plan.mode, QueryMode::Explain);
    assert!(plan.actuals.is_none());
    // Against the rewriter itself: nothing has been served, so the tracker
    // has no fan-out estimates to attach and the rules are the raw trace.
    let dir = parse(text).expect("parses");
    let (opt, rules) = rewrite_statement_traced(&dir, &server.current_epoch().schema);
    assert_eq!(plan.dir, dir.to_string());
    assert_eq!(plan.opt, opt.to_string());
    assert_eq!(plan.rules, rules);

    let profiled = server.serve_text(&format!("PROFILE {text}")).expect("parses");
    let plan = QueryPlan::from_rows(&profiled.rows).expect("tagged rows rebuild");
    assert_eq!(plan.mode, QueryMode::Profile);
    let actuals = plan.actuals.expect("PROFILE carries actuals");
    let reference = server.serve_text(text).expect("serves");
    assert_eq!(actuals.rows, reference.rows.len() as u64, "profiled row count");
    assert_eq!(actuals.matches, reference.matches as u64, "profiled match count");

    // Parameterized text cannot be profiled — there are no values to bind.
    // The same goes for EXPLAIN and for a plain serve: an error each time,
    // never a panic and never an execution of the unbound statement.
    let served = server.served();
    for (prefix, names) in [("PROFILE ", "PROFILE"), ("EXPLAIN ", "EXPLAIN"), ("", "prepare_text")]
    {
        let err = server
            .serve_text(&format!("{prefix}MATCH (d:Drug) WHERE d.name CONTAINS $x RETURN d.name"))
            .expect_err("parameters cannot be bound ad hoc");
        assert!(err.to_string().contains(names), "{err}");
    }
    assert_eq!(server.served(), served);

    // The rendered report mentions both texts and the mode keyword.
    let rendered = plan.render_text();
    assert!(rendered.contains("PROFILE"), "{rendered}");
    assert!(rendered.contains(&plan.dir), "{rendered}");
    assert!(rendered.contains(&plan.opt), "{rendered}");
}

//! End-to-end integration tests spanning every crate: ontology → optimizer →
//! data loading → query execution → DIR/OPT equivalence, including the
//! statement surface (WHERE / OPTIONAL MATCH / ORDER BY / LIMIT) and the
//! text front-end.

use pgso::ontology::catalog;
use pgso::prelude::*;
use pgso_query::ReturnItem;

fn pipeline(
    ontology: &Ontology,
    seed: u64,
    scale: f64,
) -> (PropertyGraphSchema, PropertyGraphSchema, MemoryGraph, MemoryGraph) {
    let stats = DataStatistics::synthesize(ontology, &StatisticsConfig::small(), seed);
    let workload =
        AccessFrequencies::generate(ontology, WorkloadDistribution::default_zipf(), 10_000.0, seed);
    let outcome =
        optimize_nsc(OptimizerInput::new(ontology, &stats, &workload), &OptimizerConfig::default());
    let direct_schema = PropertyGraphSchema::direct_from_ontology(ontology);
    let instance = InstanceKg::generate(ontology, &stats, scale, seed);
    let mut direct = MemoryGraph::new();
    let mut optimized = MemoryGraph::new();
    load_into(&mut direct, ontology, &direct_schema, &instance);
    load_into(&mut optimized, ontology, &outcome.schema, &instance);
    (direct_schema, outcome.schema, direct, optimized)
}

#[test]
fn motivating_example_pipeline_preserves_answers_and_saves_traversals() {
    let ontology = catalog::med_mini();
    let (_, opt_schema, direct, optimized) = pipeline(&ontology, 5, 0.5);

    // Example 2: aggregation over Indication.desc per Drug.
    let aggregation = Statement::builder("example2")
        .node("d", "Drug")
        .node("i", "Indication")
        .edge("d", "treat", "i")
        .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
        .build();
    let rewritten = rewrite_statement(&aggregation, &opt_schema);
    let on_direct = execute_statement(&aggregation, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert_eq!(on_direct.scalar(), on_optimized.scalar(), "aggregation answers must match");
    assert!(
        on_optimized.stats.edge_traversals < on_direct.stats.edge_traversals,
        "optimized schema must avoid the 1:M traversal"
    );

    // Example 1: pattern matching through the interaction hierarchy.
    let pattern = Statement::builder("example1")
        .node("d", "Drug")
        .node("di", "DrugInteraction")
        .node("dfi", "DrugFoodInteraction")
        .edge("d", "has", "di")
        .edge("di", "isA", "dfi")
        .ret_property("dfi", "risk")
        .build();
    let rewritten = rewrite_statement(&pattern, &opt_schema);
    assert!(rewritten.edge_pattern_count() < pattern.edge_pattern_count());
    let on_direct = execute_statement(&pattern, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert_eq!(on_direct.matches, on_optimized.matches, "same matches on both schemas");
}

#[test]
fn union_queries_survive_the_risk_vertex_removal() {
    let ontology = catalog::med_mini();
    let (_, opt_schema, direct, optimized) = pipeline(&ontology, 9, 0.5);
    let query = Statement::builder("union")
        .node("d", "Drug")
        .node("r", "Risk")
        .node("ci", "ContraIndication")
        .edge("d", "cause", "r")
        .edge("r", "unionOf", "ci")
        .ret_property("ci", "desc")
        .build();
    let rewritten = rewrite_statement(&query, &opt_schema);
    let on_direct = execute_statement(&query, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert_eq!(on_direct.matches, on_optimized.matches);
    assert!(rewritten.edge_pattern_count() == 1);
    assert!(on_optimized.stats.edge_traversals <= on_direct.stats.edge_traversals);
}

#[test]
fn med_catalog_microbenchmark_queries_are_equivalent_across_schemas() {
    let ontology = catalog::medical();
    let (_, opt_schema, direct, optimized) = pipeline(&ontology, 13, 0.05);
    // Q9: COUNT of drug routes per drug.
    let q9 = Statement::builder("Q9")
        .node("d", "Drug")
        .node("dr", "DrugRoute")
        .edge("d", "hasDrugRoute", "dr")
        .ret_aggregate(Aggregate::CollectCount, "dr", Some("drugRouteId"))
        .build();
    let rewritten = rewrite_statement(&q9, &opt_schema);
    let on_direct = execute_statement(&q9, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert_eq!(on_direct.scalar(), on_optimized.scalar());
    assert_eq!(rewritten.edge_pattern_count(), 0, "Q9 must become a local lookup");

    // Q5: parent property lookup from the child.
    let q5 = Statement::builder("Q5")
        .node("di", "DrugInteraction")
        .node("dl", "DrugLabInteraction")
        .edge("di", "isA", "dl")
        .ret_property("di", "summary")
        .build();
    let rewritten = rewrite_statement(&q5, &opt_schema);
    let on_direct = execute_statement(&q5, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert_eq!(on_direct.matches, on_optimized.matches);
    // Every returned summary value must be non-empty on both graphs.
    for rows in [&on_direct.rows, &on_optimized.rows] {
        for row in rows.iter() {
            assert!(row[0].as_str().map(|s| !s.is_empty()).unwrap_or(false));
        }
    }
}

#[test]
fn disk_backend_runs_the_same_pipeline() {
    let ontology = catalog::med_mini();
    let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 21);
    let workload = AccessFrequencies::uniform(&ontology, 1_000.0);
    let outcome = optimize_nsc(
        OptimizerInput::new(&ontology, &stats, &workload),
        &OptimizerConfig::default(),
    );
    let direct_schema = PropertyGraphSchema::direct_from_ontology(&ontology);
    let instance = InstanceKg::generate(&ontology, &stats, 0.5, 21);

    let dir = tempfile::tempdir().unwrap();
    let config = DiskGraphConfig::with_pool_pages(4);
    let mut direct = DiskGraph::create(dir.path().join("dir.store"), config).unwrap();
    let mut optimized = DiskGraph::create(dir.path().join("opt.store"), config).unwrap();
    load_into(&mut direct, &ontology, &direct_schema, &instance);
    load_into(&mut optimized, &ontology, &outcome.schema, &instance);
    direct.flush().unwrap();
    optimized.flush().unwrap();

    let query = Statement::builder("agg")
        .node("d", "Drug")
        .node("i", "Indication")
        .edge("d", "treat", "i")
        .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
        .build();
    let rewritten = rewrite_statement(&query, &outcome.schema);
    let on_direct = execute_statement(&query, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert_eq!(on_direct.scalar(), on_optimized.scalar());
    assert!(direct.payload_bytes() > 0);
    assert!(optimized.stats().page_hits + optimized.stats().page_reads > 0);
}

#[test]
fn space_constrained_schema_still_loads_and_answers_queries() {
    let ontology = catalog::medical();
    let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 31);
    let workload =
        AccessFrequencies::generate(&ontology, WorkloadDistribution::default_zipf(), 10_000.0, 31);
    let input = OptimizerInput::new(&ontology, &stats, &workload);
    let nsc = optimize_nsc(input, &OptimizerConfig::default());
    let constrained = optimize_pgsg(input, &OptimizerConfig::with_space_limit(nsc.total_cost / 10));
    let schema = &constrained.chosen.schema;
    assert!(schema.dangling_edges().is_empty());

    let instance = InstanceKg::generate(&ontology, &stats, 0.05, 31);
    let mut graph = MemoryGraph::new();
    let report = load_into(&mut graph, &ontology, schema, &instance);
    assert!(report.vertices > 0);

    let q = Statement::builder("lookup").node("d", "Drug").ret_property("d", "name").build();
    let rewritten = rewrite_statement(&q, schema);
    let result = execute_statement(&rewritten, &graph);
    assert!(result.matches > 0, "drugs must be queryable under the constrained schema");
}

#[test]
fn where_order_limit_statement_is_equivalent_and_cheaper_on_opt() {
    // Acceptance criterion of the statement API: a WHERE/ORDER BY/LIMIT
    // statement executed on DIR and its rewrite on OPT return *identical
    // rows* while OPT traverses strictly fewer edges (the union hop through
    // Risk is gone).
    let ontology = catalog::med_mini();
    let (_, opt_schema, direct, optimized) = pipeline(&ontology, 11, 0.5);
    let stmt = parse_named(
        "MATCH (d:Drug)-[:cause]->(r:Risk)-[:unionOf]->(ci:ContraIndication) \
         WHERE d.name CONTAINS 'Drug_name' \
         RETURN ci.desc ORDER BY ci.desc LIMIT 10",
        "union-where",
    )
    .expect("statement parses");
    let rewritten = rewrite_statement(&stmt, &opt_schema);
    assert!(
        rewritten.edges.len() < stmt.edges.len(),
        "rewrite must drop the union hop: {rewritten}"
    );
    let on_direct = execute_statement(&stmt, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert!(!on_direct.rows.is_empty(), "the predicate must match generated drugs");
    assert_eq!(
        on_direct.rows, on_optimized.rows,
        "ordered + limited rows must be identical across schemas"
    );
    assert!(on_direct.rows.len() <= 10);
    assert!(
        on_optimized.stats.edge_traversals < on_direct.stats.edge_traversals,
        "OPT must traverse strictly fewer edges: {:?} vs {:?}",
        on_optimized.stats,
        on_direct.stats
    );
}

#[test]
fn optional_match_pads_rows_identically_across_schemas() {
    let ontology = catalog::med_mini();
    let (_, opt_schema, direct, optimized) = pipeline(&ontology, 17, 0.3);
    let drugs = execute_statement(
        &Statement::builder("count-drugs").node("d", "Drug").ret_property("d", "name").build(),
        &direct,
    );
    let stmt = parse_named(
        "MATCH (d:Drug) OPTIONAL MATCH (d)-[:treat]->(i:Indication) \
         RETURN d.name, i.desc ORDER BY d.name",
        "optional-treat",
    )
    .expect("statement parses");
    let rewritten = rewrite_statement(&stmt, &opt_schema);
    let on_direct = execute_statement(&stmt, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert!(!on_direct.rows.is_empty());
    // Left-outer semantics: every drug survives, matched or not.
    assert!(on_direct.rows.len() >= drugs.rows.len(), "optional match must keep every drug row");
    assert_eq!(
        on_direct.rows, on_optimized.rows,
        "optional rows (including any null padding) must match across schemas"
    );
}

#[test]
fn distinct_and_skip_window_rows_consistently() {
    let ontology = catalog::med_mini();
    let (_, opt_schema, direct, optimized) = pipeline(&ontology, 19, 0.5);
    let stmt = parse_named(
        "MATCH (d:Drug)-[:treat]->(i:Indication) \
         RETURN DISTINCT i.desc ORDER BY i.desc DESC SKIP 1 LIMIT 4",
        "distinct-window",
    )
    .expect("statement parses");
    let rewritten = rewrite_statement(&stmt, &opt_schema);
    let on_direct = execute_statement(&stmt, &direct);
    let on_optimized = execute_statement(&rewritten, &optimized);
    assert_eq!(on_direct.rows, on_optimized.rows);
    assert!(on_direct.rows.len() <= 4);
    let unique: std::collections::HashSet<String> =
        on_direct.rows.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(unique.len(), on_direct.rows.len(), "DISTINCT must hold");
    // Descending order must hold over the returned window.
    for pair in on_direct.rows.windows(2) {
        assert!(pair[0][0].as_str() >= pair[1][0].as_str());
    }
}

#[test]
fn rewritten_returns_reference_existing_properties() {
    let ontology = catalog::medical();
    let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 37);
    let workload = AccessFrequencies::uniform(&ontology, 1_000.0);
    let outcome = optimize_nsc(
        OptimizerInput::new(&ontology, &stats, &workload),
        &OptimizerConfig::default(),
    );
    let q = Statement::builder("Q1")
        .node("d", "Drug")
        .node("di", "DrugInteraction")
        .node("dfi", "DrugFoodInteraction")
        .edge("d", "has", "di")
        .edge("di", "isA", "dfi")
        .ret_property("d", "name")
        .ret_property("dfi", "risk")
        .ret_property("di", "summary")
        .build();
    let rewritten = rewrite_statement(&q, &outcome.schema);
    for item in &rewritten.returns {
        if let ReturnItem::Property { var, property } = item {
            let node = rewritten.node(var).expect("return var bound to a node pattern");
            let vertex = outcome.schema.vertex(&node.label).expect("label exists in schema");
            assert!(
                vertex.has_property(property),
                "rewritten return {var}.{property} missing on {}",
                node.label
            );
        }
    }
}

//! Quickstart: the paper's pipeline, end to end and offline. An ontology
//! goes in; the optimizer picks a property graph schema for it under a space
//! budget; the same instance data is loaded under the direct (DIR) and the
//! optimized (OPT) schema; and a DIR query, rewritten onto OPT, returns the
//! same answer with fewer edge traversals — on the medical (MED) and the
//! financial (FIN) catalog ontologies, after a small hand-written one.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pgso::prelude::*;

/// A custom ontology in the textual DSL: 1:M, M:N, 1:1 and inheritance
/// relationships, one of each kind the optimizer has a rule for.
const RETAIL: &str = r#"
ontology retail

concept Customer {
    name: string
    email: string
}

concept Order {
    orderId: string
    total: double
}

concept LineItem {
    quantity: int
    price: double
}

concept Product {
    sku: string
    title: string
}

concept Payment {
    method: string
    amount: double
}

concept Promotion {
    code: string
}

concept SeasonalPromotion {
    season: string
}

rel places: Customer -> Order (1:M)
rel contains: Order -> LineItem (1:M)
rel refersTo: LineItem -> Product (M:N)
rel paidBy: Order -> Payment (1:1)
rel redeems: Order -> Promotion (M:N)
rel isA: Promotion -> SeasonalPromotion (inheritance)
"#;

/// Ontology → schema: what the optimizer decides for a small custom domain,
/// printed as DDL next to the direct mapping.
fn explore_schema() {
    let ontology = pgso::ontology::dsl::parse(RETAIL).expect("valid ontology DSL");
    println!("== {} ==", ontology.summary());
    let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 3);
    let workload = AccessFrequencies::uniform(&ontology, 1_000.0);
    let outcome = optimize_nsc(
        OptimizerInput::new(&ontology, &stats, &workload),
        &OptimizerConfig::default(),
    );
    let direct = PropertyGraphSchema::direct_from_ontology(&ontology);
    println!("-- optimized schema (Cypher DDL) --\n{}", ddl::to_cypher_ddl(&outcome.schema));
    println!(
        "-- changes vs the direct mapping --\n{}",
        pgso::pgschema::diff(&direct, &outcome.schema)
    );
    // The space a budget constrains: what the chosen rules add over DIR.
    println!("space cost of the optimized schema: {} bytes\n", outcome.total_cost);
}

/// The paper's evaluation loop on one catalog ontology: optimize under a
/// 20% space budget (RC vs CC, PGSG keeps the better), load DIR and OPT, and
/// run `queries` on both.
fn dir_vs_opt(ontology: Ontology, scale: f64, seed: u64, queries: &[(&str, &str)]) {
    println!("== {} ==", ontology.summary());
    let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::default(), seed);
    let workload = AccessFrequencies::generate(
        &ontology,
        WorkloadDistribution::default_zipf(),
        10_000.0,
        seed,
    );
    let input = OptimizerInput::new(&ontology, &stats, &workload);

    // Unconstrained optimum (Algorithm 5), then a 20% space budget.
    let nsc = optimize_nsc(input, &OptimizerConfig::default());
    let budget = nsc.total_cost / 5;
    let result = optimize_pgsg(input, &OptimizerConfig::with_space_limit(budget));
    println!(
        "space budget {budget} bytes (20% of NSC): benefit ratio RC {:.3} | CC {:.3} -> PGSG keeps \
         {} ({} vertex types, {} edge types)",
        result.relation_centric.benefit_ratio(&nsc),
        result.concept_centric.benefit_ratio(&nsc),
        result.chosen.algorithm.label(),
        result.chosen.schema.vertex_count(),
        result.chosen.schema.edge_count()
    );
    let direct_schema = PropertyGraphSchema::direct_from_ontology(&ontology);
    let diff = pgso::pgschema::diff(&direct_schema, &result.chosen.schema);
    println!("{} schema changes vs the direct mapping, e.g.:", diff.change_count());
    for line in diff.to_string().lines().take(4) {
        println!("  {line}");
    }

    // The same instance data under both schemas. DIR queries are rewritten
    // onto the unconstrained optimum, where every rule that can fire has.
    let instance = InstanceKg::generate(&ontology, &stats, scale, seed);
    let (mut direct, mut optimized) = (MemoryGraph::new(), MemoryGraph::new());
    load_into(&mut direct, &ontology, &direct_schema, &instance);
    load_into(&mut optimized, &ontology, &nsc.schema, &instance);
    println!(
        "loaded: DIR {} vertices / {} edges, OPT {} vertices / {} edges",
        direct.vertex_count(),
        direct.edge_count(),
        optimized.vertex_count(),
        optimized.edge_count()
    );
    for &(name, text) in queries {
        let dir = parse_named(text, name).expect("query parses");
        let opt = rewrite_statement(&dir, &nsc.schema);
        let on_dir = execute_statement(&dir, &direct);
        let on_opt = execute_statement(&opt, &optimized);
        println!("{name} DIR: {dir}\n{name} OPT: {opt}");
        println!(
            "  rows DIR={} OPT={} | edge traversals DIR={} OPT={}",
            on_dir.rows.len(),
            on_opt.rows.len(),
            on_dir.stats.edge_traversals,
            on_opt.stats.edge_traversals
        );
    }
    println!();
}

fn main() {
    explore_schema();
    dir_vs_opt(
        pgso::ontology::catalog::medical(),
        0.05,
        7,
        &[
            // Q1 (pattern matching): the inheritance hop disappears.
            (
                "Q1",
                "MATCH (d:Drug)-[:has]->(di:DrugInteraction)-[:isA]->(dfi:DrugFoodInteraction) \
                 RETURN d.name, dfi.risk",
            ),
            // Q9 (aggregation): the 1:M collect becomes a LIST property read.
            (
                "Q9",
                "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) \
                 RETURN size(collect(dr.drugRouteId))",
            ),
        ],
    );
    dir_vs_opt(
        pgso::ontology::catalog::financial(),
        0.03,
        11,
        &[
            // A pattern whose target a 1:1 rule merged: relabelled, and
            // (no LIST to read instead) just as many traversals.
            (
                "collateral",
                "MATCH (l:Loan)-[:securedBy]->(c:Collateral) RETURN c.collateralType LIMIT 5",
            ),
            // Q12 (aggregation over a 1:M relationship).
            (
                "Q12",
                "MATCH (corp:Corporation)-[:employsOfficer]->(o:Officer) \
                 RETURN size(collect(o.title))",
            ),
        ],
    );
}

//! Storage-tier execution equivalence: the CSR read-optimized layout must
//! be *indistinguishable* from the mutable `MemoryGraph` through the whole
//! query surface — same rows, same order — under the direct schema and the
//! optimizer's rewrites alike.
//!
//! Two layers of coverage:
//!
//! * the fixed Q1–Q12 microbenchmark (pattern, lookup, aggregation) on the
//!   medical dataset — the grid the acceptance gate names;
//! * a property test over generated statements (shape × literal filter ×
//!   SKIP/LIMIT windows) comparing a CSR and a memory graph loaded with
//!   the same instance. Its root `=` shapes take the memory graph's
//!   equality seek while the CSR graph scans the label, so they also hold
//!   the seek to the scan's rows and order.

use pgso_bench::{microbenchmark, DatasetId, Workbench};
use pgso_core::{optimize_nsc, OptimizerConfig};
use pgso_datagen::{load_into, InstanceKg};
use pgso_graphstore::{CsrGraph, MemoryGraph};
use pgso_ontology::WorkloadDistribution;
use pgso_pgschema::PropertyGraphSchema;
use pgso_query::{execute_statement, parse_named, rewrite_statement, Statement};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One schema's worth of graphs: the memory reference plus the CSR backend
/// under test, both loaded from the same instance.
struct SchemaFixture {
    memory: MemoryGraph,
    csr: CsrGraph,
}

struct Fixture {
    direct: SchemaFixture,
    optimized: SchemaFixture,
    optimized_schema: PropertyGraphSchema,
    /// The drug names the graphs hold, read back from the DIR graph (as
    /// the serving benchmark's parameter pool reads them).
    drug_names: Vec<String>,
}

fn load_schema(
    wb: &Workbench,
    schema: &PropertyGraphSchema,
    instance: &InstanceKg,
) -> SchemaFixture {
    let mut memory = MemoryGraph::new();
    load_into(&mut memory, &wb.ontology, schema, instance);
    let mut csr = CsrGraph::new();
    load_into(&mut csr, &wb.ontology, schema, instance);
    SchemaFixture { memory, csr }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let wb = Workbench::new(DatasetId::Med, WorkloadDistribution::Uniform, 3);
        let instance = InstanceKg::generate(&wb.ontology, &wb.statistics, 0.05, 3);
        let direct_schema = PropertyGraphSchema::direct_from_ontology(&wb.ontology);
        let optimized_schema = optimize_nsc(wb.input(), &OptimizerConfig::default()).schema;
        let direct = load_schema(&wb, &direct_schema, &instance);
        let names = parse_named("MATCH (d:Drug) RETURN d.name", "names").unwrap();
        let rows = execute_statement(&names, &direct.memory).rows;
        let drug_names: Vec<String> =
            rows.iter().filter_map(|row| row[0].as_str().map(str::to_string)).collect();
        assert!(!drug_names.is_empty(), "the graph holds no drugs");
        Fixture {
            direct,
            optimized: load_schema(&wb, &optimized_schema, &instance),
            optimized_schema,
            drug_names,
        }
    })
}

/// Executes `stmt` on the memory reference and on the CSR backend and
/// asserts bit-identical rows.
fn assert_rows_match(fx: &SchemaFixture, stmt: &Statement, context: &str) {
    let reference = execute_statement(stmt, &fx.memory);
    let got = execute_statement(stmt, &fx.csr);
    assert_eq!(
        got.rows,
        reference.rows,
        "{context} rows diverged on csr (memory reference: {} rows, csr: {} rows)",
        reference.rows.len(),
        got.rows.len()
    );
    assert_eq!(got.matches, reference.matches, "{context} matches on csr");
}

#[test]
fn q1_to_q12_rows_are_bit_identical_on_csr_at_1_and_4_shards() {
    let fx = fixture();
    for bq in microbenchmark().iter().filter(|q| q.dataset == DatasetId::Med) {
        // DIR statement on the direct-schema graphs …
        assert_rows_match(&fx.direct, &bq.query, &format!("{} DIR", bq.query.name));
        // … and its optimizer rewrite on the optimized-schema graphs.
        let rewritten = rewrite_statement(&bq.query, &fx.optimized_schema);
        assert_rows_match(&fx.optimized, &rewritten, &format!("{} OPT", bq.query.name));
    }
}

/// Statement shapes the generator draws from: `{0}` is a digit-bearing
/// needle, `{1}`/`{2}` are SKIP/LIMIT counts and `{3}` a drug name the graph
/// holds (with a suffix, one it does not).
const SHAPES: [&str; 8] = [
    "MATCH (d:Drug) WHERE d.name CONTAINS '{0}' RETURN d.name ORDER BY d.name SKIP {1} LIMIT {2}",
    "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE i.desc CONTAINS '{0}' \
     RETURN DISTINCT i.desc ORDER BY i.desc DESC LIMIT {2}",
    "MATCH (p:Patient) OPTIONAL MATCH (p)-[:hasEncounter]->(e:Encounter) \
     RETURN p.mrn, e.encounterId SKIP {1} LIMIT {2}",
    "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) \
     RETURN size(collect(dr.drugRouteId)) LIMIT {2}",
    "MATCH (d:Drug) WHERE d.name = '{3}' RETURN d.name",
    "MATCH (d:Drug) WHERE d.name = '{3}_absent' RETURN d.name",
    "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name = '{3}' RETURN d.name, i.desc",
    "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name = '{3}' \
     RETURN i.desc SKIP {1} LIMIT {2}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn generated_statements_answer_identically_on_csr(
        shape in 0usize..SHAPES.len(),
        needle in 0u32..10,
        skip in 0usize..5,
        limit in 1usize..24,
        drug in 0usize..usize::MAX,
    ) {
        let fx = fixture();
        let text = SHAPES[shape]
            .replace("{0}", &needle.to_string())
            .replace("{1}", &skip.to_string())
            .replace("{2}", &limit.to_string())
            .replace("{3}", &fx.drug_names[drug % fx.drug_names.len()]);
        let stmt = parse_named(&text, "gen").expect("generated statement parses");
        for (schema, sfx) in [("DIR", &fx.direct), ("OPT", &fx.optimized)] {
            let stmt = if schema == "OPT" {
                rewrite_statement(&stmt, &fx.optimized_schema)
            } else {
                stmt.clone()
            };
            let reference = execute_statement(&stmt, &sfx.memory);
            let got = execute_statement(&stmt, &sfx.csr);
            prop_assert_eq!(&got.rows, &reference.rows, "{} csr diverged: {}", schema, text);
            prop_assert_eq!(got.matches, reference.matches, "{} csr matches: {}", schema, text);
            if shape == 4 {
                // Drawn from the graph, so the point lookup finds its drug.
                prop_assert_eq!(reference.rows.len(), 1, "{} point lookup: {}", schema, text);
            }
        }
    }
}

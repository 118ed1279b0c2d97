//! Acceptance tests for the sharded read path: for every microbenchmark
//! statement Q1–Q12, a `ShardedGraph` at 1, 2 and 4 shards must return row
//! sets identical to a monolithic `MemoryGraph` — under both the direct
//! and the optimized schema, on the serial *and* the forced-parallel
//! fan-out executor — and statements with `ORDER BY` must come back in
//! identical order.

use pgso::ontology::catalog;
use pgso::prelude::*;
use pgso_bench::{microbenchmark, DatasetId};
use pgso_graphstore::ShardedGraph;
use pgso_query::{execute_statement_with, ExecConfig};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// One dataset with its instance graphs prebuilt for both schemas at every
/// shard count (the graphs are read-only during execution, so building them
/// once per test keeps the suite fast).
struct Dataset {
    name: &'static str,
    direct: LoadedSchema,
    optimized: LoadedSchema,
}

struct LoadedSchema {
    schema: PropertyGraphSchema,
    mono: MemoryGraph,
    sharded: Vec<ShardedGraph>,
}

fn load_schema(
    ontology: &Ontology,
    instance: &InstanceKg,
    schema: PropertyGraphSchema,
) -> LoadedSchema {
    let mut mono = MemoryGraph::new();
    load_into(&mut mono, ontology, &schema, instance);
    let sharded =
        SHARD_COUNTS.iter().map(|&n| load_sharded(ontology, &schema, instance, n).0).collect();
    LoadedSchema { schema, mono, sharded }
}

fn dataset(id: DatasetId) -> Dataset {
    let (name, ontology) = match id {
        DatasetId::Med => ("MED", catalog::medical()),
        DatasetId::Fin => ("FIN", catalog::financial()),
    };
    let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 11);
    let workload = AccessFrequencies::uniform(&ontology, 10_000.0);
    let instance = InstanceKg::generate(&ontology, &stats, 0.05, 11);
    let direct = PropertyGraphSchema::direct_from_ontology(&ontology);
    let optimized = optimize_nsc(
        OptimizerInput::new(&ontology, &stats, &workload),
        &OptimizerConfig::default(),
    )
    .schema;
    Dataset {
        name,
        direct: load_schema(&ontology, &instance, direct),
        optimized: load_schema(&ontology, &instance, optimized),
    }
}

/// Runs `stmt` on the monolithic graph (serially) and on the prebuilt
/// sharded graphs (serial and forced-parallel), asserting identical rows.
fn assert_shard_equivalence(label: &str, dataset_name: &str, stmt: &Statement, on: &LoadedSchema) {
    let expected = execute_statement_with(stmt, &on.mono, &ExecConfig::serial());
    for (sharded, &shard_count) in on.sharded.iter().zip(&SHARD_COUNTS) {
        for (mode, config) in
            [("serial", ExecConfig::serial()), ("parallel", ExecConfig::always_parallel())]
        {
            let got = execute_statement_with(stmt, sharded, &config);
            assert_eq!(
                expected.rows, got.rows,
                "{label} on {dataset_name} at {shard_count} shards ({mode}): rows diverged"
            );
            assert_eq!(
                expected.matches, got.matches,
                "{label} on {dataset_name} at {shard_count} shards ({mode}): match count diverged"
            );
        }
    }
}

#[test]
fn q1_to_q12_rows_identical_across_shard_counts_and_schemas() {
    let med = dataset(DatasetId::Med);
    let fin = dataset(DatasetId::Fin);
    for bench_query in microbenchmark() {
        let ds = match bench_query.dataset {
            DatasetId::Med => &med,
            DatasetId::Fin => &fin,
        };
        let name = &bench_query.query.name;
        // DIR: the statement as written.
        assert_shard_equivalence(&format!("{name}/DIR"), ds.name, &bench_query.query, &ds.direct);
        // OPT: the statement rewritten onto the optimized schema.
        let rewritten = rewrite_statement(&bench_query.query, &ds.optimized.schema);
        assert_shard_equivalence(&format!("{name}/OPT"), ds.name, &rewritten, &ds.optimized);
    }
}

#[test]
fn order_by_statements_keep_identical_ordering_across_shards() {
    let med = dataset(DatasetId::Med);
    let statements = [
        "MATCH (d:Drug) RETURN d.name ORDER BY d.name",
        "MATCH (d:Drug)-[:treat]->(i:Indication) \
         RETURN d.name, i.desc ORDER BY i.desc DESC, d.name LIMIT 25",
        "MATCH (p:Patient) OPTIONAL MATCH (p)-[:hasEncounter]->(e:Encounter) \
         RETURN DISTINCT p.mrn, e.encounterId ORDER BY p.mrn SKIP 3 LIMIT 40",
        "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE i.desc CONTAINS 'instance' \
         RETURN i.desc ORDER BY i.desc",
    ];
    for text in statements {
        let stmt = parse(text).expect("statement parses");
        assert_shard_equivalence(&format!("{text}/DIR"), med.name, &stmt, &med.direct);
        let rewritten = rewrite_statement(&stmt, &med.optimized.schema);
        assert_shard_equivalence(&format!("{text}/OPT"), med.name, &rewritten, &med.optimized);
    }
}

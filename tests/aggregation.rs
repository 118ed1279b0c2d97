//! Aggregation equivalence matrix: COUNT / COUNT DISTINCT / SUM / MIN / MAX
//! / AVG / GROUP BY variants derived from the Q1–Q12 microbenchmark must
//! return **identical rows** across schemas and storage layouts, serial and
//! forced-parallel fan-out:
//!
//! * **MED** — full DIR vs OPT × 1 vs 4 shards: the rewritten statement may
//!   answer per-element aggregates from replicated LIST properties, and
//!   flattening those lists must reproduce the DIR per-binding multiset.
//! * **FIN** — 1 vs 4 shards under each schema. Cross-schema equality is
//!   *not* asserted for FIN: the reconstruction's 1:1 relationships chain
//!   into one mega-merged vertex type while the synthesized instance data
//!   violates the 1:1 cardinality the merge rule assumes, so even the
//!   pre-existing lookup rewrites (Q4, Q11) change their match sets. That
//!   provenance hole predates the aggregation surface and is recorded as a
//!   ROADMAP follow-on (provenance-filtered rewrites over merged labels).

use pgso::ontology::catalog;
use pgso::prelude::*;
use pgso::query::{ReturnItem, Row};
use pgso_bench::{microbenchmark, DatasetId};

struct Setup {
    opt_schema: PropertyGraphSchema,
    dir_mono: MemoryGraph,
    opt_mono: MemoryGraph,
    dir_shard: ShardedGraph,
    opt_shard: ShardedGraph,
}

fn setup(dataset: DatasetId) -> Setup {
    let ontology = match dataset {
        DatasetId::Med => catalog::medical(),
        DatasetId::Fin => catalog::financial(),
    };
    let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 13);
    let workload = AccessFrequencies::uniform(&ontology, 10_000.0);
    let outcome = optimize_nsc(
        OptimizerInput::new(&ontology, &stats, &workload),
        &OptimizerConfig::default(),
    );
    let direct_schema = PropertyGraphSchema::direct_from_ontology(&ontology);
    let instance = InstanceKg::generate(&ontology, &stats, 0.04, 13);
    let mut dir_mono = MemoryGraph::new();
    load_into(&mut dir_mono, &ontology, &direct_schema, &instance);
    let mut opt_mono = MemoryGraph::new();
    load_into(&mut opt_mono, &ontology, &outcome.schema, &instance);
    let (dir_shard, _) = load_sharded(&ontology, &direct_schema, &instance, 4);
    let (opt_shard, _) = load_sharded(&ontology, &outcome.schema, &instance, 4);
    Setup { opt_schema: outcome.schema, dir_mono, opt_mono, dir_shard, opt_shard }
}

/// Asserts `stmt` (written against DIR) answers identically on every
/// applicable backend combination. With `cross_schema`, the OPT rewrite at
/// both shard counts must match the DIR reference; without, each schema is
/// only held to 1-shard vs 4-shard agreement.
fn assert_equivalent(setup: &Setup, stmt: &Statement, cross_schema: bool, label: &str) {
    let rewritten = rewrite_statement(stmt, &setup.opt_schema);
    let dir_reference = execute_statement_with(stmt, &setup.dir_mono, &ExecConfig::serial());
    let opt_reference = execute_statement_with(&rewritten, &setup.opt_mono, &ExecConfig::serial());
    let combos: [(&dyn GraphBackend, &Statement, &Vec<Row>, &str); 3] = [
        (&setup.dir_shard, stmt, &dir_reference.rows, "DIR@4"),
        (&setup.opt_shard, &rewritten, &opt_reference.rows, "OPT@4"),
        (&setup.opt_mono, &rewritten, &opt_reference.rows, "OPT@1"),
    ];
    for (backend, statement, expected, name) in combos {
        for config in [ExecConfig::serial(), ExecConfig::always_parallel()] {
            let got = execute_statement_with(statement, backend, &config);
            assert_eq!(
                expected, &got.rows,
                "{label} diverged on {name} (parallel={})\n  DIR: {stmt}\n  OPT: {rewritten}",
                config.parallel
            );
        }
    }
    if cross_schema {
        assert_eq!(
            dir_reference.rows, opt_reference.rows,
            "{label}: DIR vs OPT rows must be identical\n  DIR: {stmt}\n  OPT: {rewritten}"
        );
    }
}

fn cross_schema(dataset: DatasetId) -> bool {
    matches!(dataset, DatasetId::Med)
}

/// COUNT and COUNT(DISTINCT …) over every variable of every microbenchmark
/// query: binding multiplicities and distinct vertex counts must survive the
/// rewrite (merged variables still bind the same match sets) and the
/// sharding.
#[test]
fn count_variants_of_q1_q12_are_equivalent() {
    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let setup = setup(dataset);
        for bq in microbenchmark().into_iter().filter(|q| q.dataset == dataset) {
            let mut stmt = bq.query.clone();
            stmt.returns = stmt
                .nodes
                .iter()
                .flat_map(|n| {
                    [
                        ReturnItem::Aggregate {
                            agg: Aggregate::Count,
                            var: n.var.clone(),
                            property: None,
                        },
                        ReturnItem::Aggregate {
                            agg: Aggregate::CountDistinct,
                            var: n.var.clone(),
                            property: None,
                        },
                    ]
                })
                .collect();
            let name = format!("{}-counts", stmt.name);
            assert_equivalent(&setup, &stmt, cross_schema(dataset), &name);
        }
    }
}

/// Per-element aggregate variants (SUM/MIN/MAX/AVG, COUNT(DISTINCT v.p),
/// size(COLLECT(v.p))) of the aggregation queries Q9–Q12: on OPT these may
/// collapse onto replicated LIST properties, and flattening the lists must
/// reproduce the DIR per-binding multiset exactly.
#[test]
fn per_element_variants_of_q9_q12_are_equivalent() {
    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let setup = setup(dataset);
        for bq in microbenchmark()
            .into_iter()
            .filter(|q| q.dataset == dataset && q.family == "aggregation")
        {
            let ReturnItem::Aggregate { var, property: Some(property), .. } =
                bq.query.returns[0].clone()
            else {
                panic!("{} is not a property aggregation", bq.query.name);
            };
            let mut stmt = bq.query.clone();
            stmt.returns = [
                Aggregate::CollectCount,
                Aggregate::CountDistinct,
                Aggregate::Sum,
                Aggregate::Min,
                Aggregate::Max,
                Aggregate::Avg,
            ]
            .into_iter()
            .map(|agg| ReturnItem::Aggregate {
                agg,
                var: var.clone(),
                property: Some(property.clone()),
            })
            .collect();
            let name = format!("{}-per-element", stmt.name);
            let rewritten = rewrite_statement(&stmt, &setup.opt_schema);
            assert_equivalent(&setup, &stmt, cross_schema(dataset), &name);
            // When the MED optimizer replicated the property, the rewrite
            // must actually have used the shortcut (the equivalence above
            // then proves flattening correct, not just trivially equal
            // plans).
            if cross_schema(dataset) && rewritten.edges.is_empty() {
                assert!(
                    rewritten.returns.iter().all(|r| matches!(
                        r,
                        ReturnItem::Aggregate { property: Some(p), .. } if p.contains('.')
                    )),
                    "{name}: edge-free rewrite must aggregate replicated properties: {rewritten}"
                );
            }
        }
    }
}

/// GROUP BY variants with deterministic output ordering: per-group counts,
/// sums and distinct counts grouped by the anchor entity. Grouped rewrites
/// keep the provider traversal (an anchor with no providers must not gain a
/// group on OPT), so DIR vs OPT groups match exactly.
#[test]
fn group_by_variants_are_equivalent() {
    let med = [
        "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) \
         RETURN d.name, count(dr), count(DISTINCT dr) GROUP BY d ORDER BY d.name",
        "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) \
         RETURN d.name, size(collect(dr.drugRouteId)), count(DISTINCT dr.drugRouteId), \
         min(dr.drugRouteId), max(dr.drugRouteId) GROUP BY d ORDER BY d.name",
        // Numeric aggregation per patient over Date-typed (integer) values.
        "MATCH (p:Patient)-[:hasEncounter]->(e:Encounter) \
         RETURN p.mrn, sum(e.date), avg(e.date), count(DISTINCT e.encounterId) \
         GROUP BY p ORDER BY p.mrn",
        // Windowed groups: ORDER BY + SKIP/LIMIT over the group rows.
        "MATCH (d:Drug)-[:treat]->(i:Indication) \
         RETURN d.name, count(i) GROUP BY d ORDER BY d.name DESC SKIP 1 LIMIT 5",
    ];
    let fin = [
        "MATCH (corp:Corporation), (con:Contract), (con)-[:isManagedBy]->(corp) \
         RETURN corp.hasLegalName, count(con), sum(con.hasEffectiveDate) \
         GROUP BY corp ORDER BY corp.hasLegalName",
        "MATCH (corp:Corporation)-[:employsOfficer]->(o:Officer) \
         RETURN corp.hasLegalName, count(DISTINCT o.title), min(o.title), max(o.title) \
         GROUP BY corp ORDER BY corp.hasLegalName",
    ];
    for (dataset, texts) in [(DatasetId::Med, &med[..]), (DatasetId::Fin, &fin[..])] {
        let setup = setup(dataset);
        for text in texts {
            let stmt = parse_named(text, "grouped").expect(text);
            assert!(!stmt.group_by.is_empty());
            let reference = execute_statement_with(&stmt, &setup.dir_mono, &ExecConfig::serial());
            assert!(!reference.rows.is_empty(), "fixture must produce groups: {text}");
            assert_equivalent(&setup, &stmt, cross_schema(dataset), text);
        }
    }
}

/// HAVING variants: group filters over counts and numeric aggregates must
/// survive the DIR→OPT rewrite (the HAVING variable is pinned, its property
/// references renamed) and the shard fan-out, with the filter applied before
/// windowing on every backend.
#[test]
fn having_variants_are_equivalent() {
    let med = [
        "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) \
         RETURN d.name, count(dr) GROUP BY d HAVING count(dr) >= 2 ORDER BY d.name",
        "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) \
         RETURN d.name, min(dr.drugRouteId) GROUP BY d \
         HAVING count(DISTINCT dr.drugRouteId) >= 1 AND min(dr.drugRouteId) != '' \
         ORDER BY d.name",
        // HAVING before windowing: the surviving groups are windowed, not
        // the other way around.
        "MATCH (p:Patient)-[:hasEncounter]->(e:Encounter) \
         RETURN p.mrn, count(e) GROUP BY p HAVING count(e) >= 1 \
         ORDER BY p.mrn SKIP 1 LIMIT 4",
    ];
    let fin = ["MATCH (corp:Corporation)-[:employsOfficer]->(o:Officer) \
         RETURN corp.hasLegalName, count(o) GROUP BY corp \
         HAVING count(o) >= 2 ORDER BY corp.hasLegalName"];
    for (dataset, texts) in [(DatasetId::Med, &med[..]), (DatasetId::Fin, &fin[..])] {
        let setup = setup(dataset);
        for text in texts {
            let stmt = parse_named(text, "having").expect(text);
            assert!(!stmt.having.is_empty());
            let unfiltered = {
                let mut s = stmt.clone();
                s.having.clear();
                s
            };
            let all = execute_statement_with(&unfiltered, &setup.dir_mono, &ExecConfig::serial());
            let kept = execute_statement_with(&stmt, &setup.dir_mono, &ExecConfig::serial());
            assert!(!kept.rows.is_empty(), "fixture must keep some groups: {text}");
            assert!(kept.rows.len() <= all.rows.len(), "HAVING can only drop groups: {text}");
            assert_equivalent(&setup, &stmt, cross_schema(dataset), text);
        }
    }
}

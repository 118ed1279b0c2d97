//! Aggregation equivalence matrix: COUNT / COUNT DISTINCT / SUM / MIN / MAX
//! / AVG / GROUP BY / HAVING variants derived from the Q1–Q12
//! microbenchmark must return **identical rows** on DIR and on its OPT
//! rewrite, compared by value:
//!
//! * **MED** — every case: the rewritten statement may answer per-element
//!   aggregates from replicated LIST properties, and flattening those lists
//!   must reproduce the DIR per-binding multiset.
//! * **FIN** — every case except those in [`FIN_KNOWN_DIFFERENCES`], which
//!   must still differ. The reconstruction's 1:1 relationships chain into
//!   one mega-merged vertex type while the synthesized instance data
//!   violates the 1:1 cardinality the merge rule assumes, so rewrites over
//!   the merged label change their match sets (ROADMAP direction 1). The
//!   fix shrinks the list; a listed case that starts agreeing fails here
//!   until it is taken off.

use pgso::ontology::catalog;
use pgso::prelude::*;
use pgso::query::{ReturnItem, Row};
use pgso_bench::{microbenchmark, DatasetId};

const FIN_GROUP_BY: [&str; 2] = [
    "MATCH (corp:Corporation), (con:Contract), (con)-[:isManagedBy]->(corp) \
     RETURN corp.hasLegalName, count(con), sum(con.hasEffectiveDate) \
     GROUP BY corp ORDER BY corp.hasLegalName",
    "MATCH (corp:Corporation)-[:employsOfficer]->(o:Officer) \
     RETURN corp.hasLegalName, count(DISTINCT o.title), min(o.title), max(o.title) \
     GROUP BY corp ORDER BY corp.hasLegalName",
];

const FIN_HAVING: [&str; 1] = ["MATCH (corp:Corporation)-[:employsOfficer]->(o:Officer) \
     RETURN corp.hasLegalName, count(o) GROUP BY corp \
     HAVING count(o) >= 2 ORDER BY corp.hasLegalName"];

/// The FIN cases whose OPT rows differ from DIR today, by label. Every other
/// FIN case is held to DIR-vs-OPT equality.
const FIN_KNOWN_DIFFERENCES: [&str; 8] = [
    "Q4-counts",
    "Q7-counts",
    "Q11-counts",
    "Q11-per-element",
    "Q12-counts",
    FIN_GROUP_BY[0],
    FIN_GROUP_BY[1],
    FIN_HAVING[0],
];

/// The plain Q1–Q12 whose OPT rows differ from DIR today. Every other plain
/// query is held to DIR-vs-OPT equality by value.
const PLAIN_KNOWN_DIFFERENCES: [(DatasetId, &str); 4] = [
    (DatasetId::Med, "Q2"),
    (DatasetId::Fin, "Q4"),
    (DatasetId::Fin, "Q7"),
    (DatasetId::Fin, "Q11"),
];

struct Setup {
    dataset: DatasetId,
    opt_schema: PropertyGraphSchema,
    dir_graph: MemoryGraph,
    opt_graph: MemoryGraph,
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
    let mut dir_graph = MemoryGraph::new();
    load_into(&mut dir_graph, &ontology, &direct_schema, &instance);
    let mut opt_graph = MemoryGraph::new();
    load_into(&mut opt_graph, &ontology, &outcome.schema, &instance);
    Setup { dataset, opt_schema: outcome.schema, dir_graph, opt_graph }
}

/// Asserts that `stmt` (written against DIR) and its OPT rewrite return the
/// same rows — or, for a listed FIN case, that they still differ.
fn assert_equivalent(setup: &Setup, stmt: &Statement, label: &str) {
    let rewritten = rewrite_statement(stmt, &setup.opt_schema);
    let dir = execute_statement(stmt, &setup.dir_graph).rows;
    let opt = execute_statement(&rewritten, &setup.opt_graph).rows;
    if setup.dataset == DatasetId::Fin && FIN_KNOWN_DIFFERENCES.contains(&label) {
        assert_ne!(
            dir, opt,
            "{label} now agrees across schemas: take it off FIN_KNOWN_DIFFERENCES\n  \
             DIR: {stmt}\n  OPT: {rewritten}"
        );
    } else {
        assert_eq!(
            dir, opt,
            "{label}: DIR vs OPT rows must be identical\n  DIR: {stmt}\n  OPT: {rewritten}"
        );
    }
}

/// Q1–Q12 as written return the same rows on DIR and on OPT, compared by
/// value in sorted order (a rewrite may enumerate matches in another order),
/// except the cases in [`PLAIN_KNOWN_DIFFERENCES`], which must still differ.
#[test]
fn plain_q1_q12_are_equivalent_by_value() {
    let sorted = |mut rows: Vec<Row>| {
        rows.sort_by_cached_key(|row| format!("{row:?}"));
        rows
    };
    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let setup = setup(dataset);
        for bq in microbenchmark().into_iter().filter(|q| q.dataset == dataset) {
            let (stmt, label) = (&bq.query, format!("{} {}", dataset.label(), bq.query.name));
            let rewritten = rewrite_statement(stmt, &setup.opt_schema);
            let dir = sorted(execute_statement(stmt, &setup.dir_graph).rows);
            let opt = sorted(execute_statement(&rewritten, &setup.opt_graph).rows);
            if PLAIN_KNOWN_DIFFERENCES.contains(&(dataset, stmt.name.as_str())) {
                assert_ne!(
                    dir, opt,
                    "{label} now agrees across schemas: take it off PLAIN_KNOWN_DIFFERENCES\n  \
                     DIR: {stmt}\n  OPT: {rewritten}"
                );
            } else {
                assert_eq!(
                    dir, opt,
                    "{label}: DIR vs OPT rows must be identical\n  DIR: {stmt}\n  OPT: {rewritten}"
                );
            }
        }
    }
}

/// COUNT and COUNT(DISTINCT …) over every variable of every microbenchmark
/// query: binding multiplicities and distinct vertex counts must survive the
/// rewrite (merged variables still bind the same match sets).
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
            assert_equivalent(&setup, &stmt, &name);
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
            assert_equivalent(&setup, &stmt, &name);
            // When the MED optimizer replicated the property, the rewrite
            // must actually have used the shortcut (the equivalence above
            // then proves flattening correct, not just trivially equal
            // plans).
            if dataset == DatasetId::Med && rewritten.edges.is_empty() {
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
    for (dataset, texts) in [(DatasetId::Med, &med[..]), (DatasetId::Fin, &FIN_GROUP_BY[..])] {
        let setup = setup(dataset);
        for text in texts {
            let stmt = parse_named(text, "grouped").expect(text);
            assert!(!stmt.group_by.is_empty());
            let reference = execute_statement(&stmt, &setup.dir_graph);
            assert!(!reference.rows.is_empty(), "fixture must produce groups: {text}");
            assert_equivalent(&setup, &stmt, text);
        }
    }
}

/// HAVING variants: group filters over counts and numeric aggregates must
/// survive the DIR→OPT rewrite (the HAVING variable is pinned, its property
/// references renamed), with the filter applied before windowing.
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
    for (dataset, texts) in [(DatasetId::Med, &med[..]), (DatasetId::Fin, &FIN_HAVING[..])] {
        let setup = setup(dataset);
        for text in texts {
            let stmt = parse_named(text, "having").expect(text);
            assert!(!stmt.having.is_empty());
            let unfiltered = {
                let mut s = stmt.clone();
                s.having.clear();
                s
            };
            let all = execute_statement(&unfiltered, &setup.dir_graph);
            let kept = execute_statement(&stmt, &setup.dir_graph);
            assert!(!kept.rows.is_empty(), "fixture must keep some groups: {text}");
            assert!(kept.rows.len() <= all.rows.len(), "HAVING can only drop groups: {text}");
            assert_equivalent(&setup, &stmt, text);
        }
    }
}

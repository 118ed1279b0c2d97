//! The microbenchmark queries Q1–Q12 of Section 5.3.
//!
//! Q1–Q4 are pattern-matching queries (3 vertices / 2 edges), Q5–Q8 are
//! vertex property lookups, Q9–Q12 are aggregations over a neighbour's
//! property values. Queries are expressed against the **direct** schema
//! (concept names as labels) and rewritten onto the optimized schema with
//! [`pgso_query::rewrite_statement`] at run time, exactly as the paper does.
//!
//! The MED and FIN datasets are reconstructions (see `pgso-ontology::catalog`),
//! so queries referencing concepts that only exist in the original proprietary
//! ontologies are re-targeted to equivalent concepts of the reconstruction;
//! each query still exercises the same rule (union, inheritance, 1:1, 1:M or
//! M:N) as its counterpart in the paper.

use pgso_query::{Aggregate, Statement};

/// Which dataset a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// The medical knowledge graph.
    Med,
    /// The financial knowledge graph.
    Fin,
}

impl DatasetId {
    /// Display label ("MED" / "FIN").
    pub fn label(&self) -> &'static str {
        match self {
            DatasetId::Med => "MED",
            DatasetId::Fin => "FIN",
        }
    }
}

/// A microbenchmark query together with the dataset it targets.
#[derive(Debug, Clone)]
pub struct BenchQuery {
    /// Dataset the query runs on.
    pub dataset: DatasetId,
    /// Query family ("pattern", "lookup", "aggregation").
    pub family: &'static str,
    /// The query, expressed against the direct schema. Q1-Q12 are bare
    /// pattern statements (no WHERE/ORDER BY/LIMIT) so the reproduce numbers
    /// stay comparable to the paper's.
    pub query: Statement,
}

/// Builds the twelve microbenchmark queries.
pub fn microbenchmark() -> Vec<BenchQuery> {
    vec![
        // ---- Pattern matching (Q1-Q4) -------------------------------------
        BenchQuery {
            dataset: DatasetId::Med,
            family: "pattern",
            query: Statement::builder("Q1")
                .node("d", "Drug")
                .node("di", "DrugInteraction")
                .node("dfi", "DrugFoodInteraction")
                .edge("d", "has", "di")
                .edge("di", "isA", "dfi")
                .ret_property("d", "name")
                .ret_property("dfi", "risk")
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Med,
            family: "pattern",
            query: Statement::builder("Q2")
                .node("d", "Drug")
                .node("i", "Indication")
                .node("c", "Condition")
                .edge("d", "treat", "i")
                .edge("i", "hasCondition", "c")
                .ret_property("d", "name")
                .ret_property("c", "name")
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Fin,
            family: "pattern",
            query: Statement::builder("Q3")
                .node("aa", "AutonomousAgent")
                .node("p", "Person")
                .node("cp", "ContractParty")
                .edge("aa", "isA", "p")
                .edge("p", "isA", "cp")
                .ret_vertex("aa")
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Fin,
            family: "pattern",
            query: Statement::builder("Q4")
                .node("l", "Lender")
                .node("b", "Bank")
                .node("a", "Account")
                .edge("l", "unionOf", "b")
                .edge("b", "holdsAccount", "a")
                .ret_property("a", "accountNumber")
                .build(),
        },
        // ---- Property lookup (Q5-Q8) ---------------------------------------
        BenchQuery {
            dataset: DatasetId::Med,
            family: "lookup",
            query: Statement::builder("Q5")
                .node("di", "DrugInteraction")
                .node("dl", "DrugLabInteraction")
                .edge("di", "isA", "dl")
                .ret_property("di", "summary")
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Med,
            family: "lookup",
            query: Statement::builder("Q6")
                .node("se", "SideEffect")
                .node("ae", "AdverseEvent")
                .edge("se", "isA", "ae")
                .ret_property("se", "severity")
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Fin,
            family: "lookup",
            query: Statement::builder("Q7")
                .node("n", "Corporation")
                .ret_property("n", "hasLegalName")
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Fin,
            family: "lookup",
            query: Statement::builder("Q8")
                .node("fi", "FinancialInstrument")
                .node("b", "Bond")
                .edge("fi", "isA", "b")
                .ret_property("fi", "currency")
                .build(),
        },
        // ---- Aggregation (Q9-Q12) -------------------------------------------
        BenchQuery {
            dataset: DatasetId::Med,
            family: "aggregation",
            query: Statement::builder("Q9")
                .node("d", "Drug")
                .node("dr", "DrugRoute")
                .edge("d", "hasDrugRoute", "dr")
                .ret_aggregate(Aggregate::CollectCount, "dr", Some("drugRouteId"))
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Med,
            family: "aggregation",
            query: Statement::builder("Q10")
                .node("p", "Patient")
                .node("e", "Encounter")
                .edge("p", "hasEncounter", "e")
                .ret_aggregate(Aggregate::CollectCount, "e", Some("encounterId"))
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Fin,
            family: "aggregation",
            query: Statement::builder("Q11")
                .node("corp", "Corporation")
                .node("con", "Contract")
                .edge("con", "isManagedBy", "corp")
                .ret_aggregate(Aggregate::CollectCount, "con", Some("hasEffectiveDate"))
                .build(),
        },
        BenchQuery {
            dataset: DatasetId::Fin,
            family: "aggregation",
            query: Statement::builder("Q12")
                .node("corp", "Corporation")
                .node("o", "Officer")
                .edge("corp", "employsOfficer", "o")
                .ret_aggregate(Aggregate::CollectCount, "o", Some("title"))
                .build(),
        },
    ]
}

/// The 15-query mixed workload of the Figure 12 experiment: the twelve
/// microbenchmark queries plus repeats of the hottest ones, approximating the
/// paper's Zipf access pattern over key concepts.
pub fn figure12_workload(dataset: DatasetId) -> Vec<Statement> {
    let all = microbenchmark();
    let per_dataset: Vec<Statement> =
        all.iter().filter(|q| q.dataset == dataset).map(|q| q.query.clone()).collect();
    let mut workload = per_dataset.clone();
    // Repeat the first three (the key-concept queries) to reach 15 queries.
    for i in 0..(15usize.saturating_sub(workload.len())) {
        workload.push(per_dataset[i % per_dataset.len()].clone());
    }
    workload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_queries_in_three_families() {
        let all = microbenchmark();
        assert_eq!(all.len(), 12);
        assert_eq!(all.iter().filter(|q| q.family == "pattern").count(), 4);
        assert_eq!(all.iter().filter(|q| q.family == "lookup").count(), 4);
        assert_eq!(all.iter().filter(|q| q.family == "aggregation").count(), 4);
        assert_eq!(all.iter().filter(|q| q.dataset == DatasetId::Med).count(), 6);
        assert_eq!(all.iter().filter(|q| q.dataset == DatasetId::Fin).count(), 6);
    }

    #[test]
    fn query_labels_exist_in_catalog_ontologies() {
        let med = pgso_ontology::catalog::medical();
        let fin = pgso_ontology::catalog::financial();
        for bq in microbenchmark() {
            let ontology = match bq.dataset {
                DatasetId::Med => &med,
                DatasetId::Fin => &fin,
            };
            for node in &bq.query.nodes {
                assert!(
                    ontology.concept_by_name(&node.label).is_some(),
                    "{} references unknown concept {}",
                    bq.query.name,
                    node.label
                );
            }
        }
    }

    #[test]
    fn q1_to_q12_round_trip_through_the_text_front_end() {
        // Acceptance contract of the statement API: every microbenchmark
        // query renders to text that `parse` accepts and maps back to a
        // structurally equal statement.
        for bq in microbenchmark() {
            let text = bq.query.to_string();
            let parsed = pgso_query::parse(&text)
                .unwrap_or_else(|e| panic!("{}: {e} in `{text}`", bq.query.name));
            assert!(
                bq.query.structurally_eq(&parsed),
                "{} did not round-trip:\n  {text}\n  {parsed}",
                bq.query.name
            );
        }
    }

    #[test]
    fn q1_to_q12_fingerprints_are_pinned() {
        // Plan-cache keys of the paper's queries, FNV-1a of their text: a
        // change to the statement text must not move a key unnoticed.
        let measured: Vec<(String, u64)> = microbenchmark()
            .iter()
            .map(|bq| (bq.query.name.clone(), pgso_query::fingerprint_statement(&bq.query)))
            .collect();
        let pinned: Vec<(String, u64)> = [
            ("Q1", 10592130477277344713),
            ("Q2", 12182311549677986532),
            ("Q3", 14015045357764889450),
            ("Q4", 16521013793138279600),
            ("Q5", 9133509351642500518),
            ("Q6", 12440973545005786052),
            ("Q7", 11885677217369655427),
            ("Q8", 3862472230562826619),
            ("Q9", 7426707734325969267),
            ("Q10", 12794849339513673030),
            ("Q11", 13033656294534225508),
            ("Q12", 5693260880906445296),
        ]
        .into_iter()
        .map(|(name, key)| (name.to_string(), key))
        .collect();
        assert_eq!(measured, pinned);
    }

    #[test]
    fn workload_has_fifteen_queries() {
        assert_eq!(figure12_workload(DatasetId::Med).len(), 15);
        assert_eq!(figure12_workload(DatasetId::Fin).len(), 15);
        assert_eq!(DatasetId::Med.label(), "MED");
    }
}

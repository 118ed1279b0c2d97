//! The origin-keyed property lookup is total on every schema the optimizer
//! produces: for each vertex type T and each concept C it holds,
//! `VertexSchema::property_of` finds a scalar of T (not a LIST replica of
//! related vertices' values) for
//!
//! * every property of C, and
//! * every property of each `isA` ancestor of C that has no vertex type of
//!   its own (the inheritance rule pushed it down onto C).
//!
//! The grid is the paper's: MED and FIN under NSC, and under RC and CC at
//! every space fraction of Figures 8 and 9. A hole means a DIR query reading
//! that property has nothing to read on OPT: before push-down renamed on a
//! name clash, `Bond` lost `FinancialInstrument.currency` to
//! `Account.currency` (FIN Q8's wrong answer), and so did `Equity` and the
//! type that merges `Security` and `Option`.
//!
//! Union-level properties are out of scope: the union rule copies
//! relationships, not properties. That covers an ancestor 1:1-connected to a
//! union concept, whose merged node the union rule drops: FIN's
//! `LoanContract` merges with `Lender`, so `Loan` has no
//! `LoanContract.principal` under NSC.

use pgso_bench::experiments::{SPACE_FRACTIONS_FIN, SPACE_FRACTIONS_MED};
use pgso_bench::{DatasetId, Workbench};
use pgso_core::{optimize_concept_centric, optimize_relation_centric, OptimizerConfig};
use pgso_ontology::{ConceptId, Ontology, RelationshipKind, WorkloadDistribution};
use pgso_pgschema::PropertyGraphSchema;

/// `concept` and every concept `step` reaches from it, transitively.
fn closure(concept: ConceptId, step: impl Fn(ConceptId) -> Vec<ConceptId>) -> Vec<ConceptId> {
    let (mut reached, mut queue) = (vec![concept], vec![concept]);
    while let Some(next) = queue.pop() {
        for other in step(next) {
            if !reached.contains(&other) {
                reached.push(other);
                queue.push(other);
            }
        }
    }
    reached
}

/// The concepts whose properties a vertex holding `concept` must resolve:
/// the concept itself and its `isA` ancestors that have no vertex type and
/// are not union-level.
fn owners(ontology: &Ontology, schema: &PropertyGraphSchema, concept: ConceptId) -> Vec<ConceptId> {
    let one_to_one = |c: ConceptId| {
        let rels = ontology.relationships_of_kind(RelationshipKind::OneToOne);
        rels.filter_map(|(_, r)| (r.src == c).then_some(r.dst).or((r.dst == c).then_some(r.src)))
            .collect()
    };
    let union_level = |c| closure(c, one_to_one).into_iter().any(|c| ontology.is_union_concept(c));
    let mut owners = closure(concept, |c| ontology.parents(c));
    owners.retain(|&c| {
        c == concept
            || (schema.vertex_for_concept(&ontology.concept(c).name).is_none() && !union_level(c))
    });
    owners
}

/// Every `(vertex type, concept, property)` the schema cannot resolve, and
/// how many pairs were checked.
fn holes(ontology: &Ontology, schema: &PropertyGraphSchema) -> (Vec<String>, usize) {
    let (mut holes, mut checked) = (Vec::new(), 0);
    for vertex in schema.vertices() {
        for name in &vertex.merged_from {
            let concept = ontology.concept_by_name(name).expect("merged_from names a concept");
            for owner in owners(ontology, schema, concept) {
                let owner_name = &ontology.concept(owner).name;
                for &pid in ontology.concept_properties(owner) {
                    let property = &ontology.property(pid).name;
                    checked += 1;
                    if vertex.property_of(owner_name, property).is_none_or(|p| p.is_list) {
                        holes.push(format!("{} lacks {owner_name}.{property}", vertex.label));
                    }
                }
            }
        }
    }
    (holes, checked)
}

#[test]
fn every_concept_property_resolves_on_its_vertex_type() {
    for (dataset, fractions) in
        [(DatasetId::Med, SPACE_FRACTIONS_MED), (DatasetId::Fin, SPACE_FRACTIONS_FIN)]
    {
        let wb = Workbench::new(dataset, WorkloadDistribution::Uniform, 42);
        let base = OptimizerConfig::default();
        let nsc = wb.nsc(&base);
        let mut schemas = vec![("NSC".to_string(), nsc.schema.clone())];
        for &fraction in fractions {
            let budget = (nsc.total_cost as f64 * fraction).round() as u64;
            let config = OptimizerConfig { space_limit: Some(budget), ..base };
            let (rc, cc) = (optimize_relation_centric, optimize_concept_centric);
            schemas.push((format!("RC@{fraction}"), rc(wb.input(), &config).schema));
            schemas.push((format!("CC@{fraction}"), cc(wb.input(), &config).schema));
        }
        for (algorithm, schema) in &schemas {
            let (holes, checked) = holes(&wb.ontology, schema);
            assert!(checked > 0, "{} {algorithm}: nothing checked", dataset.label());
            assert!(
                holes.is_empty(),
                "{} {algorithm}: {} of {checked} concept properties have no scalar of that \
                 origin on their vertex type:\n  {}",
                dataset.label(),
                holes.len(),
                holes.join("\n  ")
            );
        }
    }
}

//! Shared optimizer plumbing: inputs, outcomes, plan application and the
//! unconstrained NSC algorithm (Algorithm 5).

use crate::config::OptimizerConfig;
use crate::cost::CostModel;
use crate::jaccard::InheritanceSimilarities;
use crate::rules::{enumerate_items, RuleItem};
use crate::sgraph::SchemaGraph;
use pgso_ontology::{AccessFrequencies, DataStatistics, Ontology};
use pgso_pgschema::PropertyGraphSchema;
use std::time::{Duration, Instant};

/// Everything the optimizer consumes: the ontology plus the optional side
/// information of Section 4.2 (data characteristics and workload summaries).
#[derive(Debug, Clone, Copy)]
pub struct OptimizerInput<'a> {
    /// The domain ontology.
    pub ontology: &'a Ontology,
    /// Instance cardinalities per concept and relationship.
    pub statistics: &'a DataStatistics,
    /// Access-frequency workload summary.
    pub frequencies: &'a AccessFrequencies,
}

impl<'a> OptimizerInput<'a> {
    /// Bundles the optimizer inputs.
    pub fn new(
        ontology: &'a Ontology,
        statistics: &'a DataStatistics,
        frequencies: &'a AccessFrequencies,
    ) -> Self {
        Self { ontology, statistics, frequencies }
    }
}

/// Which algorithm produced an [`OptimizationOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 5 — no space constraint.
    Nsc,
    /// Algorithm 7 — concept-centric.
    ConceptCentric,
    /// Algorithm 8 — relation-centric.
    RelationCentric,
    /// PGSG — the better of CC and RC.
    Pgsg,
}

impl Algorithm {
    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Nsc => "NSC",
            Algorithm::ConceptCentric => "CC",
            Algorithm::RelationCentric => "RC",
            Algorithm::Pgsg => "PGSG",
        }
    }
}

/// Result of running one of the optimization algorithms.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// The optimized property graph schema.
    pub schema: PropertyGraphSchema,
    /// Rule items that were selected and applied.
    pub selected: Vec<RuleItem>,
    /// Total benefit of the selected items (`B_SC`, or `B_NSC` for NSC).
    pub total_benefit: f64,
    /// Total space cost of the selected items in bytes.
    pub total_cost: u64,
    /// Algorithm that produced this outcome.
    pub algorithm: Algorithm,
    /// Wall-clock time spent inside the algorithm.
    pub elapsed: Duration,
}

impl OptimizationOutcome {
    /// Benefit ratio `BR = B_SC / B_NSC` against an unconstrained baseline.
    pub fn benefit_ratio(&self, unconstrained: &OptimizationOutcome) -> f64 {
        if unconstrained.total_benefit <= 0.0 {
            return 1.0;
        }
        (self.total_benefit / unconstrained.total_benefit).clamp(0.0, 1.0)
    }
}

/// Applies a set of selected rule items to the ontology's direct schema graph
/// until a fixpoint is reached (the `repeat ... until O = Oprev` loop of
/// Algorithm 5 restricted to the selected items) and emits the resulting
/// property graph schema.
///
/// Items are first brought into a canonical order (1:1 merges, then unions,
/// then inheritance, then property propagation; ties by relationship id).
/// Theorem 3 guarantees order independence for the union, inheritance, 1:M
/// and M:N rules but deliberately excludes the 1:1 rule, whose merges can
/// interact with inheritance push-downs; canonicalising makes the output a
/// pure function of the *selected set*, so NSC, CC and RC agree whenever they
/// select the same items.
pub fn apply_plan(
    input: OptimizerInput<'_>,
    similarities: &InheritanceSimilarities,
    items: &[RuleItem],
    config: &OptimizerConfig,
    schema_name: &str,
) -> PropertyGraphSchema {
    let mut ordered: Vec<RuleItem> = items.to_vec();
    ordered.sort_by_key(canonical_key);
    ordered.dedup();
    let mut graph = SchemaGraph::from_ontology(input.ontology);
    loop {
        let mut changed = false;
        for item in &ordered {
            changed |= graph.apply_item(item, input.ontology, similarities, config);
        }
        if !changed {
            break;
        }
    }
    graph.to_schema(input.ontology, schema_name)
}

/// Canonical application order for rule items; see [`apply_plan`].
fn canonical_key(item: &RuleItem) -> (u8, u32, u8, u32) {
    match *item {
        RuleItem::OneToOne(r) => (0, r.raw(), 0, 0),
        RuleItem::Union(r) => (1, r.raw(), 0, 0),
        RuleItem::Inheritance(r) => (2, r.raw(), 0, 0),
        RuleItem::PropagateProperty { rel, reverse, property } => {
            (3, rel.raw(), reverse as u8, property.raw())
        }
    }
}

/// Algorithm 5: apply every applicable rule with no space constraint. The
/// result (`PGS_NSC`) is unique regardless of rule order (Theorem 3) and its
/// total benefit is the `B_NSC` denominator of the benefit-ratio metric.
pub fn optimize_nsc(input: OptimizerInput<'_>, config: &OptimizerConfig) -> OptimizationOutcome {
    let start = Instant::now();
    let similarities = InheritanceSimilarities::compute(input.ontology);
    let items = enumerate_items(input.ontology, &similarities, config);
    let model =
        CostModel::new(input.ontology, input.statistics, input.frequencies, &similarities, *config);
    let schema =
        apply_plan(input, &similarities, &items, config, &format!("{}-nsc", input.ontology.name()));
    let total_benefit = model.total_benefit(&items);
    let total_cost = model.total_cost(&items);
    OptimizationOutcome {
        schema,
        selected: items,
        total_benefit,
        total_cost,
        algorithm: Algorithm::Nsc,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_ontology::{catalog, StatisticsConfig, WorkloadDistribution};

    fn input_for(ontology: &Ontology) -> (DataStatistics, AccessFrequencies) {
        let stats = DataStatistics::synthesize(ontology, &StatisticsConfig::small(), 7);
        let af = AccessFrequencies::generate(ontology, WorkloadDistribution::Uniform, 1_000.0, 7);
        (stats, af)
    }

    #[test]
    fn nsc_on_mini_ontology_matches_motivating_example() {
        let o = catalog::med_mini();
        let (stats, af) = input_for(&o);
        let input = OptimizerInput::new(&o, &stats, &af);
        let outcome = optimize_nsc(input, &OptimizerConfig::default());
        let s = &outcome.schema;
        // Union node removed, members directly reachable from Drug.
        assert!(!s.has_vertex("Risk"));
        assert!(s.edge("Drug", "cause", "ContraIndication").is_some());
        // Inheritance (JS = 0 < θ2) pushes the parent down.
        assert!(!s.has_vertex("DrugInteraction"));
        assert!(s.vertex("DrugFoodInteraction").unwrap().has_property("summary"));
        // 1:1 merged Indication + Condition.
        assert!(s.has_vertex("IndicationCondition"));
        // 1:M replicated LIST property on Drug (Figure 1(c)).
        assert!(s.vertex("Drug").unwrap().property("Indication.desc").unwrap().is_list);
        assert!(outcome.total_benefit > 0.0);
        assert!(outcome.total_cost > 0);
        assert_eq!(outcome.algorithm.label(), "NSC");
    }

    #[test]
    fn nsc_is_order_independent_on_catalog_ontologies() {
        // Theorem 3: applying the union, inheritance, 1:M and M:N rules in any
        // order yields the same PGS. The theorem (and therefore this test)
        // excludes the 1:1 rule, whose interaction with inheritance is
        // resolved by apply_plan's canonical ordering instead.
        for o in [catalog::med_mini(), catalog::medical()] {
            let config = OptimizerConfig::default();
            let similarities = InheritanceSimilarities::compute(&o);
            let mut items = enumerate_items(&o, &similarities, &config);
            items.retain(|i| !matches!(i, crate::rules::RuleItem::OneToOne(_)));

            let run = |ordered: &[crate::rules::RuleItem]| {
                let mut graph = crate::sgraph::SchemaGraph::from_ontology(&o);
                loop {
                    let mut changed = false;
                    for item in ordered {
                        changed |= graph.apply_item(item, &o, &similarities, &config);
                    }
                    if !changed {
                        break;
                    }
                }
                graph.to_schema(&o, "theorem3")
            };

            let forward = run(&items);
            let mut reversed_items = items.clone();
            reversed_items.reverse();
            assert_eq!(
                forward,
                run(&reversed_items),
                "rule order changed the PGS for {}",
                o.name()
            );

            let mut rotated = items.clone();
            rotated.rotate_left(items.len() / 2);
            assert_eq!(forward, run(&rotated));
        }
    }

    #[test]
    fn benefit_ratio_is_clamped_and_relative() {
        let o = catalog::med_mini();
        let (stats, af) = input_for(&o);
        let input = OptimizerInput::new(&o, &stats, &af);
        let nsc = optimize_nsc(input, &OptimizerConfig::default());
        assert_eq!(nsc.benefit_ratio(&nsc), 1.0);
        let mut half = nsc.clone();
        half.total_benefit = nsc.total_benefit / 2.0;
        assert!((half.benefit_ratio(&nsc) - 0.5).abs() < 1e-12);
        // A budget nothing fits in selects nothing: its ratio is +0, never -0.
        let none = crate::optimize_concept_centric(input, &OptimizerConfig::with_space_limit(0));
        assert!(none.selected.is_empty());
        assert!(none.total_benefit.is_sign_positive(), "{}", none.total_benefit);
        assert!(none.benefit_ratio(&nsc).is_sign_positive());
    }

    #[test]
    fn empty_plan_reproduces_direct_schema() {
        let o = catalog::medical();
        let (stats, af) = input_for(&o);
        let input = OptimizerInput::new(&o, &stats, &af);
        let similarities = InheritanceSimilarities::compute(&o);
        let schema = apply_plan(input, &similarities, &[], &OptimizerConfig::default(), "direct");
        assert_eq!(schema.vertex_count(), o.concept_count());
        assert_eq!(schema.edge_count(), o.relationship_count());
    }

    #[test]
    fn nsc_runs_on_full_catalogs() {
        for o in [catalog::medical(), catalog::financial()] {
            let (stats, af) = input_for(&o);
            let input = OptimizerInput::new(&o, &stats, &af);
            let outcome = optimize_nsc(input, &OptimizerConfig::default());
            assert!(outcome.schema.vertex_count() > 0);
            assert!(outcome.schema.dangling_edges().is_empty());
            assert!(outcome.total_benefit > 0.0);
        }
    }
}

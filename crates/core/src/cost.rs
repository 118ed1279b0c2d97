//! Cost-benefit model for rule items (Equations 3–5 of the paper).
//!
//! * **Union** (Eq. 3): benefit is the access frequency of the union
//!   relationship; cost is the number of instance edges copied from the union
//!   concept to the member concept.
//! * **Inheritance** (Eq. 4): benefit is the access frequency of the child's
//!   properties through the relationship, weighted by the Jaccard similarity;
//!   cost is the property bytes plus edges replicated on whichever side the
//!   rule rewrites (decided by the thresholds).
//! * **One-to-many / many-to-many** (Eq. 5): benefit is the access frequency
//!   of the replicated property; cost is `|r| × p.type` — one list element per
//!   instance edge.
//! * **One-to-one**: the rule merges vertices and never replicates data, so
//!   its cost is zero and it is always worth applying; its benefit is the
//!   access frequency of the relationship.

use crate::config::OptimizerConfig;
use crate::jaccard::InheritanceSimilarities;
use crate::rules::RuleItem;
use pgso_ontology::{
    AccessFrequencies, ConceptId, DataStatistics, Ontology, PropertyId, RelationshipId,
    RelationshipKind,
};

/// Evaluates the benefit and cost of rule items for one ontology, data
/// statistics and workload summary.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    ontology: &'a Ontology,
    statistics: &'a DataStatistics,
    frequencies: &'a AccessFrequencies,
    similarities: &'a InheritanceSimilarities,
    config: OptimizerConfig,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model.
    pub fn new(
        ontology: &'a Ontology,
        statistics: &'a DataStatistics,
        frequencies: &'a AccessFrequencies,
        similarities: &'a InheritanceSimilarities,
        config: OptimizerConfig,
    ) -> Self {
        Self { ontology, statistics, frequencies, similarities, config }
    }

    /// Benefit of applying a rule item (higher is better).
    pub fn benefit(&self, item: &RuleItem) -> f64 {
        match *item {
            RuleItem::Union(rel) | RuleItem::OneToOne(rel) => self.frequencies.relationship(rel),
            RuleItem::Inheritance(rel) => {
                let js = self.similarities.get(rel);
                let af = self.relationship_property_frequency(rel);
                af * js
            }
            RuleItem::PropagateProperty { rel, reverse, property } => {
                self.property_frequency(rel, reverse, property)
            }
        }
    }

    /// Space cost (extra bytes / replicated edges) of applying a rule item.
    pub fn cost(&self, item: &RuleItem) -> u64 {
        match *item {
            RuleItem::Union(rel) => self.union_cost(rel),
            RuleItem::Inheritance(rel) => self.inheritance_cost(rel),
            RuleItem::OneToOne(_) => 0,
            RuleItem::PropagateProperty { rel, property, .. } => {
                let p = self.ontology.property(property);
                self.statistics.relationship_cardinality(rel) * p.data_type.size_bytes()
            }
        }
    }

    /// Benefit per unit of cost; items with zero cost get `f64::INFINITY`.
    pub fn benefit_density(&self, item: &RuleItem) -> f64 {
        let cost = self.cost(item);
        let benefit = self.benefit(item);
        if cost == 0 {
            f64::INFINITY
        } else {
            benefit / cost as f64
        }
    }

    /// Total cost of applying every item in a plan.
    pub fn total_cost(&self, items: &[RuleItem]) -> u64 {
        items.iter().map(|i| self.cost(i)).sum()
    }

    /// Total benefit of applying every item in a plan; `+0.0` for an empty
    /// plan (`Iterator::sum` over `f64` starts from `-0.0`, which would print
    /// as `-0.000` in a benefit-ratio column).
    pub fn total_benefit(&self, items: &[RuleItem]) -> f64 {
        items.iter().fold(0.0, |total, i| total + self.benefit(i))
    }

    /// Equation 3 cost: number of instance edges between the union concept
    /// and its non-member neighbours (these edges are copied to the member).
    fn union_cost(&self, rel: RelationshipId) -> u64 {
        let union_concept = self.ontology.relationship(rel).src;
        self.neighbour_edge_count(union_concept, RelationshipKind::Union)
    }

    /// Equation 4 cost, selected by the Jaccard thresholds.
    fn inheritance_cost(&self, rel: RelationshipId) -> u64 {
        let r = self.ontology.relationship(rel);
        let js = self.similarities.get(rel);
        if js > self.config.theta1 {
            // Child properties and neighbours replicated on the parent side.
            self.property_bytes(r.dst)
                + self.neighbour_edge_count(r.dst, RelationshipKind::Inheritance)
        } else if js < self.config.theta2 {
            // Parent properties and neighbours replicated on the child side.
            self.property_bytes(r.src)
                + self.neighbour_edge_count(r.src, RelationshipKind::Inheritance)
        } else {
            0
        }
    }

    /// `Σ_{p ∈ c.P} |c| × p.type`.
    fn property_bytes(&self, concept: ConceptId) -> u64 {
        let cardinality = self.statistics.concept_cardinality(concept);
        self.ontology
            .concept_properties(concept)
            .iter()
            .map(|&p| cardinality * self.ontology.property(p).data_type.size_bytes())
            .sum()
    }

    /// `Σ_{r' ∈ c.R \ R_excluded} |r'|`.
    fn neighbour_edge_count(&self, concept: ConceptId, excluded: RelationshipKind) -> u64 {
        self.ontology
            .relationships_of(concept)
            .iter()
            .filter(|&&r| self.ontology.relationship(r).kind != excluded)
            .map(|&r| self.statistics.relationship_cardinality(r))
            .sum()
    }

    /// `AF(ci --r--> cj.Pj)` — total property access frequency across a
    /// relationship.
    fn relationship_property_frequency(&self, rel: RelationshipId) -> f64 {
        let total = self.frequencies.relationship_property_total(self.ontology, rel);
        if total > 0.0 {
            total
        } else {
            // Destination without properties: fall back to the relationship
            // frequency so structure-only hierarchies still rank.
            self.frequencies.relationship(rel)
        }
    }

    /// `AF(ci --r--> cj.p)` for one property, covering both directions of M:N
    /// relationships (the workload summary only materialises destination
    /// properties, so the reverse direction splits the relationship frequency
    /// across the source concept's properties).
    fn property_frequency(&self, rel: RelationshipId, reverse: bool, property: PropertyId) -> f64 {
        if !reverse {
            return self.frequencies.property(rel, property);
        }
        let src = self.ontology.relationship(rel).src;
        let count = self.ontology.concept_properties(src).len().max(1);
        self.frequencies.relationship(rel) / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::enumerate_items;
    use pgso_ontology::{catalog, StatisticsConfig, WorkloadDistribution};

    struct Fixture {
        ontology: Ontology,
        statistics: DataStatistics,
        frequencies: AccessFrequencies,
        similarities: InheritanceSimilarities,
    }

    fn fixture() -> Fixture {
        let ontology = catalog::med_mini();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 3);
        let frequencies =
            AccessFrequencies::generate(&ontology, WorkloadDistribution::Uniform, 1_000.0, 3);
        let similarities = InheritanceSimilarities::compute(&ontology);
        Fixture { ontology, statistics, frequencies, similarities }
    }

    #[test]
    fn one_to_one_items_are_free() {
        let f = fixture();
        let model = CostModel::new(
            &f.ontology,
            &f.statistics,
            &f.frequencies,
            &f.similarities,
            OptimizerConfig::default(),
        );
        let items = enumerate_items(&f.ontology, &f.similarities, &OptimizerConfig::default());
        for item in items.iter().filter(|i| matches!(i, RuleItem::OneToOne(_))) {
            assert_eq!(model.cost(item), 0);
            assert!(model.benefit(item) > 0.0);
            assert!(model.benefit_density(item).is_infinite());
        }
    }

    #[test]
    fn propagate_property_cost_matches_equation_5() {
        let f = fixture();
        let model = CostModel::new(
            &f.ontology,
            &f.statistics,
            &f.frequencies,
            &f.similarities,
            OptimizerConfig::default(),
        );
        let (treat, rel) = f.ontology.relationships().find(|(_, r)| r.name == "treat").unwrap();
        let desc = f.ontology.property_by_name(rel.dst, "desc").unwrap();
        let item = RuleItem::PropagateProperty { rel: treat, reverse: false, property: desc };
        let expected = f.statistics.relationship_cardinality(treat)
            * f.ontology.property(desc).data_type.size_bytes();
        assert_eq!(model.cost(&item), expected);
        assert!(model.benefit(&item) > 0.0);
    }

    #[test]
    fn union_cost_counts_non_union_neighbour_edges() {
        let f = fixture();
        let model = CostModel::new(
            &f.ontology,
            &f.statistics,
            &f.frequencies,
            &f.similarities,
            OptimizerConfig::default(),
        );
        let (union_rel, rel) =
            f.ontology.relationships_of_kind(RelationshipKind::Union).next().unwrap();
        // The Risk union concept has exactly one non-union relationship: cause.
        let (cause, _) = f.ontology.relationships().find(|(_, r)| r.name == "cause").unwrap();
        assert_eq!(rel.src, f.ontology.relationship(cause).dst);
        assert_eq!(
            model.cost(&RuleItem::Union(union_rel)),
            f.statistics.relationship_cardinality(cause)
        );
    }

    #[test]
    fn inheritance_cost_uses_the_side_selected_by_thresholds() {
        let f = fixture();
        let config = OptimizerConfig::default();
        let model =
            CostModel::new(&f.ontology, &f.statistics, &f.frequencies, &f.similarities, config);
        let (isa, rel) =
            f.ontology.relationships_of_kind(RelationshipKind::Inheritance).next().unwrap();
        // med_mini isA similarities are 0 (< θ2): parent properties are pushed
        // down, so the cost is computed from the parent (src) side.
        let parent_card = f.statistics.concept_cardinality(rel.src);
        let parent_bytes: u64 = f
            .ontology
            .concept_properties(rel.src)
            .iter()
            .map(|&p| parent_card * f.ontology.property(p).data_type.size_bytes())
            .sum();
        assert!(model.cost(&RuleItem::Inheritance(isa)) >= parent_bytes);
        // Benefit is AF × JS = 0 here because the concepts share no properties.
        assert_eq!(model.benefit(&RuleItem::Inheritance(isa)), 0.0);
    }

    #[test]
    fn reverse_propagation_has_positive_benefit() {
        let f = fixture();
        let model = CostModel::new(
            &f.ontology,
            &f.statistics,
            &f.frequencies,
            &f.similarities,
            OptimizerConfig::default(),
        );
        let (cause, rel) = f.ontology.relationships().find(|(_, r)| r.name == "cause").unwrap();
        let name = f.ontology.property_by_name(rel.src, "name").unwrap();
        let item = RuleItem::PropagateProperty { rel: cause, reverse: true, property: name };
        assert!(model.benefit(&item) > 0.0);
        assert!(model.cost(&item) > 0);
    }

    #[test]
    fn totals_sum_over_items() {
        let f = fixture();
        let config = OptimizerConfig::default();
        let model =
            CostModel::new(&f.ontology, &f.statistics, &f.frequencies, &f.similarities, config);
        let items = enumerate_items(&f.ontology, &f.similarities, &config);
        let total_cost = model.total_cost(&items);
        let total_benefit = model.total_benefit(&items);
        assert_eq!(total_cost, items.iter().map(|i| model.cost(i)).sum::<u64>());
        assert!((total_benefit - items.iter().map(|i| model.benefit(i)).sum::<f64>()).abs() < 1e-9);
        assert!(total_benefit > 0.0);
        assert!(total_cost > 0);
    }
}

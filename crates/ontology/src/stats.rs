//! Data characteristics (statistics) of a knowledge graph described by an
//! ontology.
//!
//! Section 4.2 of the paper: *"Data characteristics contain the basic
//! statistics about each concept, data property, and relationship specified
//! in the given ontology. The statistics include the cardinality of data
//! instances of each concept and relationship, as well as the data type of
//! each data property."*
//!
//! [`DataStatistics`] stores instance-vertex counts per concept and instance-
//! edge counts per relationship (`|r|` in Equations 3–5). When real data is
//! not available statistics can be synthesized deterministically from a
//! [`StatisticsConfig`] — this is how the MED / FIN evaluation datasets are
//! substituted in this reproduction.

use crate::ids::{ConceptId, RelationshipId};
use crate::model::{Ontology, RelationshipKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Instance-level statistics for an ontology: concept and relationship
/// cardinalities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataStatistics {
    concept_cardinality: Vec<u64>,
    relationship_cardinality: Vec<u64>,
}

impl DataStatistics {
    /// Creates statistics with every cardinality set to zero.
    pub fn empty(ontology: &Ontology) -> Self {
        Self {
            concept_cardinality: vec![0; ontology.concept_count()],
            relationship_cardinality: vec![0; ontology.relationship_count()],
        }
    }

    /// Creates uniform statistics: every concept has `concept_card` instances
    /// and every relationship `edge_card` edges.
    pub fn uniform(ontology: &Ontology, concept_card: u64, edge_card: u64) -> Self {
        Self {
            concept_cardinality: vec![concept_card; ontology.concept_count()],
            relationship_cardinality: vec![edge_card; ontology.relationship_count()],
        }
    }

    /// Synthesizes plausible statistics for an ontology from a config and a
    /// deterministic seed. See [`StatisticsConfig`] for the knobs.
    pub fn synthesize(ontology: &Ontology, config: &StatisticsConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut concept_cardinality = vec![0u64; ontology.concept_count()];
        for (cid, _) in ontology.concepts() {
            let spread = config.cardinality_spread.max(1.0);
            let factor = rng.gen_range(1.0 / spread..spread);
            let card = (config.base_concept_cardinality as f64 * factor).round() as u64;
            concept_cardinality[cid.index()] = card.max(1);
        }

        // Union concepts have no instances of their own: every instance lives
        // in a member concept. Their cardinality is the sum of the members'.
        for (cid, _) in ontology.concepts() {
            let members = ontology.union_members(cid);
            if !members.is_empty() {
                concept_cardinality[cid.index()] =
                    members.iter().map(|m| concept_cardinality[m.index()]).sum();
            }
        }

        let mut relationship_cardinality = vec![0u64; ontology.relationship_count()];
        for (rid, rel) in ontology.relationships() {
            let src_card = concept_cardinality[rel.src.index()];
            let dst_card = concept_cardinality[rel.dst.index()];
            relationship_cardinality[rid.index()] = match rel.kind {
                RelationshipKind::OneToOne => src_card.min(dst_card),
                RelationshipKind::OneToMany => {
                    let fanout = rng.gen_range(1.0..config.max_fanout.max(1.5));
                    ((src_card as f64) * fanout).round() as u64
                }
                RelationshipKind::ManyToMany => {
                    let fanout = rng.gen_range(1.0..config.max_fanout.max(1.5));
                    ((src_card.max(dst_card) as f64) * fanout).round() as u64
                }
                // isA / unionOf edges exist at the schema level; each child /
                // member instance implies one membership edge.
                RelationshipKind::Inheritance | RelationshipKind::Union => dst_card,
            };
        }

        Self { concept_cardinality, relationship_cardinality }
    }

    /// Number of instance vertices of a concept.
    pub fn concept_cardinality(&self, id: ConceptId) -> u64 {
        self.concept_cardinality[id.index()]
    }

    /// Number of instance edges of a relationship (`|r|`).
    pub fn relationship_cardinality(&self, id: RelationshipId) -> u64 {
        self.relationship_cardinality[id.index()]
    }

    /// Sets the number of instance vertices of a concept.
    pub fn set_concept_cardinality(&mut self, id: ConceptId, cardinality: u64) {
        self.concept_cardinality[id.index()] = cardinality;
    }

    /// Sets the number of instance edges of a relationship.
    pub fn set_relationship_cardinality(&mut self, id: RelationshipId, cardinality: u64) {
        self.relationship_cardinality[id.index()] = cardinality;
    }

    /// Average fanout of a relationship: edges per source instance.
    pub fn average_fanout(&self, ontology: &Ontology, id: RelationshipId) -> f64 {
        let rel = ontology.relationship(id);
        let src = self.concept_cardinality(rel.src).max(1);
        self.relationship_cardinality(id) as f64 / src as f64
    }

    /// Estimated byte size of all instances of a concept:
    /// `cardinality × Σ p.type` (the `Size(c_i)` term of Equation 2).
    pub fn concept_size_bytes(&self, ontology: &Ontology, id: ConceptId) -> u64 {
        self.concept_cardinality(id) * ontology.concept_row_size(id).max(1)
    }

    /// Total number of instance vertices across all concepts.
    pub fn total_vertices(&self) -> u64 {
        self.concept_cardinality.iter().sum()
    }

    /// Total number of instance edges across all relationships.
    pub fn total_edges(&self) -> u64 {
        self.relationship_cardinality.iter().sum()
    }
}

/// Knobs for [`DataStatistics::synthesize`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatisticsConfig {
    /// Target number of instances per concept before spreading.
    pub base_concept_cardinality: u64,
    /// Multiplicative spread applied per concept: cardinalities fall in
    /// `[base / spread, base × spread]`.
    pub cardinality_spread: f64,
    /// Maximum average fanout for 1:M and M:N relationships.
    pub max_fanout: f64,
}

impl Default for StatisticsConfig {
    fn default() -> Self {
        Self { base_concept_cardinality: 1_000, cardinality_spread: 4.0, max_fanout: 8.0 }
    }
}

impl StatisticsConfig {
    /// A small configuration suitable for unit tests and examples.
    pub fn small() -> Self {
        Self { base_concept_cardinality: 50, cardinality_spread: 2.0, max_fanout: 4.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OntologyBuilder;
    use crate::model::{DataType, RelationshipKind};

    fn sample() -> Ontology {
        let mut b = OntologyBuilder::new("s");
        let drug = b.add_concept("Drug");
        b.add_property(drug, "name", DataType::Str);
        let ind = b.add_concept("Indication");
        b.add_property(ind, "desc", DataType::Text);
        let risk = b.add_concept("Risk");
        let bbw = b.add_concept("BlackBoxWarning");
        b.add_property(bbw, "note", DataType::Text);
        let ci = b.add_concept("ContraIndication");
        b.add_property(ci, "desc", DataType::Text);
        b.add_relationship("treat", drug, ind, RelationshipKind::OneToMany);
        b.add_relationship("cause", drug, risk, RelationshipKind::ManyToMany);
        b.add_union_member(risk, bbw);
        b.add_union_member(risk, ci);
        b.build().unwrap()
    }

    #[test]
    fn uniform_statistics() {
        let o = sample();
        let s = DataStatistics::uniform(&o, 10, 20);
        for c in o.concept_ids() {
            assert_eq!(s.concept_cardinality(c), 10);
        }
        for r in o.relationship_ids() {
            assert_eq!(s.relationship_cardinality(r), 20);
        }
        assert_eq!(s.total_vertices(), 50);
        assert_eq!(s.total_edges(), 80);
    }

    #[test]
    fn synthesize_is_deterministic_for_a_seed() {
        let o = sample();
        let cfg = StatisticsConfig::default();
        let a = DataStatistics::synthesize(&o, &cfg, 42);
        let b = DataStatistics::synthesize(&o, &cfg, 42);
        let c = DataStatistics::synthesize(&o, &cfg, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn union_concept_cardinality_is_sum_of_members() {
        let o = sample();
        let s = DataStatistics::synthesize(&o, &StatisticsConfig::small(), 7);
        let risk = o.concept_by_name("Risk").unwrap();
        let bbw = o.concept_by_name("BlackBoxWarning").unwrap();
        let ci = o.concept_by_name("ContraIndication").unwrap();
        assert_eq!(
            s.concept_cardinality(risk),
            s.concept_cardinality(bbw) + s.concept_cardinality(ci)
        );
    }

    #[test]
    fn one_to_many_fanout_at_least_one() {
        let o = sample();
        let s = DataStatistics::synthesize(&o, &StatisticsConfig::small(), 7);
        let (treat, _) = o.relationships().find(|(_, r)| r.name == "treat").unwrap();
        assert!(s.average_fanout(&o, treat) >= 1.0);
    }

    #[test]
    fn concept_size_uses_row_size() {
        let o = sample();
        let mut s = DataStatistics::empty(&o);
        let ind = o.concept_by_name("Indication").unwrap();
        s.set_concept_cardinality(ind, 5);
        assert_eq!(s.concept_size_bytes(&o, ind), 5 * 256);
    }

    #[test]
    fn setters_update_values() {
        let o = sample();
        let mut s = DataStatistics::empty(&o);
        let r = o.relationship_ids().next().unwrap();
        s.set_relationship_cardinality(r, 99);
        assert_eq!(s.relationship_cardinality(r), 99);
    }
}

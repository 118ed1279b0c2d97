//! PGSG — the property graph schema generator.
//!
//! Section 5.1: *"PGSG chooses the property graph schema with a higher total
//! benefit score from relation-centric (RC) and concept-centric (CC)
//! algorithms."* This module wraps the two algorithms behind one entry point.

use crate::concept_centric::optimize_concept_centric;
use crate::config::OptimizerConfig;
use crate::optimize::{Algorithm, OptimizationOutcome, OptimizerInput};
use crate::relation_centric::optimize_relation_centric;

/// Runs both space-constrained algorithms and returns the outcome with the
/// higher total benefit (ties favour RC, which the paper reports as the
/// stronger algorithm). The chosen outcome is re-labelled as
/// [`Algorithm::Pgsg`]; the individual outcomes are also returned so callers
/// can plot both curves.
#[derive(Debug, Clone)]
pub struct PgsgResult {
    /// The chosen (better) outcome, labelled as PGSG.
    pub chosen: OptimizationOutcome,
    /// The concept-centric outcome.
    pub concept_centric: OptimizationOutcome,
    /// The relation-centric outcome.
    pub relation_centric: OptimizationOutcome,
}

/// Runs PGSG: both CC and RC under the same configuration, picking the better.
pub fn optimize_pgsg(input: OptimizerInput<'_>, config: &OptimizerConfig) -> PgsgResult {
    let concept_centric = optimize_concept_centric(input, config);
    let relation_centric = optimize_relation_centric(input, config);
    let mut chosen = if relation_centric.total_benefit >= concept_centric.total_benefit {
        relation_centric.clone()
    } else {
        concept_centric.clone()
    };
    chosen.algorithm = Algorithm::Pgsg;
    PgsgResult { chosen, concept_centric, relation_centric }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize_nsc;
    use pgso_ontology::{
        catalog, AccessFrequencies, DataStatistics, StatisticsConfig, WorkloadDistribution,
    };

    fn fixture(ontology: &pgso_ontology::Ontology) -> (DataStatistics, AccessFrequencies) {
        let stats = DataStatistics::synthesize(ontology, &StatisticsConfig::small(), 5);
        let af = AccessFrequencies::generate(
            ontology,
            WorkloadDistribution::default_zipf(),
            10_000.0,
            5,
        );
        (stats, af)
    }

    #[test]
    fn pgsg_picks_the_better_algorithm() {
        let o = catalog::medical();
        let (stats, af) = fixture(&o);
        let input = OptimizerInput::new(&o, &stats, &af);
        let nsc = optimize_nsc(input, &OptimizerConfig::default());
        let config = OptimizerConfig::with_space_limit(nsc.total_cost / 10);
        let result = optimize_pgsg(input, &config);
        assert_eq!(result.chosen.algorithm, Algorithm::Pgsg);
        assert!(
            result.chosen.total_benefit
                >= result.concept_centric.total_benefit.max(result.relation_centric.total_benefit)
                    - 1e-9
        );
    }

    #[test]
    fn benefit_ratios_increase_with_space() {
        let o = catalog::medical();
        let (stats, af) = fixture(&o);
        let input = OptimizerInput::new(&o, &stats, &af);
        let nsc = optimize_nsc(input, &OptimizerConfig::default());
        // CC's and RC's benefit ratios against NSC under a budget of
        // `fraction` of NSC's cost.
        let ratios = |fraction: f64| {
            let budget = (nsc.total_cost as f64 * fraction).round() as u64;
            let result = optimize_pgsg(input, &OptimizerConfig::with_space_limit(budget));
            [
                result.concept_centric.benefit_ratio(&nsc),
                result.relation_centric.benefit_ratio(&nsc),
            ]
        };
        let (low, high) = (ratios(0.05), ratios(1.0));
        for (low, high) in low.into_iter().zip(high) {
            assert!(low <= high + 1e-9);
            // At 100% both reach BR = 1 (Figures 8 and 9).
            assert!((high - 1.0).abs() < 1e-6);
            // Ratios are valid fractions.
            assert!((0.0..=1.0).contains(&low));
        }
    }
}

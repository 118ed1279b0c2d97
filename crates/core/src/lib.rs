//! # pgso-core
//!
//! The paper's primary contribution: an ontology-driven property graph schema
//! optimizer (Lei et al., *Property Graph Schema Optimization for
//! Domain-Specific Knowledge Graphs*, ICDE 2021).
//!
//! Given an [`pgso_ontology::Ontology`] plus optional data statistics and
//! workload summaries, the optimizer produces a
//! [`pgso_pgschema::PropertyGraphSchema`] that minimises edge traversals for
//! graph queries, optionally under a space budget:
//!
//! * [`rules`] / [`sgraph`] — the five relationship rules of Section 3 (union,
//!   inheritance, 1:1, 1:M, M:N) applied to a mutable schema graph;
//! * [`optimize::optimize_nsc`] — Algorithm 5, the unconstrained fixpoint;
//! * [`concept_centric::optimize_concept_centric`] — Algorithm 7, driven by
//!   the OntologyPR centrality of [`pagerank`];
//! * [`relation_centric::optimize_relation_centric`] — Algorithm 8, driven by
//!   the cost-benefit model of [`cost`] and the knapsack FPTAS of
//!   [`knapsack`];
//! * [`pgsg::optimize_pgsg`] — the generator that keeps the better of the two.
//!
//! ```
//! use pgso_core::{optimize_nsc, OptimizerConfig, OptimizerInput};
//! use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
//!
//! let ontology = catalog::med_mini();
//! let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 42);
//! let af = AccessFrequencies::uniform(&ontology, 1_000.0);
//! let outcome = optimize_nsc(
//!     OptimizerInput::new(&ontology, &stats, &af),
//!     &OptimizerConfig::default(),
//! );
//! // The optimized schema replicates Indication.desc onto Drug (Figure 1(c)).
//! assert!(outcome.schema.vertex("Drug").unwrap().has_property("Indication.desc"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod concept_centric;
pub mod config;
pub mod cost;
pub mod jaccard;
pub mod knapsack;
pub mod optimize;
pub mod pagerank;
pub mod pgsg;
pub mod relation_centric;
pub mod reopt;
pub mod rules;
pub mod sgraph;

pub use concept_centric::optimize_concept_centric;
pub use config::OptimizerConfig;
pub use cost::CostModel;
pub use jaccard::{jaccard_similarity, InheritanceSimilarities};
pub use knapsack::{solve_exact, solve_fptas, solve_greedy, KnapsackItem, KnapsackSolution};
pub use optimize::{apply_plan, optimize_nsc, Algorithm, OptimizationOutcome, OptimizerInput};
pub use pagerank::{ontology_pagerank, CentralityScores};
pub use pgsg::{optimize_pgsg, PgsgResult};
pub use relation_centric::{
    optimize_relation_centric, optimize_relation_centric_with, SelectionStrategy,
};
pub use reopt::{reoptimize, Reoptimization};
pub use rules::{enumerate_items, RuleItem, RuleKind};
pub use sgraph::SchemaGraph;

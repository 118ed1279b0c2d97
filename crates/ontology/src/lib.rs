//! # pgso-ontology
//!
//! Ontology data model and evaluation inputs for the `pgso` workspace — a
//! Rust reproduction of *"Property Graph Schema Optimization for
//! Domain-Specific Knowledge Graphs"* (Lei et al., ICDE 2021).
//!
//! An [`Ontology`] `O(C, R, P)` describes a domain: concepts `C`, data
//! properties `P` and relationships `R` of kind 1:1, 1:M, M:N, `isA`
//! (inheritance) or `unionOf` (union). The schema optimizer in `pgso-core`
//! consumes an ontology plus two optional side inputs that this crate also
//! models:
//!
//! * [`DataStatistics`] — instance cardinalities per concept and relationship
//!   ("data characteristics" in the paper, §4.2);
//! * [`AccessFrequencies`] — per-concept / per-relationship / per-property
//!   access frequencies ("workload summaries", §4.2), generated from a
//!   [`WorkloadDistribution`] (uniform or Zipf).
//!
//! The [`catalog`] module ships the paper's motivating-example ontology and
//! faithful reconstructions of the MED and FIN evaluation ontologies, and
//! [`dsl`] provides a small textual format for defining custom ontologies.
//!
//! ```
//! use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
//!
//! let ontology = catalog::medical();
//! assert_eq!(ontology.concept_count(), 43);
//!
//! let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 42);
//! let af = AccessFrequencies::uniform(&ontology, 1_000.0);
//! let drug = ontology.concept_by_name("Drug").unwrap();
//! assert!(stats.concept_cardinality(drug) > 0);
//! assert!(af.concept(drug) > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod catalog;
pub mod dsl;
pub mod error;
pub mod ids;
pub mod model;
pub mod stats;
pub mod validate;
pub mod workload;

pub use builder::OntologyBuilder;
pub use catalog::Dataset;
pub use error::{OntologyError, Result};
pub use ids::{ConceptId, PropertyId, RelationshipId};
pub use model::{Concept, DataProperty, DataType, Ontology, Relationship, RelationshipKind};
pub use stats::{DataStatistics, StatisticsConfig};
pub use validate::{lint, LintWarning};
pub use workload::{AccessFrequencies, WorkloadDistribution, ZipfSampler};

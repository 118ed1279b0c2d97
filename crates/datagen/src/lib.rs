//! # pgso-datagen
//!
//! Synthetic instance-data generation and schema-conforming loading for the
//! `pgso` workspace. The paper's MED (12 GB) and FIN (53 GB) datasets are
//! proprietary; this crate substitutes them with deterministic synthetic
//! instance graphs whose per-concept and per-relationship cardinalities
//! follow the ontology's [`pgso_ontology::DataStatistics`], so the relative
//! edge-traversal counts the evaluation depends on are preserved at a
//! configurable scale.
//!
//! * [`InstanceKg`] — schema-independent entities and relationship instances;
//! * [`load_into`] — materialises the instance graph into any
//!   [`pgso_graphstore::GraphBackend`] under a given schema (direct or
//!   optimized), following the schema's merges, drops and replicated
//!   properties: one load plan per call, O(concepts² + schema), then
//!   O(entities + relationship instances) with no read of the backend;
//! * [`streaming_updates`] — a deterministic stream of physical
//!   [`pgso_graphstore::GraphUpdate`]s (new entities wired into a loaded
//!   graph), feeding the serving layer's write-ahead-logged ingest path and
//!   ingest-while-serving benchmarks;
//! * [`ScaleLadder`] — pre-generated instance chunks whose rungs (1×, 10×,
//!   100×, …) load into bit-identical induced prefixes of each other, the
//!   substrate for the storage-tier scale benchmarks;
//! * [`validate()`] — the graph checked against its schema: every vertex
//!   label a vertex type, every edge an edge type, every key declared with
//!   its declared shape (a test-time check, never on the serving path).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod instance;
pub mod ladder;
pub mod load;
pub mod updates;
pub mod validate;

pub use instance::{property_value_for, Entity, InstanceKg, RelationshipInstance};
pub use ladder::ScaleLadder;
pub use load::{load_into, LoadReport};
pub use updates::{streaming_updates, UpdateStreamConfig};
pub use validate::{validate, Violation};

//! # pgso-pgschema
//!
//! Property graph schema model for the `pgso` workspace.
//!
//! A [`PropertyGraphSchema`] declares vertex types, edge types and property
//! types — the same notions Neo4j's Cypher, TigerGraph's GSQL and GraphQL SDL
//! expose. The crate also provides:
//!
//! * [`PropertyGraphSchema::direct_from_ontology`] — the paper's baseline
//!   **DIR** schema (one vertex type per concept, one edge type per
//!   relationship);
//! * [`ddl`] — Cypher-flavoured DDL and GraphQL SDL emission;
//! * [`diff()`] — structural schema diffs for inspecting optimizer decisions.
//!
//! **Where a concept property lives** is decided here and nowhere else. A
//! property records the concept property it holds as its origin
//! ([`VertexSchema::origin_of`]); [`VertexSchema::property_of`] finds the
//! property of a vertex type that holds a given concept's property, and
//! [`VertexSchema::replica_of`] the LIST replicating it from related
//! vertices. The loader, the update stream and the DIR→OPT rewriter all
//! resolve properties this way; none of them parses or builds a property
//! name, so whatever the optimizer called a property (`route`, or
//! `Condition.route` after a name clash) is read back correctly.
//!
//! ```
//! use pgso_ontology::catalog;
//! use pgso_pgschema::{ddl, PropertyGraphSchema};
//!
//! let schema = PropertyGraphSchema::direct_from_ontology(&catalog::med_mini());
//! let cypher = ddl::to_cypher_ddl(&schema);
//! assert!(cypher.contains("(Drug)-[treat]->(Indication)"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ddl;
pub mod diff;
pub mod schema;

pub use diff::{diff, SchemaDiff, VertexChange};
pub use schema::{EdgeSchema, PropertyGraphSchema, PropertyOrigin, PropertySchema, VertexSchema};

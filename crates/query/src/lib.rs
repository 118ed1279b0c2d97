//! # pgso-query
//!
//! Graph query layer for the `pgso` workspace, built around one statement
//! type, [`Statement`]: a pattern (node and edge patterns plus `RETURN`)
//! with `WHERE` predicates, `OPTIONAL` edges, aggregation with
//! `GROUP BY`/`HAVING`, `DISTINCT`, `ORDER BY` and `SKIP`/`LIMIT`. Around it
//! sit named `$parameters` with typed signatures and by-name binding
//! ([`Params`] / [`Statement::bind`]), a Cypher-like text front-end
//! ([`parse()`]), a backtracking executor ([`execute_statement`]) that runs
//! against any [`pgso_graphstore::GraphBackend`], the DIR→OPT rewriter
//! ([`rewrite_statement`]) that maps statements written against the direct
//! schema onto an optimized schema (Section 5.3 of the paper), and the
//! plan-cache key ([`fingerprint_statement`]).
//!
//! Text is the first-class entry point, and prepared statements carry
//! `$name` placeholders instead of splicing literals:
//!
//! ```
//! use pgso_graphstore::{props, GraphBackend, MemoryGraph};
//! use pgso_query::{execute_statement, parse, Params};
//!
//! let mut graph = MemoryGraph::new();
//! let drug = graph.add_vertex("Drug", props([("name", "Aspirin".into())]));
//! let ind = graph.add_vertex("Indication", props([("desc", "Fever".into())]));
//! graph.add_edge("treat", drug, ind);
//!
//! let stmt = parse(
//!     "MATCH (d:Drug)-[:treat]->(i:Indication) \
//!      WHERE d.name CONTAINS $needle \
//!      RETURN i.desc ORDER BY i.desc LIMIT $n",
//! )
//! .unwrap();
//! let bound = stmt.bind(&Params::new().set("needle", "spir").set("n", 10i64)).unwrap();
//! let result = execute_statement(&bound, &graph);
//! assert_eq!(result.rows[0][0].as_str(), Some("Fever"));
//!
//! // Aggregation: count indications per drug.
//! let agg = parse("MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, count(i) GROUP BY d")
//!     .unwrap();
//! assert_eq!(execute_statement(&agg, &graph).rows[0][1].as_int(), Some(1));
//! ```
//!
//! The builder ([`Statement::builder`]) serves tests and embedded use. It
//! returns what [`parse()`] makes of the built statement's text, so every
//! statement, built or parsed, round-trips through its `Display` form, and
//! that text is its plan-cache key.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod exec;
pub mod explain;
pub mod fingerprint;
pub mod params;
pub mod parse;
pub mod rewrite;
pub mod stmt;

pub use ast::{Aggregate, EdgePattern, NodePattern, ReturnItem};
pub use exec::{emit_exec_trace, execute_statement, PhysicalPlan, QueryResult, Row};
pub use explain::{AppliedRule, PlanActuals, QueryMode, QueryPlan};
pub use fingerprint::fingerprint_statement;
pub use params::{BindError, ParamKind, ParamSignature, ParamSpec, Params};
pub use parse::{parse, parse_directive, parse_named, strip_directive, ParseError};
pub use pgso_telemetry::StageTimings;
pub use rewrite::{rewrite_statement, rewrite_statement_traced};
pub use stmt::{
    CmpOp, CountTerm, HavingPredicate, OrderKey, Predicate, Statement, StatementBuilder, Term,
};

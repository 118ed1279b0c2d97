//! The pattern parts of a [`Statement`](crate::Statement).
//!
//! The microbenchmark of Section 5.3 uses three families of queries, all of
//! which fit one pattern shape:
//!
//! * **pattern matching** (Q1–Q4) — a small sub-graph of labelled node and
//!   edge patterns, returning vertex properties;
//! * **property lookup** (Q5–Q8) — one or two nodes, returning a property;
//! * **aggregation** (Q9–Q12) — counting a neighbour's property values
//!   (`size(COLLECT(...))` in the paper's Cypher).
//!
//! A statement's pattern is a list of [`NodePattern`]s connected by
//! [`EdgePattern`]s plus [`ReturnItem`]s. The executor treats the pattern as
//! a connected graph rooted at the first node pattern.

use serde::{Deserialize, Serialize};

/// A labelled node pattern, e.g. `(d:Drug)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePattern {
    /// Variable name (`d`).
    pub var: String,
    /// Vertex label (`Drug`).
    pub label: String,
}

/// A directed edge pattern, e.g. `(d)-[:treat]->(i)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgePattern {
    /// Edge label (`treat`).
    pub label: String,
    /// Variable of the source node pattern.
    pub src: String,
    /// Variable of the destination node pattern.
    pub dst: String,
}

/// Aggregation functions supported by the return clause.
///
/// Aggregates with a property (`SUM`/`MIN`/`MAX`/`AVG`, `COUNT(DISTINCT
/// v.p)`, `size(COLLECT(v.p))`) range over the *scalar values* of that
/// property across the group's bindings: a LIST-typed value contributes one
/// scalar per element. That flattening is what keeps aggregates correct when
/// the DIR→OPT rewrite answers them from a replicated LIST property instead
/// of an edge traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregate {
    /// `count(v)` — number of bindings where the variable is bound;
    /// `count(v.p)` — number of bindings carrying the property.
    Count,
    /// `count(DISTINCT v)` — distinct vertices bound to the variable;
    /// `count(DISTINCT v.p)` — distinct scalar property values.
    CountDistinct,
    /// Number of collected property values (`size(COLLECT(p))`); LIST-typed
    /// properties contribute their element count, which is what makes the
    /// rewritten aggregation queries equivalent on the optimized schema.
    CollectCount,
    /// `sum(v.p)` — numeric sum (exact `Int` when every value is an `Int`,
    /// `Float` otherwise; `0` over an empty group).
    Sum,
    /// `min(v.p)` — smallest value under the total `ORDER BY` value order
    /// (`null` over an empty group).
    Min,
    /// `max(v.p)` — largest value (`null` over an empty group).
    Max,
    /// `avg(v.p)` — mean of the numeric values as a `Float` (`null` over an
    /// empty group).
    Avg,
}

impl Aggregate {
    /// True for the functions that require a `v.property` operand
    /// (`SUM`/`MIN`/`MAX`/`AVG`).
    pub fn requires_property(&self) -> bool {
        matches!(self, Aggregate::Sum | Aggregate::Min | Aggregate::Max | Aggregate::Avg)
    }

    /// Renders the surface-syntax call `agg(var[.property])`, shared by the
    /// `RETURN` clause and `HAVING` predicates so both re-parse identically.
    pub fn render_call(&self, var: &str, property: Option<&str>) -> String {
        let inner = match property {
            Some(p) => format!("{var}.{p}"),
            None => var.to_string(),
        };
        match self {
            Aggregate::Count => format!("count({inner})"),
            Aggregate::CountDistinct => format!("count(DISTINCT {inner})"),
            Aggregate::CollectCount => format!("size(collect({inner}))"),
            Aggregate::Sum => format!("sum({inner})"),
            Aggregate::Min => format!("min({inner})"),
            Aggregate::Max => format!("max({inner})"),
            Aggregate::Avg => format!("avg({inner})"),
        }
    }
}

/// One item of the `RETURN` clause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReturnItem {
    /// Return a property of a bound vertex (`d.name`).
    Property {
        /// Node variable.
        var: String,
        /// Property name.
        property: String,
    },
    /// Return the bound vertex itself (`aa`).
    Vertex {
        /// Node variable.
        var: String,
    },
    /// Return an aggregate over all matches.
    Aggregate {
        /// Aggregation function.
        agg: Aggregate,
        /// Node variable the aggregate ranges over.
        var: String,
        /// Property to collect (required for [`Aggregate::CollectCount`]).
        property: Option<String>,
    },
}

impl ReturnItem {
    /// The node variable the item reads.
    pub fn var(&self) -> &str {
        match self {
            ReturnItem::Property { var, .. }
            | ReturnItem::Vertex { var }
            | ReturnItem::Aggregate { var, .. } => var,
        }
    }

    /// The property the item reads, if it reads one.
    pub fn property(&self) -> Option<&str> {
        match self {
            ReturnItem::Property { property, .. } => Some(property),
            ReturnItem::Vertex { .. } => None,
            ReturnItem::Aggregate { property, .. } => property.as_deref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Statement;

    #[test]
    fn builder_assembles_queries() {
        let q = Statement::builder("Q1")
            .node("d", "Drug")
            .node("r", "Risk")
            .edge("d", "cause", "r")
            .ret_property("d", "name")
            .build();
        assert_eq!(q.name, "Q1");
        assert_eq!(q.nodes.len(), 2);
        assert_eq!(q.edge_pattern_count(), 1);
        assert!(!q.is_aggregation());
        assert_eq!(q.node("d").unwrap().label, "Drug");
        assert!(q.node("x").is_none());
    }

    #[test]
    fn display_resembles_cypher() {
        let q = Statement::builder("Q9")
            .node("d", "Drug")
            .node("dr", "DrugRoute")
            .edge("d", "hasDrugRoute", "dr")
            .ret_aggregate(Aggregate::CollectCount, "dr", Some("drugRouteId"))
            .build();
        let text = q.to_string();
        assert!(text.contains("(d:Drug)-[:hasDrugRoute]->(dr:DrugRoute)"));
        assert!(text.contains("size(collect(dr.drugRouteId))"));
    }

    #[test]
    fn display_without_edges() {
        let q = Statement::builder("Q7")
            .node("n", "Corporation")
            .ret_property("n", "hasLegalName")
            .build();
        assert!(q.to_string().contains("MATCH (n:Corporation) RETURN n.hasLegalName"));
    }

    #[test]
    fn display_keeps_unreferenced_nodes_alongside_edges() {
        // A node pattern not referenced by any edge must still appear in the
        // MATCH clause as a standalone part.
        let q = Statement::builder("mixed")
            .node("d", "Drug")
            .node("i", "Indication")
            .node("lone", "Physician")
            .edge("d", "treat", "i")
            .ret_property("lone", "name")
            .build();
        let text = q.to_string();
        assert!(text.contains("(d:Drug)-[:treat]->(i:Indication)"), "{text}");
        assert!(text.contains("(lone:Physician)"), "{text}");
    }

    #[test]
    fn display_pins_node_order_when_edges_disagree() {
        // Root is the edge's destination: the compact form would flip the
        // node order, so the explicit node-list form is used instead.
        let q = Statement::builder("reverse")
            .node("i", "Indication")
            .node("d", "Drug")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .build();
        let text = q.to_string();
        assert!(text.contains("MATCH (i:Indication), (d:Drug), (d)-[:treat]->(i)"), "{text}");
    }

    #[test]
    fn aggregation_detection() {
        let q = Statement::builder("Q")
            .node("a", "A")
            .ret_aggregate(Aggregate::Count, "a", None)
            .build();
        assert!(q.is_aggregation());
        assert!(q.to_string().contains("count(a)"));
    }

    #[test]
    #[should_panic(expected = "RETURN")]
    fn builder_requires_returns() {
        let _ = Statement::builder("bad").node("a", "A").build();
    }
}

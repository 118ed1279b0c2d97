//! The one statement type.
//!
//! A [`Statement`] is a pattern — node patterns, edge patterns and the
//! `RETURN` clause — plus the clauses of a fuller query surface: `WHERE`
//! property predicates, `OPTIONAL` edge patterns with left-outer semantics,
//! aggregation with `GROUP BY`/`HAVING`, `DISTINCT`, `ORDER BY` and
//! `SKIP`/`LIMIT`. Statements are what the text front-end
//! ([`crate::parse()`]) and [`Statement::builder`] produce, what the
//! executor runs and what the serving layer caches.
//!
//! The pattern fields (`nodes`, `edges`, `returns`) are the part the DIR→OPT
//! rewrite of the paper retargets ([`crate::rewrite_statement`]); every other
//! clause is *remapped over* that rewrite, following its variable
//! unification and property renaming, rather than changing it.

use crate::ast::{Aggregate, EdgePattern, NodePattern, ReturnItem};
use pgso_graphstore::PropertyValue;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of a `WHERE` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` (also parsed from `<>`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `CONTAINS` — substring match on strings, element match on LIST values.
    Contains,
}

impl CmpOp {
    /// The operator's surface syntax.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Contains => "CONTAINS",
        }
    }

    /// Evaluates `lhs op rhs`. Comparisons between incompatible kinds (and
    /// anything involving [`PropertyValue::Null`]) are `false`, mirroring
    /// SQL's three-valued logic collapsed to a boolean filter.
    pub fn eval(&self, lhs: &PropertyValue, rhs: &PropertyValue) -> bool {
        if lhs.is_null() || rhs.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => values_equal(lhs, rhs),
            CmpOp::Ne => !values_equal(lhs, rhs),
            CmpOp::Lt => matches!(partial_order(lhs, rhs), Some(Ordering::Less)),
            CmpOp::Le => {
                matches!(partial_order(lhs, rhs), Some(Ordering::Less | Ordering::Equal))
            }
            CmpOp::Gt => matches!(partial_order(lhs, rhs), Some(Ordering::Greater)),
            CmpOp::Ge => {
                matches!(partial_order(lhs, rhs), Some(Ordering::Greater | Ordering::Equal))
            }
            CmpOp::Contains => match (lhs, rhs) {
                (PropertyValue::Str(hay), PropertyValue::Str(needle)) => hay.contains(needle),
                (PropertyValue::List(items), needle) => {
                    items.iter().any(|item| values_equal(item, needle))
                }
                _ => false,
            },
        }
    }
}

/// Equality that treats `Int` and `Float` as one numeric domain. Two `Int`s
/// compare exactly (no f64 round-trip, which loses precision above 2^53).
fn values_equal(a: &PropertyValue, b: &PropertyValue) -> bool {
    match (a, b) {
        (PropertyValue::Int(x), PropertyValue::Int(y)) => x == y,
        _ => match (a.as_float(), b.as_float()) {
            (Some(x), Some(y)) => x == y,
            _ => a == b,
        },
    }
}

/// Ordering between two values of a comparable kind (both numeric, both
/// strings, or both booleans); `None` otherwise. `Int`/`Int` compares
/// exactly; only mixed `Int`/`Float` pairs go through f64.
fn partial_order(a: &PropertyValue, b: &PropertyValue) -> Option<Ordering> {
    match (a, b) {
        (PropertyValue::Str(x), PropertyValue::Str(y)) => Some(x.cmp(y)),
        (PropertyValue::Bool(x), PropertyValue::Bool(y)) => Some(x.cmp(y)),
        (PropertyValue::Int(x), PropertyValue::Int(y)) => Some(x.cmp(y)),
        _ => match (a.as_float(), b.as_float()) {
            (Some(x), Some(y)) => x.partial_cmp(&y),
            _ => None,
        },
    }
}

/// Total order over property values, used by `ORDER BY`, `min` and `max`:
/// `Null` sorts first, then booleans, numbers, strings and lists (element by
/// element, then by length). Numbers compare exactly across `Int` and
/// `Float` (no f64 round-trip), `-0.0` ties with `0.0`, and NaN sorts after
/// every number, all NaNs tying. `WHERE` comparisons keep their own partial
/// order ([`CmpOp::eval`]), under which NaN compares with nothing.
pub fn order_values(a: &PropertyValue, b: &PropertyValue) -> Ordering {
    fn rank(v: &PropertyValue) -> u8 {
        match v {
            PropertyValue::Null => 0,
            PropertyValue::Bool(_) => 1,
            PropertyValue::Int(_) | PropertyValue::Float(_) => 2,
            PropertyValue::Str(_) => 3,
            PropertyValue::List(_) => 4,
        }
    }
    match (a, b) {
        (PropertyValue::Bool(x), PropertyValue::Bool(y)) => x.cmp(y),
        (PropertyValue::Str(x), PropertyValue::Str(y)) => x.cmp(y),
        (PropertyValue::Int(x), PropertyValue::Int(y)) => x.cmp(y),
        (PropertyValue::Int(x), PropertyValue::Float(y)) => int_float_order(*x, *y),
        (PropertyValue::Float(x), PropertyValue::Int(y)) => int_float_order(*y, *x).reverse(),
        (PropertyValue::Float(x), PropertyValue::Float(y)) => {
            x.partial_cmp(y).unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
        }
        (PropertyValue::List(x), PropertyValue::List(y)) => {
            for (i, j) in x.iter().zip(y.iter()) {
                let ord = order_values(i, j);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            x.len().cmp(&y.len())
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

/// `int` against `float` as exact numbers, NaN after every number.
fn int_float_order(int: i64, float: f64) -> Ordering {
    // 2^63, exact as an f64: every float in [-2^63, 2^63) truncates to an
    // i64 without rounding.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if float.is_nan() || float >= TWO_63 {
        return Ordering::Less;
    }
    if float < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = float.trunc();
    int.cmp(&(whole as i64)).then(whole.partial_cmp(&float).expect("neither is NaN"))
}

/// A value position that is either a literal constant or a named `$parameter`
/// bound at execution time.
///
/// Parameters are what make a statement *prepared*: the statement's shape —
/// including the parameter names — is fixed at prepare time, and every
/// execution supplies concrete [`PropertyValue`]s through
/// [`crate::Params`]. [`Statement::bind`] substitutes the values in;
/// executing a statement with an unbound parameter makes the enclosing
/// predicate match nothing (documented on [`crate::execute_statement`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// A literal constant, part of the statement itself.
    Literal(PropertyValue),
    /// A named placeholder (`$name`), bound per execution.
    Parameter(String),
}

impl Term {
    /// Convenience constructor for a literal term.
    pub fn literal(value: impl Into<PropertyValue>) -> Self {
        Term::Literal(value.into())
    }

    /// Convenience constructor for a `$name` parameter term.
    pub fn param(name: impl Into<String>) -> Self {
        Term::Parameter(name.into())
    }

    /// The literal value, if this term is bound.
    pub fn as_literal(&self) -> Option<&PropertyValue> {
        match self {
            Term::Literal(value) => Some(value),
            Term::Parameter(_) => None,
        }
    }

    /// The parameter name, if this term is a placeholder.
    pub fn parameter_name(&self) -> Option<&str> {
        match self {
            Term::Literal(_) => None,
            Term::Parameter(name) => Some(name),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Literal(value) => fmt_literal(f, value),
            Term::Parameter(name) => write!(f, "${name}"),
        }
    }
}

impl<V: Into<PropertyValue>> From<V> for Term {
    fn from(value: V) -> Self {
        Term::Literal(value.into())
    }
}

/// A `SKIP` / `LIMIT` count that is either a literal non-negative integer or
/// a named `$parameter` bound (to a non-negative integer) at execution time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountTerm {
    /// A literal row count.
    Count(usize),
    /// A named placeholder (`$name`); its bound value must be a non-negative
    /// [`PropertyValue::Int`].
    Parameter(String),
}

impl CountTerm {
    /// Convenience constructor for a `$name` parameter count.
    pub fn param(name: impl Into<String>) -> Self {
        CountTerm::Parameter(name.into())
    }

    /// The literal count, if this term is bound.
    pub fn count(&self) -> Option<usize> {
        match self {
            CountTerm::Count(n) => Some(*n),
            CountTerm::Parameter(_) => None,
        }
    }

    /// The parameter name, if this term is a placeholder.
    pub fn parameter_name(&self) -> Option<&str> {
        match self {
            CountTerm::Count(_) => None,
            CountTerm::Parameter(name) => Some(name),
        }
    }
}

impl fmt::Display for CountTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountTerm::Count(n) => write!(f, "{n}"),
            CountTerm::Parameter(name) => write!(f, "${name}"),
        }
    }
}

impl From<usize> for CountTerm {
    fn from(n: usize) -> Self {
        CountTerm::Count(n)
    }
}

/// A `WHERE` predicate: `var.property op term`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Node variable the predicate filters.
    pub var: String,
    /// Property compared.
    pub property: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side: a literal constant or a `$parameter`.
    pub value: Term,
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{} {} {}", self.var, self.property, self.op.symbol(), self.value)
    }
}

/// Writes a predicate literal in re-parseable form: strings quoted (with
/// embedded quotes and backslashes escaped), floats always with a decimal
/// point or exponent so they do not collapse to ints (`NaN`/`inf` by
/// keyword), `null` by keyword, lists bracketed element-wise. Every
/// [`PropertyValue`] round-trips through the parser, which is what lets the
/// serving layer persist prepared statements as text.
fn fmt_literal(f: &mut fmt::Formatter<'_>, value: &PropertyValue) -> fmt::Result {
    match value {
        PropertyValue::Str(s) => {
            write!(f, "'")?;
            for ch in s.chars() {
                if ch == '\'' || ch == '\\' {
                    write!(f, "\\")?;
                }
                write!(f, "{ch}")?;
            }
            write!(f, "'")
        }
        PropertyValue::Float(v) if v.is_nan() => write!(f, "NaN"),
        PropertyValue::Float(v) if v.is_infinite() => {
            write!(f, "{}inf", if *v < 0.0 { "-" } else { "" })
        }
        PropertyValue::Float(v) => write!(f, "{v:?}"),
        PropertyValue::Null => write!(f, "null"),
        PropertyValue::List(items) => {
            write!(f, "[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_literal(f, item)?;
            }
            write!(f, "]")
        }
        other => write!(f, "{other}"),
    }
}

/// A `HAVING` predicate: `agg(var[.property]) op term`, filtering aggregate
/// groups *after* aggregation and *before* `DISTINCT`/`ORDER BY`. The
/// aggregate is evaluated over each group exactly like a `RETURN` aggregate
/// (it does not have to appear in the `RETURN` clause), and groups whose
/// value fails the comparison are dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HavingPredicate {
    /// Aggregation function evaluated per group.
    pub agg: Aggregate,
    /// Node variable the aggregate ranges over.
    pub var: String,
    /// Property to aggregate (required for the numeric functions).
    pub property: Option<String>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side: a literal constant or a `$parameter`.
    pub value: Term,
}

impl fmt::Display for HavingPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.agg.render_call(&self.var, self.property.as_deref()),
            self.op.symbol(),
            self.value
        )
    }
}

/// One `ORDER BY` key: `var.property [DESC]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderKey {
    /// Node variable.
    pub var: String,
    /// Property sorted by.
    pub property: String,
    /// Descending instead of ascending.
    pub descending: bool,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.var, self.property)?;
        if self.descending {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

/// A full query statement: a pattern (node and edge patterns plus the
/// `RETURN` clause) with filtering, optional matching, aggregation,
/// projection modifiers and row windowing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Presentation name (e.g. `Q1`), used in experiment output. Not part of
    /// the text syntax, of structural equality or of fingerprints.
    pub name: String,
    /// Mandatory node patterns; the first is the traversal root.
    pub nodes: Vec<NodePattern>,
    /// Mandatory edge patterns connecting node variables.
    pub edges: Vec<EdgePattern>,
    /// `RETURN` clause.
    pub returns: Vec<ReturnItem>,
    /// Node patterns bound only by `OPTIONAL MATCH` parts.
    pub opt_nodes: Vec<NodePattern>,
    /// `OPTIONAL MATCH` edges, applied in order with left-outer semantics:
    /// an edge that finds no match keeps the row and leaves its new variable
    /// unbound (returned as [`PropertyValue::Null`]).
    pub opt_edges: Vec<EdgePattern>,
    /// `WHERE` predicates (conjunctive).
    pub predicates: Vec<Predicate>,
    /// `RETURN DISTINCT` — deduplicate rows before ordering and windowing.
    pub distinct: bool,
    /// `GROUP BY` variables: aggregates in the `RETURN` clause are computed
    /// per distinct combination of the vertices bound to these variables
    /// (one global group when empty). Only meaningful together with at least
    /// one [`ReturnItem::Aggregate`].
    pub group_by: Vec<String>,
    /// `HAVING` predicates (conjunctive), filtering aggregate groups after
    /// aggregation and before `DISTINCT`/`ORDER BY`. Only meaningful for
    /// aggregation statements.
    pub having: Vec<HavingPredicate>,
    /// `ORDER BY` keys, applied in sequence.
    pub order_by: Vec<OrderKey>,
    /// `SKIP n` — rows dropped from the front after ordering. The count may
    /// be a `$parameter`.
    pub skip: Option<CountTerm>,
    /// `LIMIT n` — maximum rows returned after `SKIP`. The count may be a
    /// `$parameter`.
    pub limit: Option<CountTerm>,
}

impl Statement {
    /// Starts building a statement with the given name.
    pub fn builder(name: impl Into<String>) -> StatementBuilder {
        StatementBuilder { stmt: Statement { name: name.into(), ..Statement::default() } }
    }

    /// Finds a mandatory node pattern by variable.
    pub fn node(&self, var: &str) -> Option<&NodePattern> {
        self.nodes.iter().find(|n| n.var == var)
    }

    /// True if the statement returns at least one aggregate.
    pub fn is_aggregation(&self) -> bool {
        self.returns.iter().any(|r| matches!(r, ReturnItem::Aggregate { .. }))
    }

    /// Number of mandatory edge patterns (the paper's "edge traversals
    /// specified").
    pub fn edge_pattern_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the statement declares at least one `$parameter` (in a
    /// predicate, `HAVING` clause, `SKIP` or `LIMIT`). Such a statement must
    /// be bound ([`Statement::bind`]) before execution returns meaningful
    /// rows.
    pub fn has_parameters(&self) -> bool {
        self.predicates.iter().any(|p| matches!(p.value, Term::Parameter(_)))
            || self.having.iter().any(|h| matches!(h.value, Term::Parameter(_)))
            || matches!(self.skip, Some(CountTerm::Parameter(_)))
            || matches!(self.limit, Some(CountTerm::Parameter(_)))
    }

    /// Looks up a node pattern (mandatory or optional) by variable.
    pub fn any_node(&self, var: &str) -> Option<&NodePattern> {
        self.node(var).or_else(|| self.opt_nodes.iter().find(|n| n.var == var))
    }

    /// True if `var` is bound only by `OPTIONAL MATCH` parts.
    pub fn is_optional_var(&self, var: &str) -> bool {
        self.node(var).is_none() && self.opt_nodes.iter().any(|n| n.var == var)
    }

    /// Structural equality, ignoring the presentation name. This is the
    /// round-trip contract of the text front-end: `parse(s.to_string())`
    /// yields a statement structurally equal to `s` whatever name either
    /// carries.
    pub fn structurally_eq(&self, other: &Statement) -> bool {
        self.nodes == other.nodes
            && self.edges == other.edges
            && self.returns == other.returns
            && self.opt_nodes == other.opt_nodes
            && self.opt_edges == other.opt_edges
            && self.predicates == other.predicates
            && self.distinct == other.distinct
            && self.group_by == other.group_by
            && self.having == other.having
            && self.order_by == other.order_by
            && self.skip == other.skip
            && self.limit == other.limit
    }

    /// The one rule set every statement obeys, whichever way it was built:
    /// [`crate::parse()`] reports a violation as a [`crate::ParseError`] and
    /// [`StatementBuilder::build`] panics with it. It is what makes a
    /// statement's `Display` text re-parse: every variable a clause names is
    /// declared, and every declared variable has a text form.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("a statement needs at least one node pattern".into());
        }
        if self.returns.is_empty() {
            return Err("a statement needs a RETURN clause".into());
        }
        // A mandatory edge sees only mandatory nodes; an optional one also
        // sees the optional nodes.
        fn ends(e: &EdgePattern) -> [&str; 2] {
            [&e.src, &e.dst]
        }
        let mandatory = self.edges.iter().flat_map(ends).map(|var| (var, self.node(var)));
        let optional = self.opt_edges.iter().flat_map(ends).map(|var| (var, self.any_node(var)));
        if let Some((var, _)) = mandatory.chain(optional).find(|(_, node)| node.is_none()) {
            return Err(format!("variable {var} used before it was declared"));
        }
        for node in &self.opt_nodes {
            if !self.opt_edges.iter().any(|e| e.src == node.var || e.dst == node.var) {
                return Err(format!(
                    "optional node {} is referenced by no optional edge",
                    node.var
                ));
            }
        }
        let aggregates = self.returns.iter().filter_map(|item| match item {
            ReturnItem::Aggregate { agg, property, .. } => Some((*agg, property)),
            _ => None,
        });
        for (agg, property) in aggregates.chain(self.having.iter().map(|h| (h.agg, &h.property))) {
            if agg.requires_property() && property.is_none() {
                return Err(format!("{} requires a v.property operand", agg.render_call("", None)));
            }
        }
        for (clause, empty) in
            [("GROUP BY", self.group_by.is_empty()), ("HAVING", self.having.is_empty())]
        {
            if !empty && !self.is_aggregation() {
                return Err(format!(
                    "{clause} requires at least one aggregate in the RETURN clause"
                ));
            }
        }
        let returns = self.returns.iter().map(|item| ("RETURN", item.var()));
        let references = returns
            .chain(self.predicates.iter().map(|p| ("WHERE", p.var.as_str())))
            .chain(self.order_by.iter().map(|k| ("ORDER BY", k.var.as_str())))
            .chain(self.group_by.iter().map(|var| ("GROUP BY", var.as_str())))
            .chain(self.having.iter().map(|h| ("HAVING", h.var.as_str())));
        for (clause, var) in references {
            if self.any_node(var).is_none() {
                return Err(format!("{clause} references unbound variable {var}"));
            }
        }
        Ok(())
    }

    /// True if rendering the edge patterns in order (source before
    /// destination), then appending the edge-free node patterns, makes
    /// variables first appear in exactly `self.nodes` order. When it does,
    /// the compact `(a:A)-[:r]->(b:B)` rendering re-parses with the same
    /// node order; when it does not, [`Statement::fmt_match`] falls back to
    /// an explicit form that lists every node pattern first.
    fn display_order_is_node_order(&self) -> bool {
        let mut induced: Vec<&str> = Vec::with_capacity(self.nodes.len());
        for edge in &self.edges {
            for var in [edge.src.as_str(), edge.dst.as_str()] {
                if !induced.contains(&var) {
                    induced.push(var);
                }
            }
        }
        for node in &self.nodes {
            if !induced.contains(&node.var.as_str()) {
                induced.push(&node.var);
            }
        }
        induced.iter().zip(&self.nodes).all(|(&v, n)| v == n.var)
            && induced.len() == self.nodes.len()
    }

    /// Writes the `MATCH` clause body (without the keyword). Every node
    /// pattern appears — node patterns not referenced by any edge are
    /// emitted as standalone `(v:Label)` parts — and variables first appear
    /// in `self.nodes` order, so the output re-parses to an equal pattern.
    fn fmt_match(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut separate = |f: &mut fmt::Formatter<'_>| {
            f.write_str(if std::mem::take(&mut first) { "" } else { ", " })
        };
        if self.display_order_is_node_order() {
            for e in &self.edges {
                let src = self.node(&e.src).map(|n| n.label.as_str()).unwrap_or("?");
                let dst = self.node(&e.dst).map(|n| n.label.as_str()).unwrap_or("?");
                separate(f)?;
                write!(f, "({}:{})-[:{}]->({}:{})", e.src, src, e.label, e.dst, dst)?;
            }
            for n in &self.nodes {
                let referenced = self.edges.iter().any(|e| e.src == n.var || e.dst == n.var);
                if !referenced {
                    separate(f)?;
                    write!(f, "({}:{})", n.var, n.label)?;
                }
            }
        } else {
            // Node order disagrees with edge order (e.g. the traversal root
            // is the destination of the first edge): list the nodes first to
            // pin their order, then the edges over bare variables.
            for n in &self.nodes {
                separate(f)?;
                write!(f, "({}:{})", n.var, n.label)?;
            }
            for e in &self.edges {
                separate(f)?;
                write!(f, "({})-[:{}]->({})", e.src, e.label, e.dst)?;
            }
        }
        Ok(())
    }

    /// Writes the `RETURN` clause body (without the keyword).
    fn fmt_returns(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.returns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match item {
                ReturnItem::Property { var, property } => write!(f, "{var}.{property}")?,
                ReturnItem::Vertex { var } => f.write_str(var)?,
                ReturnItem::Aggregate { agg, var, property } => {
                    f.write_str(&agg.render_call(var, property.as_deref()))?
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MATCH ")?;
        self.fmt_match(f)?;
        let mut labelled: Vec<&str> = self.nodes.iter().map(|n| n.var.as_str()).collect();
        for edge in &self.opt_edges {
            write!(f, " OPTIONAL MATCH ")?;
            let node_ref = |f: &mut fmt::Formatter<'_>, var: &'_ str| -> fmt::Result {
                if labelled.contains(&var) {
                    write!(f, "({var})")
                } else {
                    let label = self.any_node(var).map(|n| n.label.as_str()).unwrap_or("?");
                    write!(f, "({var}:{label})")
                }
            };
            node_ref(f, &edge.src)?;
            write!(f, "-[:{}]->", edge.label)?;
            node_ref(f, &edge.dst)?;
            for var in [edge.src.as_str(), edge.dst.as_str()] {
                if !labelled.contains(&var) {
                    labelled.push(var);
                }
            }
        }
        if !self.predicates.is_empty() {
            write!(f, " WHERE ")?;
            for (i, predicate) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{predicate}")?;
            }
        }
        write!(f, " RETURN ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        self.fmt_returns(f)?;
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY {}", self.group_by.join(", "))?;
        }
        if !self.having.is_empty() {
            write!(f, " HAVING ")?;
            for (i, predicate) in self.having.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{predicate}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, key) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{key}")?;
            }
        }
        if let Some(skip) = &self.skip {
            write!(f, " SKIP {skip}")?;
        }
        if let Some(limit) = &self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        Ok(())
    }
}

/// Fluent builder for [`Statement`]: pattern methods add node and edge
/// patterns and `RETURN` items, clause methods add the rest.
#[derive(Debug, Clone)]
pub struct StatementBuilder {
    stmt: Statement,
}

impl StatementBuilder {
    /// Adds a mandatory node pattern.
    pub fn node(mut self, var: impl Into<String>, label: impl Into<String>) -> Self {
        self.stmt.nodes.push(NodePattern { var: var.into(), label: label.into() });
        self
    }

    /// Adds a mandatory edge pattern.
    pub fn edge(
        mut self,
        src: impl Into<String>,
        label: impl Into<String>,
        dst: impl Into<String>,
    ) -> Self {
        self.stmt.edges.push(EdgePattern { label: label.into(), src: src.into(), dst: dst.into() });
        self
    }

    /// Returns a property of a bound node.
    pub fn ret_property(mut self, var: impl Into<String>, property: impl Into<String>) -> Self {
        self.stmt.returns.push(ReturnItem::Property { var: var.into(), property: property.into() });
        self
    }

    /// Returns a bound vertex.
    pub fn ret_vertex(mut self, var: impl Into<String>) -> Self {
        self.stmt.returns.push(ReturnItem::Vertex { var: var.into() });
        self
    }

    /// Returns an aggregate.
    pub fn ret_aggregate(
        mut self,
        agg: Aggregate,
        var: impl Into<String>,
        property: Option<&str>,
    ) -> Self {
        self.stmt.returns.push(ReturnItem::Aggregate {
            agg,
            var: var.into(),
            property: property.map(str::to_string),
        });
        self
    }

    /// Declares a node bound only by `OPTIONAL MATCH` parts. Declare optional
    /// nodes in the order their variables first appear in optional edges so
    /// the statement's text form round-trips.
    pub fn opt_node(mut self, var: impl Into<String>, label: impl Into<String>) -> Self {
        self.stmt.opt_nodes.push(NodePattern { var: var.into(), label: label.into() });
        self
    }

    /// Adds an `OPTIONAL MATCH` edge. Endpoints must be mandatory variables
    /// or variables declared with [`StatementBuilder::opt_node`].
    pub fn opt_edge(
        mut self,
        src: impl Into<String>,
        label: impl Into<String>,
        dst: impl Into<String>,
    ) -> Self {
        self.stmt.opt_edges.push(EdgePattern {
            label: label.into(),
            src: src.into(),
            dst: dst.into(),
        });
        self
    }

    /// Adds a `WHERE` predicate with a literal right-hand side (conjunctive
    /// with any previous one).
    pub fn filter(
        mut self,
        var: impl Into<String>,
        property: impl Into<String>,
        op: CmpOp,
        value: impl Into<PropertyValue>,
    ) -> Self {
        self.stmt.predicates.push(Predicate {
            var: var.into(),
            property: property.into(),
            op,
            value: Term::Literal(value.into()),
        });
        self
    }

    /// Adds a `WHERE` predicate whose right-hand side is a `$parameter`,
    /// bound per execution through [`Statement::bind`] / the serving layer's
    /// `execute`.
    pub fn filter_param(
        mut self,
        var: impl Into<String>,
        property: impl Into<String>,
        op: CmpOp,
        param: impl Into<String>,
    ) -> Self {
        self.stmt.predicates.push(Predicate {
            var: var.into(),
            property: property.into(),
            op,
            value: Term::Parameter(param.into()),
        });
        self
    }

    /// Makes the `RETURN` clause `DISTINCT`.
    pub fn distinct(mut self) -> Self {
        self.stmt.distinct = true;
        self
    }

    /// Adds a `GROUP BY` variable: aggregates are computed per distinct
    /// combination of the vertices bound to the grouped variables.
    pub fn group_by(mut self, var: impl Into<String>) -> Self {
        self.stmt.group_by.push(var.into());
        self
    }

    /// Adds a `HAVING` predicate with a literal right-hand side (conjunctive
    /// with any previous one): the aggregate is evaluated per group and
    /// groups failing the comparison are dropped.
    pub fn having(
        mut self,
        agg: Aggregate,
        var: impl Into<String>,
        property: Option<&str>,
        op: CmpOp,
        value: impl Into<PropertyValue>,
    ) -> Self {
        self.stmt.having.push(HavingPredicate {
            agg,
            var: var.into(),
            property: property.map(str::to_string),
            op,
            value: Term::Literal(value.into()),
        });
        self
    }

    /// Adds a `HAVING` predicate whose right-hand side is a `$parameter`,
    /// bound per execution through [`Statement::bind`].
    pub fn having_param(
        mut self,
        agg: Aggregate,
        var: impl Into<String>,
        property: Option<&str>,
        op: CmpOp,
        param: impl Into<String>,
    ) -> Self {
        self.stmt.having.push(HavingPredicate {
            agg,
            var: var.into(),
            property: property.map(str::to_string),
            op,
            value: Term::Parameter(param.into()),
        });
        self
    }

    /// Adds an `ORDER BY` key.
    pub fn order_by(
        mut self,
        var: impl Into<String>,
        property: impl Into<String>,
        descending: bool,
    ) -> Self {
        self.stmt.order_by.push(OrderKey {
            var: var.into(),
            property: property.into(),
            descending,
        });
        self
    }

    /// Skips the first `n` result rows.
    pub fn skip(mut self, n: usize) -> Self {
        self.stmt.skip = Some(CountTerm::Count(n));
        self
    }

    /// Skips a `$parameter`-bound number of result rows.
    pub fn skip_param(mut self, param: impl Into<String>) -> Self {
        self.stmt.skip = Some(CountTerm::Parameter(param.into()));
        self
    }

    /// Caps the number of result rows.
    pub fn limit(mut self, n: usize) -> Self {
        self.stmt.limit = Some(CountTerm::Count(n));
        self
    }

    /// Caps the number of result rows at a `$parameter`-bound count.
    pub fn limit_param(mut self, param: impl Into<String>) -> Self {
        self.stmt.limit = Some(CountTerm::Parameter(param.into()));
        self
    }

    /// Finalises the statement: what [`crate::parse_named`] makes of its
    /// `Display` text, so a built statement is a parsed one (in the
    /// parser's `OPTIONAL MATCH` node order) and round-trips through
    /// `Display` → `parse`.
    ///
    /// # Panics
    /// Panics when the statement breaks a rule [`crate::parse()`] enforces
    /// on text, with the parser's message: an empty pattern or `RETURN`
    /// clause, a clause or edge naming an undeclared variable, an optional
    /// node no optional edge references, `GROUP BY`/`HAVING` without an
    /// aggregate, or a numeric aggregate without a property. Panics too
    /// when the text does not parse, e.g. for a variable that is no
    /// identifier.
    pub fn build(self) -> Statement {
        if let Err(message) = self.stmt.validate() {
            panic!("{message}");
        }
        let text = self.stmt.to_string();
        crate::parse_named(&text, self.stmt.name)
            .unwrap_or_else(|err| panic!("built statement `{text}` does not parse: {err}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Statement {
        Statement::builder("s")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .opt_node("c", "Condition")
            .opt_edge("i", "hasCondition", "c")
            .filter("d", "name", CmpOp::Contains, "aspirin")
            .distinct()
            .order_by("i", "desc", false)
            .skip(2)
            .limit(10)
            .build()
    }

    #[test]
    fn builder_assembles_all_clauses() {
        let s = sample();
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.opt_nodes.len(), 1);
        assert_eq!(s.opt_edges.len(), 1);
        assert_eq!(s.predicates.len(), 1);
        assert!(s.distinct);
        assert_eq!(s.order_by.len(), 1);
        assert_eq!(s.skip, Some(CountTerm::Count(2)));
        assert_eq!(s.limit, Some(CountTerm::Count(10)));
        assert!(!s.has_parameters());
        assert!(s.is_optional_var("c"));
        assert!(!s.is_optional_var("d"));
        assert_eq!(s.any_node("c").unwrap().label, "Condition");
    }

    #[test]
    fn parameter_terms_render_and_report() {
        let s = Statement::builder("p")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter_param("d", "name", CmpOp::Contains, "needle")
            .skip_param("offset")
            .limit_param("page")
            .build();
        assert!(s.has_parameters());
        assert_eq!(s.predicates[0].value.parameter_name(), Some("needle"));
        assert_eq!(s.skip.as_ref().unwrap().parameter_name(), Some("offset"));
        assert_eq!(s.limit.as_ref().unwrap().count(), None);
        let text = s.to_string();
        assert!(text.contains("d.name CONTAINS $needle"), "{text}");
        assert!(text.contains("SKIP $offset LIMIT $page"), "{text}");
    }

    #[test]
    fn group_by_renders_after_returns() {
        use crate::ast::Aggregate;
        let s = Statement::builder("g")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("d", "name")
            .ret_aggregate(Aggregate::Count, "i", None)
            .group_by("d")
            .build();
        let text = s.to_string();
        assert!(text.contains("RETURN d.name, count(i) GROUP BY d"), "{text}");
    }

    #[test]
    fn having_renders_between_group_by_and_order_by() {
        use crate::ast::Aggregate;
        let s = Statement::builder("h")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("d", "name")
            .ret_aggregate(Aggregate::Count, "i", None)
            .group_by("d")
            .having(Aggregate::Count, "i", None, CmpOp::Ge, 2i64)
            .having_param(Aggregate::Avg, "i", Some("weight"), CmpOp::Lt, "cap")
            .order_by("d", "name", false)
            .build();
        assert!(s.has_parameters());
        let text = s.to_string();
        assert!(
            text.contains("GROUP BY d HAVING count(i) >= 2 AND avg(i.weight) < $cap ORDER BY"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "HAVING requires at least one aggregate")]
    fn having_without_aggregate_is_rejected() {
        use crate::ast::Aggregate;
        let _ = Statement::builder("bad")
            .node("d", "Drug")
            .ret_property("d", "name")
            .having(Aggregate::Count, "d", None, CmpOp::Ge, 1i64)
            .build();
    }

    #[test]
    #[should_panic(expected = "HAVING references unbound variable")]
    fn having_requires_declared_vars() {
        use crate::ast::Aggregate;
        let _ = Statement::builder("bad")
            .node("d", "Drug")
            .ret_aggregate(Aggregate::Count, "d", None)
            .having(Aggregate::Count, "ghost", None, CmpOp::Ge, 1i64)
            .build();
    }

    #[test]
    #[should_panic(expected = "GROUP BY requires at least one aggregate")]
    fn group_by_without_aggregate_is_rejected() {
        let _ = Statement::builder("bad")
            .node("d", "Drug")
            .ret_property("d", "name")
            .group_by("d")
            .build();
    }

    #[test]
    #[should_panic(expected = "GROUP BY references unbound variable")]
    fn group_by_requires_declared_vars() {
        use crate::ast::Aggregate;
        let _ = Statement::builder("bad")
            .node("d", "Drug")
            .ret_aggregate(Aggregate::Count, "d", None)
            .group_by("ghost")
            .build();
    }

    #[test]
    fn deref_exposes_the_pattern() {
        let s = sample();
        assert_eq!(s.name, "s");
        assert_eq!(s.nodes[0], NodePattern { var: "d".into(), label: "Drug".into() });
        assert_eq!(s.edges.len(), 1);
        assert_eq!(s.edge_pattern_count(), 1);
        assert_eq!(s.returns, [ReturnItem::Property { var: "i".into(), property: "desc".into() }]);
        assert!(!s.is_aggregation());
    }

    #[test]
    fn display_renders_every_clause() {
        let text = sample().to_string();
        assert!(text.contains("OPTIONAL MATCH (i)-[:hasCondition]->(c:Condition)"), "{text}");
        assert!(text.contains("WHERE d.name CONTAINS 'aspirin'"), "{text}");
        assert!(text.contains("RETURN DISTINCT i.desc"), "{text}");
        assert!(text.contains("ORDER BY i.desc"), "{text}");
        assert!(text.contains("SKIP 2"), "{text}");
        assert!(text.contains("LIMIT 10"), "{text}");
    }

    #[test]
    fn bare_statement_has_no_clauses() {
        let s = Statement::builder("q").node("a", "A").ret_vertex("a").build();
        assert!(!s.has_parameters());
    }

    #[test]
    fn structural_equality_ignores_the_name() {
        let a = sample();
        let mut b = sample();
        b.name = "renamed".into();
        assert!(a.structurally_eq(&b));
        b.limit = Some(CountTerm::Count(11));
        assert!(!a.structurally_eq(&b));
    }

    #[test]
    fn cmp_op_eval_covers_kinds() {
        use PropertyValue as V;
        assert!(CmpOp::Eq.eval(&V::Int(3), &V::Float(3.0)));
        assert!(CmpOp::Ne.eval(&V::str("a"), &V::str("b")));
        assert!(CmpOp::Lt.eval(&V::Int(1), &V::Int(2)));
        assert!(CmpOp::Ge.eval(&V::str("b"), &V::str("a")));
        assert!(CmpOp::Contains.eval(&V::str("aspirin"), &V::str("spir")));
        assert!(CmpOp::Contains.eval(&V::str_list(["Fever", "Headache"]), &V::str("Fever")));
        assert!(!CmpOp::Lt.eval(&V::str("a"), &V::Int(1)), "incompatible kinds are false");
        assert!(!CmpOp::Eq.eval(&V::Null, &V::Null), "null never compares");
    }

    #[test]
    fn large_ints_compare_exactly() {
        use PropertyValue as V;
        // 2^53 + 1 and 2^53 collapse to the same f64; Int/Int comparisons
        // must not go through floats.
        let a = V::Int(9_007_199_254_740_993);
        let b = V::Int(9_007_199_254_740_992);
        assert!(!CmpOp::Eq.eval(&a, &b));
        assert!(CmpOp::Ne.eval(&a, &b));
        assert!(CmpOp::Gt.eval(&a, &b));
        assert_eq!(order_values(&a, &b), Ordering::Greater);
    }

    #[test]
    fn order_values_is_total() {
        use PropertyValue as V;
        assert_eq!(order_values(&V::Null, &V::Int(0)), Ordering::Less);
        assert_eq!(order_values(&V::Int(2), &V::Float(2.5)), Ordering::Less);
        assert_eq!(order_values(&V::str("a"), &V::str("b")), Ordering::Less);
        assert_eq!(order_values(&V::Int(9), &V::str("a")), Ordering::Less);
        assert_eq!(order_values(&V::str_list(["a"]), &V::str_list(["a", "b"])), Ordering::Less);
    }

    #[test]
    fn order_values_orders_nan_and_mixed_numbers() {
        use PropertyValue as V;
        let nan = V::Float(f64::NAN);
        assert_eq!(order_values(&nan, &V::Float(f64::INFINITY)), Ordering::Greater);
        assert_eq!(order_values(&V::Int(i64::MAX), &nan), Ordering::Less);
        assert_eq!(order_values(&nan, &V::Float(-f64::NAN)), Ordering::Equal);
        assert_eq!(order_values(&nan, &V::str("a")), Ordering::Less, "NaN is still a number");
        assert_eq!(order_values(&V::Float(-0.0), &V::Float(0.0)), Ordering::Equal);
        assert_eq!(order_values(&V::Int(0), &V::Float(-0.0)), Ordering::Equal);
        // 2^53 + 1 is no f64: it sorts strictly between its neighbours.
        let above = V::Int((1 << 53) + 1);
        assert_eq!(order_values(&above, &V::Float(9_007_199_254_740_992.0)), Ordering::Greater);
        assert_eq!(order_values(&above, &V::Float(9_007_199_254_740_994.0)), Ordering::Less);
        assert_eq!(order_values(&V::Int(i64::MAX), &V::Float(i64::MAX as f64)), Ordering::Less);
        assert_eq!(order_values(&V::Int(i64::MIN), &V::Float(i64::MIN as f64)), Ordering::Equal);
        assert_eq!(order_values(&V::Int(-2), &V::Float(-1.5)), Ordering::Less);
        assert_eq!(order_values(&V::Int(-1), &V::Float(-1.5)), Ordering::Greater);
        // `WHERE` keeps its partial order: NaN compares with nothing.
        assert!(!CmpOp::Lt.eval(&V::Int(1), &nan) && !CmpOp::Gt.eval(&V::Int(1), &nan));
    }

    /// A value of one of several kinds from `bits`: NaN, ±0.0, ints and
    /// floats around 2^53 and ±2^63, strings, and LISTs of such values.
    fn any_value(bits: u64, depth: u32) -> PropertyValue {
        use PropertyValue as V;
        let n = (bits >> 5) as i64 % 4 - 2;
        match bits % 12 {
            0 => V::Null,
            1 => V::Bool(bits & 32 == 0),
            2 => V::Float(if bits & 32 == 0 { f64::NAN } else { -f64::NAN }),
            3 => V::Float(if bits & 32 == 0 { 0.0 } else { -0.0 }),
            4 => V::Int((1 << 53) + n),
            5 => V::Float(9_007_199_254_740_992.0 + 2.0 * n as f64),
            6 => V::Int(if n < 0 { i64::MIN + (n + 2) } else { i64::MAX - n }),
            7 => V::Float(n as f64 * 9.2e18 + n as f64 * 0.5),
            8 => V::Int(n),
            9 => V::Float(n as f64 / 2.0),
            10 => V::str(["", "a", "b"][(bits >> 5) as usize % 3]),
            _ if depth == 0 => V::Int(n),
            _ => {
                let len = (bits >> 5) as usize % 3;
                let items = (0..len).map(|i| any_value(bits.rotate_right(7 * i as u32 + 9), 0));
                V::List(items.collect())
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        #[test]
        fn order_values_is_a_total_order(bits in proptest::collection::vec(0u64..u64::MAX, 3..4)) {
            let [a, b, c] = [0, 1, 2].map(|i| any_value(bits[i], 1));
            for (x, y) in [(&a, &b), (&b, &c), (&a, &c), (&a, &a)] {
                assert_eq!(order_values(x, y), order_values(y, x).reverse(), "{x:?} {y:?}");
            }
            let (ab, bc, ac) = (order_values(&a, &b), order_values(&b, &c), order_values(&a, &c));
            if ab == bc || bc == Ordering::Equal {
                assert_eq!(ac, ab, "{a:?} {b:?} {c:?}");
            } else if ab == Ordering::Equal {
                assert_eq!(ac, bc, "{a:?} {b:?} {c:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "used before it was declared")]
    fn optional_edges_require_declared_vars() {
        let _ = Statement::builder("bad")
            .node("a", "A")
            .ret_vertex("a")
            .opt_edge("a", "r", "ghost")
            .build();
    }

    #[test]
    #[should_panic(expected = "referenced by no optional edge")]
    fn optional_nodes_require_an_edge() {
        // An edge-less optional node has no text form, so it could never
        // round-trip through Display → parse.
        let _ = Statement::builder("bad").node("a", "A").ret_vertex("a").opt_node("o", "O").build();
    }

    #[test]
    fn built_statements_are_parsed_statements() {
        // A variable the parser cannot read has no text form.
        let spaced = std::panic::catch_unwind(|| {
            Statement::builder("q").node("a b", "Drug").ret_property("a b", "name").build()
        })
        .expect_err("the builder accepted `MATCH (a b:Drug) RETURN a b.name`");
        let message = spaced.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(message.contains("expected `)`"), "{message}");
        // Optional nodes take the order in which the text first names them.
        let built = Statement::builder("q")
            .node("a", "A")
            .ret_vertex("a")
            .opt_node("x", "X")
            .opt_node("y", "Y")
            .opt_edge("a", "toY", "y")
            .opt_edge("a", "toX", "x")
            .build();
        let parsed = crate::parse(&built.to_string()).unwrap();
        assert!(built.structurally_eq(&parsed), "{built:?} re-parses as {parsed:?}");
        assert_eq!(built.opt_nodes.iter().map(|n| n.var.as_str()).collect::<Vec<_>>(), ["y", "x"]);
    }

    #[test]
    fn builder_rejects_what_the_parser_rejects() {
        // Each statement renders to the text beside it, which `parse`
        // rejects; the builder must refuse it with the parser's message
        // instead of building a statement that cannot round-trip.
        let drug = || Statement::builder("bad").node("d", "Drug");
        let cases = [
            (
                drug().ret_property("x", "name"),
                "MATCH (d:Drug) RETURN x.name",
                "RETURN references unbound variable x",
            ),
            (
                drug().ret_property("d", "name").filter("x", "name", CmpOp::Eq, "a"),
                "MATCH (d:Drug) WHERE x.name = 'a' RETURN d.name",
                "WHERE references unbound variable x",
            ),
            (
                drug().ret_property("d", "name").order_by("x", "name", false),
                "MATCH (d:Drug) RETURN d.name ORDER BY x.name",
                "ORDER BY references unbound variable x",
            ),
            (
                drug().edge("d", "treat", "i").ret_property("d", "name"),
                "MATCH (d:Drug), (d)-[:treat]->(i) RETURN d.name",
                "variable i used before it was declared",
            ),
        ];
        for (builder, text, message) in cases {
            let parsed = crate::parse(text).expect_err(text);
            assert_eq!(parsed.message, message, "{text}");
            let panic = std::panic::catch_unwind(move || builder.build())
                .expect_err(&format!("the builder accepted `{text}`"));
            assert_eq!(panic.downcast_ref::<String>().map(String::as_str), Some(message));
        }
    }
}

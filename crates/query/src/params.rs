//! Named statement parameters: signatures, value sets and binding.
//!
//! A [`Statement`] may carry `$name` placeholders
//! ([`Term::Parameter`] in `WHERE`, [`CountTerm::Parameter`] in
//! `SKIP`/`LIMIT`). This module is the contract between such a statement and
//! its executions:
//!
//! * [`ParamSignature`] — the statement's declared parameters, in first-use
//!   order, each with the [`ParamKind`] the position demands;
//! * [`Params`] — one execution's name → [`PropertyValue`] bindings;
//! * [`Statement::bind`] — substitutes the values into a copy of the
//!   statement, failing with a [`BindError`] on a missing, mismatched or
//!   unknown parameter; [`crate::PhysicalPlan::execute`] checks them the
//!   same way and reads them in place instead, without the copy;
//! * [`Statement::parameterize`] — the reverse direction: extracts every
//!   literal constant into a fresh parameter, which is how the serving layer
//!   canonicalizes ad-hoc statements so value-varying requests share one
//!   cached plan.
//!
//! ```
//! use pgso_query::{parse, Params};
//!
//! let stmt = parse(
//!     "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n",
//! )
//! .unwrap();
//! let signature = stmt.signature();
//! assert_eq!(signature.names().collect::<Vec<_>>(), ["needle", "n"]);
//!
//! let bound = stmt.bind(&Params::new().set("needle", "aspirin").set("n", 10i64)).unwrap();
//! assert!(!bound.has_parameters());
//! assert_eq!(bound.to_string().matches("LIMIT 10").count(), 1);
//! ```

use crate::stmt::{CountTerm, Statement, Term};
use pgso_graphstore::PropertyValue;
use std::collections::BTreeMap;
use std::fmt;

/// What a parameter position accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A predicate right-hand side: any [`PropertyValue`].
    Value,
    /// A `SKIP`/`LIMIT` count: a non-negative [`PropertyValue::Int`].
    Count,
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamKind::Value => write!(f, "value"),
            ParamKind::Count => write!(f, "non-negative integer"),
        }
    }
}

/// One declared parameter of a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name (without the `$`).
    pub name: String,
    /// Kind the positions using this name demand. A name used both in a
    /// predicate and a count position is typed [`ParamKind::Count`] (the
    /// stricter of the two: its integer value also works as a predicate
    /// literal).
    pub kind: ParamKind,
}

/// The typed parameter signature of a statement: every declared `$name`, in
/// first-use order (predicates before `HAVING` before `SKIP` before
/// `LIMIT`), each name listed once.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParamSignature {
    specs: Vec<ParamSpec>,
}

impl ParamSignature {
    /// Computes the signature of a statement.
    pub fn of(stmt: &Statement) -> Self {
        let mut signature = ParamSignature::default();
        for predicate in &stmt.predicates {
            if let Term::Parameter(name) = &predicate.value {
                signature.declare(name, ParamKind::Value);
            }
        }
        for pred in &stmt.having {
            if let Term::Parameter(name) = &pred.value {
                signature.declare(name, ParamKind::Value);
            }
        }
        for count in [&stmt.skip, &stmt.limit].into_iter().flatten() {
            if let CountTerm::Parameter(name) = count {
                signature.declare(name, ParamKind::Count);
            }
        }
        signature
    }

    /// Reassembles a signature from explicit specs — the deserialization
    /// constructor for transports that ship signatures across processes
    /// (`pgso-net` sends them to clients in PREPARED responses). Duplicate
    /// names collapse under the same stricter-kind-wins rule as
    /// [`ParamSignature::of`].
    pub fn from_specs(specs: impl IntoIterator<Item = ParamSpec>) -> Self {
        let mut signature = ParamSignature::default();
        for spec in specs {
            signature.declare(&spec.name, spec.kind);
        }
        signature
    }

    fn declare(&mut self, name: &str, kind: ParamKind) {
        match self.specs.iter_mut().find(|s| s.name == name) {
            Some(existing) => {
                if kind == ParamKind::Count {
                    existing.kind = ParamKind::Count;
                }
            }
            None => self.specs.push(ParamSpec { name: name.to_string(), kind }),
        }
    }

    /// True when the statement declares no parameter.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of distinct parameter names.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// The declared parameters, in first-use order.
    pub fn specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    /// The declared names, in first-use order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.specs.iter().map(|s| s.name.as_str())
    }

    /// Kind of a declared parameter, `None` for an undeclared name.
    pub fn kind_of(&self, name: &str) -> Option<ParamKind> {
        self.specs.iter().find(|s| s.name == name).map(|s| s.kind)
    }

    /// Checks `params` against this signature without binding: every
    /// declared name present, every count parameter a non-negative integer,
    /// no undeclared names.
    ///
    /// # Errors
    /// The same [`BindError`]s [`Statement::bind`] produces.
    pub fn validate(&self, params: &Params) -> Result<(), BindError> {
        for (name, _) in params.iter() {
            if self.kind_of(name).is_none() {
                return Err(BindError::Unknown { name: name.to_string() });
            }
        }
        for spec in &self.specs {
            let value = params
                .get(&spec.name)
                .ok_or_else(|| BindError::Missing { name: spec.name.clone() })?;
            if spec.kind == ParamKind::Count && !matches!(value.as_int(), Some(n) if n >= 0) {
                return Err(BindError::Mismatch {
                    name: spec.name.clone(),
                    expected: ParamKind::Count,
                    got: format!("{value:?}"),
                });
            }
        }
        Ok(())
    }
}

/// Name → value bindings for one execution of a prepared statement.
///
/// Insertion order is irrelevant — parameters bind **by name** — which is
/// the point of the redesign: the positional literal splicing this replaces
/// silently mis-bound values when two literals swapped roles.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Params {
    values: BTreeMap<String, PropertyValue>,
}

impl Params {
    /// An empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name` to `value`, consuming and returning the set (builder
    /// style: `Params::new().set("needle", "aspirin").set("n", 10i64)`).
    pub fn set(mut self, name: impl Into<String>, value: impl Into<PropertyValue>) -> Self {
        self.values.insert(name.into(), value.into());
        self
    }

    /// Binds `name` to `value` in place.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<PropertyValue>) {
        self.values.insert(name.into(), value.into());
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&PropertyValue> {
        self.values.get(name)
    }

    /// True when no name is bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The bound `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropertyValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl<N: Into<String>, V: Into<PropertyValue>> FromIterator<(N, V)> for Params {
    fn from_iter<I: IntoIterator<Item = (N, V)>>(iter: I) -> Self {
        Params { values: iter.into_iter().map(|(n, v)| (n.into(), v.into())).collect() }
    }
}

/// Why a [`Statement::bind`] (or a serving-layer `execute`) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum BindError {
    /// The statement declares `$name` but the [`Params`] do not bind it.
    Missing {
        /// The unbound parameter name.
        name: String,
    },
    /// The bound value does not fit the position: a `SKIP`/`LIMIT` parameter
    /// was given something other than a non-negative integer.
    Mismatch {
        /// The offending parameter name.
        name: String,
        /// What the position demands.
        expected: ParamKind,
        /// Debug rendering of the rejected value.
        got: String,
    },
    /// The [`Params`] bind a name the statement never declares — almost
    /// always a typo, so it is an error rather than silently ignored.
    Unknown {
        /// The undeclared name.
        name: String,
    },
    /// The prepared-statement handle was not issued by the server asked to
    /// execute it (another server's handle, or one from before a rebuild) —
    /// reported by the serving layer, never by [`Statement::bind`].
    UnknownStatement,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Missing { name } => write!(f, "parameter ${name} is not bound"),
            BindError::Mismatch { name, expected, got } => {
                write!(f, "parameter ${name} expects a {expected}, got {got}")
            }
            BindError::Unknown { name } => {
                write!(f, "parameter ${name} is not declared by the statement")
            }
            BindError::UnknownStatement => {
                write!(f, "prepared statement was not issued by this server")
            }
        }
    }
}

impl std::error::Error for BindError {}

impl Statement {
    /// The statement's typed parameter signature (every `$name`, in
    /// first-use order).
    pub fn signature(&self) -> ParamSignature {
        ParamSignature::of(self)
    }

    /// Substitutes `params` into a copy of this statement, replacing every
    /// `$name` with its bound literal. The result has no parameters left and
    /// executes exactly like a statement written with those literals.
    ///
    /// # Errors
    /// [`BindError::Missing`] when a declared parameter is unbound,
    /// [`BindError::Mismatch`] when a `SKIP`/`LIMIT` parameter is bound to
    /// anything but a non-negative integer, and [`BindError::Unknown`] when
    /// `params` binds a name the statement does not declare.
    pub fn bind(&self, params: &Params) -> Result<Statement, BindError> {
        self.signature().validate(params)?;
        let mut bound = self.clone();
        for predicate in &mut bound.predicates {
            if let Term::Parameter(name) = &predicate.value {
                let value = params.get(name).expect("validated above");
                predicate.value = Term::Literal(value.clone());
            }
        }
        for pred in &mut bound.having {
            if let Term::Parameter(name) = &pred.value {
                let value = params.get(name).expect("validated above");
                pred.value = Term::Literal(value.clone());
            }
        }
        for count in [&mut bound.skip, &mut bound.limit].into_iter().flatten() {
            if let CountTerm::Parameter(name) = count {
                let n = params.get(name).and_then(PropertyValue::as_int).expect("validated above");
                *count = CountTerm::Count(n as usize);
            }
        }
        Ok(bound)
    }

    /// Extracts every literal constant (predicate and `HAVING` right-hand
    /// sides, `SKIP`, `LIMIT`) into a fresh `$parameter`, returning the parameterized
    /// statement together with the [`Params`] that bind it back to the
    /// original.
    ///
    /// This is the serving layer's auto-parameterization: two ad-hoc
    /// statements differing only in constants canonicalize to the *same*
    /// parameterized statement (generated names are deterministic by
    /// position), so they share one cached plan — by construction, not by a
    /// literal-excluding fingerprint. Parameters the statement already
    /// declares are kept as-is; generated names avoid them.
    pub fn parameterize(&self) -> (Statement, Params) {
        let taken: Vec<&str> = self
            .predicates
            .iter()
            .filter_map(|p| p.value.parameter_name())
            .chain(self.having.iter().filter_map(|h| h.value.parameter_name()))
            .chain(
                [&self.skip, &self.limit].into_iter().flatten().filter_map(|c| c.parameter_name()),
            )
            .collect();
        let fresh = |base: &str| -> String {
            if !taken.contains(&base) {
                return base.to_string();
            }
            (2..)
                .map(|i| format!("{base}_{i}"))
                .find(|candidate| !taken.contains(&candidate.as_str()))
                .expect("an unused name exists")
        };
        let mut stmt = self.clone();
        let mut params = Params::new();
        for (index, predicate) in stmt.predicates.iter_mut().enumerate() {
            if let Term::Literal(value) = &predicate.value {
                let name = fresh(&format!("p{index}"));
                params.insert(&name, value.clone());
                predicate.value = Term::Parameter(name);
            }
        }
        for (index, pred) in stmt.having.iter_mut().enumerate() {
            if let Term::Literal(value) = &pred.value {
                let name = fresh(&format!("h{index}"));
                params.insert(&name, value.clone());
                pred.value = Term::Parameter(name);
            }
        }
        if let Some(CountTerm::Count(n)) = &stmt.skip {
            let name = fresh("skip");
            params.insert(&name, *n as i64);
            stmt.skip = Some(CountTerm::Parameter(name));
        }
        if let Some(CountTerm::Count(n)) = &stmt.limit {
            let name = fresh("limit");
            params.insert(&name, *n as i64);
            stmt.limit = Some(CountTerm::Parameter(name));
        }
        (stmt, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::CmpOp;
    use pgso_graphstore::PropertyValue;

    fn parameterized() -> Statement {
        Statement::builder("p")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter_param("d", "name", CmpOp::Contains, "needle")
            .filter("d", "brand", CmpOp::Eq, "Ecotrin")
            .skip_param("offset")
            .limit_param("n")
            .build()
    }

    #[test]
    fn signature_lists_names_in_first_use_order() {
        let signature = parameterized().signature();
        assert_eq!(signature.len(), 3);
        assert_eq!(signature.names().collect::<Vec<_>>(), ["needle", "offset", "n"]);
        assert_eq!(signature.kind_of("needle"), Some(ParamKind::Value));
        assert_eq!(signature.kind_of("offset"), Some(ParamKind::Count));
        assert_eq!(signature.kind_of("nope"), None);
        assert!(!signature.is_empty());
    }

    #[test]
    fn shared_name_across_value_and_count_positions_is_count_typed() {
        let stmt = Statement::builder("s")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter_param("d", "rank", CmpOp::Le, "k")
            .limit_param("k")
            .build();
        assert_eq!(stmt.signature().kind_of("k"), Some(ParamKind::Count));
        let bound = stmt.bind(&Params::new().set("k", 3i64)).unwrap();
        assert_eq!(bound.predicates[0].value.as_literal(), Some(&PropertyValue::Int(3)));
        assert_eq!(bound.limit, Some(CountTerm::Count(3)));
    }

    #[test]
    fn bind_substitutes_every_position() {
        let stmt = parameterized();
        let params = Params::new().set("needle", "aspirin").set("offset", 1i64).set("n", 5i64);
        let bound = stmt.bind(&params).unwrap();
        assert!(!bound.has_parameters());
        assert_eq!(
            bound.predicates[0].value.as_literal().and_then(PropertyValue::as_str),
            Some("aspirin")
        );
        assert_eq!(bound.skip, Some(CountTerm::Count(1)));
        assert_eq!(bound.limit, Some(CountTerm::Count(5)));
        // The literal predicate is untouched.
        assert_eq!(
            bound.predicates[1].value.as_literal().and_then(PropertyValue::as_str),
            Some("Ecotrin")
        );
    }

    #[test]
    fn bind_errors_are_specific() {
        let stmt = parameterized();
        let missing = stmt.bind(&Params::new().set("needle", "x")).unwrap_err();
        assert!(
            matches!(missing, BindError::Missing { ref name } if name == "offset"),
            "{missing}"
        );
        let mismatched = stmt
            .bind(&Params::new().set("needle", "x").set("offset", "not a count").set("n", 5i64))
            .unwrap_err();
        assert!(
            matches!(mismatched, BindError::Mismatch { ref name, .. } if name == "offset"),
            "{mismatched}"
        );
        let negative = stmt
            .bind(&Params::new().set("needle", "x").set("offset", -1i64).set("n", 5i64))
            .unwrap_err();
        assert!(matches!(negative, BindError::Mismatch { .. }), "{negative}");
        let unknown = stmt
            .bind(
                &Params::new()
                    .set("needle", "x")
                    .set("offset", 0i64)
                    .set("n", 5i64)
                    .set("typo", 1i64),
            )
            .unwrap_err();
        assert!(matches!(unknown, BindError::Unknown { ref name } if name == "typo"), "{unknown}");
    }

    #[test]
    fn parameterize_extracts_every_literal_deterministically() {
        let stmt = Statement::builder("adhoc")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter("d", "name", CmpOp::Contains, "aspirin")
            .filter("d", "strength", CmpOp::Ge, 200i64)
            .skip(2)
            .limit(7)
            .build();
        let (canonical, params) = stmt.parameterize();
        assert!(canonical.has_parameters());
        assert_eq!(params.len(), 4);
        assert_eq!(params.get("p0").and_then(PropertyValue::as_str), Some("aspirin"));
        assert_eq!(params.get("p1"), Some(&PropertyValue::Int(200)));
        assert_eq!(params.get("skip"), Some(&PropertyValue::Int(2)));
        assert_eq!(params.get("limit"), Some(&PropertyValue::Int(7)));
        // Binding back reproduces the original statement exactly.
        let rebound = canonical.bind(&params).unwrap();
        assert!(rebound.structurally_eq(&stmt));
        // Different constants, same canonical shape.
        let other = Statement::builder("adhoc2")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter("d", "name", CmpOp::Contains, "ibuprofen")
            .filter("d", "strength", CmpOp::Ge, 400i64)
            .skip(9)
            .limit(1)
            .build();
        let (canonical2, _) = other.parameterize();
        assert!(canonical.structurally_eq(&canonical2));
    }

    #[test]
    fn parameterize_keeps_user_parameters_and_avoids_collisions() {
        let stmt = Statement::builder("mixed")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter_param("d", "name", CmpOp::Contains, "p1")
            .filter("d", "brand", CmpOp::Eq, "Ecotrin")
            .limit_param("limit")
            .build();
        let (canonical, params) = stmt.parameterize();
        // The user's $p1 and $limit survive; the literal gets a fresh name
        // that dodges the taken "p1".
        assert_eq!(canonical.predicates[0].value.parameter_name(), Some("p1"));
        assert_eq!(canonical.limit.as_ref().unwrap().parameter_name(), Some("limit"));
        let generated = canonical.predicates[1].value.parameter_name().unwrap();
        assert_ne!(generated, "p1");
        assert_eq!(params.len(), 1, "only the literal is extracted");
        assert!(params.get(generated).is_some());
    }

    #[test]
    fn having_parameters_sign_bind_and_parameterize() {
        use crate::ast::Aggregate;
        let stmt = Statement::builder("h")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::Count, "i", None)
            .group_by("d")
            .having_param(Aggregate::Count, "i", None, CmpOp::Ge, "floor")
            .build();
        let signature = stmt.signature();
        assert_eq!(signature.names().collect::<Vec<_>>(), ["floor"]);
        assert_eq!(signature.kind_of("floor"), Some(ParamKind::Value));
        let bound = stmt.bind(&Params::new().set("floor", 3i64)).unwrap();
        assert!(!bound.has_parameters());
        assert_eq!(bound.having[0].value.as_literal(), Some(&PropertyValue::Int(3)));
        // Parameterize extracts HAVING literals under h{index} names, and
        // binding back round-trips.
        let literal = Statement::builder("h2")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::Count, "i", None)
            .group_by("d")
            .having(Aggregate::Count, "i", None, CmpOp::Ge, 3i64)
            .build();
        let (canonical, params) = literal.parameterize();
        assert_eq!(canonical.having[0].value.parameter_name(), Some("h0"));
        assert_eq!(params.get("h0"), Some(&PropertyValue::Int(3)));
        assert!(canonical.bind(&params).unwrap().structurally_eq(&literal));
    }

    #[test]
    fn params_collects_from_iterators() {
        let params: Params = [("a", 1i64), ("b", 2i64)].into_iter().collect();
        assert_eq!(params.len(), 2);
        assert_eq!(params.get("b"), Some(&PropertyValue::Int(2)));
        assert_eq!(params.iter().count(), 2);
        assert!(Params::new().is_empty());
    }
}

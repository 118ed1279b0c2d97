//! Stable structural fingerprints for statements.
//!
//! The serving layer caches DIR→OPT rewrites per statement: two statements
//! that are structurally equal share one plan regardless of their display
//! name. [`fingerprint_statement`] hashes that structure with FNV-1a, giving a stable 64-bit key that does not depend on
//! `std::collections` hash seeds or on the process — so cache keys are
//! reproducible across runs and across serving threads.
//!
//! Unlike the positional-rebinding design this replaces, the fingerprint
//! hashes the statement **verbatim**: literal values, `SKIP`/`LIMIT` counts
//! and `$parameter` names all key. Value-independent plan sharing is the job
//! of *parameterization* instead — `$name` placeholders hash by name, so a
//! prepared statement has one fingerprint across every execution, and the
//! serving layer canonicalizes ad-hoc statements through
//! [`crate::Statement::parameterize`] before keying the cache. Sharing is
//! then visible in the statement itself rather than silently spliced in by
//! position.

use crate::ast::{Aggregate, ReturnItem};
use crate::stmt::{CmpOp, CountTerm, Statement, Term};
use pgso_graphstore::PropertyValue;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over the query structure.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a string with a length prefix so `("ab","c")` and `("a","bc")`
    /// cannot collide.
    fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u32).to_le_bytes());
        self.write(s.as_bytes());
    }

    fn write_tag(&mut self, tag: u8) {
        self.write(&[tag]);
    }
}

/// Computes the structural fingerprint of a statement.
///
/// The pattern (node and edge patterns, `RETURN` items) always keys; the
/// other clauses are hashed only when [`Statement::has_clauses`], so a
/// clause-free statement hashes its pattern alone (the bytes every pinned
/// key was recorded with). Everything else keys: predicate terms (literal
/// values by content, `$parameters` by name), `SKIP`/`LIMIT` terms,
/// `GROUP BY`, `HAVING`, `DISTINCT` and the sort keys. Only the presentation
/// name is excluded: it is metadata, and keying it would make semantically
/// identical prepared statements miss each other in the plan cache.
pub fn fingerprint_statement(stmt: &Statement) -> u64 {
    let mut h = Fnv::new();
    hash_pattern(&mut h, stmt);
    if stmt.has_clauses() {
        h.write_tag(4);
        h.write(&(stmt.opt_nodes.len() as u32).to_le_bytes());
        for node in &stmt.opt_nodes {
            h.write_str(&node.var);
            h.write_str(&node.label);
        }
        h.write_tag(5);
        h.write(&(stmt.opt_edges.len() as u32).to_le_bytes());
        for edge in &stmt.opt_edges {
            h.write_str(&edge.label);
            h.write_str(&edge.src);
            h.write_str(&edge.dst);
        }
        h.write_tag(6);
        h.write(&(stmt.predicates.len() as u32).to_le_bytes());
        for predicate in &stmt.predicates {
            h.write_str(&predicate.var);
            h.write_str(&predicate.property);
            h.write_tag(match predicate.op {
                CmpOp::Eq => 20,
                CmpOp::Ne => 21,
                CmpOp::Lt => 22,
                CmpOp::Le => 23,
                CmpOp::Gt => 24,
                CmpOp::Ge => 25,
                CmpOp::Contains => 26,
            });
            hash_term(&mut h, &predicate.value);
        }
        h.write_tag(7);
        h.write_tag(stmt.distinct as u8);
        h.write_tag(8);
        h.write(&(stmt.order_by.len() as u32).to_le_bytes());
        for key in &stmt.order_by {
            h.write_str(&key.var);
            h.write_str(&key.property);
            h.write_tag(key.descending as u8);
        }
        h.write_tag(9);
        hash_count_term(&mut h, stmt.skip.as_ref());
        hash_count_term(&mut h, stmt.limit.as_ref());
        h.write_tag(30);
        h.write(&(stmt.group_by.len() as u32).to_le_bytes());
        for var in &stmt.group_by {
            h.write_str(var);
        }
        h.write_tag(31);
        h.write(&(stmt.having.len() as u32).to_le_bytes());
        for pred in &stmt.having {
            h.write_tag(match pred.agg {
                Aggregate::Count => 12,
                Aggregate::CollectCount => 13,
                Aggregate::CountDistinct => 14,
                Aggregate::Sum => 15,
                Aggregate::Min => 16,
                Aggregate::Max => 17,
                Aggregate::Avg => 18,
            });
            h.write_str(&pred.var);
            match &pred.property {
                Some(p) => {
                    h.write_tag(1);
                    h.write_str(p);
                }
                None => h.write_tag(0),
            }
            h.write_tag(match pred.op {
                CmpOp::Eq => 20,
                CmpOp::Ne => 21,
                CmpOp::Lt => 22,
                CmpOp::Le => 23,
                CmpOp::Gt => 24,
                CmpOp::Ge => 25,
                CmpOp::Contains => 26,
            });
            hash_term(&mut h, &pred.value);
        }
    }
    h.0
}

fn hash_term(h: &mut Fnv, term: &Term) {
    match term {
        Term::Literal(value) => {
            h.write_tag(40);
            hash_value(h, value);
        }
        Term::Parameter(name) => {
            h.write_tag(41);
            h.write_str(name);
        }
    }
}

fn hash_count_term(h: &mut Fnv, term: Option<&CountTerm>) {
    match term {
        None => h.write_tag(0),
        Some(CountTerm::Count(n)) => {
            h.write_tag(1);
            h.write(&(*n as u64).to_le_bytes());
        }
        Some(CountTerm::Parameter(name)) => {
            h.write_tag(2);
            h.write_str(name);
        }
    }
}

fn hash_value(h: &mut Fnv, value: &PropertyValue) {
    match value {
        PropertyValue::Null => h.write_tag(50),
        PropertyValue::Bool(b) => {
            h.write_tag(51);
            h.write_tag(*b as u8);
        }
        PropertyValue::Int(n) => {
            h.write_tag(52);
            h.write(&n.to_le_bytes());
        }
        PropertyValue::Float(x) => {
            h.write_tag(53);
            h.write(&x.to_bits().to_le_bytes());
        }
        PropertyValue::Str(s) => {
            h.write_tag(54);
            h.write_str(s);
        }
        PropertyValue::List(items) => {
            h.write_tag(55);
            h.write(&(items.len() as u32).to_le_bytes());
            for item in items {
                hash_value(h, item);
            }
        }
    }
}

fn hash_pattern(h: &mut Fnv, stmt: &Statement) {
    h.write_tag(1);
    h.write(&(stmt.nodes.len() as u32).to_le_bytes());
    for node in &stmt.nodes {
        h.write_str(&node.var);
        h.write_str(&node.label);
    }
    h.write_tag(2);
    h.write(&(stmt.edges.len() as u32).to_le_bytes());
    for edge in &stmt.edges {
        h.write_str(&edge.label);
        h.write_str(&edge.src);
        h.write_str(&edge.dst);
    }
    h.write_tag(3);
    h.write(&(stmt.returns.len() as u32).to_le_bytes());
    for item in &stmt.returns {
        match item {
            ReturnItem::Property { var, property } => {
                h.write_tag(10);
                h.write_str(var);
                h.write_str(property);
            }
            ReturnItem::Vertex { var } => {
                h.write_tag(11);
                h.write_str(var);
            }
            ReturnItem::Aggregate { agg, var, property } => {
                h.write_tag(match agg {
                    Aggregate::Count => 12,
                    Aggregate::CollectCount => 13,
                    Aggregate::CountDistinct => 14,
                    Aggregate::Sum => 15,
                    Aggregate::Min => 16,
                    Aggregate::Max => 17,
                    Aggregate::Avg => 18,
                });
                h.write_str(var);
                match property {
                    Some(p) => {
                        h.write_tag(1);
                        h.write_str(p);
                    }
                    None => h.write_tag(0),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1() -> Statement {
        Statement::builder("Q1")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .build()
    }

    #[test]
    fn identical_structure_same_fingerprint() {
        assert_eq!(fingerprint_statement(&q1()), fingerprint_statement(&q1()));
    }

    #[test]
    fn name_does_not_affect_fingerprint() {
        let mut renamed = q1();
        renamed.name = "something-else".into();
        assert_eq!(fingerprint_statement(&q1()), fingerprint_statement(&renamed));
    }

    #[test]
    fn structure_changes_change_fingerprint() {
        let base = fingerprint_statement(&q1());

        let other_label = Statement::builder("Q1")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "cause", "i")
            .ret_property("i", "desc")
            .build();
        assert_ne!(base, fingerprint_statement(&other_label));

        let other_return = Statement::builder("Q1")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_vertex("i")
            .build();
        assert_ne!(base, fingerprint_statement(&other_return));

        let agg = Statement::builder("Q1")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(crate::ast::Aggregate::CollectCount, "i", Some("desc"))
            .build();
        assert_ne!(base, fingerprint_statement(&agg));
    }

    #[test]
    fn aggregate_variants_are_distinguished() {
        let count = Statement::builder("q")
            .node("a", "A")
            .ret_aggregate(crate::ast::Aggregate::Count, "a", None)
            .build();
        let collect = Statement::builder("q")
            .node("a", "A")
            .ret_aggregate(crate::ast::Aggregate::CollectCount, "a", None)
            .build();
        assert_ne!(fingerprint_statement(&count), fingerprint_statement(&collect));
    }

    #[test]
    fn string_boundaries_do_not_collide() {
        let ab = Statement::builder("q").node("ab", "c").ret_vertex("ab").build();
        let a = Statement::builder("q").node("a", "bc").ret_vertex("a").build();
        assert_ne!(fingerprint_statement(&ab), fingerprint_statement(&a));
    }

    // ---- statement fingerprints ----------------------------------------

    use crate::stmt::{CmpOp, Statement};

    fn stmt1() -> Statement {
        Statement::builder("S1")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .filter("d", "name", CmpOp::Contains, "aspirin")
            .order_by("i", "desc", false)
            .limit(10)
            .build()
    }

    /// Fingerprints are plan-cache keys and persisted tracker state: the
    /// hashed bytes of every clause kind are pinned as literals, so a
    /// refactor of the statement types cannot move a key unnoticed.
    #[test]
    fn clause_shapes_have_pinned_fingerprints() {
        use crate::ast::Aggregate as A;
        let treat = || {
            Statement::builder("pin")
                .node("d", "Drug")
                .node("i", "Indication")
                .edge("d", "treat", "i")
        };
        let grouped =
            || treat().ret_property("d", "name").ret_aggregate(A::Count, "i", None).group_by("d");
        let shapes = [
            ("bare", treat().ret_property("i", "desc").build()),
            (
                "OPTIONAL",
                Statement::builder("pin")
                    .node("d", "Drug")
                    .ret_property("d", "name")
                    .opt_node("i", "Indication")
                    .opt_edge("d", "treat", "i")
                    .build(),
            ),
            (
                "WHERE literal",
                treat()
                    .ret_property("i", "desc")
                    .filter("d", "name", CmpOp::Contains, "asp")
                    .build(),
            ),
            (
                "WHERE $param",
                treat().ret_property("i", "desc").filter_param("d", "name", CmpOp::Eq, "n").build(),
            ),
            ("DISTINCT", treat().ret_property("d", "name").distinct().build()),
            (
                "ORDER BY DESC",
                treat().ret_property("i", "desc").order_by("i", "desc", true).build(),
            ),
            ("SKIP/LIMIT literal", treat().ret_property("i", "desc").skip(2).limit(10).build()),
            (
                "SKIP/LIMIT $param",
                treat().ret_property("i", "desc").skip_param("s").limit_param("n").build(),
            ),
            ("GROUP BY", grouped().build()),
            ("HAVING", grouped().having(A::Count, "i", None, CmpOp::Ge, 2i64).build()),
        ];
        let measured: Vec<(&str, u64)> =
            shapes.iter().map(|(shape, stmt)| (*shape, fingerprint_statement(stmt))).collect();
        let pinned: Vec<(&str, u64)> = vec![
            ("bare", 3201315618241265537),
            ("OPTIONAL", 12358671714279220914),
            ("WHERE literal", 1441554627620099205),
            ("WHERE $param", 1637547330094470998),
            ("DISTINCT", 6802963444608423891),
            ("ORDER BY DESC", 7242901779778768256),
            ("SKIP/LIMIT literal", 6969770550983971957),
            ("SKIP/LIMIT $param", 14543554316501034552),
            ("GROUP BY", 11799823303057753179),
            ("HAVING", 9007525636721378903),
        ];
        assert_eq!(measured, pinned);
    }

    #[test]
    fn bare_statement_matches_query_fingerprint() {
        // A clause-free statement hashes its pattern alone (the `has_clauses`
        // branch is skipped): the "bare" key pinned above.
        let bare = q1();
        assert!(!bare.has_clauses());
        assert_eq!(fingerprint_statement(&bare), 3201315618241265537);
    }

    #[test]
    fn names_do_not_key_but_literals_now_do() {
        let base = fingerprint_statement(&stmt1());
        let mut renamed = stmt1();
        renamed.name = "renamed".into();
        assert_eq!(base, fingerprint_statement(&renamed), "name must not key");
        // Unlike the positional-rebinding design, a different constant is a
        // different statement — sharing is parameterization's job.
        let mut other_literal = stmt1();
        other_literal.predicates[0].value = crate::stmt::Term::literal("ibuprofen");
        assert_ne!(base, fingerprint_statement(&other_literal), "literal value keys");
        let mut other_limit = stmt1();
        other_limit.limit = Some(crate::stmt::CountTerm::Count(20));
        assert_ne!(base, fingerprint_statement(&other_limit), "LIMIT count keys");
    }

    #[test]
    fn parameterization_restores_value_independent_sharing() {
        let mut other = stmt1();
        other.predicates[0].value = crate::stmt::Term::literal("ibuprofen");
        other.limit = Some(crate::stmt::CountTerm::Count(99));
        let (canonical_a, _) = stmt1().parameterize();
        let (canonical_b, _) = other.parameterize();
        assert_eq!(
            fingerprint_statement(&canonical_a),
            fingerprint_statement(&canonical_b),
            "same shape, different constants: canonical forms must share one key"
        );
        // Parameter names key: $a and $b are different prepared statements.
        let by_name = |name: &str| {
            Statement::builder("p")
                .node("d", "Drug")
                .ret_property("d", "name")
                .filter_param("d", "name", CmpOp::Eq, name)
                .build()
        };
        assert_ne!(
            fingerprint_statement(&by_name("a")),
            fingerprint_statement(&by_name("b")),
            "parameter names key"
        );
    }

    #[test]
    fn clause_shape_changes_the_fingerprint() {
        let base = fingerprint_statement(&stmt1());
        let mut no_limit = stmt1();
        no_limit.limit = None;
        assert_ne!(base, fingerprint_statement(&no_limit), "LIMIT presence keys");
        let mut other_op = stmt1();
        other_op.predicates[0].op = CmpOp::Eq;
        assert_ne!(base, fingerprint_statement(&other_op), "operator keys");
        let mut other_property = stmt1();
        other_property.predicates[0].property = "brand".into();
        assert_ne!(base, fingerprint_statement(&other_property), "predicate property keys");
        let mut distinct = stmt1();
        distinct.distinct = true;
        assert_ne!(base, fingerprint_statement(&distinct), "DISTINCT keys");
        let mut desc = stmt1();
        desc.order_by[0].descending = true;
        assert_ne!(base, fingerprint_statement(&desc), "sort direction keys");
        let with_optional = Statement::builder("S1")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .filter("d", "name", CmpOp::Contains, "aspirin")
            .order_by("i", "desc", false)
            .limit(10)
            .opt_node("c", "Condition")
            .opt_edge("i", "hasCondition", "c")
            .build();
        assert_ne!(base, fingerprint_statement(&with_optional), "optional edges key");
    }

    #[test]
    fn having_clause_keys() {
        use crate::ast::Aggregate as A;
        let with_having = |agg: A, op: CmpOp, threshold: i64| {
            let mut s = Statement::builder("h")
                .node("d", "Drug")
                .node("i", "Indication")
                .edge("d", "treat", "i")
                .ret_aggregate(A::Count, "i", None)
                .build();
            s.group_by.push("d".into());
            s.having.push(crate::stmt::HavingPredicate {
                agg,
                var: "i".into(),
                property: None,
                op,
                value: crate::stmt::Term::literal(threshold),
            });
            s
        };
        let base = fingerprint_statement(&with_having(A::Count, CmpOp::Gt, 3));
        assert_ne!(
            base,
            fingerprint_statement(&with_having(A::CountDistinct, CmpOp::Gt, 3)),
            "HAVING aggregate keys"
        );
        assert_ne!(
            base,
            fingerprint_statement(&with_having(A::Count, CmpOp::Ge, 3)),
            "HAVING operator keys"
        );
        assert_ne!(
            base,
            fingerprint_statement(&with_having(A::Count, CmpOp::Gt, 4)),
            "HAVING threshold keys"
        );
        let mut without = with_having(A::Count, CmpOp::Gt, 3);
        without.having.clear();
        assert_ne!(base, fingerprint_statement(&without), "HAVING presence keys");
    }

    #[test]
    fn group_by_and_aggregate_functions_key() {
        let agg = |a: Aggregate, grouped: bool| {
            let mut s = Statement::builder("g")
                .node("d", "Drug")
                .node("i", "Indication")
                .edge("d", "treat", "i")
                .ret_aggregate(a, "i", Some("desc"))
                .build();
            if grouped {
                s.group_by.push("d".into());
            }
            s
        };
        use crate::ast::Aggregate as A;
        let sums = fingerprint_statement(&agg(A::Sum, false));
        assert_ne!(sums, fingerprint_statement(&agg(A::Avg, false)), "function keys");
        assert_ne!(sums, fingerprint_statement(&agg(A::Sum, true)), "GROUP BY keys");
        assert_ne!(
            fingerprint_statement(&agg(A::Count, false)),
            fingerprint_statement(&agg(A::CountDistinct, false)),
            "DISTINCT inside count keys"
        );
    }
}

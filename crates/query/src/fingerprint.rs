//! The plan-cache key of a statement.
//!
//! [`fingerprint_statement`] is FNV-1a over the statement's canonical text,
//! its `Display` form, which the parser reads and prepared statements
//! persist. Equal text means equal statement: `parse(s.to_string())` is
//! structurally equal to `s` for every statement, parsed or built (the
//! builder returns what the parser makes of its text). The presentation
//! name is not part of the text, so it does not key.
//!
//! The key is verbatim: literal values, `SKIP`/`LIMIT` counts and
//! `$parameter` names all key. Value-independent plan sharing is the job of
//! [`crate::Statement::parameterize`], which the serving layer applies to
//! ad-hoc statements before keying the cache. FNV-1a is unseeded: a key is
//! the same in every process.

use crate::stmt::Statement;
use std::fmt::{self, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A [`fmt::Write`] sink folding every byte written into an FNV-1a hash.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &byte in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// FNV-1a of `stmt.to_string()`, streamed without building the `String`.
pub fn fingerprint_statement(stmt: &Statement) -> u64 {
    let mut hash = Fnv(FNV_OFFSET);
    write!(hash, "{stmt}").expect("the FNV sink never fails");
    hash.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Aggregate;

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

    /// Fingerprints are plan-cache keys, stable across processes: the key
    /// of every clause kind is pinned as a literal, so a change to the
    /// statement text cannot move a key unnoticed. Nothing persists a key
    /// (the WAL and snapshots carry prepared text), so a deliberate change
    /// re-records these literals.
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
            ("bare", 10670034615468826841),
            ("OPTIONAL", 14947568974085332058),
            ("WHERE literal", 16865061736642166692),
            ("WHERE $param", 3384153363780410010),
            ("DISTINCT", 579144088056925660),
            ("ORDER BY DESC", 18090375139990105037),
            ("SKIP/LIMIT literal", 9380403784289478258),
            ("SKIP/LIMIT $param", 1879660598441472376),
            ("GROUP BY", 10784042115799977395),
            ("HAVING", 13313426233557490674),
        ];
        assert_eq!(measured, pinned);
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

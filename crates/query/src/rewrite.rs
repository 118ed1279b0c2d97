//! DIR → OPT query rewriting.
//!
//! Section 5.3: *"All queries are first expressed against DIR and then
//! rewritten into the semantically equivalent queries over OPT."* A query
//! written against the direct schema uses ontology concept names as labels;
//! after optimization those concepts may have been merged (1:1, inheritance),
//! dropped (union concepts, pushed-down parents) or given replicated LIST
//! properties (1:M / M:N). [`rewrite_statement`] maps the statement onto the
//! optimized schema using the provenance recorded in the schema itself
//! (`merged_from`, property origins):
//!
//! 1. node labels are re-targeted to the vertex type that now carries the
//!    concept;
//! 2. variables whose vertices were merged into the same vertex type are
//!    unified, and variables of dropped concepts are folded into an adjacent
//!    pattern variable;
//! 3. `COLLECT`-style aggregations over a 1:M neighbour are answered from the
//!    replicated LIST property when one exists, removing the edge traversal;
//! 4. property references resolve by origin (`VertexSchema::property_of`):
//!    `v.p` reads the key that holds `v`'s concept's `p`, whatever its name.
//!
//! Every rewrite reads one variable table, built once per statement: per
//! declared variable its concept, the vertex type holding that concept on
//! the optimized schema, whether a clause pins it, and the variable it was
//! unified into. Variables are numbered in order of first declaration,
//! mandatory patterns first, so the lower number survives a unification.

use crate::ast::{Aggregate, EdgePattern, NodePattern, ReturnItem};
use crate::explain::AppliedRule;
use crate::stmt::{HavingPredicate, OrderKey, Predicate, Statement};
use pgso_pgschema::{PropertyGraphSchema, VertexSchema};

#[cfg(test)]
mod reference;

/// Rewrites a statement expressed against the direct schema into an
/// equivalent statement against the optimized schema: the pattern (`nodes`,
/// `edges`, `returns`) goes through the paper's DIR→OPT rules, and every
/// other clause is remapped over the result — predicate, `ORDER BY`,
/// `GROUP BY` and `HAVING` variables follow the variable unification,
/// predicate and sort properties resolve by origin (`c.route` reads
/// `Condition.route` where a merge renamed a clash), and optional edges are
/// re-targeted like mandatory ones.
/// Predicate `$parameters` pass through untouched, so one rewritten plan
/// serves every binding of a prepared statement.
///
/// Variables referenced by a predicate, an `ORDER BY` key, a `GROUP BY` or
/// a `HAVING` predicate are *pinned*: the aggregate-to-LIST-property
/// shortcut is skipped for them, because those clauses need the variable
/// bound per vertex.
pub fn rewrite_statement(stmt: &Statement, optimized: &PropertyGraphSchema) -> Statement {
    rewrite_statement_traced(stmt, optimized).0
}

/// [`rewrite_statement`] plus rule provenance: returns the rewritten
/// statement together with one [`AppliedRule`] per schema-optimization rule
/// the rewrite exploited (label retargets onto merged vertices, variable
/// unifications, dropped-concept folds, the COLLECT→LIST shortcut and
/// replicated-property renames). The list is empty exactly when the rewrite
/// left the statement unchanged, which is what `EXPLAIN` relies on.
pub fn rewrite_statement_traced(
    stmt: &Statement,
    optimized: &PropertyGraphSchema,
) -> (Statement, Vec<AppliedRule>) {
    let mut rewriter = Rewriter::new(stmt, optimized);
    rewriter.unify_variables();
    let shortcut = rewriter.list_shortcut();
    let replaced = shortcut.as_ref().map(|(var, _)| *var);

    // Node patterns: one per surviving variable root that is still needed —
    // not unified away, not answered from a LIST property.
    let mut nodes: Vec<NodePattern> = Vec::new();
    for node in &stmt.nodes {
        let root = rewriter.resolve(&node.var);
        if root != node.var || replaced == Some(root) || nodes.iter().any(|n| n.var == root) {
            continue;
        }
        nodes.push(NodePattern { var: root.into(), label: rewriter.label_of(root).into() });
    }
    let edges = rewriter.retarget(&stmt.edges, replaced);
    let returns = match shortcut {
        Some((_, returns)) => returns,
        None => (stmt.returns.iter())
            .map(|item| match item {
                ReturnItem::Property { var, property } => {
                    let property = rewriter.property_name(var, property);
                    ReturnItem::Property { property, var: rewriter.resolve(var).into() }
                }
                ReturnItem::Vertex { var } => {
                    ReturnItem::Vertex { var: rewriter.resolve(var).into() }
                }
                ReturnItem::Aggregate { agg, var, property } => ReturnItem::Aggregate {
                    agg: *agg,
                    var: rewriter.resolve(var).into(),
                    property: property.as_ref().map(|p| rewriter.property_name(var, p)),
                },
            })
            .collect(),
    };

    let mut opt_nodes: Vec<NodePattern> = Vec::new();
    for node in &stmt.opt_nodes {
        let root = rewriter.resolve(&node.var);
        if nodes.iter().chain(&opt_nodes).any(|n| n.var == root) {
            continue;
        }
        opt_nodes.push(NodePattern { var: root.into(), label: rewriter.label_of(root).into() });
    }
    let opt_edges = rewriter.retarget(&stmt.opt_edges, None);

    let predicates = stmt
        .predicates
        .iter()
        .map(|p| Predicate {
            property: rewriter.property_name(&p.var, &p.property),
            var: rewriter.resolve(&p.var).into(),
            op: p.op,
            value: p.value.clone(),
        })
        .collect();
    let order_by = stmt
        .order_by
        .iter()
        .map(|k| OrderKey {
            property: rewriter.property_name(&k.var, &k.property),
            var: rewriter.resolve(&k.var).into(),
            descending: k.descending,
        })
        .collect();
    let mut group_by: Vec<String> = Vec::new();
    for var in &stmt.group_by {
        let root = rewriter.resolve(var);
        // Unified variables collapse to one group key (grouping by both
        // sides of a 1:1 merge is grouping by the merged vertex).
        if !group_by.iter().any(|g| g == root) {
            group_by.push(root.into());
        }
    }
    let having = stmt
        .having
        .iter()
        .map(|h| HavingPredicate {
            agg: h.agg,
            property: h.property.as_ref().map(|p| rewriter.property_name(&h.var, p)),
            var: rewriter.resolve(&h.var).into(),
            op: h.op,
            value: h.value.clone(),
        })
        .collect();

    let rewritten = Statement {
        name: format!("{}-opt", stmt.name),
        nodes,
        edges,
        returns,
        opt_nodes,
        opt_edges,
        predicates,
        distinct: stmt.distinct,
        group_by,
        having,
        order_by,
        skip: stmt.skip.clone(),
        limit: stmt.limit.clone(),
    };
    (rewritten, rewriter.applied)
}

/// One variable of the DIR statement, with everything the rewrite asks
/// about it.
struct Var<'a> {
    name: &'a str,
    /// The concept its last node pattern names (`None`: only a clause names
    /// the variable).
    concept: Option<&'a str>,
    /// The vertex type holding that concept on the optimized schema (`None`
    /// when the concept was dropped).
    target: Option<&'a VertexSchema>,
    /// A predicate, `ORDER BY` key, `GROUP BY` or `HAVING` references the
    /// variable, so it must stay bound per vertex.
    pinned: bool,
    /// Index of the variable this one was unified into; its own index while
    /// it survives.
    into: usize,
}

struct Rewriter<'a> {
    /// The DIR statement. Its OPTIONAL MATCH edges participate in variable
    /// unification (a merged or folded optional hop disappears exactly like
    /// a mandatory one) but never in the COLLECT-to-LIST replacement.
    stmt: &'a Statement,
    schema: &'a PropertyGraphSchema,
    /// The variable table: declared variables in order of first declaration
    /// (mandatory patterns first), then pinned names no pattern declares, so
    /// that `is_pinned` sees them. A name missing here resolves to itself
    /// and has no concept or target.
    vars: Vec<Var<'a>>,
    /// Rule provenance collected while rewriting, deduplicated by
    /// (rule, detail).
    applied: Vec<AppliedRule>,
}

impl<'a> Rewriter<'a> {
    fn new(stmt: &'a Statement, schema: &'a PropertyGraphSchema) -> Self {
        let mut rewriter = Self { stmt, schema, vars: Vec::new(), applied: Vec::new() };
        // A re-declared variable keeps the position of its first declaration
        // and the concept of its last.
        for node in stmt.nodes.iter().chain(&stmt.opt_nodes) {
            let var = rewriter.entry(&node.var);
            var.concept = Some(&node.label);
            var.target = schema.vertex_for_concept(&node.label);
        }
        let pinned = (stmt.predicates.iter().map(|p| &p.var))
            .chain(stmt.order_by.iter().map(|k| &k.var))
            .chain(&stmt.group_by)
            .chain(stmt.having.iter().map(|h| &h.var));
        for name in pinned {
            rewriter.entry(name).pinned = true;
        }
        rewriter
    }

    /// The table entry of `name`, appended when there is none.
    fn entry(&mut self, name: &'a str) -> &mut Var<'a> {
        let index = self.index(name).unwrap_or_else(|| {
            let into = self.vars.len();
            self.vars.push(Var { name, concept: None, target: None, pinned: false, into });
            into
        });
        &mut self.vars[index]
    }

    fn index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.name == name)
    }

    /// The index the variable at `index` was unified into, transitively.
    fn survivor(&self, mut index: usize) -> usize {
        while self.vars[index].into != index {
            index = self.vars[index].into;
        }
        index
    }

    /// The entry `name` was unified into, if the table has one.
    fn root(&self, name: &str) -> Option<&Var<'a>> {
        self.index(name).map(|i| &self.vars[self.survivor(i)])
    }

    /// The name of the variable `name` was unified into (itself when none).
    fn resolve(&self, name: &'a str) -> &'a str {
        self.root(name).map_or(name, |v| v.name)
    }

    /// The concept `name` itself was declared with (not its root's).
    fn concept(&self, name: &str) -> &'a str {
        self.index(name).and_then(|i| self.vars[i].concept).unwrap_or_default()
    }

    /// True if a pinned variable resolves to `root`, which forbids folding
    /// that variable away.
    fn is_pinned(&self, root: &str) -> bool {
        self.vars.iter().any(|v| v.pinned && self.resolve(v.name) == root)
    }

    /// Records one applied rule, skipping exact (rule, detail) duplicates —
    /// helpers like [`Rewriter::property_name`] run once per referencing
    /// clause, not once per rule application.
    fn record(&mut self, rule: &str, detail: String, edge_label: Option<&str>) {
        if !self.applied.iter().any(|r| r.rule == rule && r.detail == detail) {
            self.applied.push(AppliedRule::new(rule, detail, edge_label.map(str::to_string)));
        }
    }

    /// Classifies the rule that eliminated a pattern hop, by the hop's edge
    /// label: structural edges name their rule, anything else is a vertex
    /// merge (1:1) when both endpoints survived in one vertex type, or a
    /// union-style concept drop when one endpoint vanished from the schema.
    fn rule_for_edge(label: &str, endpoint_dropped: bool) -> &'static str {
        match label {
            "isA" => "inheritance",
            "unionOf" => "union",
            _ if endpoint_dropped => "union",
            _ => "one-to-one",
        }
    }

    fn unify_variables(&mut self) {
        let stmt = self.stmt;
        // Pairs (from, into) of table indices, applied after both passes.
        let mut unifications = Vec::new();
        // (a) Endpoints of an edge that now live in the same vertex type
        //     (1:1 merges, inheritance folds) collapse into one variable.
        //     Optional edges participate: a folded optional hop is always
        //     satisfied on the optimized schema (the two vertices are one),
        //     so the variable unifies and the edge disappears.
        for edge in stmt.edges.iter().chain(&stmt.opt_edges) {
            let (Some(s), Some(d)) = (self.index(&edge.src), self.index(&edge.dst)) else {
                continue;
            };
            let (src, dst) = (&self.vars[s], &self.vars[d]);
            let same = |t: &&VertexSchema| dst.target.is_some_and(|d| d.label == t.label);
            let Some(target) = src.target.filter(same) else { continue };
            // Keep the variable declared first.
            unifications.push(if s <= d { (d, s) } else { (s, d) });
            let detail = format!(
                "({}:{}) and ({}:{}) bind the same {} vertex; `{}` hop eliminated",
                src.name,
                src.concept.unwrap_or_default(),
                dst.name,
                dst.concept.unwrap_or_default(),
                target.label,
                edge.label
            );
            self.record(Self::rule_for_edge(&edge.label, false), detail, Some(&edge.label));
        }
        // (b) Variables whose concept disappeared (union concepts, pushed-down
        //     parents) fold into an adjacent variable — preferring one reached
        //     through a structural (isA / unionOf) edge, whose node carries the
        //     dropped concept's properties after the rewrite rules. A
        //     mandatory variable only folds along mandatory edges (folding it
        //     into an optional variable would leave the mandatory pattern
        //     empty); optional variables may fold along either kind. A
        //     re-declared variable is considered once per node pattern.
        let mandatory_count = stmt.nodes.len();
        for (index, node) in stmt.nodes.iter().chain(&stmt.opt_nodes).enumerate() {
            let dropped = self.index(&node.var).filter(|&v| self.vars[v].target.is_none());
            let Some(var) = dropped else { continue };
            let optional: &[EdgePattern] =
                if index < mandatory_count { &[] } else { &stmt.opt_edges };
            let mut candidate = None;
            for edge in stmt.edges.iter().chain(optional) {
                let other = if edge.src == node.var {
                    &edge.dst
                } else if edge.dst == node.var {
                    &edge.src
                } else {
                    continue;
                };
                let Some(other) = self.index(other).filter(|&o| self.vars[o].target.is_some())
                else {
                    continue;
                };
                let structural = matches!(edge.label.as_str(), "isA" | "unionOf");
                if structural || candidate.is_none() {
                    candidate = Some((other, edge.label.as_str()));
                }
                if structural {
                    break;
                }
            }
            if let Some((into, label)) = candidate {
                let (from, to) = (&self.vars[var], &self.vars[into]);
                let detail = format!(
                    "concept {} is not materialized in the optimized schema; ({}) folded into \
                     ({}:{}) along `{label}`",
                    from.concept.unwrap_or_default(),
                    from.name,
                    to.name,
                    to.target.map_or("", |t| t.label.as_str()),
                );
                self.record(Self::rule_for_edge(label, true), detail, Some(label));
                unifications.push((var, into));
            }
        }
        for (from, into) in unifications {
            let (from, into) = (self.survivor(from), self.survivor(into));
            if from != into {
                self.vars[from].into = into;
            }
        }
    }

    /// Label the surviving variable maps to in the optimized schema.
    fn label_of(&mut self, var: &str) -> &'a str {
        let (concept, target) = self.root(var).map_or((None, None), |v| (v.concept, v.target));
        if let (Some(concept), Some(target)) = (concept, target) {
            // A label retarget without any unification in *this* pattern
            // still means a merge rule fired when the schema was optimized:
            // the concept is now served by a vertex type that absorbed it.
            // (Only the 1:1 merge keeps absorbed concepts in `merged_from`;
            // union/inheritance drop theirs, which the fold path reports.)
            if target.label != concept {
                let detail = format!(
                    "concept {concept} is served by merged vertex {} (merged from: {})",
                    target.label,
                    target.merged_from.join(", ")
                );
                self.record("one-to-one", detail, None);
            }
        }
        target.map(|t| t.label.as_str()).or(concept).unwrap_or_default()
    }

    /// The property `var.property` reads on the optimized schema: the one
    /// holding the variable's concept's property (`VertexSchema::property_of`),
    /// or the name unchanged when the vertex type holds no property of that
    /// origin.
    fn property_name(&mut self, var: &str, property: &str) -> String {
        let label = self.label_of(var);
        let concept = self.concept(var);
        let vertex = self.schema.vertex(label);
        let Some(held) = vertex.and_then(|v| v.property_of(concept, property)) else {
            return property.to_string();
        };
        if held.is_list {
            self.record(
                "one-to-many",
                format!(
                    "property {concept}.{property} read from the replicated LIST `{}` on {label}",
                    held.name
                ),
                None,
            );
        }
        held.name.clone()
    }

    /// Decides whether the aggregations can be answered from replicated LIST
    /// properties, eliminating their edge and node pattern. Per-element
    /// aggregates qualify (`size(COLLECT)`, `SUM`/`MIN`/`MAX`/`AVG`,
    /// `COUNT(DISTINCT v.p)`): the list holds one element per original edge,
    /// so the flattened element multiset the executor aggregates over equals
    /// the per-binding multiset on DIR. Plain `COUNT` does not (it counts
    /// bindings, not elements).
    ///
    /// Dropping a variable's edge changes both the binding multiplicity and
    /// the *existence constraint* every other return item sees (a drug with
    /// zero routes binds the pattern once the edge is gone), so the shortcut
    /// only fires when the whole RETURN clause is per-element aggregates over
    /// one variable: a vertex contributing an empty list then contributes
    /// nothing, exactly like the DIR join. Plain projections (which sample a
    /// representative binding), binding-counting aggregates and `GROUP BY`
    /// (which would fabricate groups for providerless anchors) all disable
    /// it — an existence-aware variant is a ROADMAP follow-on. So at most one
    /// variable is ever replaced: returns it with the rewritten RETURN items,
    /// which read the holder's LISTs.
    fn list_shortcut(&mut self) -> Option<(&'a str, Vec<ReturnItem>)> {
        let stmt = self.stmt;
        let per_element = |item: &'a ReturnItem| match item {
            ReturnItem::Aggregate {
                agg:
                    Aggregate::CollectCount
                    | Aggregate::CountDistinct
                    | Aggregate::Sum
                    | Aggregate::Min
                    | Aggregate::Max
                    | Aggregate::Avg,
                var,
                property: Some(_),
            } => Some(var.as_str()),
            _ => None,
        };
        let first = per_element(stmt.returns.first()?)?;
        let var = self.resolve(first);
        let one_root =
            stmt.returns.iter().all(|i| per_element(i).is_some_and(|v| self.resolve(v) == var));
        if !stmt.group_by.is_empty() || !one_root || self.is_pinned(var) {
            return None;
        }
        // The variable must be reached by exactly one pattern edge.
        let mut incident = (stmt.edges.iter())
            .filter(|e| self.resolve(&e.src) == var || self.resolve(&e.dst) == var);
        let edge = incident.next()?;
        if incident.next().is_some() {
            return None;
        }
        let (holder, provider) = if self.resolve(&edge.dst) == var {
            (&edge.src, &edge.dst)
        } else {
            (&edge.dst, &edge.src)
        };
        let holder_label = self.label_of(holder);
        let holder_type = self.schema.vertex(holder_label)?;
        let (concept, holder) = (self.concept(provider), self.resolve(holder));
        // Every aggregated property must be replicated as a LIST on the
        // holder — one unreplicated property and the traversal stays
        // (replacing only some aggregates would dangle the others).
        let returns = (stmt.returns.iter())
            .map(|item| match item {
                ReturnItem::Aggregate { agg, property: Some(p), .. } => {
                    let list = holder_type.replica_of(concept, p)?;
                    let property = Some(list.name.clone());
                    Some(ReturnItem::Aggregate { agg: *agg, var: holder.into(), property })
                }
                _ => None,
            })
            .collect::<Option<_>>()?;
        self.record(
            "one-to-many",
            format!(
                "aggregate over ({first}:{concept}) answered from replicated LIST properties \
                 on {holder_label}; `{}` traversal eliminated",
                edge.label
            ),
            Some(&edge.label),
        );
        Some((var, returns))
    }

    /// `edges` with their endpoints resolved, less self-loops, duplicates
    /// and the edges of the variable `replaced` by a LIST property.
    fn retarget(&self, edges: &'a [EdgePattern], replaced: Option<&str>) -> Vec<EdgePattern> {
        let mut retargeted: Vec<EdgePattern> = Vec::new();
        for edge in edges {
            let (src, dst) = (self.resolve(&edge.src), self.resolve(&edge.dst));
            if src == dst || replaced.is_some_and(|r| r == src || r == dst) {
                continue;
            }
            let edge = EdgePattern { label: edge.label.clone(), src: src.into(), dst: dst.into() };
            if !retargeted.contains(&edge) {
                retargeted.push(edge);
            }
        }
        retargeted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_core::{optimize_nsc, OptimizerConfig, OptimizerInput};
    use pgso_ontology::{
        catalog, AccessFrequencies, ConceptId, DataStatistics, Ontology, StatisticsConfig,
    };

    fn optimized_mini() -> PropertyGraphSchema {
        let o = catalog::med_mini();
        let stats = DataStatistics::synthesize(&o, &StatisticsConfig::small(), 3);
        let af = AccessFrequencies::uniform(&o, 1_000.0);
        optimize_nsc(OptimizerInput::new(&o, &stats, &af), &OptimizerConfig::default()).schema
    }

    #[test]
    fn union_hop_is_eliminated() {
        // Q1-style: (d:Drug)-[cause]->(r:Risk)-[unionOf]->(ci:ContraIndication)
        let schema = optimized_mini();
        let q = Statement::builder("Q1")
            .node("d", "Drug")
            .node("r", "Risk")
            .node("ci", "ContraIndication")
            .edge("d", "cause", "r")
            .edge("r", "unionOf", "ci")
            .ret_property("d", "name")
            .build();
        let rewritten = rewrite_statement(&q, &schema);
        assert_eq!(rewritten.edge_pattern_count(), 1, "one hop instead of two: {rewritten}");
        assert!(rewritten.edges.iter().any(|e| e.label == "cause"));
        assert!(rewritten.nodes.iter().all(|n| n.label != "Risk"));
        assert!(rewritten.nodes.iter().any(|n| n.label == "ContraIndication"));
    }

    #[test]
    fn inheritance_parent_lookup_needs_no_traversal() {
        // Q5-style: (di:DrugInteraction)-[isA]->(dl:DrugLabInteraction) RETURN di.summary
        let schema = optimized_mini();
        let q = Statement::builder("Q5")
            .node("di", "DrugInteraction")
            .node("dl", "DrugLabInteraction")
            .edge("di", "isA", "dl")
            .ret_property("di", "summary")
            .build();
        let rewritten = rewrite_statement(&q, &schema);
        assert_eq!(rewritten.edge_pattern_count(), 0, "{rewritten}");
        assert_eq!(rewritten.nodes.len(), 1);
        assert_eq!(rewritten.nodes[0].label, "DrugLabInteraction");
        assert_eq!(
            rewritten.returns[0],
            ReturnItem::Property {
                var: rewritten.nodes[0].var.clone(),
                property: "summary".into()
            }
        );
    }

    #[test]
    fn one_to_one_merge_unifies_variables() {
        // (d:Drug)-[treat]->(i:Indication)-[hasCondition]->(c:Condition)
        let schema = optimized_mini();
        let q = Statement::builder("merge")
            .node("d", "Drug")
            .node("i", "Indication")
            .node("c", "Condition")
            .edge("d", "treat", "i")
            .edge("i", "hasCondition", "c")
            .ret_property("c", "name")
            .build();
        let rewritten = rewrite_statement(&q, &schema);
        assert_eq!(rewritten.edge_pattern_count(), 1);
        assert!(rewritten.nodes.iter().any(|n| n.label == "IndicationCondition"));
        // The returned property lives on the merged vertex under its plain name.
        match &rewritten.returns[0] {
            ReturnItem::Property { property, .. } => assert_eq!(property, "name"),
            other => panic!("unexpected return item {other:?}"),
        }
    }

    #[test]
    fn a_clash_renamed_property_is_read_by_origin() {
        // A 1:1 merge of Condition into BlackBoxWarning: both have `route`,
        // so the merged type holds Condition's under `Condition.route`. The
        // bare name is the other concept's value.
        use pgso_ontology::DataType;
        use pgso_pgschema::{PropertyOrigin, PropertySchema, VertexSchema};
        let route = |name: &str, concept: &str| {
            PropertySchema::scalar(name, DataType::Str)
                .with_origin(PropertyOrigin::new(concept, "route"))
        };
        let mut merged = VertexSchema::new("ConditionBlackBoxWarning");
        merged.merged_from = vec!["Condition".into(), "BlackBoxWarning".into()];
        merged.properties =
            vec![route("route", "BlackBoxWarning"), route("Condition.route", "Condition")];
        let mut schema = PropertyGraphSchema::new("clash");
        schema.insert_vertex(merged);
        let stmt =
            Statement::builder("q").node("c", "Condition").ret_property("c", "route").build();
        let rewritten = rewrite_statement(&stmt, &schema);
        assert_eq!(rewritten.nodes[0].label, "ConditionBlackBoxWarning");
        assert_eq!(
            rewritten.returns[0],
            ReturnItem::Property { var: "c".into(), property: "Condition.route".into() }
        );
    }

    #[test]
    fn aggregation_uses_replicated_list_property() {
        // Q9-style: COUNT of Indication.desc per Drug.
        let schema = optimized_mini();
        let q = Statement::builder("Q9")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        let rewritten = rewrite_statement(&q, &schema);
        assert_eq!(rewritten.edge_pattern_count(), 0, "{rewritten}");
        assert_eq!(rewritten.nodes.len(), 1);
        assert_eq!(rewritten.nodes[0].label, "Drug");
        match &rewritten.returns[0] {
            ReturnItem::Aggregate { property: Some(p), .. } => assert_eq!(p, "Indication.desc"),
            other => panic!("unexpected return item {other:?}"),
        }
    }

    #[test]
    fn per_element_aggregates_share_the_list_shortcut() {
        use crate::stmt::Statement;
        let schema = optimized_mini();
        // SUM/MIN/MAX/AVG and COUNT(DISTINCT …) over the 1:M neighbour's
        // property collapse to the replicated LIST exactly like COLLECT.
        for agg in [Aggregate::Sum, Aggregate::Min, Aggregate::Max, Aggregate::Avg] {
            let stmt = Statement::builder("q")
                .node("d", "Drug")
                .node("i", "Indication")
                .edge("d", "treat", "i")
                .ret_aggregate(agg, "i", Some("desc"))
                .build();
            let rewritten = rewrite_statement(&stmt, &schema);
            assert_eq!(rewritten.edges.len(), 0, "{agg:?}: {rewritten}");
            match &rewritten.returns[0] {
                ReturnItem::Aggregate { property: Some(p), var, .. } => {
                    assert_eq!(p, "Indication.desc");
                    assert_eq!(var, "d");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Two aggregates over the same variable replace together.
        let both = Statement::builder("q")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .ret_aggregate(Aggregate::CountDistinct, "i", Some("desc"))
            .build();
        let rewritten = rewrite_statement(&both, &schema);
        assert_eq!(rewritten.edges.len(), 0, "{rewritten}");
    }

    #[test]
    fn binding_sensitive_mixes_keep_the_traversal() {
        use crate::stmt::Statement;
        let schema = optimized_mini();
        // count(d) counts bindings: eliminating the treat edge would change
        // its multiplicity, so the shortcut must not fire for the mix.
        let mixed = Statement::builder("mix")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::Count, "d", None)
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        let rewritten = rewrite_statement(&mixed, &schema);
        assert_eq!(rewritten.edges.len(), 1, "{rewritten}");
        // A projection of the aggregated variable pins it the same way.
        let projected = Statement::builder("proj")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        let rewritten = rewrite_statement(&projected, &schema);
        assert_eq!(rewritten.edges.len(), 1, "{rewritten}");
        // So does a projection of the *holder*: with the edge gone, the
        // pattern would also match drugs that treat nothing, and the
        // representative row could name a drug the DIR join never binds.
        let holder_projected = Statement::builder("holder-proj")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("d", "name")
            .ret_aggregate(Aggregate::Min, "i", Some("desc"))
            .build();
        let rewritten = rewrite_statement(&holder_projected, &schema);
        assert_eq!(rewritten.edges.len(), 1, "{rewritten}");
    }

    #[test]
    fn group_by_pins_its_variable_and_follows_unification() {
        use crate::stmt::Statement;
        let schema = optimized_mini();
        // Grouping by the aggregated variable needs it bound per vertex: the
        // LIST shortcut must not fire.
        let mut grouped = Statement::builder("g")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        grouped.group_by.push("i".into());
        let rewritten = rewrite_statement(&grouped, &schema);
        assert_eq!(rewritten.edges.len(), 1, "{rewritten}");
        assert_eq!(rewritten.group_by.len(), 1);

        // Grouping by the *holder* also keeps the traversal: with the edge
        // gone, a drug treating nothing would still bind the pattern and
        // gain a group the DIR join never produces.
        let mut by_holder = Statement::builder("g2")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        by_holder.group_by.push("d".into());
        let rewritten = rewrite_statement(&by_holder, &schema);
        assert_eq!(rewritten.edges.len(), 1, "{rewritten}");
        assert_eq!(rewritten.group_by, vec!["d".to_string()]);

        // Grouping by both sides of a 1:1 merge collapses to one key.
        let mut merged = Statement::builder("g3")
            .node("i", "Indication")
            .node("c", "Condition")
            .edge("i", "hasCondition", "c")
            .ret_aggregate(Aggregate::Count, "i", None)
            .build();
        merged.group_by.extend(["i".into(), "c".into()]);
        let rewritten = rewrite_statement(&merged, &schema);
        assert_eq!(rewritten.group_by.len(), 1, "{rewritten}");
    }

    #[test]
    fn parameter_terms_survive_the_rewrite() {
        use crate::stmt::{CmpOp, Statement, Term};
        let schema = optimized_mini();
        let stmt = Statement::builder("p")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .filter_param("i", "desc", CmpOp::Contains, "needle")
            .limit_param("n")
            .build();
        let rewritten = rewrite_statement(&stmt, &schema);
        assert_eq!(rewritten.predicates[0].value, Term::Parameter("needle".into()));
        assert_eq!(
            rewritten.limit,
            Some(crate::stmt::CountTerm::Parameter("n".into())),
            "window parameters pass through"
        );
        // The predicate property still follows the renaming rules on the
        // rewritten variable.
        let target = schema.vertex_for_concept("Indication").unwrap().label.clone();
        assert!(
            rewritten.nodes.iter().any(|n| n.label == target),
            "pinned variable keeps its node: {rewritten}"
        );
    }

    #[test]
    fn plain_lookup_queries_are_left_intact() {
        let schema = optimized_mini();
        let q = Statement::builder("Q7").node("d", "Drug").ret_property("d", "brand").build();
        let rewritten = rewrite_statement(&q, &schema);
        assert_eq!(rewritten.nodes.len(), 1);
        assert_eq!(rewritten.nodes[0].label, "Drug");
        assert_eq!(rewritten.edge_pattern_count(), 0);
        assert!(rewritten.name.ends_with("-opt"));
    }

    #[test]
    fn statement_clauses_are_remapped_over_the_rewrite() {
        use crate::stmt::{CmpOp, Statement};
        let schema = optimized_mini();
        // Q9-style aggregation with a predicate on the drug: the aggregation
        // still collapses to the LIST property, the predicate stays on `d`.
        let stmt = Statement::builder("Q9-where")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .filter("d", "name", CmpOp::Contains, "Drug_name")
            .build();
        let rewritten = rewrite_statement(&stmt, &schema);
        assert_eq!(rewritten.edges.len(), 0, "{rewritten}");
        assert_eq!(rewritten.predicates.len(), 1);
        assert_eq!(rewritten.predicates[0].var, "d");
        assert_eq!(rewritten.predicates[0].property, "name");
        assert_eq!(rewritten.skip, stmt.skip);
    }

    #[test]
    fn predicate_pins_the_aggregation_variable() {
        use crate::stmt::{CmpOp, Statement};
        let schema = optimized_mini();
        // Filtering on i.desc needs `i` bound per vertex, so the LIST
        // shortcut must not fire and the traversal must survive.
        let stmt = Statement::builder("Q9-pinned")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .filter("i", "desc", CmpOp::Contains, "Fever")
            .build();
        let rewritten = rewrite_statement(&stmt, &schema);
        assert_eq!(rewritten.edges.len(), 1, "{rewritten}");
        let indication_target = schema.vertex_for_concept("Indication").unwrap().label.clone();
        assert!(rewritten.nodes.iter().any(|n| n.label == indication_target), "{rewritten}");
    }

    #[test]
    fn having_pins_its_variable_and_follows_renaming() {
        use crate::stmt::{CmpOp, HavingPredicate, Statement, Term};
        let schema = optimized_mini();
        // Without HAVING this Q9 shape collapses onto the replicated LIST
        // property (see statement_clauses_are_remapped_over_the_rewrite);
        // with a HAVING over `i` the variable needs per-binding evaluation,
        // so the traversal must survive.
        let mut stmt = Statement::builder("Q9-having")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        stmt.having.push(HavingPredicate {
            agg: Aggregate::Count,
            var: "i".into(),
            property: None,
            op: CmpOp::Ge,
            value: Term::Parameter("floor".into()),
        });
        let rewritten = rewrite_statement(&stmt, &schema);
        assert_eq!(rewritten.edges.len(), 1, "{rewritten}");
        assert_eq!(rewritten.having.len(), 1);
        assert_eq!(
            rewritten.having[0].value,
            Term::Parameter("floor".into()),
            "HAVING parameters pass through"
        );

        // A folded variable's HAVING predicate follows the substitution and
        // the property renaming, like predicates and sort keys do.
        let mut folded = Statement::builder("Q5-having")
            .node("di", "DrugInteraction")
            .node("dl", "DrugLabInteraction")
            .edge("di", "isA", "dl")
            .ret_aggregate(Aggregate::Count, "dl", None)
            .build();
        folded.having.push(HavingPredicate {
            agg: Aggregate::CountDistinct,
            var: "di".into(),
            property: Some("summary".into()),
            op: CmpOp::Ge,
            value: Term::literal(1i64),
        });
        let rewritten = rewrite_statement(&folded, &schema);
        assert_eq!(rewritten.edges.len(), 0, "{rewritten}");
        let var = rewritten.nodes[0].var.clone();
        assert_eq!(rewritten.having[0].var, var);
        assert!(
            schema
                .vertex(&rewritten.nodes[0].label)
                .unwrap()
                .has_property(rewritten.having[0].property.as_deref().unwrap()),
            "HAVING property must exist on the rewritten vertex: {rewritten}"
        );
    }

    #[test]
    fn folded_variables_carry_their_predicates_and_order_keys() {
        use crate::stmt::{CmpOp, Statement};
        let schema = optimized_mini();
        // Q5-style: `di` folds into `dl`; its predicate and ORDER BY key
        // must follow the substitution and the property renaming.
        let stmt = Statement::builder("Q5-where")
            .node("di", "DrugInteraction")
            .node("dl", "DrugLabInteraction")
            .edge("di", "isA", "dl")
            .ret_property("di", "summary")
            .filter("di", "summary", CmpOp::Ne, "")
            .order_by("di", "summary", true)
            .build();
        let rewritten = rewrite_statement(&stmt, &schema);
        assert_eq!(rewritten.edges.len(), 0, "{rewritten}");
        let var = rewritten.nodes[0].var.clone();
        assert_eq!(rewritten.predicates[0].var, var);
        assert!(
            schema
                .vertex(&rewritten.nodes[0].label)
                .unwrap()
                .has_property(&rewritten.predicates[0].property),
            "predicate property must exist on the rewritten vertex"
        );
        assert_eq!(rewritten.order_by[0].var, var);
        assert!(rewritten.order_by[0].descending);
    }

    #[test]
    fn optional_edge_over_merged_concepts_unifies_away() {
        use crate::stmt::Statement;
        let schema = optimized_mini();
        // Indication and Condition merge into one vertex type: the optional
        // hop is always satisfied on the optimized schema, so the variable
        // unifies into the anchor and the edge disappears (instead of
        // surviving as an edge the optimized graph never contains).
        let stmt = Statement::builder("opt-merged")
            .node("i", "Indication")
            .ret_property("i", "desc")
            .ret_property("c", "name")
            .opt_node("c", "Condition")
            .opt_edge("i", "hasCondition", "c")
            .build();
        let rewritten = rewrite_statement(&stmt, &schema);
        assert!(rewritten.opt_edges.is_empty(), "{rewritten}");
        assert!(rewritten.opt_nodes.is_empty(), "{rewritten}");
        assert_eq!(rewritten.nodes.len(), 1);
        let vertex = schema.vertex(&rewritten.nodes[0].label).unwrap();
        for item in &rewritten.returns {
            if let ReturnItem::Property { var, property } = item {
                assert_eq!(var, &rewritten.nodes[0].var);
                assert!(vertex.has_property(property), "{property} missing on {}", vertex.label);
            }
        }
    }

    #[test]
    fn optional_edges_are_retargeted() {
        use crate::stmt::Statement;
        let schema = optimized_mini();
        let stmt = Statement::builder("opt")
            .node("d", "Drug")
            .ret_property("d", "name")
            .opt_node("i", "Indication")
            .opt_edge("d", "treat", "i")
            .limit(4)
            .build();
        let rewritten = rewrite_statement(&stmt, &schema);
        assert_eq!(rewritten.opt_edges.len(), 1);
        assert_eq!(rewritten.opt_edges[0].label, "treat");
        assert_eq!(rewritten.opt_nodes.len(), 1);
        assert_eq!(rewritten.limit, Some(crate::stmt::CountTerm::Count(4)));
        assert!(rewritten.name.ends_with("-opt"));
    }

    #[test]
    fn provenance_names_every_rule_kind() {
        use crate::stmt::Statement;
        let schema = optimized_mini();

        // Union fold (Q1-style): Risk vanished, folded along unionOf.
        let union = Statement::builder("Q1")
            .node("d", "Drug")
            .node("r", "Risk")
            .node("ci", "ContraIndication")
            .edge("d", "cause", "r")
            .edge("r", "unionOf", "ci")
            .ret_property("d", "name")
            .build();
        let (_, rules) = rewrite_statement_traced(&union, &schema);
        assert!(rules.iter().any(|r| r.rule == "union"), "{rules:?}");

        // Inheritance fold (Q5-style).
        let inheritance = Statement::builder("Q5")
            .node("di", "DrugInteraction")
            .node("dl", "DrugLabInteraction")
            .edge("di", "isA", "dl")
            .ret_property("di", "summary")
            .build();
        let (_, rules) = rewrite_statement_traced(&inheritance, &schema);
        assert!(rules.iter().any(|r| r.rule == "inheritance"), "{rules:?}");

        // 1:1 merge: endpoint unification plus label retarget.
        let merge = Statement::builder("merge")
            .node("i", "Indication")
            .node("c", "Condition")
            .edge("i", "hasCondition", "c")
            .ret_property("c", "name")
            .build();
        let (_, rules) = rewrite_statement_traced(&merge, &schema);
        assert!(rules.iter().any(|r| r.rule == "one-to-one"), "{rules:?}");

        // 1:M LIST shortcut (Q9-style), with the eliminated edge label.
        let list = Statement::builder("Q9")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        let (_, rules) = rewrite_statement_traced(&list, &schema);
        let one_to_many = rules.iter().find(|r| r.rule == "one-to-many").expect("LIST shortcut");
        assert_eq!(one_to_many.edge_label.as_deref(), Some("treat"));

        // A label retarget alone (no unification in the pattern) must still
        // attribute the merge rule — this is what keeps EXPLAIN's rule list
        // non-empty whenever DIR and OPT differ.
        let lone =
            Statement::builder("lone").node("i", "Indication").ret_property("i", "desc").build();
        let (rewritten, rules) = rewrite_statement_traced(&lone, &schema);
        if rewritten.nodes[0].label != "Indication" {
            assert!(rules.iter().any(|r| r.rule == "one-to-one"), "{rules:?}");
        }
    }

    #[test]
    fn identity_rewrites_report_no_rules() {
        let schema = optimized_mini();
        let stmt = Statement::builder("Q7").node("d", "Drug").ret_property("d", "brand").build();
        let (rewritten, rules) = rewrite_statement_traced(&stmt, &schema);
        assert_eq!(rewritten.to_string(), stmt.to_string());
        assert!(rules.is_empty(), "identity rewrite must not claim rules: {rules:?}");
    }

    #[test]
    fn rewrite_against_full_medical_schema() {
        let o = catalog::medical();
        let stats = DataStatistics::synthesize(&o, &StatisticsConfig::small(), 3);
        let af = AccessFrequencies::uniform(&o, 1_000.0);
        let schema =
            optimize_nsc(OptimizerInput::new(&o, &stats, &af), &OptimizerConfig::default()).schema;
        // Aggregation over DrugRoute ids per Drug (paper's Q9).
        let q9 = Statement::builder("Q9")
            .node("d", "Drug")
            .node("dr", "DrugRoute")
            .edge("d", "hasDrugRoute", "dr")
            .ret_aggregate(Aggregate::CollectCount, "dr", Some("drugRouteId"))
            .build();
        let rewritten = rewrite_statement(&q9, &schema);
        assert_eq!(rewritten.edge_pattern_count(), 0);
        match &rewritten.returns[0] {
            ReturnItem::Aggregate { property: Some(p), .. } => {
                assert_eq!(p, "DrugRoute.drugRouteId")
            }
            other => panic!("unexpected return item {other:?}"),
        }
    }

    /// A generator of DIR statements over one ontology.
    use crate::stmt::Term;

    struct Generator<'o> {
        ontology: &'o Ontology,
        rng: proptest::TestRng,
    }

    impl Generator<'_> {
        fn pick(&mut self, n: usize) -> usize {
            (self.rng.next_u64() % n as u64) as usize
        }

        fn one_of<'s, T>(&mut self, items: &'s [T]) -> &'s T {
            &items[self.pick(items.len())]
        }

        /// A property to read on a variable of `concept`: mostly its own,
        /// sometimes an `isA` parent's (pushed down by the inheritance
        /// rule), now and then one no concept has.
        fn property(&mut self, concept: ConceptId) -> String {
            let parents = self.ontology.parents(concept);
            let owner = if !parents.is_empty() && self.pick(4) == 0 {
                *self.one_of(&parents)
            } else {
                concept
            };
            let names = self.ontology.concept_property_names(owner);
            if names.is_empty() || self.pick(12) == 0 {
                return "unknown".into();
            }
            self.one_of(&names).to_string()
        }

        fn term(&mut self, parameter: &str) -> Term {
            match self.pick(4) {
                0 => Term::Parameter(parameter.into()),
                1 => Term::literal(self.pick(5) as i64),
                2 => Term::literal(2.5),
                _ => Term::literal("x"),
            }
        }

        /// A random statement: a walk of up to four hops along the
        /// ontology's relationships (`isA` and `unionOf` among them) that
        /// sometimes closes a cycle, up to two `OPTIONAL` hops, sometimes a
        /// re-declared variable or an edge to an undeclared one, and every
        /// clause the rewrite remaps — per-element aggregates over one
        /// variable among the returns.
        fn statement(&mut self, name: String) -> Statement {
            use crate::stmt::{CmpOp, CountTerm};
            let o = self.ontology;
            let concepts: Vec<ConceptId> = o.concept_ids().collect();
            let mut stmt = Statement { name, ..Statement::default() };
            let start = *self.one_of(&concepts);
            stmt.nodes.push(NodePattern { var: "v0".into(), label: o.concept(start).name.clone() });
            // Every declared variable with the concept it was declared with.
            let mut vars = vec![("v0".to_string(), start)];
            for optional in [false, true] {
                let hops = if optional { [0, 0, 1, 2][self.pick(4)] } else { self.pick(5) };
                for _ in 0..hops {
                    let (from, concept) = self.one_of(&vars).clone();
                    let relationships = o.relationships_of(concept);
                    if relationships.is_empty() {
                        continue;
                    }
                    let rel = o.relationship(*self.one_of(&relationships));
                    let far = if rel.src == concept { rel.dst } else { rel.src };
                    let cycle = (self.pick(4) == 0)
                        .then(|| vars.iter().find(|(_, c)| *c == far).map(|(v, _)| v.clone()))
                        .flatten();
                    let other = cycle.unwrap_or_else(|| {
                        let var = format!("v{}", vars.len());
                        let node =
                            NodePattern { var: var.clone(), label: o.concept(far).name.clone() };
                        if optional { &mut stmt.opt_nodes } else { &mut stmt.nodes }.push(node);
                        vars.push((var.clone(), far));
                        var
                    });
                    let (src, dst) = if rel.src == concept { (from, other) } else { (other, from) };
                    let edge = EdgePattern { label: rel.name.clone(), src, dst };
                    if optional { &mut stmt.opt_edges } else { &mut stmt.edges }.push(edge);
                }
            }
            if self.pick(6) == 0 {
                // The last declaration's concept wins; the first's position.
                let (var, concept) = self.one_of(&vars).clone();
                let concept = if self.pick(2) == 0 { concept } else { *self.one_of(&concepts) };
                let node = NodePattern { var, label: o.concept(concept).name.clone() };
                if self.pick(2) == 0 { &mut stmt.nodes } else { &mut stmt.opt_nodes }.push(node);
            }
            let ghosted = self.pick(8) == 0;
            if ghosted {
                let (var, concept) = self.one_of(&vars).clone();
                let label = match o.relationships_of(concept).as_slice() {
                    [] => "unknown".to_string(),
                    all => o.relationship(*self.one_of(all)).name.clone(),
                };
                let (src, dst) =
                    if self.pick(2) == 0 { (var, "ghost".into()) } else { ("ghost".into(), var) };
                let edge = EdgePattern { label, src, dst };
                if self.pick(2) == 0 { &mut stmt.edges } else { &mut stmt.opt_edges }.push(edge);
            }
            // Clauses name a declared variable, or now and then one that no
            // pattern declares — more often when an edge reaches it.
            let ghost = (String::from("ghost"), start);
            let var = |g: &mut Self| {
                if g.pick(if ghosted { 3 } else { 16 }) == 0 {
                    ghost.clone()
                } else {
                    g.one_of(&vars).clone()
                }
            };
            let per_element = [
                Aggregate::CollectCount,
                Aggregate::CountDistinct,
                Aggregate::Sum,
                Aggregate::Min,
                Aggregate::Max,
                Aggregate::Avg,
            ];
            if self.pick(3) == 0 {
                let (v, concept) = var(self);
                for _ in 0..1 + self.pick(2) {
                    let agg = *self.one_of(&per_element);
                    let property = Some(self.property(concept));
                    stmt.returns.push(ReturnItem::Aggregate { agg, var: v.clone(), property });
                }
            } else {
                for _ in 0..1 + self.pick(3) {
                    let (v, concept) = var(self);
                    stmt.returns.push(match self.pick(4) {
                        0 => ReturnItem::Vertex { var: v },
                        1 => {
                            ReturnItem::Aggregate { agg: Aggregate::Count, var: v, property: None }
                        }
                        2 => ReturnItem::Aggregate {
                            agg: *self.one_of(&per_element),
                            var: v,
                            property: Some(self.property(concept)),
                        },
                        _ => ReturnItem::Property { property: self.property(concept), var: v },
                    });
                }
            }
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge, CmpOp::Contains];
            for i in 0..[0, 0, 1, 2][self.pick(4)] {
                let (v, concept) = var(self);
                let property = self.property(concept);
                let (op, value) = (*self.one_of(&ops), self.term(&format!("p{i}")));
                stmt.predicates.push(Predicate { var: v, property, op, value });
            }
            if stmt.is_aggregation() {
                for _ in 0..[0, 0, 1, 2][self.pick(4)] {
                    stmt.group_by.push(var(self).0);
                }
                if self.pick(4) == 0 {
                    let (v, concept) = var(self);
                    let agg = *self.one_of(&per_element);
                    let property = (agg != Aggregate::CollectCount || self.pick(2) == 0)
                        .then(|| self.property(concept));
                    let (op, value) = (*self.one_of(&ops), self.term("h"));
                    stmt.having.push(HavingPredicate { agg, var: v, property, op, value });
                }
            }
            for _ in 0..[0, 0, 1, 2][self.pick(4)] {
                let (v, concept) = var(self);
                let property = self.property(concept);
                stmt.order_by.push(OrderKey { var: v, property, descending: self.pick(2) == 0 });
            }
            stmt.distinct = self.pick(4) == 0;
            let count = |g: &mut Self, name: &str| match g.pick(3) {
                0 => None,
                1 => Some(CountTerm::Count(g.pick(10))),
                _ => Some(CountTerm::Parameter(name.into())),
            };
            stmt.skip = count(self, "skip");
            stmt.limit = count(self, "limit");
            stmt
        }
    }

    /// The schemas a DIR statement is rewritten onto: DIR itself, NSC, and
    /// RC and CC at a quarter, half and three quarters of NSC's cost.
    fn schema_grid(o: &Ontology) -> Vec<PropertyGraphSchema> {
        use pgso_core::{optimize_concept_centric, optimize_relation_centric};
        use pgso_ontology::WorkloadDistribution;
        let stats = DataStatistics::synthesize(o, &StatisticsConfig::small(), 3);
        let af = AccessFrequencies::generate(o, WorkloadDistribution::default_zipf(), 1_000.0, 3);
        let input = OptimizerInput::new(o, &stats, &af);
        let nsc = optimize_nsc(input, &OptimizerConfig::default());
        let mut grid = vec![PropertyGraphSchema::direct_from_ontology(o)];
        for fraction in [0.25, 0.5, 0.75] {
            let config =
                OptimizerConfig::with_space_limit((nsc.total_cost as f64 * fraction) as u64);
            grid.push(optimize_relation_centric(input, &config).schema);
            grid.push(optimize_concept_centric(input, &config).schema);
        }
        grid.push(nsc.schema);
        grid
    }

    #[test]
    fn rewrites_what_the_reference_rewrites() {
        let mut rules: std::collections::BTreeMap<String, usize> = Default::default();
        for (seed, o) in
            [catalog::med_mini(), catalog::medical(), catalog::financial()].iter().enumerate()
        {
            let grid = schema_grid(o);
            let mut generator = Generator { ontology: o, rng: proptest::TestRng::new(seed as u64) };
            for n in 0..1_500 {
                let stmt = generator.statement(format!("{}-{n}", o.name()));
                for schema in &grid {
                    let new = rewrite_statement_traced(&stmt, schema);
                    let old = reference::rewrite_statement_traced(&stmt, schema);
                    // Debug text covers every field, the rule list included.
                    assert_eq!(
                        format!("{new:?}"),
                        format!("{old:?}"),
                        "{stmt:?} onto {}",
                        schema.name
                    );
                    let plain = reference::rewrite_statement(&stmt, schema);
                    assert_eq!(format!("{:?}", new.0), format!("{plain:?}"));
                    for rule in &new.1 {
                        let shortcut = rule.detail.starts_with("aggregate over");
                        *rules
                            .entry(if shortcut {
                                "LIST shortcut".into()
                            } else {
                                rule.rule.clone()
                            })
                            .or_default() += 1;
                    }
                }
            }
        }
        for rule in ["one-to-one", "union", "inheritance", "one-to-many", "LIST shortcut"] {
            assert!(rules.get(rule).is_some_and(|&n| n > 0), "no {rule} rewrite in {rules:?}");
        }
    }

    /// A ratchet on rule (a) of `unify_variables`: it collapses every hop
    /// whose two endpoint concepts share a vertex type, 1:M and M:N hops
    /// included, and reports a `one-to-one` merge although the hop may
    /// reach many vertices. Per schema of the grid, the functional non-1:1
    /// relationships with both ends in one vertex type are listed, each
    /// such hop is checked to be eliminated under `one-to-one`, and the
    /// counts are pinned: a change in any count fails until it is
    /// re-recorded. A correct rewriter keeps these hops, so every count
    /// should fall to 0.
    #[test]
    fn functional_hops_inside_one_vertex_type_collapse_as_one_to_one() {
        use pgso_ontology::RelationshipKind;
        const GRID: [&str; 8] =
            ["DIR", "RC 0.25", "CC 0.25", "RC 0.5", "CC 0.5", "RC 0.75", "CC 0.75", "NSC"];
        let mut counts = Vec::new();
        for o in [catalog::medical(), catalog::financial()] {
            for (schema, grid) in schema_grid(&o).iter().zip(GRID) {
                let mut collapsed = Vec::new();
                for (_, rel) in o.relationships() {
                    if !rel.kind.is_functional() || rel.kind == RelationshipKind::OneToOne {
                        continue;
                    }
                    let (src, dst) = (&o.concept(rel.src).name, &o.concept(rel.dst).name);
                    let target =
                        |concept: &str| schema.vertex_for_concept(concept).map(|v| &v.label);
                    if target(src).is_none() || target(src) != target(dst) {
                        continue;
                    }
                    let hop = Statement::builder("hop")
                        .node("a", src.as_str())
                        .node("b", dst.as_str())
                        .edge("a", rel.name.as_str(), "b")
                        .ret_vertex("b")
                        .build();
                    let (rewritten, rules) = rewrite_statement_traced(&hop, schema);
                    let merged = |r: &AppliedRule| {
                        r.rule == "one-to-one" && r.edge_label.as_ref() == Some(&rel.name)
                    };
                    assert!(
                        rewritten.edges.is_empty() && rules.iter().any(merged),
                        "{hop} onto {grid} of {}: {rewritten} by {rules:?}",
                        o.name()
                    );
                    collapsed.push(rel.name.as_str());
                }
                if o.name() == "financial" && grid == "NSC" {
                    for name in ["employsOfficer", "recordsTransaction", "holdsAccount"] {
                        assert!(collapsed.contains(&name), "{name} not in {collapsed:?}");
                    }
                }
                counts.push(format!("{} {grid}: {}", o.name(), collapsed.len()));
            }
        }
        let pinned = [
            "medical DIR: 0",
            "medical RC 0.25: 0",
            "medical CC 0.25: 0",
            "medical RC 0.5: 0",
            "medical CC 0.5: 0",
            "medical RC 0.75: 0",
            "medical CC 0.75: 0",
            "medical NSC: 0",
            "financial DIR: 0",
            "financial RC 0.25: 17",
            "financial CC 0.25: 4",
            "financial RC 0.5: 17",
            "financial CC 0.5: 8",
            "financial RC 0.75: 17",
            "financial CC 0.75: 8",
            "financial NSC: 17",
        ];
        assert_eq!(counts, pinned);
    }
}

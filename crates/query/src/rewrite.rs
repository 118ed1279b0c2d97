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

use crate::ast::{Aggregate, EdgePattern, NodePattern, ReturnItem};
use crate::explain::AppliedRule;
use crate::stmt::{HavingPredicate, OrderKey, Predicate, Statement};
use pgso_pgschema::{PropertyGraphSchema, VertexSchema};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

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
    let pattern = rewriter.rebuild();

    let mut opt_nodes = Vec::new();
    for node in &stmt.opt_nodes {
        let root = rewriter.resolve(&node.var);
        if pattern.node(&root).is_some() || opt_nodes.iter().any(|n: &NodePattern| n.var == root) {
            continue;
        }
        opt_nodes.push(NodePattern { var: root.clone(), label: rewriter.label_of(&root) });
    }
    let mut opt_edges = Vec::new();
    for edge in &stmt.opt_edges {
        let src = rewriter.resolve(&edge.src);
        let dst = rewriter.resolve(&edge.dst);
        if src == dst {
            continue;
        }
        let rewritten = EdgePattern { label: edge.label.clone(), src, dst };
        if !opt_edges.contains(&rewritten) {
            opt_edges.push(rewritten);
        }
    }

    let predicates = stmt
        .predicates
        .iter()
        .map(|p| Predicate {
            property: rewriter.property_name(&p.var, &p.property),
            var: rewriter.resolve(&p.var),
            op: p.op,
            value: p.value.clone(),
        })
        .collect();
    let order_by = stmt
        .order_by
        .iter()
        .map(|k| OrderKey {
            property: rewriter.property_name(&k.var, &k.property),
            var: rewriter.resolve(&k.var),
            descending: k.descending,
        })
        .collect();
    let mut group_by: Vec<String> = Vec::new();
    for var in &stmt.group_by {
        let root = rewriter.resolve(var);
        // Unified variables collapse to one group key (grouping by both
        // sides of a 1:1 merge is grouping by the merged vertex).
        if !group_by.contains(&root) {
            group_by.push(root);
        }
    }
    let having = stmt
        .having
        .iter()
        .map(|h| HavingPredicate {
            agg: h.agg,
            property: h.property.as_ref().map(|p| rewriter.property_name(&h.var, p)),
            var: rewriter.resolve(&h.var),
            op: h.op,
            value: h.value.clone(),
        })
        .collect();

    let rewritten = Statement {
        opt_nodes,
        opt_edges,
        predicates,
        distinct: stmt.distinct,
        group_by,
        having,
        order_by,
        skip: stmt.skip.clone(),
        limit: stmt.limit.clone(),
        ..pattern
    };
    (rewritten, rewriter.applied.into_inner())
}

struct Rewriter<'a> {
    /// The DIR statement. Its OPTIONAL MATCH edges participate in variable
    /// unification (a merged or folded optional hop disappears exactly like
    /// a mandatory one) but never in the COLLECT-to-LIST replacement.
    stmt: &'a Statement,
    schema: &'a PropertyGraphSchema,
    /// Variables that must stay bound (predicate / ORDER BY / GROUP BY
    /// references): the aggregation-to-LIST-property replacement is disabled
    /// for them.
    pinned: HashSet<String>,
    /// True when the statement carries a `GROUP BY`; the LIST-property
    /// shortcut is disabled wholesale then (see `rebuild`).
    grouped: bool,
    /// Original concept label per variable.
    concept_of: HashMap<String, String>,
    /// Target vertex label per variable (None when the concept was dropped).
    target_of: HashMap<String, Option<String>>,
    /// Variable substitution map (var -> surviving var).
    subst: HashMap<String, String>,
    /// Rule provenance collected while rewriting, deduplicated by
    /// (rule, detail). `RefCell` because several recording sites (`label_of`,
    /// `property_name`) are reached through `&self` helpers.
    applied: RefCell<Vec<AppliedRule>>,
}

impl<'a> Rewriter<'a> {
    fn new(stmt: &'a Statement, schema: &'a PropertyGraphSchema) -> Self {
        let pinned = stmt
            .predicates
            .iter()
            .map(|p| p.var.clone())
            .chain(stmt.order_by.iter().map(|k| k.var.clone()))
            .chain(stmt.group_by.iter().cloned())
            .chain(stmt.having.iter().map(|h| h.var.clone()))
            .collect();
        let mut concept_of = HashMap::new();
        let mut target_of = HashMap::new();
        let mut subst = HashMap::new();
        for node in stmt.nodes.iter().chain(&stmt.opt_nodes) {
            concept_of.insert(node.var.clone(), node.label.clone());
            target_of.insert(
                node.var.clone(),
                schema.vertex_for_concept(&node.label).map(|v| v.label.clone()),
            );
            subst.insert(node.var.clone(), node.var.clone());
        }
        Self {
            stmt,
            schema,
            pinned,
            grouped: !stmt.group_by.is_empty(),
            concept_of,
            target_of,
            subst,
            applied: RefCell::new(Vec::new()),
        }
    }

    /// Records one applied rule, skipping exact (rule, detail) duplicates —
    /// helpers like [`Rewriter::property_name`] run once per referencing
    /// clause, not once per rule application.
    fn record(&self, rule: &str, detail: String, edge_label: Option<String>) {
        let mut applied = self.applied.borrow_mut();
        if applied.iter().any(|r| r.rule == rule && r.detail == detail) {
            return;
        }
        applied.push(AppliedRule::new(rule, detail, edge_label));
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

    /// Position of a variable across mandatory then optional node patterns,
    /// used to decide which variable survives a unification (mandatory and
    /// earlier patterns win).
    fn position_of(&self, var: &str) -> usize {
        self.stmt
            .nodes
            .iter()
            .chain(&self.stmt.opt_nodes)
            .position(|n| n.var == var)
            .unwrap_or(usize::MAX)
    }

    /// True if a predicate or ORDER BY key references a variable resolving
    /// to `root`, which forbids folding that variable away.
    fn is_pinned(&self, root: &str) -> bool {
        self.pinned.iter().any(|p| self.resolve(p) == root)
    }

    fn resolve(&self, var: &str) -> String {
        let mut current = var.to_string();
        while let Some(next) = self.subst.get(&current) {
            if *next == current {
                break;
            }
            current = next.clone();
        }
        current
    }

    fn unify(&mut self, from: &str, into: &str) {
        let from_root = self.resolve(from);
        let into_root = self.resolve(into);
        if from_root != into_root {
            self.subst.insert(from_root, into_root);
        }
    }

    fn unify_variables(&mut self) {
        // (a) Endpoints of an edge that now live in the same vertex type
        //     (1:1 merges, inheritance folds) collapse into one variable.
        //     Optional edges participate: a folded optional hop is always
        //     satisfied on the optimized schema (the two vertices are one),
        //     so the variable unifies and the edge disappears.
        let all_edges = || self.stmt.edges.iter().chain(&self.stmt.opt_edges);
        let mut unifications: Vec<(String, String)> = Vec::new();
        for edge in all_edges() {
            let src_target = self.target_of.get(&edge.src).cloned().flatten();
            let dst_target = self.target_of.get(&edge.dst).cloned().flatten();
            if let (Some(s), Some(d)) = (src_target, dst_target) {
                if s == d {
                    // Keep the variable that appears first (mandatory
                    // patterns come before optional ones).
                    if self.position_of(&edge.src) <= self.position_of(&edge.dst) {
                        unifications.push((edge.dst.clone(), edge.src.clone()));
                    } else {
                        unifications.push((edge.src.clone(), edge.dst.clone()));
                    }
                    let src_concept = self.concept_of.get(&edge.src).cloned().unwrap_or_default();
                    let dst_concept = self.concept_of.get(&edge.dst).cloned().unwrap_or_default();
                    self.record(
                        Self::rule_for_edge(&edge.label, false),
                        format!(
                            "({}:{src_concept}) and ({}:{dst_concept}) bind the same {s} \
                             vertex; `{}` hop eliminated",
                            edge.src, edge.dst, edge.label
                        ),
                        Some(edge.label.clone()),
                    );
                }
            }
        }
        // (b) Variables whose concept disappeared (union concepts, pushed-down
        //     parents) fold into an adjacent variable — preferring one reached
        //     through a structural (isA / unionOf) edge, whose node carries the
        //     dropped concept's properties after the rewrite rules. A
        //     mandatory variable only folds along mandatory edges (folding it
        //     into an optional variable would leave the mandatory pattern
        //     empty); optional variables may fold along either kind.
        let mandatory_count = self.stmt.nodes.len();
        for (index, node) in self.stmt.nodes.iter().chain(&self.stmt.opt_nodes).enumerate() {
            if self.target_of.get(&node.var).cloned().flatten().is_some() {
                continue;
            }
            let adjacent: &mut dyn Iterator<Item = &EdgePattern> = if index < mandatory_count {
                &mut self.stmt.edges.iter()
            } else {
                &mut self.stmt.edges.iter().chain(&self.stmt.opt_edges)
            };
            let mut candidate: Option<(String, String)> = None;
            for edge in adjacent {
                let (other, structural) = if edge.src == node.var {
                    (&edge.dst, matches!(edge.label.as_str(), "isA" | "unionOf"))
                } else if edge.dst == node.var {
                    (&edge.src, matches!(edge.label.as_str(), "isA" | "unionOf"))
                } else {
                    continue;
                };
                if self.target_of.get(other).cloned().flatten().is_none() {
                    continue;
                }
                if structural {
                    candidate = Some((other.clone(), edge.label.clone()));
                    break;
                }
                if candidate.is_none() {
                    candidate = Some((other.clone(), edge.label.clone()));
                }
            }
            if let Some((other, label)) = candidate {
                let concept = self.concept_of.get(&node.var).cloned().unwrap_or_default();
                let into = self.target_of.get(&other).cloned().flatten().unwrap_or_default();
                self.record(
                    Self::rule_for_edge(&label, true),
                    format!(
                        "concept {concept} is not materialized in the optimized schema; \
                         ({}) folded into ({other}:{into}) along `{label}`",
                        node.var
                    ),
                    Some(label),
                );
                unifications.push((node.var.clone(), other));
            }
        }
        for (from, into) in unifications {
            self.unify(&from, &into);
        }
    }

    /// Label the surviving variable maps to in the optimized schema.
    fn label_of(&self, var: &str) -> String {
        let root = self.resolve(var);
        let target = self.target_of.get(&root).cloned().flatten();
        if let (Some(target), Some(concept)) = (&target, self.concept_of.get(&root)) {
            // A label retarget without any unification in *this* pattern
            // still means a merge rule fired when the schema was optimized:
            // the concept is now served by a vertex type that absorbed it.
            // (Only the 1:1 merge keeps absorbed concepts in `merged_from`;
            // union/inheritance drop theirs, which the fold path reports.)
            if target != concept {
                let merged_from = self
                    .schema
                    .vertex(target)
                    .map(|v| v.merged_from.join(", "))
                    .unwrap_or_default();
                self.record(
                    "one-to-one",
                    format!(
                        "concept {concept} is served by merged vertex {target} \
                         (merged from: {merged_from})"
                    ),
                    None,
                );
            }
        }
        target.or_else(|| self.concept_of.get(&root).cloned()).unwrap_or_default()
    }

    /// The property `var.property` reads on the optimized schema: the one
    /// holding the variable's concept's property (`VertexSchema::property_of`),
    /// or the name unchanged when the vertex type holds no property of that
    /// origin.
    fn property_name(&self, var: &str, property: &str) -> String {
        let label = self.label_of(var);
        let concept = self.concept_of.get(var).map_or("", String::as_str);
        let vertex = self.schema.vertex(&label);
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

    /// Rewrites the pattern: the returned statement carries the rewritten
    /// `nodes`, `edges` and `returns` and no other clause.
    fn rebuild(&mut self) -> Statement {
        // Decide which aggregations can be answered from a replicated LIST
        // property, eliminating their edge and node pattern. Per-element
        // aggregates qualify (`size(COLLECT)`, `SUM`/`MIN`/`MAX`/`AVG`,
        // `COUNT(DISTINCT v.p)`): the list holds one element per original
        // edge, so the flattened element multiset the executor aggregates
        // over equals the per-binding multiset on DIR. Plain `COUNT` does
        // not (it counts bindings, not elements).
        let per_element = |agg: Aggregate| {
            matches!(
                agg,
                Aggregate::CollectCount
                    | Aggregate::CountDistinct
                    | Aggregate::Sum
                    | Aggregate::Min
                    | Aggregate::Max
                    | Aggregate::Avg
            )
        };
        // Dropping a variable's edge changes both the binding multiplicity
        // and the *existence constraint* every other return item sees (a
        // drug with zero routes binds the pattern once the edge is gone),
        // so the shortcut only fires when the whole RETURN clause is
        // per-element aggregates over the variable: a vertex contributing
        // an empty list then contributes nothing, exactly like the DIR
        // join. Plain projections (which sample a representative binding),
        // binding-counting aggregates and `GROUP BY` (which would fabricate
        // groups for providerless anchors) all disable it — an
        // existence-aware variant is a ROADMAP follow-on.
        let mut agg_roots: HashSet<String> = HashSet::new();
        let mut all_replaceable = !self.grouped;
        for item in &self.stmt.returns {
            match item {
                ReturnItem::Aggregate { agg, var, property } => {
                    agg_roots.insert(self.resolve(var));
                    if !(per_element(*agg) && property.is_some()) {
                        all_replaceable = false;
                    }
                }
                ReturnItem::Property { .. } | ReturnItem::Vertex { .. } => {
                    all_replaceable = false;
                }
            }
        }
        // var_root → (holder_root, holder type, provider concept): each
        // aggregated property is read from its replica on the holder.
        let mut replaced_vars: HashMap<String, (String, &VertexSchema, String)> = HashMap::new();
        'candidates: for item in &self.stmt.returns {
            let ReturnItem::Aggregate { agg, var, property: Some(_) } = item else {
                continue;
            };
            if !per_element(*agg) {
                continue;
            }
            let var_root = self.resolve(var);
            if !all_replaceable
                || agg_roots.len() != 1
                || self.is_pinned(&var_root)
                || replaced_vars.contains_key(&var_root)
            {
                continue;
            }
            // The variable must be reached by exactly one pattern edge.
            let incident: Vec<&EdgePattern> = self
                .stmt
                .edges
                .iter()
                .filter(|e| self.resolve(&e.src) == var_root || self.resolve(&e.dst) == var_root)
                .collect();
            if incident.len() != 1 {
                continue;
            }
            let edge = incident[0];
            let (holder_var, provider_var) = if self.resolve(&edge.dst) == var_root {
                (&edge.src, &edge.dst)
            } else {
                (&edge.dst, &edge.src)
            };
            let holder_label = self.label_of(holder_var);
            let Some(holder_type) = self.schema.vertex(&holder_label) else { continue };
            let provider_concept = self.concept_of.get(provider_var).cloned().unwrap_or_default();
            // Every aggregated property must be replicated as a LIST on the
            // holder — one unreplicated property and the traversal stays
            // (replacing only some aggregates would dangle the others).
            for other in &self.stmt.returns {
                if let ReturnItem::Aggregate { property: Some(property), .. } = other {
                    if holder_type.replica_of(&provider_concept, property).is_none() {
                        continue 'candidates;
                    }
                }
            }
            self.record(
                "one-to-many",
                format!(
                    "aggregate over ({var}:{provider_concept}) answered from replicated \
                     LIST properties on {holder_label}; `{}` traversal eliminated",
                    edge.label
                ),
                Some(edge.label.clone()),
            );
            let replaced = (self.resolve(holder_var), holder_type, provider_concept);
            replaced_vars.insert(var_root.clone(), replaced);
        }

        // Node patterns: one per surviving variable root that is still needed.
        let mut nodes: Vec<NodePattern> = Vec::new();
        for node in &self.stmt.nodes {
            let root = self.resolve(&node.var);
            if root != node.var {
                continue; // substituted away
            }
            if replaced_vars.contains_key(&root) {
                continue; // answered from a LIST property
            }
            if nodes.iter().any(|n| n.var == root) {
                continue;
            }
            nodes.push(NodePattern { var: root.clone(), label: self.label_of(&root) });
        }

        // Edge patterns: substitute endpoints, drop self-loops and edges whose
        // provider side was replaced by a LIST property.
        let mut edges: Vec<EdgePattern> = Vec::new();
        for edge in &self.stmt.edges {
            let src = self.resolve(&edge.src);
            let dst = self.resolve(&edge.dst);
            if src == dst {
                continue;
            }
            if replaced_vars.contains_key(&src) || replaced_vars.contains_key(&dst) {
                continue;
            }
            let rewritten = EdgePattern { label: edge.label.clone(), src, dst };
            if !edges.contains(&rewritten) {
                edges.push(rewritten);
            }
        }

        // Return clause.
        let returns = self
            .stmt
            .returns
            .iter()
            .map(|item| match item {
                ReturnItem::Property { var, property } => {
                    let root = self.resolve(var);
                    ReturnItem::Property { property: self.property_name(var, property), var: root }
                }
                ReturnItem::Vertex { var } => ReturnItem::Vertex { var: self.resolve(var) },
                ReturnItem::Aggregate { agg, var, property } => {
                    let root = self.resolve(var);
                    match (replaced_vars.get(&root), property) {
                        (Some((holder, holder_type, concept)), Some(property)) => {
                            ReturnItem::Aggregate {
                                agg: *agg,
                                var: holder.clone(),
                                property: holder_type
                                    .replica_of(concept, property)
                                    .map(|p| p.name.clone()),
                            }
                        }
                        _ => ReturnItem::Aggregate {
                            agg: *agg,
                            var: root.clone(),
                            property: property.as_ref().map(|p| self.property_name(var, p)),
                        },
                    }
                }
            })
            .collect();

        let name = format!("{}-opt", self.stmt.name);
        Statement { name, nodes, edges, returns, ..Statement::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_core::{optimize_nsc, OptimizerConfig, OptimizerInput};
    use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};

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
}

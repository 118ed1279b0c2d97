//! The DIR → OPT rewriter as it stood before the variable table: one
//! `String`-keyed map per question (concept, target, substitution), a pinned
//! set, a `RefCell` for provenance and a map of LIST-shortcut replacements.
//! Kept verbatim as the oracle `rewrites_what_the_reference_rewrites` holds
//! [`super::rewrite_statement_traced`] to.

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

//! Mutable working representation of a property graph schema under
//! optimization.
//!
//! Algorithm 5 of the paper applies the relationship rules to the ontology
//! until a fixpoint is reached and then calls `generatePGS`. [`SchemaGraph`]
//! is that intermediate structure: it starts as a direct mapping of the
//! ontology (one node per concept, one edge per relationship) and the rule
//! methods ([`SchemaGraph::apply_item`]) rewrite it in place — merging nodes,
//! copying or redirecting edges, and replicating properties. When the caller
//! is done, [`SchemaGraph::to_schema`] emits an immutable
//! [`PropertyGraphSchema`].
//!
//! Nodes and edges are stored in arenas with `alive` flags; merges update the
//! `concept -> node` mapping so that rule applications that arrive after one
//! of their endpoints has been merged still find the surviving node.

use crate::rules::RuleItem;
use pgso_ontology::{ConceptId, DataType, Ontology, PropertyId, RelationshipId, RelationshipKind};
use pgso_pgschema::{
    EdgeSchema, PropertyGraphSchema, PropertyOrigin, PropertySchema, VertexSchema,
};
use std::collections::HashSet;

/// A property attached to a schema node while rules are being applied.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaNodeProperty {
    /// Exposed property name (replicated LIST properties use the
    /// `Concept.property` convention from the paper, e.g. `Indication.desc`).
    pub name: String,
    /// Element datatype.
    pub data_type: DataType,
    /// True for LIST-typed (replicated 1:M / M:N) properties.
    pub is_list: bool,
    /// Concept and property this value originates from.
    pub origin: PropertyOrigin,
}

/// A node of the working schema graph.
#[derive(Debug, Clone)]
pub struct SchemaNode {
    /// Current label (merged nodes concatenate their concept names).
    pub label: String,
    /// Ontology concepts folded into this node, in concept-id order.
    pub merged_from: Vec<ConceptId>,
    /// Properties currently attached to the node.
    pub properties: Vec<SchemaNodeProperty>,
    /// False once the node has been merged away or removed.
    pub alive: bool,
}

/// An edge of the working schema graph.
#[derive(Debug, Clone)]
pub struct SchemaGraphEdge {
    /// Edge label.
    pub name: String,
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Relationship kind.
    pub kind: RelationshipKind,
    /// Ontology relationship this edge descends from (copies keep the
    /// original id so provenance survives rule application).
    pub rel: Option<RelationshipId>,
    /// False once the edge has been removed.
    pub alive: bool,
}

/// Mutable schema graph; see the module documentation.
#[derive(Debug, Clone)]
pub struct SchemaGraph {
    nodes: Vec<SchemaNode>,
    edges: Vec<SchemaGraphEdge>,
    /// ConceptId -> index of the node currently representing that concept.
    concept_node: Vec<usize>,
}

impl SchemaGraph {
    /// Builds the direct-mapping schema graph of an ontology.
    pub fn from_ontology(ontology: &Ontology) -> Self {
        let mut nodes = Vec::with_capacity(ontology.concept_count());
        for (cid, concept) in ontology.concepts() {
            let properties = ontology
                .concept_properties(cid)
                .iter()
                .map(|&pid| {
                    let p = ontology.property(pid);
                    SchemaNodeProperty {
                        name: p.name.clone(),
                        data_type: p.data_type,
                        is_list: false,
                        origin: PropertyOrigin::new(concept.name.clone(), p.name.clone()),
                    }
                })
                .collect();
            nodes.push(SchemaNode {
                label: concept.name.clone(),
                merged_from: vec![cid],
                properties,
                alive: true,
            });
        }
        let edges = ontology
            .relationships()
            .map(|(rid, rel)| SchemaGraphEdge {
                name: rel.name.clone(),
                src: rel.src.index(),
                dst: rel.dst.index(),
                kind: rel.kind,
                rel: Some(rid),
                alive: true,
            })
            .collect();
        let concept_node = (0..ontology.concept_count()).collect();
        Self { nodes, edges, concept_node }
    }

    /// Node currently representing a concept.
    pub fn node_of(&self, concept: ConceptId) -> usize {
        self.concept_node[concept.index()]
    }

    /// Immutable access to a node.
    pub fn node(&self, index: usize) -> &SchemaNode {
        &self.nodes[index]
    }

    /// Number of alive nodes.
    pub fn alive_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Number of alive edges.
    pub fn alive_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.alive).count()
    }

    /// Indices of alive edges touching a node.
    fn edges_touching(&self, node: usize) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive && (e.src == node || e.dst == node))
            .map(|(i, _)| i)
            .collect()
    }

    /// Finds every alive edge descending from an ontology relationship. Rules
    /// copied by other rules (e.g. a `cause` edge re-attached to each union
    /// member) keep the original relationship id, so a single rule item can
    /// legitimately apply to several edges.
    fn edges_for_relationship(&self, rel: RelationshipId, kind: RelationshipKind) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive && e.rel == Some(rel) && e.kind == kind)
            .map(|(i, _)| i)
            .collect()
    }

    fn edge_exists(&self, name: &str, src: usize, dst: usize, kind: RelationshipKind) -> bool {
        self.edges
            .iter()
            .any(|e| e.alive && e.name == name && e.src == src && e.dst == dst && e.kind == kind)
    }

    fn add_edge_dedup(
        &mut self,
        name: String,
        src: usize,
        dst: usize,
        kind: RelationshipKind,
        rel: Option<RelationshipId>,
    ) -> bool {
        if src == dst || self.edge_exists(&name, src, dst, kind) {
            return false;
        }
        self.edges.push(SchemaGraphEdge { name, src, dst, kind, rel, alive: true });
        true
    }

    fn kill_node(&mut self, node: usize) {
        self.nodes[node].alive = false;
        for e in &mut self.edges {
            if e.alive && (e.src == node || e.dst == node) {
                e.alive = false;
            }
        }
    }

    /// Copies a property onto a node unless a property of the same name is
    /// already present. Returns true if the node changed.
    fn upsert_property(&mut self, node: usize, prop: SchemaNodeProperty) -> bool {
        if self.nodes[node].properties.iter().any(|p| p.name == prop.name) {
            return false;
        }
        self.nodes[node].properties.push(prop);
        true
    }

    /// Copies another node's property onto a node. When the name is taken by
    /// a property of another origin, the copy is renamed `Concept.property`
    /// (its origin), so both stay reachable by origin. Returns true if the
    /// node changed.
    fn copy_property(&mut self, node: usize, mut prop: SchemaNodeProperty) -> bool {
        let properties = &self.nodes[node].properties;
        if properties.iter().any(|p| p.name == prop.name && p.origin != prop.origin) {
            prop.name = prop.origin.to_string();
        }
        self.upsert_property(node, prop)
    }

    /// Merges node `from` into node `into`: properties are copied (see
    /// [`SchemaGraph::copy_property`]), every edge touching `from` is
    /// redirected to `into` (self-loops are dropped), the `merged_from` lists
    /// are combined and the concept mapping is updated.
    fn merge_node_into(&mut self, from: usize, into: usize, ontology: &Ontology) {
        debug_assert_ne!(from, into);
        for prop in self.nodes[from].properties.clone() {
            self.copy_property(into, prop);
        }

        // Redirect edges.
        let touching = self.edges_touching(from);
        for idx in touching {
            let (name, kind, rel, mut src, mut dst) = {
                let e = &self.edges[idx];
                (e.name.clone(), e.kind, e.rel, e.src, e.dst)
            };
            self.edges[idx].alive = false;
            if src == from {
                src = into;
            }
            if dst == from {
                dst = into;
            }
            self.add_edge_dedup(name, src, dst, kind, rel);
        }

        let mut merged: Vec<ConceptId> = self.nodes[from].merged_from.clone();
        merged.extend(self.nodes[into].merged_from.iter().copied());
        merged.sort();
        merged.dedup();
        self.nodes[into].merged_from = merged.clone();
        self.nodes[into].label =
            merged.iter().map(|&c| ontology.concept(c).name.as_str()).collect::<Vec<_>>().join("");
        self.nodes[from].alive = false;
        for slot in &mut self.concept_node {
            if *slot == from {
                *slot = into;
            }
        }
    }

    /// Applies one rule item. Returns true if the graph changed (used by the
    /// fixpoint loop of Algorithm 5).
    pub fn apply_item(
        &mut self,
        item: &RuleItem,
        ontology: &Ontology,
        similarities: &crate::jaccard::InheritanceSimilarities,
        config: &crate::config::OptimizerConfig,
    ) -> bool {
        match *item {
            RuleItem::Union(rel) => self.apply_union(rel),
            RuleItem::Inheritance(rel) => {
                let js = similarities.get(rel);
                self.apply_inheritance(rel, js, config.theta1, config.theta2, ontology)
            }
            RuleItem::OneToOne(rel) => self.apply_one_to_one(rel, ontology),
            RuleItem::PropagateProperty { rel, reverse, property } => {
                self.apply_propagate_property(rel, reverse, property, ontology)
            }
        }
    }

    /// Union rule (Algorithm 1): connect the member concept directly to every
    /// non-union neighbour of the union concept; once every member of a union
    /// has been processed the union node is removed.
    pub fn apply_union(&mut self, rel: RelationshipId) -> bool {
        let mut changed = false;
        for edge_idx in self.edges_for_relationship(rel, RelationshipKind::Union) {
            if !self.edges[edge_idx].alive {
                continue;
            }
            let union_node = self.edges[edge_idx].src;
            let member = self.edges[edge_idx].dst;

            for idx in self.edges_touching(union_node) {
                let (name, kind, rel_id, src, dst) = {
                    let e = &self.edges[idx];
                    (e.name.clone(), e.kind, e.rel, e.src, e.dst)
                };
                if kind == RelationshipKind::Union {
                    continue;
                }
                let new_src = if src == union_node { member } else { src };
                let new_dst = if dst == union_node { member } else { dst };
                // 1:1 copies lose their relationship id: the 1:1 rule merging
                // additional node pairs through copied edges is not covered by
                // Theorem 3 and would make the result order-dependent.
                let rel_id = if kind == RelationshipKind::OneToOne { None } else { rel_id };
                let _ = self.add_edge_dedup(name, new_src, new_dst, kind, rel_id);
            }

            // Retire the processed unionOf edge.
            self.edges[edge_idx].alive = false;
            changed = true;

            // Remove the union node once no member remains attached to it.
            let remaining_union_edges = self
                .edges
                .iter()
                .any(|e| e.alive && e.kind == RelationshipKind::Union && e.src == union_node);
            if !remaining_union_edges {
                self.kill_node(union_node);
            }
        }
        changed
    }

    /// Inheritance rule (Algorithm 2), driven by the precomputed Jaccard
    /// similarity of the *original* concepts.
    pub fn apply_inheritance(
        &mut self,
        rel: RelationshipId,
        js: f64,
        theta1: f64,
        theta2: f64,
        ontology: &Ontology,
    ) -> bool {
        // Mid-range similarity: keep the isA edge (third option of the rule).
        if js <= theta1 && js >= theta2 {
            return false;
        }
        let mut changed = false;
        for edge_idx in self.edges_for_relationship(rel, RelationshipKind::Inheritance) {
            if !self.edges[edge_idx].alive {
                continue;
            }
            let parent = self.edges[edge_idx].src;
            let child = self.edges[edge_idx].dst;
            if parent == child {
                continue;
            }

            if js > theta1 {
                // Child folds into the parent: the parent gains the child's
                // properties and neighbours, and the child's instances become
                // parent instances (Figure 5(c)/(d)). Unlike the 1:1 merge the
                // surviving node keeps the parent's label.
                self.edges[edge_idx].alive = false;
                let parent_label = self.nodes[parent].label.clone();
                self.merge_node_into(child, parent, ontology);
                self.nodes[parent].label = parent_label;
                changed = true;
            } else {
                // js < theta2: the parent's properties and functional
                // neighbours are copied down to the child (Figure 5(a)/(b));
                // once no child remains attached through an isA edge, the
                // parent node is dropped.
                for prop in self.nodes[parent].properties.clone() {
                    self.copy_property(child, prop);
                }
                for idx in self.edges_touching(parent) {
                    let (name, kind, rel_id, src, dst) = {
                        let e = &self.edges[idx];
                        (e.name.clone(), e.kind, e.rel, e.src, e.dst)
                    };
                    if matches!(kind, RelationshipKind::Inheritance | RelationshipKind::Union) {
                        continue;
                    }
                    let new_src = if src == parent { child } else { src };
                    let new_dst = if dst == parent { child } else { dst };
                    // See apply_union: copied 1:1 edges stay plain edges.
                    let rel_id = if kind == RelationshipKind::OneToOne { None } else { rel_id };
                    self.add_edge_dedup(name, new_src, new_dst, kind, rel_id);
                }
                self.edges[edge_idx].alive = false;
                let parent_still_inherits = self.edges.iter().any(|e| {
                    e.alive
                        && e.kind == RelationshipKind::Inheritance
                        && (e.src == parent || e.dst == parent)
                });
                if !parent_still_inherits {
                    self.kill_node(parent);
                }
                changed = true;
            }
        }
        changed
    }

    /// One-to-one rule (Algorithm 3): merge the two endpoints into one node.
    pub fn apply_one_to_one(&mut self, rel: RelationshipId, ontology: &Ontology) -> bool {
        let mut changed = false;
        for edge_idx in self.edges_for_relationship(rel, RelationshipKind::OneToOne) {
            if !self.edges[edge_idx].alive {
                continue;
            }
            let src = self.edges[edge_idx].src;
            let dst = self.edges[edge_idx].dst;
            if src == dst {
                continue;
            }
            self.edges[edge_idx].alive = false;
            self.merge_node_into(dst, src, ontology);
            changed = true;
        }
        changed
    }

    /// One-to-many / many-to-many rule (Algorithm 4): replicate one data
    /// property of the far endpoint as a LIST property on the near endpoint.
    pub fn apply_propagate_property(
        &mut self,
        rel: RelationshipId,
        reverse: bool,
        property: PropertyId,
        ontology: &Ontology,
    ) -> bool {
        let kind = ontology.relationship(rel).kind;
        if !kind.is_functional() {
            return false;
        }
        let mut changed = false;
        for edge_idx in self.edges_for_relationship(rel, kind) {
            if !self.edges[edge_idx].alive {
                continue;
            }
            let (holder, provider) = if reverse {
                (self.edges[edge_idx].dst, self.edges[edge_idx].src)
            } else {
                (self.edges[edge_idx].src, self.edges[edge_idx].dst)
            };
            if holder == provider {
                continue;
            }
            let prop = ontology.property(property);
            let origin_concept = ontology.concept(prop.owner).name.clone();
            let name = format!("{}.{}", origin_concept, prop.name);
            changed |= self.upsert_property(
                holder,
                SchemaNodeProperty {
                    name,
                    data_type: prop.data_type,
                    is_list: true,
                    origin: PropertyOrigin::new(origin_concept, prop.name.clone()),
                },
            );
        }
        changed
    }

    /// Emits the immutable property graph schema (`generatePGS`).
    ///
    /// Properties and edges are emitted in a canonical order (scalars before
    /// LIST properties, then by name; edges by `(src, label, dst)`) so that
    /// the generated schema does not depend on the order in which rules were
    /// applied — this is what makes Theorem 3 testable with plain equality.
    pub fn to_schema(&self, ontology: &Ontology, name: impl Into<String>) -> PropertyGraphSchema {
        let mut schema = PropertyGraphSchema::new(name);
        for node in self.nodes.iter().filter(|n| n.alive) {
            let mut vertex = VertexSchema::new(node.label.clone());
            vertex.merged_from =
                node.merged_from.iter().map(|&c| ontology.concept(c).name.clone()).collect();
            vertex.properties = node
                .properties
                .iter()
                .map(|p| PropertySchema {
                    name: p.name.clone(),
                    data_type: p.data_type,
                    is_list: p.is_list,
                    origin: Some(p.origin.clone()),
                })
                .collect();
            vertex.properties.sort_by(|a, b| (a.is_list, &a.name).cmp(&(b.is_list, &b.name)));
            schema.insert_vertex(vertex);
        }
        let mut seen = HashSet::new();
        let mut edges: Vec<EdgeSchema> = Vec::new();
        for edge in self.edges.iter().filter(|e| e.alive) {
            if !self.nodes[edge.src].alive || !self.nodes[edge.dst].alive {
                continue;
            }
            let src = self.nodes[edge.src].label.clone();
            let dst = self.nodes[edge.dst].label.clone();
            if seen.insert((edge.name.clone(), src.clone(), dst.clone())) {
                edges.push(EdgeSchema::new(edge.name.clone(), src, dst, edge.kind));
            }
        }
        edges.sort_by(|a, b| (&a.src, &a.label, &a.dst).cmp(&(&b.src, &b.label, &b.dst)));
        for edge in edges {
            schema.add_edge(edge);
        }
        schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use crate::jaccard::InheritanceSimilarities;
    use pgso_ontology::catalog;

    fn mini() -> (Ontology, SchemaGraph) {
        let o = catalog::med_mini();
        let g = SchemaGraph::from_ontology(&o);
        (o, g)
    }

    fn rel_by_name(o: &Ontology, name: &str, dst: &str) -> RelationshipId {
        o.relationships()
            .find(|(_, r)| r.name == name && o.concept(r.dst).name == dst)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("relationship {name} -> {dst} not found"))
    }

    #[test]
    fn direct_graph_mirrors_ontology() {
        let (o, g) = mini();
        assert_eq!(g.alive_node_count(), o.concept_count());
        assert_eq!(g.alive_edge_count(), o.relationship_count());
        let s = g.to_schema(&o, "direct");
        assert_eq!(s.vertex_count(), o.concept_count());
        assert_eq!(s.edge_count(), o.relationship_count());
    }

    #[test]
    fn union_rule_connects_members_and_removes_union_node() {
        let (o, mut g) = mini();
        let u1 = rel_by_name(&o, "unionOf", "ContraIndication");
        let u2 = rel_by_name(&o, "unionOf", "BlackBoxWarning");
        assert!(g.apply_union(u1));
        // Risk still alive: one member remains attached.
        let s = g.to_schema(&o, "partial");
        assert!(s.has_vertex("Risk"));
        assert!(s.edge("Drug", "cause", "ContraIndication").is_some());

        assert!(g.apply_union(u2));
        let s = g.to_schema(&o, "full");
        assert!(!s.has_vertex("Risk"), "union node must be removed");
        assert!(s.edge("Drug", "cause", "BlackBoxWarning").is_some());
        // Figure 4: single edge traversal from Drug to the members.
        assert!(s.edge("Drug", "cause", "ContraIndication").is_some());
        // Idempotent.
        assert!(!g.apply_union(u1));
    }

    #[test]
    fn inheritance_rule_low_similarity_pushes_parent_down() {
        let (o, mut g) = mini();
        let r1 = rel_by_name(&o, "isA", "DrugFoodInteraction");
        let r2 = rel_by_name(&o, "isA", "DrugLabInteraction");
        // JS = 0 < θ2 for both.
        assert!(g.apply_inheritance(r1, 0.0, 0.66, 0.33, &o));
        assert!(g.apply_inheritance(r2, 0.0, 0.66, 0.33, &o));
        let s = g.to_schema(&o, "opt");
        // Figure 5(a): parent node dropped, children carry `summary` and the
        // `has` edge from Drug.
        assert!(!s.has_vertex("DrugInteraction"));
        let dfi = s.vertex("DrugFoodInteraction").unwrap();
        assert!(dfi.has_property("summary"));
        assert!(dfi.has_property("risk"));
        assert!(s.edge("Drug", "has", "DrugFoodInteraction").is_some());
        assert!(s.edge("Drug", "has", "DrugLabInteraction").is_some());
    }

    #[test]
    fn inheritance_rule_high_similarity_folds_child_into_parent() {
        let (o, mut g) = mini();
        let r1 = rel_by_name(&o, "isA", "DrugFoodInteraction");
        let r2 = rel_by_name(&o, "isA", "DrugLabInteraction");
        assert!(g.apply_inheritance(r1, 0.9, 0.66, 0.33, &o));
        assert!(g.apply_inheritance(r2, 0.9, 0.66, 0.33, &o));
        let s = g.to_schema(&o, "opt");
        // Figure 5(c): single DrugInteraction node carrying risk + mechanism.
        assert!(!s.has_vertex("DrugFoodInteraction"));
        assert!(!s.has_vertex("DrugLabInteraction"));
        let di = s.vertex("DrugInteraction").unwrap();
        assert!(di.has_property("summary"));
        assert!(di.has_property("risk"));
        assert!(di.has_property("mechanism"));
        assert!(s.edge("Drug", "has", "DrugInteraction").is_some());
    }

    #[test]
    fn inheritance_rule_mid_similarity_is_a_no_op() {
        let (o, mut g) = mini();
        let r1 = rel_by_name(&o, "isA", "DrugFoodInteraction");
        assert!(!g.apply_inheritance(r1, 0.5, 0.66, 0.33, &o));
        let s = g.to_schema(&o, "unchanged");
        assert!(s.has_vertex("DrugInteraction"));
        assert!(s.edge("DrugInteraction", "isA", "DrugFoodInteraction").is_some());
    }

    #[test]
    fn one_to_one_rule_merges_endpoints() {
        let (o, mut g) = mini();
        let r = rel_by_name(&o, "hasCondition", "Condition");
        assert!(g.apply_one_to_one(r, &o));
        let s = g.to_schema(&o, "opt");
        // Figure 6: merged IndicationCondition vertex, treat edge retargeted.
        assert!(!s.has_vertex("Indication"));
        assert!(!s.has_vertex("Condition"));
        let merged = s.vertex("IndicationCondition").unwrap();
        assert!(merged.has_property("desc"));
        assert!(merged.has_property("name"));
        assert_eq!(merged.merged_from.len(), 2);
        assert!(s.edge("Drug", "treat", "IndicationCondition").is_some());
        assert!(!g.apply_one_to_one(r, &o));
    }

    #[test]
    fn propagate_property_adds_list_property_and_keeps_edge() {
        let (o, mut g) = mini();
        let treat = rel_by_name(&o, "treat", "Indication");
        let indication = o.concept_by_name("Indication").unwrap();
        let desc = o.property_by_name(indication, "desc").unwrap();
        assert!(g.apply_propagate_property(treat, false, desc, &o));
        // Second application is a no-op.
        assert!(!g.apply_propagate_property(treat, false, desc, &o));
        let s = g.to_schema(&o, "opt");
        let drug = s.vertex("Drug").unwrap();
        let p = drug.property("Indication.desc").unwrap();
        assert!(p.is_list);
        assert_eq!(p.origin.as_ref().unwrap().concept, "Indication");
        // Figure 7: the treat edge remains.
        assert!(s.edge("Drug", "treat", "Indication").is_some());
    }

    #[test]
    fn propagate_property_reverse_direction_targets_destination() {
        let (o, mut g) = mini();
        let cause = rel_by_name(&o, "cause", "Risk");
        let drug = o.concept_by_name("Drug").unwrap();
        let name = o.property_by_name(drug, "name").unwrap();
        assert!(g.apply_propagate_property(cause, true, name, &o));
        let s = g.to_schema(&o, "opt");
        let risk = s.vertex("Risk").unwrap();
        assert!(risk.property("Drug.name").unwrap().is_list);
    }

    #[test]
    fn name_clash_on_merge_is_resolved_with_prefix() {
        let (o, mut g) = mini();
        // Condition has properties `name` and `route`; BlackBoxWarning also has
        // `route`. Force a merge by abusing the 1:1 rule machinery: merge
        // Condition into BlackBoxWarning via merge_node_into directly.
        let cond = g.node_of(o.concept_by_name("Condition").unwrap());
        let bbw = g.node_of(o.concept_by_name("BlackBoxWarning").unwrap());
        g.merge_node_into(cond, bbw, &o);
        let s = g.to_schema(&o, "merged");
        let merged = s.vertex("ConditionBlackBoxWarning").unwrap();
        assert_eq!(merged.property_of("BlackBoxWarning", "route").unwrap().name, "route");
        assert_eq!(merged.property_of("Condition", "route").unwrap().name, "Condition.route");
    }

    #[test]
    fn push_down_renames_a_clashing_parent_property() {
        let (o, mut g) = mini();
        // Give DrugFoodInteraction its own `summary`: the parent's is pushed
        // down beside it as `DrugInteraction.summary`, not dropped.
        let dfi = g.node_of(o.concept_by_name("DrugFoodInteraction").unwrap());
        g.nodes[dfi].properties.push(SchemaNodeProperty {
            name: "summary".into(),
            data_type: DataType::Str,
            is_list: false,
            origin: PropertyOrigin::new("DrugFoodInteraction", "summary"),
        });
        let r1 = rel_by_name(&o, "isA", "DrugFoodInteraction");
        assert!(g.apply_inheritance(r1, 0.0, 0.66, 0.33, &o));
        let s = g.to_schema(&o, "opt");
        let dfi = s.vertex("DrugFoodInteraction").unwrap();
        assert_eq!(dfi.property_of("DrugFoodInteraction", "summary").unwrap().name, "summary");
        let pushed = dfi.property_of("DrugInteraction", "summary").unwrap();
        assert_eq!(pushed.name, "DrugInteraction.summary");
    }

    #[test]
    fn apply_item_dispatches_all_variants() {
        let (o, mut g) = mini();
        let sims = InheritanceSimilarities::compute(&o);
        let cfg = OptimizerConfig::default();
        let items = crate::rules::enumerate_items(&o, &sims, &cfg);
        let mut changed_any = false;
        for item in &items {
            changed_any |= g.apply_item(item, &o, &sims, &cfg);
        }
        assert!(changed_any);
        let s = g.to_schema(&o, "opt");
        assert!(s.vertex_count() < o.concept_count());
    }

    #[test]
    fn full_catalogs_survive_every_rule() {
        for o in [catalog::medical(), catalog::financial()] {
            let sims = InheritanceSimilarities::compute(&o);
            let cfg = OptimizerConfig::default();
            let items = crate::rules::enumerate_items(&o, &sims, &cfg);
            let mut g = SchemaGraph::from_ontology(&o);
            // Apply to fixpoint.
            loop {
                let mut changed = false;
                for item in &items {
                    changed |= g.apply_item(item, &o, &sims, &cfg);
                }
                if !changed {
                    break;
                }
            }
            let s = g.to_schema(&o, "opt");
            assert!(s.vertex_count() > 0);
            assert!(s.dangling_edges().is_empty());
        }
    }
}

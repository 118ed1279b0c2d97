//! Materialises an abstract [`InstanceKg`] as a property graph conforming to
//! a given schema.
//!
//! The same instance data loads very differently under the direct and the
//! optimized schema:
//!
//! * **DIR** — every entity gets one vertex per concept *level*: its own
//!   concept plus a separate vertex for each ancestor (isA) and union concept,
//!   linked by `isA` / `unionOf` edges (Figure 1(b) of the paper). Functional
//!   edges attach to the vertex of the concept the relationship references.
//! * **OPT** — merged concepts share a vertex, dropped union/parent levels
//!   disappear, replicated scalar properties are filled in from the ancestor's
//!   values and LIST properties are filled from the related entities' values
//!   (Figure 1(c)).
//!
//! The loader is driven entirely by the schema's `merged_from` lists and
//! property origins, so any schema produced by the optimizer (under any space
//! budget) loads correctly.

use crate::instance::{property_value_for, Entity, InstanceKg};
use pgso_graphstore::{GraphBackend, PropertyMap, PropertyValue, VertexId};
use pgso_ontology::{ConceptId, Ontology, RelationshipKind};
use pgso_pgschema::{PropertyGraphSchema, VertexSchema};
use std::collections::{BTreeMap, HashMap};

/// Summary of a load operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Vertices created.
    pub vertices: usize,
    /// Edges created.
    pub edges: usize,
    /// Relationship instances that could not be attached (no matching edge
    /// type in the schema — typically 1:1 relationships folded into a merged
    /// vertex).
    pub skipped_edges: usize,
}

/// Loads an instance knowledge graph into a backend under a schema.
pub fn load_into(
    backend: &mut dyn GraphBackend,
    ontology: &Ontology,
    schema: &PropertyGraphSchema,
    instance: &InstanceKg,
) -> LoadReport {
    Loader {
        backend,
        ontology,
        schema,
        instance,
        map: HashMap::new(),
        report: LoadReport::default(),
    }
    .run()
}

struct Loader<'a> {
    backend: &'a mut dyn GraphBackend,
    ontology: &'a Ontology,
    schema: &'a PropertyGraphSchema,
    instance: &'a InstanceKg,
    /// (role concept, entity) -> vertex representing that concept level for
    /// that entity.
    map: HashMap<(ConceptId, Entity), VertexId>,
    report: LoadReport,
}

impl<'a> Loader<'a> {
    fn run(mut self) -> LoadReport {
        self.create_main_vertices();
        self.create_ancestor_vertices();
        self.create_relationship_edges();
        self.report
    }

    /// Structural ancestors of a concept: transitive `isA` parents and union
    /// concepts the concept is a member of.
    fn structural_parents(&self, concept: ConceptId) -> Vec<(ConceptId, &'static str)> {
        let mut parents: Vec<(ConceptId, &'static str)> =
            self.ontology.parents(concept).into_iter().map(|p| (p, "isA")).collect();
        for &rid in self.ontology.incoming(concept) {
            let rel = self.ontology.relationship(rid);
            if rel.kind == RelationshipKind::Union {
                parents.push((rel.src, "unionOf"));
            }
        }
        parents
    }

    /// All transitive structural ancestors of a concept.
    fn all_ancestors(&self, concept: ConceptId) -> Vec<ConceptId> {
        let mut result = Vec::new();
        let mut stack: Vec<ConceptId> =
            self.structural_parents(concept).into_iter().map(|(c, _)| c).collect();
        let mut visited = vec![false; self.ontology.concept_count()];
        while let Some(c) = stack.pop() {
            if visited[c.index()] {
                continue;
            }
            visited[c.index()] = true;
            result.push(c);
            stack.extend(self.structural_parents(c).into_iter().map(|(p, _)| p));
        }
        result
    }

    /// The anchor concept used to key a (possibly 1:1-merged) main vertex: the
    /// smallest concept id among the vertex's merged concepts that are
    /// connected to `concept` through 1:1 relationships.
    fn anchor_concept(&self, concept: ConceptId, vertex: &VertexSchema) -> ConceptId {
        let merged: Vec<ConceptId> = vertex
            .merged_from
            .iter()
            .filter_map(|name| self.ontology.concept_by_name(name))
            .collect();
        let mut group = vec![concept];
        let mut changed = true;
        while changed {
            changed = false;
            for (_, rel) in self.ontology.relationships_of_kind(RelationshipKind::OneToOne) {
                let (a, b) = (rel.src, rel.dst);
                if merged.contains(&a) && merged.contains(&b) {
                    if group.contains(&a) && !group.contains(&b) {
                        group.push(b);
                        changed = true;
                    }
                    if group.contains(&b) && !group.contains(&a) {
                        group.push(a);
                        changed = true;
                    }
                }
            }
        }
        group.into_iter().min().unwrap_or(concept)
    }

    /// Scalar properties an entity contributes to a vertex type.
    fn scalar_properties(&self, entity: Entity, vertex: &VertexSchema) -> PropertyMap {
        let mut props = PropertyMap::new();
        let own_and_ancestors: Vec<ConceptId> = {
            let mut v = vec![entity.concept];
            v.extend(self.all_ancestors(entity.concept));
            v
        };
        for prop in vertex.properties.iter().filter(|p| !p.is_list) {
            let origin_concept_name = prop
                .origin
                .as_ref()
                .map(|o| o.concept.clone())
                .unwrap_or_else(|| vertex.label.clone());
            let origin_property_name = prop
                .origin
                .as_ref()
                .map(|o| o.property.clone())
                .unwrap_or_else(|| prop.name.clone());
            let Some(origin_concept) = self.ontology.concept_by_name(&origin_concept_name) else {
                continue;
            };
            if !own_and_ancestors.contains(&origin_concept) {
                continue;
            }
            let Some(pid) = self.ontology.property_by_name(origin_concept, &origin_property_name)
            else {
                continue;
            };
            props.insert(
                prop.name.clone(),
                property_value_for(
                    self.ontology,
                    Entity { concept: entity.concept, index: entity.index },
                    pid,
                ),
            );
        }
        props
    }

    fn create_main_vertices(&mut self) {
        // Accumulate property maps per main-vertex key so that 1:1-paired
        // entities contribute to the same vertex before it is created.
        type Key = (String, ConceptId, u32);
        let mut pending: Vec<(Key, PropertyMap)> = Vec::new();
        let mut index_of: HashMap<Key, usize> = HashMap::new();
        let mut members: HashMap<Key, Vec<Entity>> = HashMap::new();

        for entity in self.instance.entities().collect::<Vec<_>>() {
            let concept_name = &self.ontology.concept(entity.concept).name;
            let Some(vertex) = self.schema.vertex_for_concept(concept_name) else { continue };
            let anchor = self.anchor_concept(entity.concept, vertex);
            let key: Key = (vertex.label.clone(), anchor, entity.index);
            let props = self.scalar_properties(entity, vertex);
            match index_of.get(&key) {
                Some(&i) => pending[i].1.extend(props),
                None => {
                    index_of.insert(key.clone(), pending.len());
                    pending.push((key.clone(), props));
                }
            }
            members.entry(key).or_default().push(entity);
        }

        // Fill LIST properties from relationship instances. Ordered by key:
        // entities merged into one vertex can hold the same list, the last
        // one written wins, and which one is last must not vary run to run.
        let mut lists: BTreeMap<(ConceptId, u32, String), Vec<PropertyValue>> = BTreeMap::new();
        for inst in self.instance.all_instances() {
            let rel = self.ontology.relationship(inst.relationship);
            for (holder, provider, provider_concept) in
                [(inst.src, inst.dst, rel.dst), (inst.dst, inst.src, rel.src)]
            {
                let holder_name = &self.ontology.concept(holder.concept).name;
                let Some(holder_vertex) = self.schema.vertex_for_concept(holder_name) else {
                    continue;
                };
                let provider_name = &self.ontology.concept(provider_concept).name;
                for &pid in self.ontology.concept_properties(provider_concept) {
                    let prop = self.ontology.property(pid);
                    let list_name = format!("{provider_name}.{}", prop.name);
                    let is_list =
                        holder_vertex.property(&list_name).map(|p| p.is_list).unwrap_or(false);
                    if !is_list {
                        continue;
                    }
                    lists
                        .entry((holder.concept, holder.index, list_name))
                        .or_default()
                        .push(property_value_for(self.ontology, provider, pid));
                }
            }
        }
        for ((concept, index, list_name), values) in lists {
            let entity = Entity { concept, index };
            let concept_name = &self.ontology.concept(concept).name;
            let Some(vertex) = self.schema.vertex_for_concept(concept_name) else { continue };
            let anchor = self.anchor_concept(concept, vertex);
            let key: Key = (vertex.label.clone(), anchor, entity.index);
            if let Some(&i) = index_of.get(&key) {
                pending[i].1.insert(list_name, PropertyValue::List(values));
            }
        }

        // Create the vertices and register every contributing entity.
        for ((label, _anchor, _index), props) in &pending {
            let id = self.backend.add_vertex(label, props.clone());
            self.report.vertices += 1;
            let key = (label.clone(), *_anchor, *_index);
            for entity in members.get(&key).cloned().unwrap_or_default() {
                self.map.insert((entity.concept, entity), id);
            }
        }
    }

    fn create_ancestor_vertices(&mut self) {
        for entity in self.instance.entities().collect::<Vec<_>>() {
            let Some(&main_vertex) = self.map.get(&(entity.concept, entity)) else { continue };
            let main_label = self
                .schema
                .vertex_for_concept(&self.ontology.concept(entity.concept).name)
                .map(|v| v.label.clone())
                .unwrap_or_default();
            self.materialise_ancestors(entity, main_vertex, &main_label);
        }
    }

    /// Walks the structural ancestors of `entity`'s concept breadth-first,
    /// creating separate ancestor-level vertices where the schema keeps them.
    /// A per-entity visited set guards against mixed `isA` / `unionOf` cycles
    /// (legal in the ontology: each kind is acyclic on its own) and diamond
    /// hierarchies: every ancestor level is materialised at most once, via the
    /// first path that reaches it.
    fn materialise_ancestors(&mut self, entity: Entity, main_vertex: VertexId, main_label: &str) {
        let mut visited: std::collections::HashSet<ConceptId> = std::collections::HashSet::new();
        visited.insert(entity.concept);
        let mut queue: std::collections::VecDeque<(ConceptId, VertexId, String)> =
            std::collections::VecDeque::new();
        queue.push_back((entity.concept, main_vertex, main_label.to_string()));

        while let Some((level, lower_vertex, lower_label)) = queue.pop_front() {
            for (ancestor, edge_label) in self.structural_parents(level) {
                if !visited.insert(ancestor) {
                    continue;
                }
                let ancestor_name = self.ontology.concept(ancestor).name.clone();
                let Some(vertex_schema) = self.schema.vertex_for_concept(&ancestor_name) else {
                    // Dropped level (union concept / pushed-down parent):
                    // nothing to materialise at this level; higher levels are
                    // still reachable through other paths if the schema keeps
                    // them, so keep walking upwards from here.
                    queue.push_back((ancestor, lower_vertex, lower_label.clone()));
                    continue;
                };
                if vertex_schema.label == lower_label || self.map.contains_key(&(ancestor, entity))
                {
                    // Same vertex (inheritance fold) or already created: just
                    // record the mapping and continue upwards.
                    let existing = *self.map.get(&(ancestor, entity)).unwrap_or(&lower_vertex);
                    self.map.insert((ancestor, entity), existing);
                    queue.push_back((ancestor, existing, vertex_schema.label.clone()));
                    continue;
                }
                let props = self.scalar_properties(
                    Entity { concept: entity.concept, index: entity.index },
                    vertex_schema,
                );
                // Only the ancestor's own properties belong on the
                // ancestor-level vertex.
                let mut ancestor_props = PropertyMap::new();
                for prop in vertex_schema.properties.iter().filter(|p| !p.is_list) {
                    let origin = prop
                        .origin
                        .as_ref()
                        .map(|o| o.concept.clone())
                        .unwrap_or_else(|| vertex_schema.label.clone());
                    if origin == ancestor_name {
                        if let Some(value) = props.get(&prop.name) {
                            ancestor_props.insert(prop.name.clone(), value.clone());
                        } else if let Some(pid) =
                            self.ontology.property_by_name(ancestor, &prop.name)
                        {
                            ancestor_props.insert(
                                prop.name.clone(),
                                property_value_for(
                                    self.ontology,
                                    Entity { concept: entity.concept, index: entity.index },
                                    pid,
                                ),
                            );
                        }
                    }
                }
                let label = vertex_schema.label.clone();
                let ancestor_vertex = self.backend.add_vertex(&label, ancestor_props);
                self.report.vertices += 1;
                self.map.insert((ancestor, entity), ancestor_vertex);
                if self.schema.edge(&label, edge_label, &lower_label).is_some() {
                    self.backend.add_edge(edge_label, ancestor_vertex, lower_vertex);
                    self.report.edges += 1;
                }
                queue.push_back((ancestor, ancestor_vertex, label));
            }
        }
    }

    fn create_relationship_edges(&mut self) {
        for inst in self.instance.all_instances().copied().collect::<Vec<_>>() {
            let rel = self.ontology.relationship(inst.relationship);
            let src_vertex = self.resolve_vertex(rel.src, inst.src);
            let dst_vertex = self.resolve_vertex(rel.dst, inst.dst);
            let (Some(src), Some(dst)) = (src_vertex, dst_vertex) else {
                self.report.skipped_edges += 1;
                continue;
            };
            let src_label = self.backend.vertex(src).map(|v| v.label).unwrap_or_default();
            let dst_label = self.backend.vertex(dst).map(|v| v.label).unwrap_or_default();
            if self.schema.edge(&src_label, &rel.name, &dst_label).is_some() {
                self.backend.add_edge(&rel.name, src, dst);
                self.report.edges += 1;
            } else if src == dst {
                // Folded into a single vertex (1:1 merge): nothing to add.
                self.report.skipped_edges += 1;
            } else {
                self.report.skipped_edges += 1;
            }
        }
    }

    /// Vertex representing `role_concept` for an entity: the explicit level
    /// vertex when the schema keeps it, otherwise the entity's main vertex.
    fn resolve_vertex(&self, role_concept: ConceptId, entity: Entity) -> Option<VertexId> {
        self.map
            .get(&(role_concept, entity))
            .or_else(|| self.map.get(&(entity.concept, entity)))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_core::{optimize_nsc, OptimizerConfig, OptimizerInput};
    use pgso_graphstore::MemoryGraph;
    use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};

    struct Fixture {
        ontology: pgso_ontology::Ontology,
        instance: InstanceKg,
        direct: PropertyGraphSchema,
        optimized: PropertyGraphSchema,
    }

    fn fixture() -> Fixture {
        let ontology = catalog::med_mini();
        let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 23);
        let af = AccessFrequencies::uniform(&ontology, 1_000.0);
        let instance = InstanceKg::generate(&ontology, &stats, 0.3, 23);
        let direct = PropertyGraphSchema::direct_from_ontology(&ontology);
        let optimized =
            optimize_nsc(OptimizerInput::new(&ontology, &stats, &af), &OptimizerConfig::default())
                .schema;
        Fixture { ontology, instance, direct, optimized }
    }

    #[test]
    fn direct_load_materialises_parent_and_union_levels() {
        let f = fixture();
        let mut g = MemoryGraph::new();
        let report = load_into(&mut g, &f.ontology, &f.direct, &f.instance);
        assert!(report.vertices > 0);
        assert!(report.edges > 0);
        // Child entities get a separate DrugInteraction-level vertex.
        let dfi = g.vertices_with_label("DrugFoodInteraction").len();
        let dli = g.vertices_with_label("DrugLabInteraction").len();
        let di = g.vertices_with_label("DrugInteraction").len();
        assert_eq!(di, dfi + dli, "one parent-level vertex per interaction entity");
        // Member entities get a Risk-level vertex connected by unionOf.
        let risks = g.vertices_with_label("Risk").len();
        let members = g.vertices_with_label("ContraIndication").len()
            + g.vertices_with_label("BlackBoxWarning").len();
        assert_eq!(risks, members);
        // Indication and Condition stay separate under DIR.
        assert!(!g.vertices_with_label("Indication").is_empty());
        assert!(!g.vertices_with_label("Condition").is_empty());
    }

    #[test]
    fn optimized_load_drops_levels_and_fills_lists() {
        let f = fixture();
        let mut g = MemoryGraph::new();
        load_into(&mut g, &f.ontology, &f.optimized, &f.instance);
        assert!(g.vertices_with_label("Risk").is_empty(), "union level dropped");
        assert!(g.vertices_with_label("DrugInteraction").is_empty(), "parent level dropped");
        assert!(g.vertices_with_label("Indication").is_empty(), "merged into IndicationCondition");
        assert!(!g.vertices_with_label("IndicationCondition").is_empty());

        // Drug vertices carry the replicated Indication.desc LIST property.
        let mut list_values = 0usize;
        for id in g.vertices_with_label("Drug") {
            let v = g.vertex(id).unwrap();
            if let Some(value) = v.properties.get("Indication.desc") {
                list_values += value.element_count();
            }
        }
        assert!(list_values > 0, "at least one drug treats an indication");

        // Children carry the parent's summary property.
        let dfi = g.vertices_with_label("DrugFoodInteraction");
        assert!(!dfi.is_empty());
        let v = g.vertex(dfi[0]).unwrap();
        assert!(v.properties.contains_key("summary"), "inherited property must be filled");
    }

    #[test]
    fn optimized_graph_is_smaller_and_shallower_than_direct() {
        let f = fixture();
        let mut dir = MemoryGraph::new();
        let mut opt = MemoryGraph::new();
        let dir_report = load_into(&mut dir, &f.ontology, &f.direct, &f.instance);
        let opt_report = load_into(&mut opt, &f.ontology, &f.optimized, &f.instance);
        assert!(
            opt_report.vertices < dir_report.vertices,
            "OPT merges and drops vertex levels ({opt_report:?} vs {dir_report:?})"
        );
        assert!(opt_report.edges <= dir_report.edges);
    }

    #[test]
    fn merged_one_to_one_vertices_combine_properties() {
        let f = fixture();
        let mut g = MemoryGraph::new();
        load_into(&mut g, &f.ontology, &f.optimized, &f.instance);
        let merged = g.vertices_with_label("IndicationCondition");
        assert!(!merged.is_empty());
        let v = g.vertex(merged[0]).unwrap();
        assert!(v.properties.contains_key("desc"), "Indication property present");
        assert!(v.properties.contains_key("name"), "Condition property present");
    }

    #[test]
    fn optimized_load_is_identical_run_to_run() {
        // MED and FIN both merge 1:1-paired entities whose LIST properties
        // collide on the merged vertex; which value survives must not depend
        // on hash-map iteration order.
        for ontology in [catalog::medical(), catalog::financial()] {
            let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 42);
            let af = AccessFrequencies::uniform(&ontology, 1_000.0);
            let instance = InstanceKg::generate(&ontology, &stats, 0.05, 42);
            let optimized = optimize_nsc(
                OptimizerInput::new(&ontology, &stats, &af),
                &OptimizerConfig::default(),
            )
            .schema;
            let load = || {
                let mut g = MemoryGraph::new();
                load_into(&mut g, &ontology, &optimized, &instance);
                g
            };
            let (first, second) = (load(), load());
            assert_eq!(first.payload_bytes(), second.payload_bytes(), "{}", ontology.name());
            assert_eq!(first.export_updates(), second.export_updates(), "{}", ontology.name());
        }
    }

    #[test]
    fn full_medical_catalog_loads_under_both_schemas() {
        let ontology = catalog::medical();
        let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 29);
        let af = AccessFrequencies::uniform(&ontology, 1_000.0);
        let instance = InstanceKg::generate(&ontology, &stats, 0.1, 29);
        let direct = PropertyGraphSchema::direct_from_ontology(&ontology);
        let optimized =
            optimize_nsc(OptimizerInput::new(&ontology, &stats, &af), &OptimizerConfig::default())
                .schema;
        let mut dir = MemoryGraph::new();
        let mut opt = MemoryGraph::new();
        let dir_report = load_into(&mut dir, &ontology, &direct, &instance);
        let opt_report = load_into(&mut opt, &ontology, &optimized, &instance);
        assert!(dir_report.vertices > 0 && opt_report.vertices > 0);
        assert!(opt_report.vertices < dir_report.vertices);
    }
}

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
//! The loader reads the schema the way every reader does: a concept's vertex
//! type is `PropertyGraphSchema::vertex_for_concept`, a scalar's value comes
//! from the concept property it holds (`VertexSchema::origin_of`), and a LIST
//! is filled where it is the `VertexSchema::replica_of` a related concept's
//! property. Names are never parsed, so any schema produced by the optimizer
//! (under any space budget) loads correctly.
//!
//! **Cost.** Each call first compiles one load plan from `(ontology, schema)`
//! in O(concepts² + schema): per concept its vertex type, 1:1 anchor,
//! ancestor walk and scalar-property plans; per (vertex type, provider
//! concept) the LIST properties it fills; the set of admitted edge types.
//! Entities and relationship instances then stream through table lookups in
//! O(entities + relationship instances). The loader never reads the backend
//! it writes: the edge phase takes vertex labels from its own record of the
//! vertices it created.

use crate::instance::{property_value_for, Entity, InstanceKg};
use pgso_graphstore::{FxBuild, GraphBackend, PropertyMap, PropertyValue, VertexId};
use pgso_ontology::{ConceptId, Ontology, PropertyId, RelationshipKind};
use pgso_pgschema::{PropertyGraphSchema, VertexSchema};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

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
    let plan = Plan::compile(ontology, schema);
    let first = backend.vertex_count() as u64;
    let (created, map, report) = (Vec::new(), HashMap::default(), LoadReport::default());
    let mut loader = Loader { backend, plan: &plan, instance, first, created, map, report };
    let mains = loader.create_main_vertices();
    loader.create_ancestor_vertices(&mains);
    loader.create_relationship_edges();
    loader.report
}

/// Properties a vertex receives, in schema order (a later duplicate name
/// wins): `(schema property name, ontology property holding the value)`.
type PropertyPlan<'a> = Vec<(&'a str, PropertyId)>;

/// What the load needs to know about `(ontology, schema)`, compiled once.
struct Plan<'a> {
    ontology: &'a Ontology,
    /// Vertex types in label order; a vertex type is its index here.
    types: Vec<&'a VertexSchema>,
    /// Per concept index; `None` when no vertex type holds the concept.
    concepts: Vec<Option<ConceptPlan<'a>>>,
    /// LIST properties a provider concept's values fill on a vertex type, at
    /// `vertex type * concept count + provider`.
    lists: Vec<PropertyPlan<'a>>,
    /// Edge types as `(src vertex type, label, dst vertex type)`.
    edges: HashSet<(usize, &'a str, usize), FxBuild>,
}

/// What the schema makes of every entity of one concept.
struct ConceptPlan<'a> {
    /// Vertex type of the entity's main vertex.
    vertex: usize,
    /// The smallest concept 1:1-connected to this one inside the vertex type:
    /// entities with the same anchor and index share one main vertex.
    anchor: ConceptId,
    /// Scalar properties of the main vertex.
    scalars: PropertyPlan<'a>,
    /// Structural ancestors the schema keeps, in the order the walk meets them.
    levels: Vec<Level<'a>>,
}

/// A structural ancestor level the schema keeps for an entity.
struct Level<'a> {
    concept: ConceptId,
    /// The vertex below: 0 is the main vertex, `k` the `k`-th level vertex.
    below: usize,
    /// The level's own vertex: its type, its properties and the `isA` /
    /// `unionOf` edge to the vertex below if the schema has that edge type.
    /// `None` when the level shares the vertex below (inheritance fold).
    own: Option<(usize, PropertyPlan<'a>, Option<&'static str>)>,
}

impl<'a> Plan<'a> {
    fn compile(ontology: &'a Ontology, schema: &'a PropertyGraphSchema) -> Self {
        let types: Vec<&VertexSchema> = schema.vertices().collect();
        let type_of = |label: &str| types.binary_search_by(|v| v.label.as_str().cmp(label)).ok();
        let vertex_of: Vec<Option<usize>> = ontology
            .concept_ids()
            .map(|c| type_of(&schema.vertex_for_concept(&ontology.concept(c).name)?.label))
            .collect();
        let edges = schema
            .edges()
            .filter_map(|e| Some((type_of(&e.src)?, e.label.as_str(), type_of(&e.dst)?)))
            .collect();
        let mut plan = Plan { ontology, types, concepts: Vec::new(), lists: Vec::new(), edges };
        let pairs = (0..plan.types.len()).flat_map(|t| ontology.concept_ids().map(move |p| (t, p)));
        plan.lists = pairs.map(|(t, provider)| plan.list_plan(t, provider)).collect();
        plan.concepts = ontology.concept_ids().map(|c| plan.concept(&vertex_of, c)).collect();
        plan
    }

    /// Plans the entities of `concept`, if a vertex type holds it, walking
    /// its structural ancestors breadth-first. A visited set guards against
    /// mixed `isA` / `unionOf` cycles (legal in the ontology: each kind is
    /// acyclic on its own) and diamond hierarchies: every ancestor level is
    /// planned at most once, via the first path that reaches it.
    fn concept(&self, vertex_of: &[Option<usize>], concept: ConceptId) -> Option<ConceptPlan<'a>> {
        let (ontology, vertex) = (self.ontology, vertex_of[concept.index()]?);
        // Vertex type of each vertex of the walk, main vertex first.
        let mut walk = vec![vertex];
        let (mut levels, mut visited) = (Vec::new(), vec![concept]);
        let mut queue = VecDeque::from([(concept, 0)]);
        while let Some((level, below)) = queue.pop_front() {
            for (ancestor, edge) in structural_parents(ontology, level) {
                if visited.contains(&ancestor) {
                    continue;
                }
                visited.push(ancestor);
                match vertex_of[ancestor.index()] {
                    // Dropped level (union concept / pushed-down parent):
                    // nothing to materialise at this level; higher levels are
                    // still reachable through other paths if the schema keeps
                    // them, so keep walking upwards from the vertex below.
                    None => queue.push_back((ancestor, below)),
                    Some(t) if t == walk[below] => {
                        levels.push(Level { concept: ancestor, below, own: None });
                        queue.push_back((ancestor, below));
                    }
                    Some(t) => {
                        let edge = self.edges.contains(&(t, edge, walk[below])).then_some(edge);
                        let own = Some((t, Vec::new(), edge));
                        levels.push(Level { concept: ancestor, below, own });
                        walk.push(t);
                        queue.push_back((ancestor, walk.len() - 1));
                    }
                }
            }
        }
        // `visited` is now the concept and all its structural ancestors: the
        // concepts its entities take scalar property values from.
        let scalars_of = |t: usize| self.scalar_plan(t, &visited);
        for level in &mut levels {
            if let Some((t, scalars, _)) = &mut level.own {
                *scalars = own_scalars(ontology, level.concept, self.types[*t], &scalars_of(*t));
            }
        }
        let anchor = anchor_concept(ontology, concept, self.types[vertex]);
        Some(ConceptPlan { vertex, anchor, scalars: scalars_of(vertex), levels })
    }

    /// Scalar properties an entity contributes to vertex type `t`: those whose
    /// origin is one of `origins`, the entity's concept and its ancestors.
    fn scalar_plan(&self, t: usize, origins: &[ConceptId]) -> PropertyPlan<'a> {
        let vertex = self.types[t];
        let scalars = vertex.properties.iter().filter(|p| !p.is_list);
        scalars
            .filter_map(|p| {
                let (concept, property) = vertex.origin_of(p);
                let concept =
                    self.ontology.concept_by_name(concept).filter(|c| origins.contains(c))?;
                Some((p.name.as_str(), self.ontology.property_by_name(concept, property)?))
            })
            .collect()
    }

    /// LIST properties of vertex type `t` that the provider concept's
    /// properties fill: their replicas on the type.
    fn list_plan(&self, t: usize, provider: ConceptId) -> PropertyPlan<'a> {
        let provider_name = &self.ontology.concept(provider).name;
        let properties = self.ontology.concept_properties(provider).iter();
        properties
            .filter_map(|&pid| {
                let property = &self.ontology.property(pid).name;
                Some((self.types[t].replica_of(provider_name, property)?.name.as_str(), pid))
            })
            .collect()
    }
}

/// Structural parents of a concept: `isA` parents, then the union concepts
/// the concept is a member of.
fn structural_parents(ontology: &Ontology, concept: ConceptId) -> Vec<(ConceptId, &'static str)> {
    let mut parents: Vec<(ConceptId, &'static str)> =
        ontology.parents(concept).into_iter().map(|p| (p, "isA")).collect();
    for &rid in ontology.incoming(concept) {
        let rel = ontology.relationship(rid);
        if rel.kind == RelationshipKind::Union {
            parents.push((rel.src, "unionOf"));
        }
    }
    parents
}

/// The anchor concept used to key a (possibly 1:1-merged) main vertex: the
/// smallest concept id among the vertex's merged concepts that are connected
/// to `concept` through 1:1 relationships.
fn anchor_concept(ontology: &Ontology, concept: ConceptId, vertex: &VertexSchema) -> ConceptId {
    let merged = |c: ConceptId| vertex.merged_from.contains(&ontology.concept(c).name);
    let one_to_one: Vec<(ConceptId, ConceptId)> = ontology
        .relationships_of_kind(RelationshipKind::OneToOne)
        .map(|(_, rel)| (rel.src, rel.dst))
        .filter(|&(a, b)| merged(a) && merged(b))
        .collect();
    let mut group = vec![concept];
    while let Some(&(a, b)) =
        one_to_one.iter().find(|(a, b)| group.contains(a) != group.contains(b))
    {
        group.push(if group.contains(&a) { b } else { a });
    }
    group.into_iter().min().unwrap_or(concept)
}

/// Scalar properties of an ancestor-level vertex: only the ancestor's own,
/// each valued as the entity's scalar plan `all` for the vertex type values
/// it, otherwise from the ancestor's property of the same name.
fn own_scalars<'a>(
    ontology: &Ontology,
    ancestor: ConceptId,
    vertex: &'a VertexSchema,
    all: &[(&str, PropertyId)],
) -> PropertyPlan<'a> {
    let name = &ontology.concept(ancestor).name;
    let own = vertex.properties.iter().filter(|p| !p.is_list && vertex.origin_of(p).0 == name);
    own.filter_map(|p| {
        let planned = all.iter().rev().find(|(n, _)| *n == p.name).map(|&(_, pid)| pid);
        Some((p.name.as_str(), planned.or_else(|| ontology.property_by_name(ancestor, &p.name))?))
    })
    .collect()
}

/// The values an entity writes under a property plan.
fn values<'p>(
    ontology: &'p Ontology,
    plan: &'p [(&str, PropertyId)],
    entity: Entity,
) -> impl Iterator<Item = (String, PropertyValue)> + 'p {
    plan.iter()
        .map(move |&(name, pid)| (name.to_string(), property_value_for(ontology, entity, pid)))
}

struct Loader<'a> {
    backend: &'a mut dyn GraphBackend,
    plan: &'a Plan<'a>,
    instance: &'a InstanceKg,
    /// Id of the first vertex this load creates.
    first: u64,
    /// Vertex type of each vertex this load created, indexed by id − `first`:
    /// the edge phase reads labels here, never from the backend.
    created: Vec<u32>,
    /// (role concept, entity) -> vertex representing that concept level for
    /// that entity.
    map: HashMap<(ConceptId, Entity), VertexId, FxBuild>,
    report: LoadReport,
}

impl Loader<'_> {
    fn add_vertex(&mut self, vertex: usize, props: PropertyMap) -> VertexId {
        let id = self.backend.add_vertex(&self.plan.types[vertex].label, props);
        debug_assert_eq!(id.0, self.first + self.created.len() as u64, "vertex ids are dense");
        self.created.push(vertex as u32);
        self.report.vertices += 1;
        id
    }

    /// Creates the main vertices; returns each entity's, in entity order.
    fn create_main_vertices(&mut self) -> Vec<(Entity, VertexId)> {
        let (ontology, plan, instance) = (self.plan.ontology, self.plan, self.instance);
        // Accumulate property maps per main-vertex key so that 1:1-paired
        // entities contribute to the same vertex before it is created.
        let mut pending: Vec<(usize, PropertyMap)> = Vec::new();
        let mut index_of: HashMap<(usize, ConceptId, u32), usize, FxBuild> = HashMap::default();
        let mut members: Vec<(Entity, usize)> = Vec::new();
        for entity in instance.entities() {
            let Some(concept) = &plan.concepts[entity.concept.index()] else { continue };
            let key = (concept.vertex, concept.anchor, entity.index);
            let i = *index_of.entry(key).or_insert_with(|| {
                pending.push((concept.vertex, PropertyMap::new()));
                pending.len() - 1
            });
            pending[i].1.extend(values(ontology, &concept.scalars, entity));
            members.push((entity, i));
        }

        // Fill LIST properties from relationship instances. Ordered by key:
        // entities merged into one vertex can hold the same list, the last
        // one written wins, and which one is last must not vary run to run.
        let mut lists: BTreeMap<(ConceptId, u32, &str), Vec<PropertyValue>> = BTreeMap::new();
        for inst in instance.all_instances() {
            let rel = ontology.relationship(inst.relationship);
            for (holder, provider, provider_concept) in
                [(inst.src, inst.dst, rel.dst), (inst.dst, inst.src, rel.src)]
            {
                let Some(concept) = &plan.concepts[holder.concept.index()] else { continue };
                let at = concept.vertex * plan.concepts.len() + provider_concept.index();
                for &(name, pid) in &plan.lists[at] {
                    let list = lists.entry((holder.concept, holder.index, name)).or_default();
                    list.push(property_value_for(ontology, provider, pid));
                }
            }
        }
        for ((concept, index, name), mut values) in lists {
            values.shrink_to_fit(); // moved into the graph, so trim its spare capacity
            let Some(holder) = &plan.concepts[concept.index()] else { continue };
            let i = index_of[&(holder.vertex, holder.anchor, index)];
            pending[i].1.insert(name.to_string(), PropertyValue::List(values));
        }

        // Create the vertices, moving each map in.
        let ids: Vec<VertexId> =
            pending.into_iter().map(|(vertex, props)| self.add_vertex(vertex, props)).collect();
        members.into_iter().map(|(entity, i)| (entity, ids[i])).collect()
    }

    /// Registers each entity's main vertex and creates the ancestor-level
    /// vertices the schema keeps, following the entity's planned walk.
    fn create_ancestor_vertices(&mut self, mains: &[(Entity, VertexId)]) {
        let (ontology, plan) = (self.plan.ontology, self.plan);
        let mut walk = Vec::new();
        for &(entity, main) in mains {
            self.map.insert((entity.concept, entity), main);
            let Some(concept) = &plan.concepts[entity.concept.index()] else { continue };
            walk.clear();
            walk.push(main);
            for level in &concept.levels {
                let below = walk[level.below];
                let Some((vertex, scalars, edge)) = &level.own else {
                    // Same vertex (inheritance fold): just record the mapping.
                    self.map.insert((level.concept, entity), below);
                    continue;
                };
                let id = self.add_vertex(*vertex, values(ontology, scalars, entity).collect());
                self.map.insert((level.concept, entity), id);
                if let Some(label) = edge {
                    self.backend.add_edge(label, id, below);
                    self.report.edges += 1;
                }
                walk.push(id);
            }
        }
    }

    fn create_relationship_edges(&mut self) {
        let (ontology, plan, instance) = (self.plan.ontology, self.plan, self.instance);
        let type_of = |id: VertexId| self.created[(id.0 - self.first) as usize] as usize;
        for inst in instance.all_instances() {
            let rel = ontology.relationship(inst.relationship);
            let src = self.resolve_vertex(rel.src, inst.src);
            let (Some(src), Some(dst)) = (src, self.resolve_vertex(rel.dst, inst.dst)) else {
                self.report.skipped_edges += 1;
                continue;
            };
            if plan.edges.contains(&(type_of(src), rel.name.as_str(), type_of(dst))) {
                self.backend.add_edge(&rel.name, src, dst);
                self.report.edges += 1;
            } else {
                // No such edge type, e.g. folded into a single vertex (1:1
                // merge): nothing to add.
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
    use pgso_graphstore::codec::encode_update;
    use pgso_graphstore::{AccessStats, DiskGraph, DiskGraphConfig, MemoryGraph};
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

    /// FNV-1a over the byte encoding of every update `export_updates`
    /// replays: vertices in id order, then edges in insertion order.
    fn export_digest(graph: &MemoryGraph) -> u64 {
        let updates = graph.export_updates().expect("a memory graph exports its updates");
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for byte in updates.iter().flat_map(encode_update) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn load_output_is_pinned() {
        // The exact graphs MED and FIN load into at scale 0.05, seed 42: how
        // the loader computes them may change, what it writes may not.
        // (vertices, edges, payload bytes, report, export digest).
        let report = |vertices, edges, skipped_edges| LoadReport { vertices, edges, skipped_edges };
        let pinned = [
            (
                catalog::medical(),
                [
                    (178, 283, 7_299, report(178, 283, 0), 3_220_574_063_169_167_206),
                    (132, 217, 20_469, report(132, 217, 30), 7_546_316_018_253_369_386),
                ],
            ),
            (
                catalog::financial(),
                [
                    (286, 699, 15_368, report(286, 699, 0), 4_085_653_190_658_731_614),
                    (68, 156, 36_246, report(68, 156, 316), 4_951_486_899_258_875_364),
                ],
            ),
        ];
        for (ontology, [dir, opt]) in pinned {
            let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 42);
            let af = AccessFrequencies::uniform(&ontology, 1_000.0);
            let instance = InstanceKg::generate(&ontology, &stats, 0.05, 42);
            let direct = PropertyGraphSchema::direct_from_ontology(&ontology);
            let optimized = optimize_nsc(
                OptimizerInput::new(&ontology, &stats, &af),
                &OptimizerConfig::default(),
            )
            .schema;
            for (schema, expected) in [(&direct, dir), (&optimized, opt)] {
                let mut g = MemoryGraph::new();
                let report = load_into(&mut g, &ontology, schema, &instance);
                let actual = (
                    g.vertex_count(),
                    g.edge_count(),
                    g.payload_bytes(),
                    report,
                    export_digest(&g),
                );
                assert_eq!(actual, expected, "{}", schema.name);
            }
        }
    }

    #[test]
    fn the_loader_never_reads_the_backend() {
        // Edges are labelled from the loader's own record of what it wrote:
        // no vertex read, no traversal, and no page pulled into a disk pool.
        let f = fixture();
        let path = std::env::temp_dir().join(format!("pgso-load-{}.store", std::process::id()));
        for schema in [&f.direct, &f.optimized] {
            let mut memory = MemoryGraph::new();
            let mut disk = DiskGraph::create(&path, DiskGraphConfig::with_pool_pages(4)).unwrap();
            for backend in [&mut memory as &mut dyn GraphBackend, &mut disk] {
                let report = load_into(backend, &f.ontology, schema, &f.instance);
                assert!(report.edges > 0);
                let (name, stats) = (backend.backend_name(), backend.stats());
                assert_eq!(stats, AccessStats::default(), "{name} {}", schema.name);
            }
        }
        std::fs::remove_file(&path).unwrap();
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

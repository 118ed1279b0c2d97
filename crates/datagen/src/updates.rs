//! Streaming update generation for ingest workloads.
//!
//! The paper frames domain KGs as *evolving*: new entities and relationship
//! instances arrive continuously. This module synthesizes that stream as a
//! deterministic sequence of physical [`GraphUpdate`]s against a graph
//! already loaded under a schema — the input to the serving layer's
//! write-ahead-logged `ingest()` path and to ingest-while-serving
//! benchmarks.
//!
//! Each generated entity becomes one `AddVertex` conforming to its concept's
//! vertex schema (scalar properties valued by the same deterministic
//! synthesizer the base loader uses, at indices far above the base load so
//! values never collide), plus up to [`UpdateStreamConfig::max_edges`]
//! `AddEdge`s wiring it to existing or previously generated vertices through
//! relationships the schema kept as edge types.
//!
//! New vertices reference ids **predictively**: backends assign dense
//! sequential ids, so the `k`-th generated vertex will receive id
//! `graph.vertex_count() + k`. The stream is therefore only valid when
//! applied (in order) to the graph it was generated against — exactly the
//! contract of a WAL.

use crate::instance::{property_value_for, Entity, InstanceKg};
use pgso_graphstore::{GraphBackend, GraphUpdate, PropertyMap, VertexId};
use pgso_ontology::{ConceptId, Ontology};
use pgso_pgschema::PropertyGraphSchema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Tuning for [`streaming_updates`].
#[derive(Debug, Clone, Copy)]
pub struct UpdateStreamConfig {
    /// Upper bound on edges attached per generated vertex.
    pub max_edges: usize,
    /// Index offset for synthesized property values, keeping generated
    /// entities distinguishable from the base load's.
    pub index_offset: u32,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        Self { max_edges: 2, index_offset: 1_000_000 }
    }
}

/// Generates `count` new entities (vertex + edges) as an ordered update
/// stream against `graph`, deterministically from `seed`. See the module
/// docs for the id contract.
pub fn streaming_updates(
    ontology: &Ontology,
    schema: &PropertyGraphSchema,
    graph: &dyn GraphBackend,
    count: usize,
    seed: u64,
    config: &UpdateStreamConfig,
) -> Vec<GraphUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Concrete concepts the schema kept a vertex type for, with their labels.
    let concepts: Vec<(ConceptId, String)> = ontology
        .concept_ids()
        .filter(|&cid| InstanceKg::is_concrete(ontology, cid))
        .filter_map(|cid| {
            let name = &ontology.concept(cid).name;
            schema.vertex_for_concept(name).map(|v| (cid, v.label.clone()))
        })
        .collect();
    if concepts.is_empty() {
        return Vec::new();
    }
    // Per-label extents: the base graph's vertices plus every id this stream
    // generates, so later updates can reference earlier generated vertices.
    let mut extent: HashMap<String, Vec<VertexId>> = HashMap::new();
    for (_, label) in &concepts {
        extent.entry(label.clone()).or_insert_with(|| graph.vertices_with_label(label));
    }
    let mut next_id = graph.vertex_count() as u64;
    let mut updates = Vec::with_capacity(count * 2);

    for k in 0..count {
        let (concept, label) = &concepts[rng.gen_range(0..concepts.len())];
        let entity =
            Entity { concept: *concept, index: config.index_offset.wrapping_add(k as u32) };
        let vertex_schema =
            schema.vertex_for_concept(&ontology.concept(*concept).name).expect("filtered above");
        let mut properties = PropertyMap::new();
        for prop in vertex_schema.properties.iter().filter(|p| !p.is_list) {
            let (concept, property) = vertex_schema.origin_of(prop);
            let Some(concept) = ontology.concept_by_name(concept) else { continue };
            let Some(pid) = ontology.property_by_name(concept, property) else { continue };
            properties.insert(prop.name.clone(), property_value_for(ontology, entity, pid));
        }
        let new_vertex = VertexId(next_id);
        next_id += 1;
        updates.push(GraphUpdate::AddVertex { label: label.clone(), properties });
        extent.get_mut(label).expect("extent preloaded").push(new_vertex);

        // Wire the new vertex through relationships the schema kept.
        let mut attached = 0usize;
        for (_, rel) in ontology.relationships() {
            if attached >= config.max_edges {
                break;
            }
            if !rel.kind.is_functional() {
                continue;
            }
            let as_src = rel.src == *concept;
            let as_dst = rel.dst == *concept;
            if !as_src && !as_dst {
                continue;
            }
            let other_concept = if as_src { rel.dst } else { rel.src };
            let Some(other_vertex) =
                schema.vertex_for_concept(&ontology.concept(other_concept).name)
            else {
                continue;
            };
            let (src_label, dst_label) = if as_src {
                (label.as_str(), other_vertex.label.as_str())
            } else {
                (other_vertex.label.as_str(), label.as_str())
            };
            if schema.edge(src_label, &rel.name, dst_label).is_none() {
                continue;
            }
            let candidates = extent
                .entry(other_vertex.label.clone())
                .or_insert_with(|| graph.vertices_with_label(&other_vertex.label));
            // Exclude the vertex itself (self-loop through a merged type).
            let candidates: Vec<VertexId> =
                candidates.iter().copied().filter(|&v| v != new_vertex).collect();
            if candidates.is_empty() {
                continue;
            }
            let other = candidates[rng.gen_range(0..candidates.len())];
            let (src, dst) = if as_src { (new_vertex, other) } else { (other, new_vertex) };
            updates.push(GraphUpdate::AddEdge { label: rel.name.clone(), src, dst });
            attached += 1;
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_into;
    use pgso_graphstore::MemoryGraph;
    use pgso_ontology::{catalog, DataStatistics, StatisticsConfig};

    fn loaded() -> (Ontology, PropertyGraphSchema, MemoryGraph) {
        let ontology = catalog::med_mini();
        let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 11);
        let instance = InstanceKg::generate(&ontology, &stats, 0.3, 11);
        let schema = PropertyGraphSchema::direct_from_ontology(&ontology);
        let mut graph = MemoryGraph::new();
        load_into(&mut graph, &ontology, &schema, &instance);
        (ontology, schema, graph)
    }

    #[test]
    fn updates_are_deterministic_and_apply_cleanly() {
        let (ontology, schema, mut graph) = loaded();
        let config = UpdateStreamConfig::default();
        let a = streaming_updates(&ontology, &schema, &graph, 20, 5, &config);
        let b = streaming_updates(&ontology, &schema, &graph, 20, 5, &config);
        assert_eq!(a, b, "same seed, same stream");
        let c = streaming_updates(&ontology, &schema, &graph, 20, 6, &config);
        assert_ne!(a, c, "different seed, different stream");

        let vertices_before = graph.vertex_count();
        let edges_before = graph.edge_count();
        pgso_graphstore::apply_updates(&mut graph, &a);
        let new_vertices = a.iter().filter(|u| matches!(u, GraphUpdate::AddVertex { .. })).count();
        let new_edges = a.iter().filter(|u| matches!(u, GraphUpdate::AddEdge { .. })).count();
        assert_eq!(new_vertices, 20);
        assert!(new_edges > 0, "the stream must wire new vertices in");
        assert_eq!(graph.vertex_count(), vertices_before + new_vertices);
        assert_eq!(graph.edge_count(), edges_before + new_edges);
    }

    #[test]
    fn edges_respect_the_schema_and_reference_valid_ids() {
        let (ontology, schema, graph) = loaded();
        let updates =
            streaming_updates(&ontology, &schema, &graph, 30, 7, &UpdateStreamConfig::default());
        let base = graph.vertex_count() as u64;
        let mut simulated: Vec<String> = Vec::new(); // labels of generated vertices
        for update in &updates {
            match update {
                GraphUpdate::AddVertex { label, .. } => simulated.push(label.clone()),
                GraphUpdate::AddEdge { label, src, dst } => {
                    let label_of = |id: VertexId| -> String {
                        if id.0 < base {
                            graph.label_of(id).expect("existing vertex")
                        } else {
                            simulated[(id.0 - base) as usize].clone()
                        }
                    };
                    assert!(
                        schema.edge(&label_of(*src), label, &label_of(*dst)).is_some(),
                        "edge {label} between {} and {} must exist in the schema",
                        label_of(*src),
                        label_of(*dst)
                    );
                }
            }
        }
    }

    #[test]
    fn generated_properties_follow_the_vertex_schema() {
        let (ontology, schema, graph) = loaded();
        let updates =
            streaming_updates(&ontology, &schema, &graph, 25, 9, &UpdateStreamConfig::default());
        for update in &updates {
            if let GraphUpdate::AddVertex { label, properties } = update {
                let vertex = schema.vertex(label).expect("label from the schema");
                for name in properties.keys() {
                    assert!(vertex.has_property(name), "{label}.{name} not in schema");
                }
                // Scalar (non-list) properties are all filled.
                for prop in vertex.properties.iter().filter(|p| !p.is_list) {
                    assert!(properties.contains_key(&prop.name), "{label}.{} missing", prop.name);
                }
            }
        }
    }

    #[test]
    fn works_under_an_optimized_schema() {
        let ontology = catalog::med_mini();
        let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 11);
        let instance = InstanceKg::generate(&ontology, &stats, 0.3, 11);
        let af = pgso_ontology::AccessFrequencies::uniform(&ontology, 1_000.0);
        let schema = pgso_core::optimize_nsc(
            pgso_core::OptimizerInput::new(&ontology, &stats, &af),
            &pgso_core::OptimizerConfig::default(),
        )
        .schema;
        let mut graph = MemoryGraph::new();
        load_into(&mut graph, &ontology, &schema, &instance);
        let updates =
            streaming_updates(&ontology, &schema, &graph, 15, 3, &UpdateStreamConfig::default());
        assert!(!updates.is_empty());
        pgso_graphstore::apply_updates(&mut graph, &updates);
        // Merged labels (e.g. IndicationCondition) appear, dropped ones don't.
        assert!(graph.vertices_with_label("Risk").is_empty());
    }
}

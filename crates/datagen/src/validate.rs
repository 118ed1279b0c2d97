//! Structural validation of a graph against its schema.
//!
//! [`validate`] walks a backend's vertices and edges once — through
//! [`GraphBackend::export_updates`], so it sees every edge whatever its
//! label — and names each element the schema does not allow:
//!
//! * a vertex whose label is no vertex type;
//! * an edge whose (source label, label, destination label) is no edge type;
//! * a property key its vertex type does not declare;
//! * a declared key holding a value of the wrong shape: a scalar where a
//!   LIST is declared or the reverse, or a value (or LIST element) of a
//!   kind the declared data type is never stored as.
//!
//! It is a test-time check, never on the serving path: the loader, the
//! update stream and publication are held to it by their tests.

use pgso_graphstore::{GraphBackend, GraphUpdate, PropertyValue, VertexId};
use pgso_ontology::DataType;
use pgso_pgschema::{PropertyGraphSchema, PropertySchema};
use std::fmt;

/// One element of a graph that its schema does not allow.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The backend cannot replay itself, so nothing could be checked.
    Unreplayable {
        /// [`GraphBackend::backend_name`].
        backend: &'static str,
    },
    /// A vertex whose label is no vertex type of the schema.
    UnknownVertexType {
        /// The vertex.
        vertex: VertexId,
        /// Its label.
        label: String,
    },
    /// An edge whose (source label, label, destination label) is no edge
    /// type of the schema.
    UnknownEdgeType {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// `(source label, edge label, destination label)`.
        triple: (String, String, String),
    },
    /// A property key the vertex's type does not declare.
    UndeclaredProperty {
        /// The vertex.
        vertex: VertexId,
        /// Its label.
        label: String,
        /// The key.
        key: String,
    },
    /// A declared key whose value does not have the declared shape.
    WrongShape {
        /// The vertex.
        vertex: VertexId,
        /// Its label.
        label: String,
        /// The key.
        key: String,
        /// The declared type, as DDL (`STRING`, `LIST<INT>`, ...).
        declared: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unreplayable { backend } => {
                write!(f, "backend `{backend}` cannot replay itself; nothing checked")
            }
            Violation::UnknownVertexType { vertex, label } => {
                write!(f, "vertex {} has label {label}, which is no vertex type", vertex.0)
            }
            Violation::UnknownEdgeType { src, dst, triple: (from, label, to) } => write!(
                f,
                "edge {} -> {} is ({from})-[{label}]->({to}), which is no edge type",
                src.0, dst.0
            ),
            Violation::UndeclaredProperty { vertex, label, key } => {
                write!(
                    f,
                    "vertex {} ({label}) holds {key}, which {label} does not declare",
                    vertex.0
                )
            }
            Violation::WrongShape { vertex, label, key, declared } => {
                write!(
                    f,
                    "vertex {} ({label}) holds {key} not as the declared {declared}",
                    vertex.0
                )
            }
        }
    }
}

/// Every element of `graph` that `schema` does not allow, in the order the
/// graph replays them: vertices by id, then edges in insertion order. An
/// empty list means the graph conforms.
pub fn validate(graph: &dyn GraphBackend, schema: &PropertyGraphSchema) -> Vec<Violation> {
    let Some(updates) = graph.export_updates() else {
        return vec![Violation::Unreplayable { backend: graph.backend_name() }];
    };
    let mut violations = Vec::new();
    // Vertex labels by id: ids are dense and assigned in replay order.
    let mut labels: Vec<&str> = Vec::new();
    for update in &updates {
        match update {
            GraphUpdate::AddVertex { label, properties } => {
                let vertex = VertexId(labels.len() as u64);
                labels.push(label);
                let Some(declared) = schema.vertex(label) else {
                    let label = label.clone();
                    violations.push(Violation::UnknownVertexType { vertex, label });
                    continue;
                };
                for (key, value) in properties {
                    let property = declared.property(key);
                    if property.is_some_and(|property| has_shape(value, property)) {
                        continue;
                    }
                    let (label, key) = (label.clone(), key.clone());
                    violations.push(match property {
                        Some(property) => {
                            let declared = property.ddl_type();
                            Violation::WrongShape { vertex, label, key, declared }
                        }
                        None => Violation::UndeclaredProperty { vertex, label, key },
                    });
                }
            }
            GraphUpdate::AddEdge { label, src, dst } => {
                let (from, to) = (labels[src.0 as usize], labels[dst.0 as usize]);
                if schema.edge(from, label, to).is_none() {
                    let triple = (from.to_string(), label.clone(), to.to_string());
                    violations.push(Violation::UnknownEdgeType { src: *src, dst: *dst, triple });
                }
            }
        }
    }
    violations
}

/// Whether `value` is stored the way `property` declares: a LIST of
/// elements of its data type, or one such scalar.
fn has_shape(value: &PropertyValue, property: &PropertySchema) -> bool {
    match value {
        PropertyValue::List(items) => {
            property.is_list && items.iter().all(|item| is_kind(item, property.data_type))
        }
        scalar => !property.is_list && is_kind(scalar, property.data_type),
    }
}

/// Whether a scalar is of the kind `data_type` is stored as (a date is
/// stored as an integer, as the generator writes it).
fn is_kind(value: &PropertyValue, data_type: DataType) -> bool {
    matches!(
        (value, data_type),
        (PropertyValue::Bool(_), DataType::Bool)
            | (PropertyValue::Int(_), DataType::Int | DataType::Long | DataType::Date)
            | (PropertyValue::Float(_), DataType::Double)
            | (PropertyValue::Str(_), DataType::Str | DataType::Text)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_graphstore::{props, MemoryGraph};
    use pgso_pgschema::{EdgeSchema, VertexSchema};

    /// A hand-built schema: `Drug {name: STRING, tags: LIST<STRING>}`,
    /// `Indication {desc: STRING}` and `(Drug)-[treat]->(Indication)`.
    fn schema() -> PropertyGraphSchema {
        let mut schema = PropertyGraphSchema::new("tiny");
        let mut drug = VertexSchema::new("Drug");
        drug.upsert_property(PropertySchema::scalar("name", DataType::Str));
        drug.upsert_property(PropertySchema::list("tags", DataType::Str));
        let mut indication = VertexSchema::new("Indication");
        indication.upsert_property(PropertySchema::scalar("desc", DataType::Text));
        schema.insert_vertex(drug);
        schema.insert_vertex(indication);
        let kind = pgso_ontology::RelationshipKind::OneToMany;
        schema.add_edge(EdgeSchema::new("treat", "Drug", "Indication", kind));
        schema
    }

    #[test]
    fn names_every_kind_of_violation_in_replay_order() {
        let mut g = MemoryGraph::new();
        let drug = g.add_vertex(
            "Drug",
            props([("name", "Aspirin".into()), ("tags", PropertyValue::str_list(["nsaid"]))]),
        );
        let fever = g.add_vertex("Indication", props([("desc", "Fever".into())]));
        g.add_edge("treat", drug, fever);
        assert_eq!(validate(&g, &schema()), [], "a conforming graph");

        let odd = g.add_vertex(
            "Drug",
            props([("name", PropertyValue::str_list(["x"])), ("dose", 5i64.into())]),
        );
        let ghost = g.add_vertex("Pharmacy", props([("name", "Corner".into())]));
        g.add_vertex("Drug", props([("tags", "nsaid".into())]));
        g.add_edge("treat", drug, odd);
        g.add_edge("treat", ghost, fever);
        let found: Vec<String> = validate(&g, &schema()).iter().map(|v| v.to_string()).collect();
        assert_eq!(
            found,
            [
                "vertex 2 (Drug) holds dose, which Drug does not declare",
                "vertex 2 (Drug) holds name not as the declared STRING",
                "vertex 3 has label Pharmacy, which is no vertex type",
                "vertex 4 (Drug) holds tags not as the declared LIST<STRING>",
                "edge 0 -> 2 is (Drug)-[treat]->(Drug), which is no edge type",
                "edge 3 -> 1 is (Pharmacy)-[treat]->(Indication), which is no edge type",
            ]
        );
    }
}

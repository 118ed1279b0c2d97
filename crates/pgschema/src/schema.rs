//! Property graph schema model.
//!
//! A [`PropertyGraphSchema`] (Definition 2 context in the paper) defines the
//! vertex types, edge types and property types of a property graph, exactly
//! like Cypher's / GSQL's / GraphQL-SDL's schema notions. The optimizer in
//! `pgso-core` produces instances of this type; `pgso-datagen` loads instance
//! data conforming to it; `pgso-query` plans queries against it.
//!
//! Each [`PropertySchema`] carries an optional *origin* identifying the
//! ontology concept/property it was copied from. Origins are what make the
//! optimizer's rewrites reversible enough for the DIR→OPT query rewriter: a
//! replicated LIST property such as `Indication.desc` on the `Drug` vertex
//! records that it came from the `Indication` concept's `desc` property.
//! Every reader looks a concept property up by origin
//! ([`VertexSchema::property_of`], [`VertexSchema::replica_of`]), never by
//! name.

use pgso_ontology::{DataType, Ontology, RelationshipKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies the ontology concept and property a schema property was derived
/// from.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PropertyOrigin {
    /// Name of the concept the property originally belonged to.
    pub concept: String,
    /// Name of the property on that concept.
    pub property: String,
}

impl PropertyOrigin {
    /// Creates an origin marker.
    pub fn new(concept: impl Into<String>, property: impl Into<String>) -> Self {
        Self { concept: concept.into(), property: property.into() }
    }
}

impl fmt::Display for PropertyOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.concept, self.property)
    }
}

/// A property type attached to a vertex or edge type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropertySchema {
    /// Property name as exposed to queries (e.g. `brand` or `Indication.desc`).
    pub name: String,
    /// Primitive element type.
    pub data_type: DataType,
    /// True if the property holds a LIST of values (the 1:M / M:N rules
    /// propagate properties as LISTs).
    pub is_list: bool,
    /// The concept property this property holds. `None` means the vertex
    /// type's own concept (its label) and the property's name; see
    /// [`VertexSchema::origin_of`].
    pub origin: Option<PropertyOrigin>,
}

impl PropertySchema {
    /// Scalar property without provenance.
    pub fn scalar(name: impl Into<String>, data_type: DataType) -> Self {
        Self { name: name.into(), data_type, is_list: false, origin: None }
    }

    /// LIST-typed property without provenance.
    pub fn list(name: impl Into<String>, data_type: DataType) -> Self {
        Self { name: name.into(), data_type, is_list: true, origin: None }
    }

    /// Attaches an origin marker.
    pub fn with_origin(mut self, origin: PropertyOrigin) -> Self {
        self.origin = Some(origin);
        self
    }

    /// DDL type keyword (`STRING`, `LIST<STRING>`, ...).
    pub fn ddl_type(&self) -> String {
        let base = match self.data_type {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INT",
            DataType::Long => "LONG",
            DataType::Double => "DOUBLE",
            DataType::Date => "DATE",
            DataType::Str => "STRING",
            DataType::Text => "TEXT",
        };
        if self.is_list {
            format!("LIST<{base}>")
        } else {
            base.to_string()
        }
    }
}

/// A vertex type (node label) in the schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VertexSchema {
    /// Node label (e.g. `Drug` or the merged `IndicationCondition`).
    pub label: String,
    /// Property types of this vertex type.
    pub properties: Vec<PropertySchema>,
    /// Names of the ontology concepts folded into this vertex type. A direct
    /// mapping has exactly one entry; the 1:1 rule produces two or more.
    pub merged_from: Vec<String>,
}

impl VertexSchema {
    /// Creates a vertex type for a single concept.
    pub fn new(label: impl Into<String>) -> Self {
        let label = label.into();
        Self { label: label.clone(), properties: Vec::new(), merged_from: vec![label] }
    }

    /// Looks a property up by name.
    pub fn property(&self, name: &str) -> Option<&PropertySchema> {
        self.properties.iter().find(|p| p.name == name)
    }

    /// Returns true if the vertex type has a property with this name.
    pub fn has_property(&self, name: &str) -> bool {
        self.property(name).is_some()
    }

    /// The `(concept, property)` a property of this type holds: its origin,
    /// or `(label, name)` for a property without one (a direct mapping's).
    pub fn origin_of<'s>(&'s self, property: &'s PropertySchema) -> (&'s str, &'s str) {
        match &property.origin {
            Some(origin) => (&origin.concept, &origin.property),
            None => (&self.label, &property.name),
        }
    }

    /// The property of this type that holds `concept`'s `property`: the
    /// scalar whose [`origin_of`](Self::origin_of) is that pair, or else its
    /// [`replica_of`](Self::replica_of). A type can hold both, e.g. a
    /// pushed-down `underlying` beside the LIST `Derivative.underlying` of
    /// its neighbours' values; a vertex's own value is the scalar. Readers
    /// find concept properties this way; names are never parsed or built.
    pub fn property_of(&self, concept: &str, property: &str) -> Option<&PropertySchema> {
        let origin = (concept, property);
        let scalar = self.properties.iter().find(|p| !p.is_list && self.origin_of(p) == origin);
        scalar.or_else(|| self.replica_of(concept, property))
    }

    /// The LIST property of this type that replicates `concept`'s `property`
    /// from related vertices (the 1:M / M:N rules), if there is one.
    pub fn replica_of(&self, concept: &str, property: &str) -> Option<&PropertySchema> {
        self.properties.iter().find(|p| p.is_list && self.origin_of(p) == (concept, property))
    }

    /// Adds a property, replacing any existing property of the same name.
    pub fn upsert_property(&mut self, prop: PropertySchema) {
        if let Some(existing) = self.properties.iter_mut().find(|p| p.name == prop.name) {
            *existing = prop;
        } else {
            self.properties.push(prop);
        }
    }
}

/// An edge type in the schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSchema {
    /// Edge label (e.g. `treat`, `isA`).
    pub label: String,
    /// Label of the source vertex type.
    pub src: String,
    /// Label of the destination vertex type.
    pub dst: String,
    /// Relationship kind this edge type realises.
    pub kind: RelationshipKind,
}

impl EdgeSchema {
    /// Creates an edge type.
    pub fn new(
        label: impl Into<String>,
        src: impl Into<String>,
        dst: impl Into<String>,
        kind: RelationshipKind,
    ) -> Self {
        Self { label: label.into(), src: src.into(), dst: dst.into(), kind }
    }
}

impl fmt::Display for EdgeSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})-[{}]->({})", self.src, self.label, self.dst)
    }
}

/// A property graph schema: a set of vertex types and edge types.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PropertyGraphSchema {
    /// Schema name (usually derived from the ontology name).
    pub name: String,
    /// Vertex types keyed by label (BTreeMap keeps DDL output deterministic).
    vertices: BTreeMap<String, VertexSchema>,
    /// Edge types in insertion order.
    edges: Vec<EdgeSchema>,
}

impl PropertyGraphSchema {
    /// Creates an empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), vertices: BTreeMap::new(), edges: Vec::new() }
    }

    /// Builds the **direct mapping** (DIR) schema of an ontology: one vertex
    /// type per concept, one edge type per relationship, no merging and no
    /// replication. This is the paper's baseline.
    pub fn direct_from_ontology(ontology: &Ontology) -> Self {
        let mut schema = Self::new(format!("{}-direct", ontology.name()));
        for (cid, concept) in ontology.concepts() {
            let mut vs = VertexSchema::new(concept.name.clone());
            for &pid in ontology.concept_properties(cid) {
                let prop = ontology.property(pid);
                vs.properties.push(PropertySchema::scalar(prop.name.clone(), prop.data_type));
            }
            schema.insert_vertex(vs);
        }
        for (_, rel) in ontology.relationships() {
            schema.add_edge(EdgeSchema::new(
                rel.name.clone(),
                ontology.concept(rel.src).name.clone(),
                ontology.concept(rel.dst).name.clone(),
                rel.kind,
            ));
        }
        schema
    }

    /// Number of vertex types.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edge types.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total number of property types across all vertex types.
    pub fn property_count(&self) -> usize {
        self.vertices.values().map(|v| v.properties.len()).sum()
    }

    /// Inserts (or replaces) a vertex type.
    pub fn insert_vertex(&mut self, vertex: VertexSchema) {
        self.vertices.insert(vertex.label.clone(), vertex);
    }

    /// Removes a vertex type and every edge type referencing it. Returns the
    /// removed vertex type, if any.
    pub fn remove_vertex(&mut self, label: &str) -> Option<VertexSchema> {
        let removed = self.vertices.remove(label);
        if removed.is_some() {
            self.edges.retain(|e| e.src != label && e.dst != label);
        }
        removed
    }

    /// Adds an edge type if an identical one is not already present.
    pub fn add_edge(&mut self, edge: EdgeSchema) {
        if !self.edges.contains(&edge) {
            self.edges.push(edge);
        }
    }

    /// Looks a vertex type up by label.
    pub fn vertex(&self, label: &str) -> Option<&VertexSchema> {
        self.vertices.get(label)
    }

    /// Mutable access to a vertex type.
    pub fn vertex_mut(&mut self, label: &str) -> Option<&mut VertexSchema> {
        self.vertices.get_mut(label)
    }

    /// Iterates vertex types in label order.
    pub fn vertices(&self) -> impl Iterator<Item = &VertexSchema> {
        self.vertices.values()
    }

    /// Iterates edge types in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = &EdgeSchema> {
        self.edges.iter()
    }

    /// Edge types whose source is the given label.
    pub fn edges_from<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a EdgeSchema> + 'a {
        self.edges.iter().filter(move |e| e.src == label)
    }

    /// Finds the vertex type whose `merged_from` list contains the concept.
    pub fn vertex_for_concept(&self, concept: &str) -> Option<&VertexSchema> {
        self.vertices.values().find(|v| v.merged_from.iter().any(|c| c == concept))
    }

    /// Finds an edge type by `(src label, edge label, dst label)`.
    pub fn edge(&self, src: &str, label: &str, dst: &str) -> Option<&EdgeSchema> {
        self.edges.iter().find(|e| e.src == src && e.label == label && e.dst == dst)
    }

    /// True if the schema contains a vertex type with this label.
    pub fn has_vertex(&self, label: &str) -> bool {
        self.vertices.contains_key(label)
    }

    /// Validates referential integrity: every edge endpoint must be a declared
    /// vertex type. Returns the offending edge descriptions.
    pub fn dangling_edges(&self) -> Vec<String> {
        self.edges
            .iter()
            .filter(|e| !self.has_vertex(&e.src) || !self.has_vertex(&e.dst))
            .map(|e| e.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_ontology::catalog;

    #[test]
    fn direct_mapping_mirrors_ontology() {
        let o = catalog::med_mini();
        let s = PropertyGraphSchema::direct_from_ontology(&o);
        assert_eq!(s.vertex_count(), o.concept_count());
        assert_eq!(s.edge_count(), o.relationship_count());
        assert_eq!(s.property_count(), o.property_count());
        assert!(s.dangling_edges().is_empty());
        let drug = s.vertex("Drug").unwrap();
        assert!(drug.has_property("name"));
        assert!(drug.has_property("brand"));
        assert_eq!(drug.merged_from, vec!["Drug".to_string()]);
    }

    #[test]
    fn direct_mapping_of_full_catalogs() {
        for o in [catalog::medical(), catalog::financial()] {
            let s = PropertyGraphSchema::direct_from_ontology(&o);
            assert_eq!(s.vertex_count(), o.concept_count());
            assert_eq!(s.edge_count(), o.relationship_count());
            assert!(s.dangling_edges().is_empty());
        }
    }

    #[test]
    fn upsert_property_replaces_by_name() {
        let mut v = VertexSchema::new("Drug");
        v.upsert_property(PropertySchema::scalar("name", DataType::Str));
        v.upsert_property(PropertySchema::list("name", DataType::Str));
        assert_eq!(v.properties.len(), 1);
        assert!(v.property("name").unwrap().is_list);
    }

    #[test]
    fn property_of_matches_on_origin() {
        let s = PropertyGraphSchema::direct_from_ontology(&catalog::med_mini());
        // A direct mapping's properties have no origin: `(label, name)`.
        let drug = s.vertex("Drug").unwrap();
        assert_eq!(drug.origin_of(drug.property("brand").unwrap()), ("Drug", "brand"));
        assert_eq!(drug.property_of("Drug", "brand").unwrap().name, "brand");
        assert!(drug.property_of("Indication", "brand").is_none());

        // The bare name can belong to another concept, and a LIST replica of
        // a neighbour's values can share the concept's origin: the scalar
        // holding the concept's own value is the one found.
        let origin = |concept: &str| PropertyOrigin::new(concept, "currency");
        let mut bond = VertexSchema::new("Bond");
        bond.properties = vec![
            PropertySchema::list("Instrument.currency", DataType::Str)
                .with_origin(origin("Instrument")),
            PropertySchema::scalar("currency", DataType::Str).with_origin(origin("Account")),
        ];
        assert_eq!(bond.property_of("Account", "currency").unwrap().name, "currency");
        assert!(bond.property_of("Instrument", "currency").unwrap().is_list);
        bond.properties.push(
            PropertySchema::scalar("Instrument.currency.own", DataType::Str)
                .with_origin(origin("Instrument")),
        );
        assert!(!bond.property_of("Instrument", "currency").unwrap().is_list);
        assert_eq!(bond.replica_of("Instrument", "currency").unwrap().name, "Instrument.currency");
        assert!(bond.replica_of("Account", "currency").is_none());
        assert!(bond.property_of("Bond", "currency").is_none());
    }

    #[test]
    fn remove_vertex_drops_incident_edges() {
        let o = catalog::med_mini();
        let mut s = PropertyGraphSchema::direct_from_ontology(&o);
        let before = s.edge_count();
        let removed = s.remove_vertex("Risk").unwrap();
        assert_eq!(removed.label, "Risk");
        assert!(s.edge_count() < before);
        assert!(s.dangling_edges().is_empty());
        assert!(s.remove_vertex("Risk").is_none());
    }

    #[test]
    fn add_edge_is_idempotent() {
        let mut s = PropertyGraphSchema::new("t");
        s.insert_vertex(VertexSchema::new("A"));
        s.insert_vertex(VertexSchema::new("B"));
        let e = EdgeSchema::new("r", "A", "B", RelationshipKind::OneToMany);
        s.add_edge(e.clone());
        s.add_edge(e);
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn vertex_for_concept_follows_merges() {
        let mut s = PropertyGraphSchema::new("t");
        let mut merged = VertexSchema::new("IndicationCondition");
        merged.merged_from = vec!["Indication".into(), "Condition".into()];
        s.insert_vertex(merged);
        assert_eq!(s.vertex_for_concept("Condition").unwrap().label, "IndicationCondition");
        assert!(s.vertex_for_concept("Drug").is_none());
    }

    #[test]
    fn ddl_type_names() {
        assert_eq!(PropertySchema::scalar("x", DataType::Str).ddl_type(), "STRING");
        assert_eq!(PropertySchema::list("x", DataType::Text).ddl_type(), "LIST<TEXT>");
        assert_eq!(PropertySchema::scalar("x", DataType::Double).ddl_type(), "DOUBLE");
    }

    #[test]
    fn property_origin_display() {
        let origin = PropertyOrigin::new("Indication", "desc");
        assert_eq!(origin.to_string(), "Indication.desc");
    }

    #[test]
    fn edge_display() {
        let e = EdgeSchema::new("treat", "Drug", "Indication", RelationshipKind::OneToMany);
        assert_eq!(e.to_string(), "(Drug)-[treat]->(Indication)");
    }

    #[test]
    fn dangling_edges_detected() {
        let mut s = PropertyGraphSchema::new("t");
        s.insert_vertex(VertexSchema::new("A"));
        s.add_edge(EdgeSchema::new("r", "A", "Missing", RelationshipKind::OneToOne));
        assert_eq!(s.dangling_edges().len(), 1);
    }
}

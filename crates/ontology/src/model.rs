//! Core ontology data model.
//!
//! An [`Ontology`] `O(C, R, P)` (Definition 1 of the paper) contains a set of
//! concepts `C`, data properties `P` (each owned by exactly one concept) and
//! relationships `R` between concepts. Relationships carry a
//! [`RelationshipKind`]: the functional kinds `1:1`, `1:M`, `M:N`, plus the
//! semantic kinds `inheritance` (`isA`) and `union` (`unionOf`).
//!
//! The model is deliberately an *arena*: concepts, properties and
//! relationships live in contiguous vectors and refer to each other through
//! the index newtypes in [`crate::ids`]. Adjacency (incoming / outgoing
//! relationships per concept) is precomputed when the ontology is built so
//! that the optimizer's frequent neighbourhood scans are cheap.

use crate::ids::{ConceptId, PropertyId, RelationshipId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Primitive datatype of a data property, together with the byte size used by
/// the cost model (Equation 4/5 of the paper uses `p.type` as a size factor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean flag (1 byte).
    Bool,
    /// 32-bit integer (4 bytes).
    Int,
    /// 64-bit integer (8 bytes).
    Long,
    /// 64-bit IEEE float (8 bytes).
    Double,
    /// Calendar date (8 bytes).
    Date,
    /// Short string such as a name or code (32 bytes on average).
    Str,
    /// Long free-form text such as a description (256 bytes on average).
    Text,
}

impl DataType {
    /// Average size in bytes charged by the space-cost model for one value of
    /// this type.
    pub const fn size_bytes(self) -> u64 {
        match self {
            DataType::Bool => 1,
            DataType::Int => 4,
            DataType::Long | DataType::Double | DataType::Date => 8,
            DataType::Str => 32,
            DataType::Text => 256,
        }
    }

    /// Name used by the DSL and by DDL emission.
    pub const fn keyword(self) -> &'static str {
        match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Long => "long",
            DataType::Double => "double",
            DataType::Date => "date",
            DataType::Str => "string",
            DataType::Text => "text",
        }
    }

    /// Parses a DSL keyword into a datatype.
    pub fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "bool" | "boolean" => DataType::Bool,
            "int" | "integer" => DataType::Int,
            "long" => DataType::Long,
            "double" | "float" => DataType::Double,
            "date" | "datetime" => DataType::Date,
            "string" | "str" => DataType::Str,
            "text" => DataType::Text,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Kind of a relationship between two concepts.
///
/// For `Inheritance` the source is the **parent** concept and the destination
/// the **child**; for `Union` the source is the **union** concept and the
/// destination a **member** concept (matching Algorithms 1 and 2 of the
/// paper, which read `r.src` as the union/parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelationshipKind {
    /// Functional 1:1 relationship.
    OneToOne,
    /// Functional 1:M relationship (one source instance, many destinations).
    OneToMany,
    /// Functional M:N relationship.
    ManyToMany,
    /// `isA` relationship: source is the parent concept, destination the child.
    Inheritance,
    /// `unionOf` relationship: source is the union concept, destination a member.
    Union,
}

impl RelationshipKind {
    /// True for the functional kinds (1:1, 1:M, M:N).
    pub const fn is_functional(self) -> bool {
        matches!(
            self,
            RelationshipKind::OneToOne | RelationshipKind::OneToMany | RelationshipKind::ManyToMany
        )
    }

    /// DSL / display keyword.
    pub const fn keyword(self) -> &'static str {
        match self {
            RelationshipKind::OneToOne => "1:1",
            RelationshipKind::OneToMany => "1:M",
            RelationshipKind::ManyToMany => "M:N",
            RelationshipKind::Inheritance => "inheritance",
            RelationshipKind::Union => "union",
        }
    }

    /// Parses a DSL keyword into a relationship kind.
    pub fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "1:1" | "one-to-one" | "oneToOne" => RelationshipKind::OneToOne,
            "1:M" | "1:m" | "one-to-many" | "oneToMany" => RelationshipKind::OneToMany,
            "M:N" | "m:n" | "N:M" | "many-to-many" | "manyToMany" => RelationshipKind::ManyToMany,
            "inheritance" | "isA" | "isa" => RelationshipKind::Inheritance,
            "union" | "unionOf" => RelationshipKind::Union,
            _ => return None,
        })
    }

    /// All kinds, in a fixed order (useful for iteration in tests and stats).
    pub const ALL: [RelationshipKind; 5] = [
        RelationshipKind::OneToOne,
        RelationshipKind::OneToMany,
        RelationshipKind::ManyToMany,
        RelationshipKind::Inheritance,
        RelationshipKind::Union,
    ];
}

impl fmt::Display for RelationshipKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A data property (OWL `DataProperty`) owned by a single concept.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataProperty {
    /// Property name, unique within its owning concept.
    pub name: String,
    /// Primitive datatype.
    pub data_type: DataType,
    /// Concept owning this property.
    pub owner: ConceptId,
}

/// A concept (OWL class).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Concept {
    /// Concept name, unique within the ontology.
    pub name: String,
    /// Data properties owned by this concept.
    pub properties: Vec<PropertyId>,
}

/// A relationship (OWL `ObjectProperty`, or an `isA` / `unionOf` edge).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relationship {
    /// Relationship name (not necessarily unique: e.g. many `isA` edges).
    pub name: String,
    /// Source concept (`r.src`): domain, parent (isA) or union concept.
    pub src: ConceptId,
    /// Destination concept (`r.dst`): range, child (isA) or member concept.
    pub dst: ConceptId,
    /// Relationship kind.
    pub kind: RelationshipKind,
}

/// An immutable, validated ontology.
///
/// Construct one through [`crate::OntologyBuilder`] or by parsing the DSL via
/// [`crate::dsl::parse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ontology {
    pub(crate) name: String,
    pub(crate) concepts: Vec<Concept>,
    pub(crate) properties: Vec<DataProperty>,
    pub(crate) relationships: Vec<Relationship>,
    /// Outgoing relationship ids per concept (index = ConceptId::index()).
    pub(crate) outgoing: Vec<Vec<RelationshipId>>,
    /// Incoming relationship ids per concept.
    pub(crate) incoming: Vec<Vec<RelationshipId>>,
    /// Name -> id lookup.
    pub(crate) concept_by_name: HashMap<String, ConceptId>,
}

impl Ontology {
    /// Ontology name (e.g. `"medical"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of concepts `|C|`.
    pub fn concept_count(&self) -> usize {
        self.concepts.len()
    }

    /// Number of data properties `|P|`.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// Number of relationships `|R|`.
    pub fn relationship_count(&self) -> usize {
        self.relationships.len()
    }

    /// Iterates over all concept ids.
    pub fn concept_ids(&self) -> impl Iterator<Item = ConceptId> + '_ {
        (0..self.concepts.len() as u32).map(ConceptId::new)
    }

    /// Iterates over all relationship ids.
    pub fn relationship_ids(&self) -> impl Iterator<Item = RelationshipId> + '_ {
        (0..self.relationships.len() as u32).map(RelationshipId::new)
    }

    /// Returns a concept by id.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this ontology.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// Returns a data property by id.
    pub fn property(&self, id: PropertyId) -> &DataProperty {
        &self.properties[id.index()]
    }

    /// Returns a relationship by id.
    pub fn relationship(&self, id: RelationshipId) -> &Relationship {
        &self.relationships[id.index()]
    }

    /// Looks a concept up by name.
    pub fn concept_by_name(&self, name: &str) -> Option<ConceptId> {
        self.concept_by_name.get(name).copied()
    }

    /// Looks a property up by `(concept, property-name)`.
    pub fn property_by_name(&self, concept: ConceptId, name: &str) -> Option<PropertyId> {
        self.concepts[concept.index()]
            .properties
            .iter()
            .copied()
            .find(|&p| self.properties[p.index()].name == name)
    }

    /// Outgoing relationships (`c.outE`) of a concept.
    pub fn outgoing(&self, id: ConceptId) -> &[RelationshipId] {
        &self.outgoing[id.index()]
    }

    /// Incoming relationships (`c.inE`) of a concept.
    pub fn incoming(&self, id: ConceptId) -> &[RelationshipId] {
        &self.incoming[id.index()]
    }

    /// All relationships touching a concept (`c.R = c.inE ∪ c.outE`).
    pub fn relationships_of(&self, id: ConceptId) -> Vec<RelationshipId> {
        let mut all = self.outgoing[id.index()].clone();
        all.extend_from_slice(&self.incoming[id.index()]);
        all
    }

    /// Iterator over `(id, concept)` pairs.
    pub fn concepts(&self) -> impl Iterator<Item = (ConceptId, &Concept)> {
        self.concepts.iter().enumerate().map(|(i, c)| (ConceptId::new(i as u32), c))
    }

    /// Iterator over `(id, property)` pairs.
    pub fn properties(&self) -> impl Iterator<Item = (PropertyId, &DataProperty)> {
        self.properties.iter().enumerate().map(|(i, p)| (PropertyId::new(i as u32), p))
    }

    /// Iterator over `(id, relationship)` pairs.
    pub fn relationships(&self) -> impl Iterator<Item = (RelationshipId, &Relationship)> {
        self.relationships.iter().enumerate().map(|(i, r)| (RelationshipId::new(i as u32), r))
    }

    /// Relationships of a given kind.
    pub fn relationships_of_kind(
        &self,
        kind: RelationshipKind,
    ) -> impl Iterator<Item = (RelationshipId, &Relationship)> {
        self.relationships().filter(move |(_, r)| r.kind == kind)
    }

    /// Number of relationships of each kind, keyed by kind.
    pub fn relationship_kind_counts(&self) -> HashMap<RelationshipKind, usize> {
        let mut counts = HashMap::new();
        for r in &self.relationships {
            *counts.entry(r.kind).or_insert(0) += 1;
        }
        counts
    }

    /// Data property ids of a concept (`c.P`).
    pub fn concept_properties(&self, id: ConceptId) -> &[PropertyId] {
        &self.concepts[id.index()].properties
    }

    /// Property names of a concept, in declaration order.
    pub fn concept_property_names(&self, id: ConceptId) -> Vec<&str> {
        self.concepts[id.index()]
            .properties
            .iter()
            .map(|&p| self.properties[p.index()].name.as_str())
            .collect()
    }

    /// Total byte size of one instance's data properties for a concept
    /// (`Σ p.type` over `c.P`), used by `Size(c)` in Equation 2.
    pub fn concept_row_size(&self, id: ConceptId) -> u64 {
        self.concepts[id.index()]
            .properties
            .iter()
            .map(|&p| self.properties[p.index()].data_type.size_bytes())
            .sum()
    }

    /// Children of a concept via `isA` edges (concept is the parent / src).
    pub fn children(&self, id: ConceptId) -> Vec<ConceptId> {
        self.outgoing[id.index()]
            .iter()
            .filter(|&&r| self.relationships[r.index()].kind == RelationshipKind::Inheritance)
            .map(|&r| self.relationships[r.index()].dst)
            .collect()
    }

    /// Parents of a concept via `isA` edges (concept is the child / dst).
    pub fn parents(&self, id: ConceptId) -> Vec<ConceptId> {
        self.incoming[id.index()]
            .iter()
            .filter(|&&r| self.relationships[r.index()].kind == RelationshipKind::Inheritance)
            .map(|&r| self.relationships[r.index()].src)
            .collect()
    }

    /// Member concepts of a union concept.
    pub fn union_members(&self, id: ConceptId) -> Vec<ConceptId> {
        self.outgoing[id.index()]
            .iter()
            .filter(|&&r| self.relationships[r.index()].kind == RelationshipKind::Union)
            .map(|&r| self.relationships[r.index()].dst)
            .collect()
    }

    /// True if the concept is the source of at least one `unionOf` edge.
    pub fn is_union_concept(&self, id: ConceptId) -> bool {
        !self.union_members(id).is_empty()
    }

    /// A compact single-line summary, e.g. `medical: 43 concepts, 78 properties, 58 relationships`.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} concepts, {} properties, {} relationships",
            self.name,
            self.concepts.len(),
            self.properties.len(),
            self.relationships.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OntologyBuilder;

    fn tiny() -> Ontology {
        let mut b = OntologyBuilder::new("tiny");
        let drug = b.add_concept("Drug");
        b.add_property(drug, "name", DataType::Str);
        b.add_property(drug, "brand", DataType::Str);
        let ind = b.add_concept("Indication");
        b.add_property(ind, "desc", DataType::Text);
        let cond = b.add_concept("Condition");
        b.add_property(cond, "name", DataType::Str);
        b.add_relationship("treat", drug, ind, RelationshipKind::OneToMany);
        b.add_relationship("has", ind, cond, RelationshipKind::OneToOne);
        b.build().unwrap()
    }

    #[test]
    fn datatype_sizes_are_monotone() {
        assert!(DataType::Bool.size_bytes() < DataType::Int.size_bytes());
        assert!(DataType::Int.size_bytes() < DataType::Str.size_bytes());
        assert!(DataType::Str.size_bytes() < DataType::Text.size_bytes());
    }

    #[test]
    fn datatype_keyword_roundtrip() {
        for dt in [
            DataType::Bool,
            DataType::Int,
            DataType::Long,
            DataType::Double,
            DataType::Date,
            DataType::Str,
            DataType::Text,
        ] {
            assert_eq!(DataType::from_keyword(dt.keyword()), Some(dt));
        }
        assert_eq!(DataType::from_keyword("blob"), None);
    }

    #[test]
    fn relationship_kind_keyword_roundtrip() {
        for kind in RelationshipKind::ALL {
            assert_eq!(RelationshipKind::from_keyword(kind.keyword()), Some(kind));
        }
        assert_eq!(RelationshipKind::from_keyword("friendOf"), None);
        assert!(RelationshipKind::OneToMany.is_functional());
        assert!(!RelationshipKind::Union.is_functional());
    }

    #[test]
    fn accessors_expose_structure() {
        let o = tiny();
        assert_eq!(o.concept_count(), 3);
        assert_eq!(o.property_count(), 4);
        assert_eq!(o.relationship_count(), 2);

        let drug = o.concept_by_name("Drug").unwrap();
        let ind = o.concept_by_name("Indication").unwrap();
        assert_eq!(o.concept(drug).name, "Drug");
        assert_eq!(o.concept_property_names(drug), vec!["name", "brand"]);
        assert_eq!(o.outgoing(drug).len(), 1);
        assert_eq!(o.incoming(ind).len(), 1);
        assert_eq!(o.relationships_of(ind).len(), 2);

        let treat = o.outgoing(drug)[0];
        assert_eq!(o.relationship(treat).kind, RelationshipKind::OneToMany);
        assert_eq!(o.relationship(treat).dst, ind);
    }

    #[test]
    fn row_size_sums_property_sizes() {
        let o = tiny();
        let drug = o.concept_by_name("Drug").unwrap();
        assert_eq!(o.concept_row_size(drug), 64); // two Str properties
        let ind = o.concept_by_name("Indication").unwrap();
        assert_eq!(o.concept_row_size(ind), 256); // one Text property
    }

    #[test]
    fn property_lookup_by_name() {
        let o = tiny();
        let drug = o.concept_by_name("Drug").unwrap();
        let p = o.property_by_name(drug, "brand").unwrap();
        assert_eq!(o.property(p).data_type, DataType::Str);
        assert!(o.property_by_name(drug, "missing").is_none());
    }

    #[test]
    fn kind_counts() {
        let o = tiny();
        let counts = o.relationship_kind_counts();
        assert_eq!(counts.get(&RelationshipKind::OneToMany), Some(&1));
        assert_eq!(counts.get(&RelationshipKind::OneToOne), Some(&1));
        assert_eq!(counts.get(&RelationshipKind::Union), None);
    }

    #[test]
    fn summary_mentions_counts() {
        let o = tiny();
        assert_eq!(o.summary(), "tiny: 3 concepts, 4 properties, 2 relationships");
    }
}

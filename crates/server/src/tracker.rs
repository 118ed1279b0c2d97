//! Online workload tracking.
//!
//! The paper's access frequencies (§4.2) are an *input* to the optimizer; in
//! a serving system they are an *observation*. [`WorkloadTracker`] turns the
//! stream of served DIR queries into exactly the summary the optimizer
//! consumes: per-concept counts (node patterns), per-relationship counts
//! (edge patterns) and per-`(relationship, destination property)` counts
//! (return clauses reached through an edge — the paper's
//! `AF(ci --rk--> cj.Pj)`).
//!
//! Recording sits on the serving hot path, so it is split in two:
//! [`WorkloadTracker::resolve`] turns a statement's labels into ontology ids
//! once (the server keeps the [`TrackedAccess`] beside the statement's
//! cached plan), and [`WorkloadTracker::record`] only increments — concept
//! and relationship counts are plain relaxed atomics indexed by the dense
//! ids, and the sparser property counts share one mutex, taken once per
//! query only when the query actually reaches a property through an edge.

use parking_lot::Mutex;
use pgso_graphstore::codec::{put_count, put_f64, put_len16, put_u16, put_u32, put_u64, Reader};
use pgso_graphstore::GraphBackend;
use pgso_ontology::{AccessFrequencies, ConceptId, Ontology, PropertyId, RelationshipId};
use pgso_query::{EdgePattern, Statement};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time copy of everything the tracker has observed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSnapshot {
    /// Queries recorded in total.
    pub total_queries: u64,
    /// Per-concept access counts, indexed like [`ConceptId::index`].
    pub concept_counts: Vec<u64>,
    /// Per-relationship traversal counts, indexed like
    /// [`RelationshipId::index`].
    pub relationship_counts: Vec<u64>,
    /// Per-`(relationship, destination property)` access counts.
    pub property_counts: HashMap<(RelationshipId, PropertyId), u64>,
}

/// Binary format version of [`WorkloadSnapshot::to_bytes`] and
/// [`frequencies_to_bytes`].
pub const WORKLOAD_SNAPSHOT_VERSION: u16 = 1;

fn decode_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt tracker snapshot: {what}"))
}

impl WorkloadSnapshot {
    /// Serializes the counters into a versioned, self-contained byte blob —
    /// the payload the persistence layer stores in snapshot files and WAL
    /// tracker checkpoints.
    ///
    /// Layout, in the [`pgso_graphstore::codec`] grammar: `u16 version, u64
    /// total, count + u64 per concept, count + u64 per relationship, count +
    /// (u32 relationship, u32 property, u64 count) per property entry`,
    /// property entries sorted by key for deterministic output.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            16 + 8 * (self.concept_counts.len() + self.relationship_counts.len())
                + 16 * self.property_counts.len(),
        );
        put_u16(&mut buf, WORKLOAD_SNAPSHOT_VERSION);
        put_u64(&mut buf, self.total_queries);
        for counts in [&self.concept_counts, &self.relationship_counts] {
            put_count(&mut buf, counts.len());
            counts.iter().for_each(|&count| put_u64(&mut buf, count));
        }
        let mut entries: Vec<(&(RelationshipId, PropertyId), &u64)> =
            self.property_counts.iter().collect();
        entries.sort_by_key(|(key, _)| **key);
        put_count(&mut buf, entries.len());
        for (&(rid, pid), &count) in entries {
            put_u32(&mut buf, rid.index() as u32);
            put_u32(&mut buf, pid.index() as u32);
            put_u64(&mut buf, count);
        }
        buf
    }

    /// Decodes a blob produced by [`WorkloadSnapshot::to_bytes`].
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] on a version mismatch or a malformed
    /// buffer; counters are never silently truncated, and a count the blob
    /// cannot hold is refused before anything is allocated for it.
    pub fn from_bytes(data: &[u8]) -> io::Result<Self> {
        let mut r = Reader::new(data);
        if r.u16()? != WORKLOAD_SNAPSHOT_VERSION {
            return Err(decode_err("unsupported version"));
        }
        let total_queries = r.u64()?;
        let mut counts = || -> io::Result<Vec<u64>> {
            let count = r.count(8)?;
            (0..count).map(|_| Ok(r.u64()?)).collect()
        };
        let concept_counts = counts()?;
        let relationship_counts = counts()?;
        let entries = r.count(16)?;
        let mut property_counts = HashMap::with_capacity(entries);
        for _ in 0..entries {
            let key = (RelationshipId::new(r.u32()?), PropertyId::new(r.u32()?));
            property_counts.insert(key, r.u64()?);
        }
        r.finish()?;
        Ok(Self { total_queries, concept_counts, relationship_counts, property_counts })
    }
}

/// What one serve of a statement counts, resolved against the ontology by
/// [`WorkloadTracker::resolve`]: a concept per node pattern, a relationship
/// per edge pattern and a `(relationship, property)` pair per property
/// reached through an edge, each as often as the statement names it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackedAccess {
    concepts: Vec<ConceptId>,
    relationships: Vec<RelationshipId>,
    properties: Vec<(RelationshipId, PropertyId)>,
}

/// Accumulates access frequencies from served queries. Labels and property
/// names resolve through the [`Ontology`] the tracker was built for, which
/// every resolving call takes.
pub struct WorkloadTracker {
    concepts: Vec<AtomicU64>,
    relationships: Vec<AtomicU64>,
    properties: Mutex<HashMap<(RelationshipId, PropertyId), u64>>,
    total: AtomicU64,
}

impl WorkloadTracker {
    /// Builds a tracker with one counter per concept and relationship of
    /// `ontology`.
    pub fn new(ontology: &Ontology) -> Self {
        Self {
            concepts: (0..ontology.concept_count()).map(|_| AtomicU64::new(0)).collect(),
            relationships: (0..ontology.relationship_count()).map(|_| AtomicU64::new(0)).collect(),
            properties: Mutex::new(HashMap::new()),
            total: AtomicU64::new(0),
        }
    }

    /// Records one served DIR statement: [`WorkloadTracker::record`] of its
    /// [`WorkloadTracker::resolve`].
    pub fn record_statement(&self, ontology: &Ontology, stmt: &Statement) {
        self.record(&self.resolve(ontology, stmt));
    }

    /// Resolves what serving `stmt` counts, once per statement rather than
    /// per serve. `OPTIONAL MATCH` nodes and edges count like mandatory ones
    /// (the backend traverses them either way), and `WHERE` predicates count
    /// as property accesses, so the observed frequencies keep reflecting
    /// what the storage layer actually pays for. An edge label resolves to
    /// the relationship of that name between the endpoints' concepts, or to
    /// the first of that name when the endpoints do not resolve.
    pub fn resolve(&self, ontology: &Ontology, stmt: &Statement) -> TrackedAccess {
        let concept_of = |var: &str| -> Option<ConceptId> {
            stmt.any_node(var).and_then(|n| ontology.concept_by_name(&n.label))
        };
        let nodes = stmt.nodes.iter().chain(&stmt.opt_nodes);
        let concepts = nodes.filter_map(|node| ontology.concept_by_name(&node.label));
        let relationship_of = |e: &EdgePattern| {
            let (src, dst) = (concept_of(&e.src), concept_of(&e.dst));
            let named = || ontology.relationships().filter(|(_, r)| r.name == e.label);
            let exact = named().find(|(_, r)| Some(r.src) == src && Some(r.dst) == dst);
            exact.or_else(|| named().next()).map(|(rid, _)| rid)
        };
        let edges: Vec<(&EdgePattern, Option<RelationshipId>)> =
            stmt.edges.iter().chain(&stmt.opt_edges).map(|e| (e, relationship_of(e))).collect();
        // Property accesses reached through a relationship: `var.property`
        // (from the RETURN clause or a WHERE predicate) where some pattern
        // edge ends in `var`.
        let return_accesses =
            stmt.returns.iter().filter_map(|item| Some((item.var(), item.property()?)));
        let predicate_accesses =
            stmt.predicates.iter().map(|p| (p.var.as_str(), p.property.as_str()));
        let mut properties = Vec::new();
        for (var, property) in return_accesses.chain(predicate_accesses) {
            let Some(cid) = concept_of(var) else { continue };
            let Some(pid) = ontology.property_by_name(cid, property) else { continue };
            let reaching = edges.iter().filter(|(edge, _)| edge.dst == var);
            properties.extend(reaching.filter_map(|&(_, rid)| Some((rid?, pid))));
        }
        TrackedAccess {
            concepts: concepts.collect(),
            relationships: edges.iter().filter_map(|&(_, rid)| rid).collect(),
            properties,
        }
    }

    /// Counts one serve of a statement resolved by
    /// [`WorkloadTracker::resolve`]: relaxed atomic increments, and the
    /// property mutex only when the statement reaches a property.
    pub fn record(&self, access: &TrackedAccess) {
        self.total.fetch_add(1, Ordering::Relaxed);
        for cid in &access.concepts {
            self.concepts[cid.index()].fetch_add(1, Ordering::Relaxed);
        }
        for rid in &access.relationships {
            self.relationships[rid.index()].fetch_add(1, Ordering::Relaxed);
        }
        if !access.properties.is_empty() {
            let mut properties = self.properties.lock();
            for &key in &access.properties {
                *properties.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// Number of queries recorded.
    pub fn total_queries(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Copies out the current counts.
    pub fn snapshot(&self) -> WorkloadSnapshot {
        WorkloadSnapshot {
            total_queries: self.total_queries(),
            concept_counts: self.concepts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            relationship_counts: self
                .relationships
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            property_counts: self.properties.lock().clone(),
        }
    }

    /// Normalized L1 drift in `[0, 1]` between the observed per-concept
    /// distribution and `baseline`'s (the frequencies the served schema was
    /// optimized for). `0` = identical mix, `1` = disjoint mix. Returns `0`
    /// until at least one query was recorded.
    pub fn drift(&self, baseline: &AccessFrequencies) -> f64 {
        let snapshot = self.snapshot();
        if snapshot.total_queries == 0 {
            return 0.0;
        }
        let observed_total: f64 =
            snapshot.concept_counts.iter().map(|&c| c as f64).sum::<f64>().max(1.0);
        let baseline_total: f64 = (0..snapshot.concept_counts.len())
            .map(|i| baseline.concept(ConceptId::new(i as u32)))
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        let mut l1 = 0.0;
        for (i, &count) in snapshot.concept_counts.iter().enumerate() {
            let p = count as f64 / observed_total;
            let q = baseline.concept(ConceptId::new(i as u32)) / baseline_total;
            l1 += (p - q).abs();
        }
        (l1 / 2.0).clamp(0.0, 1.0)
    }

    /// Converts the observed counts into the optimizer's
    /// [`AccessFrequencies`], normalized to `total_queries` logical queries.
    ///
    /// Counts are scaled so their sum matches `total_queries`; concepts,
    /// relationships and properties that were never observed get a small
    /// floor (0.1% of the mean) instead of zero, so the cost model never
    /// divides a dead concept out entirely and a future trickle of queries
    /// can still resurrect it.
    pub fn to_frequencies(&self, ontology: &Ontology, total_queries: f64) -> AccessFrequencies {
        self.frequencies_from(&self.snapshot(), ontology, total_queries)
    }

    /// Pure form of [`WorkloadTracker::to_frequencies`] over an explicit
    /// snapshot, so a caller can convert and later [`rebase`] on exactly the
    /// same counts without racing concurrent recorders.
    ///
    /// [`rebase`]: WorkloadTracker::rebase
    pub fn frequencies_from(
        &self,
        snapshot: &WorkloadSnapshot,
        ontology: &Ontology,
        total_queries: f64,
    ) -> AccessFrequencies {
        let mut af = AccessFrequencies::uniform(ontology, total_queries);
        let observed: f64 = snapshot.concept_counts.iter().map(|&c| c as f64).sum();
        let scale = if observed > 0.0 { total_queries / observed } else { 0.0 };
        let floor = (total_queries / ontology.concept_count().max(1) as f64) * 1e-3;
        for cid in ontology.concept_ids() {
            let count = snapshot.concept_counts[cid.index()] as f64;
            af.set_concept(cid, (count * scale).max(floor));
        }
        let rel_observed: f64 = snapshot.relationship_counts.iter().map(|&c| c as f64).sum();
        let rel_scale = if rel_observed > 0.0 { total_queries / rel_observed } else { 0.0 };
        for (rid, rel) in ontology.relationships() {
            let count = snapshot.relationship_counts[rid.index()] as f64;
            let rel_af = (count * rel_scale).max(floor);
            af.set_relationship(rid, rel_af);
            // Split the relationship's frequency over the destination
            // properties proportionally to the observed property accesses,
            // mirroring AccessFrequencies::generate's uniform split.
            let dst_props = ontology.concept_properties(rel.dst);
            if dst_props.is_empty() {
                continue;
            }
            let prop_total: u64 = dst_props
                .iter()
                .map(|&pid| snapshot.property_counts.get(&(rid, pid)).copied().unwrap_or(0))
                .sum();
            for &pid in dst_props {
                let share = if prop_total > 0 {
                    let count = snapshot.property_counts.get(&(rid, pid)).copied().unwrap_or(0);
                    rel_af * count as f64 / prop_total as f64
                } else {
                    rel_af / dst_props.len() as f64
                };
                af.set_property(rid, pid, share);
            }
        }
        af
    }

    /// Estimated average out-fan-out of every relationship the tracker has
    /// seen traversed, measured against `backend`'s current instance graph.
    ///
    /// For each relationship with a non-zero traversal count, up to
    /// `sample_size` vertices of the source concept's label are probed with
    /// the *uncharged* [`GraphBackend::out_degree`] accessor — no neighbour
    /// `Vec` is materialised and no edge traversals are counted, so calling
    /// this between experiments does not disturb the access statistics.
    /// The result maps relationship → mean out-degree and feeds fan-out-aware
    /// cost decisions (e.g. how much a 1:M shortcut would save).
    pub fn estimated_fanouts(
        &self,
        ontology: &Ontology,
        backend: &dyn GraphBackend,
        sample_size: usize,
    ) -> Vec<(RelationshipId, f64)> {
        let snapshot = self.snapshot();
        let mut fanouts = Vec::new();
        for (rid, rel) in ontology.relationships() {
            if snapshot.relationship_counts[rid.index()] == 0 {
                continue;
            }
            let src_label = &ontology.concept(rel.src).name;
            let vertices = backend.vertices_with_label(src_label);
            if vertices.is_empty() {
                continue;
            }
            let sample: Vec<_> = vertices.iter().take(sample_size.max(1)).collect();
            let total: usize = sample.iter().map(|&&v| backend.out_degree(v, &rel.name)).sum();
            fanouts.push((rid, total as f64 / sample.len() as f64));
        }
        fanouts
    }

    /// Zeroes every counter (called after the observed workload has been
    /// promoted to the new optimization baseline).
    pub fn reset(&self) {
        for c in &self.concepts {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.relationships {
            c.store(0, Ordering::Relaxed);
        }
        self.properties.lock().clear();
        self.total.store(0, Ordering::Relaxed);
    }

    /// Subtracts a previously taken `snapshot` from the live counters.
    ///
    /// Unlike [`WorkloadTracker::reset`], queries recorded by concurrent
    /// serving threads *after* the snapshot survive: they carry over into the
    /// next observation window instead of being silently discarded while a
    /// re-optimization is in flight.
    pub fn rebase(&self, snapshot: &WorkloadSnapshot) {
        for (c, &taken) in self.concepts.iter().zip(&snapshot.concept_counts) {
            c.fetch_sub(taken, Ordering::Relaxed);
        }
        for (c, &taken) in self.relationships.iter().zip(&snapshot.relationship_counts) {
            c.fetch_sub(taken, Ordering::Relaxed);
        }
        {
            let mut properties = self.properties.lock();
            for (key, &taken) in &snapshot.property_counts {
                if let Some(count) = properties.get_mut(key) {
                    *count = count.saturating_sub(taken);
                    if *count == 0 {
                        properties.remove(key);
                    }
                }
            }
        }
        self.total.fetch_sub(snapshot.total_queries, Ordering::Relaxed);
    }

    /// Overwrites every counter with a previously taken snapshot — the
    /// recovery path: a restarted server resumes from the persisted counters
    /// instead of observing from zero.
    ///
    /// # Panics
    /// Panics when the snapshot's dimensions do not match the ontology this
    /// tracker was built for (restoring counters against the wrong catalog
    /// would silently attribute frequencies to the wrong concepts).
    pub fn restore(&self, snapshot: &WorkloadSnapshot) {
        assert_eq!(
            snapshot.concept_counts.len(),
            self.concepts.len(),
            "tracker snapshot concept dimension mismatch"
        );
        assert_eq!(
            snapshot.relationship_counts.len(),
            self.relationships.len(),
            "tracker snapshot relationship dimension mismatch"
        );
        for (counter, &count) in self.concepts.iter().zip(&snapshot.concept_counts) {
            counter.store(count, Ordering::Relaxed);
        }
        for (counter, &count) in self.relationships.iter().zip(&snapshot.relationship_counts) {
            counter.store(count, Ordering::Relaxed);
        }
        *self.properties.lock() = snapshot.property_counts.clone();
        self.total.store(snapshot.total_queries, Ordering::Relaxed);
    }
}

/// Serializes [`AccessFrequencies`] relative to an ontology (concepts and
/// relationships in id order, then every `(relationship, destination
/// property)` pair), for the snapshot `baseline` blob. Decoding requires the
/// same catalog.
///
/// Layout: `u16 version, u32 nconcepts + f64 each, u32 nrelationships +
/// (f64, u16 nprops + f64 each) each`.
pub fn frequencies_to_bytes(ontology: &Ontology, frequencies: &AccessFrequencies) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u16(&mut buf, WORKLOAD_SNAPSHOT_VERSION);
    put_count(&mut buf, ontology.concept_count());
    for cid in ontology.concept_ids() {
        put_f64(&mut buf, frequencies.concept(cid));
    }
    put_count(&mut buf, ontology.relationship_count());
    for (rid, rel) in ontology.relationships() {
        put_f64(&mut buf, frequencies.relationship(rid));
        let dst_props = ontology.concept_properties(rel.dst);
        put_len16(&mut buf, dst_props.len());
        for &pid in dst_props {
            put_f64(&mut buf, frequencies.property(rid, pid));
        }
    }
    buf
}

/// Decodes a blob produced by [`frequencies_to_bytes`] against the same
/// ontology.
pub fn frequencies_from_bytes(ontology: &Ontology, data: &[u8]) -> io::Result<AccessFrequencies> {
    let dim = |got: usize, expected: usize, what: &str| {
        if got == expected {
            Ok(())
        } else {
            Err(decode_err(what))
        }
    };
    let mut r = Reader::new(data);
    dim(r.u16()?.into(), WORKLOAD_SNAPSHOT_VERSION.into(), "unsupported version")?;
    let mut frequencies = AccessFrequencies::uniform(ontology, 0.0);
    dim(r.u32()? as usize, ontology.concept_count(), "concept dimension mismatch")?;
    for cid in ontology.concept_ids() {
        frequencies.set_concept(cid, r.f64()?);
    }
    dim(r.u32()? as usize, ontology.relationship_count(), "relationship dimension mismatch")?;
    for (rid, rel) in ontology.relationships() {
        frequencies.set_relationship(rid, r.f64()?);
        let dst_props = ontology.concept_properties(rel.dst);
        dim(r.u16()?.into(), dst_props.len(), "property dimension mismatch")?;
        for &pid in dst_props {
            frequencies.set_property(rid, pid, r.f64()?);
        }
    }
    r.finish()?;
    Ok(frequencies)
}

impl std::fmt::Debug for WorkloadTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadTracker").field("total_queries", &self.total_queries()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_ontology::catalog;
    use pgso_query::{Aggregate, ReturnItem};

    fn treat_query() -> Statement {
        Statement::builder("q")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .build()
    }

    #[test]
    fn records_concepts_relationships_and_properties() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        tracker.record_statement(&o, &treat_query());
        tracker.record_statement(&o, &treat_query());
        let snap = tracker.snapshot();
        assert_eq!(snap.total_queries, 2);
        let drug = o.concept_by_name("Drug").unwrap();
        let indication = o.concept_by_name("Indication").unwrap();
        assert_eq!(snap.concept_counts[drug.index()], 2);
        assert_eq!(snap.concept_counts[indication.index()], 2);
        let (treat, rel) = o.relationships().find(|(_, r)| r.name == "treat").unwrap();
        assert_eq!(snap.relationship_counts[treat.index()], 2);
        let desc = o.property_by_name(rel.dst, "desc").unwrap();
        assert_eq!(snap.property_counts.get(&(treat, desc)), Some(&2));
    }

    #[test]
    fn aggregate_returns_count_as_property_accesses() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        let q = Statement::builder("q9")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        tracker.record_statement(&o, &q);
        let (treat, rel) = o.relationships().find(|(_, r)| r.name == "treat").unwrap();
        let desc = o.property_by_name(rel.dst, "desc").unwrap();
        assert_eq!(tracker.snapshot().property_counts.get(&(treat, desc)), Some(&1));
    }

    #[test]
    fn statements_record_optional_parts_and_predicates() {
        use pgso_query::CmpOp;
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        let stmt = Statement::builder("s")
            .node("d", "Drug")
            .ret_property("d", "name")
            .opt_node("i", "Indication")
            .opt_edge("d", "treat", "i")
            .filter("i", "desc", CmpOp::Contains, "Fever")
            .build();
        tracker.record_statement(&o, &stmt);
        let snap = tracker.snapshot();
        let drug = o.concept_by_name("Drug").unwrap();
        let indication = o.concept_by_name("Indication").unwrap();
        assert_eq!(snap.concept_counts[drug.index()], 1);
        assert_eq!(snap.concept_counts[indication.index()], 1, "optional node counts");
        let (treat, rel) = o.relationships().find(|(_, r)| r.name == "treat").unwrap();
        assert_eq!(snap.relationship_counts[treat.index()], 1, "optional edge counts");
        let desc = o.property_by_name(rel.dst, "desc").unwrap();
        assert_eq!(
            snap.property_counts.get(&(treat, desc)),
            Some(&1),
            "predicate counts as a property access"
        );
    }

    #[test]
    fn unknown_labels_are_ignored() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        let q =
            Statement::builder("q").node("x", "NoSuchConcept").ret_property("x", "nope").build();
        tracker.record_statement(&o, &q);
        let snap = tracker.snapshot();
        assert_eq!(snap.total_queries, 1);
        assert!(snap.concept_counts.iter().all(|&c| c == 0));
        assert!(snap.property_counts.is_empty());
    }

    #[test]
    fn drift_is_zero_for_matching_mix_and_grows_with_skew() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        let uniform = AccessFrequencies::uniform(&o, 1_000.0);
        assert_eq!(tracker.drift(&uniform), 0.0, "no observations yet");
        // Hit every concept once: perfectly uniform mix.
        for (_, concept) in o.concepts() {
            let q = Statement::builder("q").node("x", concept.name.clone()).ret_vertex("x").build();
            tracker.record_statement(&o, &q);
        }
        assert!(tracker.drift(&uniform) < 1e-9);
        // Now hammer a single concept; drift must rise.
        for _ in 0..200 {
            let q = Statement::builder("q").node("d", "Drug").ret_vertex("d").build();
            tracker.record_statement(&o, &q);
        }
        assert!(tracker.drift(&uniform) > 0.5, "drift {}", tracker.drift(&uniform));
    }

    #[test]
    fn to_frequencies_scales_to_requested_total() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        for _ in 0..10 {
            tracker.record_statement(&o, &treat_query());
        }
        let af = tracker.to_frequencies(&o, 10_000.0);
        let total: f64 = o.concept_ids().map(|c| af.concept(c)).sum();
        assert!((total - 10_000.0).abs() / 10_000.0 < 0.01, "total {total}");
        let drug = o.concept_by_name("Drug").unwrap();
        let risk = o.concept_by_name("Risk").unwrap();
        assert!(af.concept(drug) > af.concept(risk) * 100.0);
        // Observed property keeps the whole relationship share.
        let (treat, rel) = o.relationships().find(|(_, r)| r.name == "treat").unwrap();
        let desc = o.property_by_name(rel.dst, "desc").unwrap();
        assert!((af.property(treat, desc) - af.relationship(treat)).abs() < 1e-9);
    }

    #[test]
    fn rebase_keeps_counts_recorded_after_the_snapshot() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        for _ in 0..5 {
            tracker.record_statement(&o, &treat_query());
        }
        let snapshot = tracker.snapshot();
        // Two more queries arrive while "re-optimization" is in flight.
        tracker.record_statement(&o, &treat_query());
        tracker.record_statement(&o, &treat_query());
        tracker.rebase(&snapshot);
        let after = tracker.snapshot();
        assert_eq!(after.total_queries, 2, "post-snapshot queries must survive");
        let drug = o.concept_by_name("Drug").unwrap();
        assert_eq!(after.concept_counts[drug.index()], 2);
        let (treat, rel) = o.relationships().find(|(_, r)| r.name == "treat").unwrap();
        assert_eq!(after.relationship_counts[treat.index()], 2);
        let desc = o.property_by_name(rel.dst, "desc").unwrap();
        assert_eq!(after.property_counts.get(&(treat, desc)), Some(&2));
    }

    #[test]
    fn estimated_fanouts_probe_without_charging_stats() {
        use pgso_graphstore::{props, MemoryGraph};
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        // Two drugs: one treating two indications, one treating none.
        let mut g = MemoryGraph::new();
        let d1 = g.add_vertex("Drug", props([("name", "Aspirin".into())]));
        let d2 = g.add_vertex("Drug", props([("name", "Placebo".into())]));
        let i1 = g.add_vertex("Indication", props([("desc", "Fever".into())]));
        let i2 = g.add_vertex("Indication", props([("desc", "Headache".into())]));
        g.add_edge("treat", d1, i1);
        g.add_edge("treat", d1, i2);
        let _ = d2;
        // Nothing recorded yet: no relationship qualifies.
        assert!(tracker.estimated_fanouts(&o, &g, 8).is_empty());
        tracker.record_statement(&o, &treat_query());
        g.reset_stats();
        let fanouts = tracker.estimated_fanouts(&o, &g, 8);
        let (treat, _) = o.relationships().find(|(_, r)| r.name == "treat").unwrap();
        let (_, mean) = fanouts.iter().find(|(rid, _)| *rid == treat).expect("treat estimated");
        assert!((mean - 1.0).abs() < 1e-9, "mean of degrees 2 and 0 is 1, got {mean}");
        assert_eq!(g.stats().edge_traversals, 0, "estimation must not charge traversals");
    }

    #[test]
    fn snapshot_bytes_roundtrip_and_restore() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        for _ in 0..7 {
            tracker.record_statement(&o, &treat_query());
        }
        let snapshot = tracker.snapshot();
        let bytes = snapshot.to_bytes();
        assert_eq!(bytes, snapshot.to_bytes(), "encoding is deterministic");
        let decoded = WorkloadSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);

        // A fresh tracker restored from the blob reports identical counts
        // and identical derived frequencies.
        let restored = WorkloadTracker::new(&o);
        restored.restore(&decoded);
        assert_eq!(restored.snapshot(), snapshot);
        let a = tracker.to_frequencies(&o, 10_000.0);
        let b = restored.to_frequencies(&o, 10_000.0);
        for cid in o.concept_ids() {
            assert_eq!(a.concept(cid).to_bits(), b.concept(cid).to_bits());
        }
    }

    #[test]
    fn snapshot_bytes_reject_corruption() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        tracker.record_statement(&o, &treat_query());
        let bytes = tracker.snapshot().to_bytes();
        assert!(WorkloadSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err(), "short");
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(WorkloadSnapshot::from_bytes(&extended).is_err(), "trailing bytes");
        let mut wrong_version = bytes;
        wrong_version[0] = 0xFF;
        assert!(WorkloadSnapshot::from_bytes(&wrong_version).is_err(), "version");
    }

    #[test]
    fn impossible_counts_are_refused_before_allocating() {
        // Version, total, then a claim of u32::MAX concepts in a 14-byte
        // blob: refused by the count rule, not by a 32 GiB reservation.
        let mut blob = Vec::new();
        put_u16(&mut blob, WORKLOAD_SNAPSHOT_VERSION);
        put_u64(&mut blob, 1);
        put_count(&mut blob, u32::MAX as usize);
        let err = WorkloadSnapshot::from_bytes(&blob).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frequencies_blob_roundtrips() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        for _ in 0..9 {
            tracker.record_statement(&o, &treat_query());
        }
        let af = tracker.to_frequencies(&o, 10_000.0);
        let bytes = frequencies_to_bytes(&o, &af);
        let decoded = frequencies_from_bytes(&o, &bytes).unwrap();
        for cid in o.concept_ids() {
            assert_eq!(af.concept(cid).to_bits(), decoded.concept(cid).to_bits());
        }
        for (rid, rel) in o.relationships() {
            assert_eq!(af.relationship(rid).to_bits(), decoded.relationship(rid).to_bits());
            for &pid in o.concept_properties(rel.dst) {
                assert_eq!(af.property(rid, pid).to_bits(), decoded.property(rid, pid).to_bits());
            }
        }
        assert!(frequencies_from_bytes(&o, &bytes[..10]).is_err());
        // Decoding against a different catalog is a dimension mismatch.
        let other = catalog::medical();
        assert!(frequencies_from_bytes(&other, &bytes).is_err());
    }

    /// The label-resolution maps the tracker kept before it resolved
    /// through the ontology, built as it built them.
    struct LabelMaps {
        concept_by_label: HashMap<String, ConceptId>,
        relationships_by_label: HashMap<String, Vec<(ConceptId, ConceptId, RelationshipId)>>,
        property_by_name: HashMap<ConceptId, HashMap<String, PropertyId>>,
    }

    impl LabelMaps {
        fn new(ontology: &Ontology) -> Self {
            let mut concept_by_label = HashMap::new();
            for (cid, concept) in ontology.concepts() {
                concept_by_label.insert(concept.name.clone(), cid);
            }
            let mut relationships_by_label: HashMap<
                String,
                Vec<(ConceptId, ConceptId, RelationshipId)>,
            > = HashMap::new();
            for (rid, rel) in ontology.relationships() {
                relationships_by_label
                    .entry(rel.name.clone())
                    .or_default()
                    .push((rel.src, rel.dst, rid));
            }
            let mut property_by_name: HashMap<ConceptId, HashMap<String, PropertyId>> =
                HashMap::new();
            for (cid, _) in ontology.concepts() {
                for &pid in ontology.concept_properties(cid) {
                    property_by_name
                        .entry(cid)
                        .or_default()
                        .insert(ontology.property(pid).name.clone(), pid);
                }
            }
            Self { concept_by_label, relationships_by_label, property_by_name }
        }

        fn resolve_relationship(
            &self,
            label: &str,
            src: Option<ConceptId>,
            dst: Option<ConceptId>,
        ) -> Option<RelationshipId> {
            let candidates = self.relationships_by_label.get(label)?;
            if let (Some(s), Some(d)) = (src, dst) {
                if let Some(&(_, _, rid)) =
                    candidates.iter().find(|&&(cs, cd, _)| cs == s && cd == d)
                {
                    return Some(rid);
                }
            }
            candidates.first().map(|&(_, _, rid)| rid)
        }
    }

    impl WorkloadTracker {
        /// `record_statement` before it was split into `resolve` and
        /// `record`, verbatim but for reading the old label maps from
        /// `maps`: the oracle the split and the ontology lookups are held to.
        fn record_statement_reference(&self, ontology: &Ontology, stmt: &Statement) {
            let maps = LabelMaps::new(ontology);
            self.total.fetch_add(1, Ordering::Relaxed);
            let concept_of = |var: &str| -> Option<ConceptId> {
                stmt.any_node(var).and_then(|n| maps.concept_by_label.get(&n.label)).copied()
            };
            for node in stmt.nodes.iter().chain(&stmt.opt_nodes) {
                if let Some(&cid) = maps.concept_by_label.get(&node.label) {
                    self.concepts[cid.index()].fetch_add(1, Ordering::Relaxed);
                }
            }
            let all_edges: Vec<&EdgePattern> = stmt.edges.iter().chain(&stmt.opt_edges).collect();
            let mut edge_rel: Vec<Option<RelationshipId>> = Vec::with_capacity(all_edges.len());
            for edge in &all_edges {
                let rid = maps.resolve_relationship(
                    &edge.label,
                    concept_of(&edge.src),
                    concept_of(&edge.dst),
                );
                if let Some(rid) = rid {
                    self.relationships[rid.index()].fetch_add(1, Ordering::Relaxed);
                }
                edge_rel.push(rid);
            }
            // Property accesses reached through a relationship: `var.property`
            // (from the RETURN clause or a WHERE predicate) where some pattern
            // edge ends in `var`.
            let mut touched: Vec<(RelationshipId, PropertyId)> = Vec::new();
            let return_accesses = stmt.returns.iter().filter_map(|item| match item {
                ReturnItem::Property { var, property } => Some((var.as_str(), property.as_str())),
                ReturnItem::Aggregate { var, property: Some(property), .. } => {
                    Some((var.as_str(), property.as_str()))
                }
                _ => None,
            });
            let predicate_accesses =
                stmt.predicates.iter().map(|p| (p.var.as_str(), p.property.as_str()));
            for (var, property) in return_accesses.chain(predicate_accesses) {
                let Some(cid) = concept_of(var) else { continue };
                let Some(&pid) =
                    maps.property_by_name.get(&cid).and_then(|props| props.get(property))
                else {
                    continue;
                };
                for (edge, rid) in all_edges.iter().zip(&edge_rel) {
                    if edge.dst == var {
                        if let Some(rid) = rid {
                            touched.push((*rid, pid));
                        }
                    }
                }
            }
            if !touched.is_empty() {
                let mut properties = self.properties.lock();
                for key in touched {
                    *properties.entry(key).or_insert(0) += 1;
                }
            }
        }
    }

    /// A statement from `rng` over the MED and FIN vocabulary, unknown names
    /// included, assembled field by field: the tracker records whatever it
    /// is served, valid or not.
    fn random_statement(rng: &mut proptest::TestRng) -> Statement {
        use pgso_query::{CmpOp, EdgePattern, NodePattern, Predicate, Term};
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        const LABELS: [&str; 8] = [
            "Drug",
            "Indication",
            "Condition",
            "Patient",
            "Encounter",
            "DrugInteraction",
            "Corporation",
            "NoSuchConcept",
        ];
        const EDGES: [&str; 7] =
            ["treat", "hasCondition", "hasEncounter", "has", "isA", "employsOfficer", "nope"];
        const PROPERTIES: [&str; 6] = ["name", "desc", "encounterId", "summary", "title", "nope"];
        const VARS: [&str; 4] = ["a", "b", "c", "d"];
        let mut stmt = Statement::builder("random").node("a", "Drug").ret_vertex("a").build();
        stmt.nodes[0].label = LABELS[pick(8)].into();
        for var in &VARS[1..1 + pick(4)] {
            let node = NodePattern { var: var.to_string(), label: LABELS[pick(8)].into() };
            if pick(3) == 0 {
                stmt.opt_nodes.push(node)
            } else {
                stmt.nodes.push(node)
            }
        }
        for _ in 0..pick(4) {
            let (src, dst) = (VARS[pick(4)].to_string(), VARS[pick(4)].to_string());
            let edge = EdgePattern { label: EDGES[pick(7)].into(), src, dst };
            if pick(3) == 0 {
                stmt.opt_edges.push(edge)
            } else {
                stmt.edges.push(edge)
            }
        }
        for _ in 0..pick(4) {
            let (var, property) = (VARS[pick(4)].to_string(), PROPERTIES[pick(6)].to_string());
            stmt.returns.push(match pick(4) {
                0 => ReturnItem::Vertex { var },
                1 => ReturnItem::Aggregate {
                    agg: Aggregate::CollectCount,
                    var,
                    property: Some(property),
                },
                2 => ReturnItem::Aggregate { agg: Aggregate::Count, var, property: None },
                _ => ReturnItem::Property { var, property },
            });
        }
        for _ in 0..pick(3) {
            let (var, property) = (VARS[pick(4)].to_string(), PROPERTIES[pick(6)].to_string());
            stmt.predicates.push(Predicate {
                var,
                property,
                op: CmpOp::Eq,
                value: Term::param("p"),
            });
        }
        stmt
    }

    #[test]
    fn resolved_records_count_what_the_reference_counts() {
        const CLASSES: [&str; 7] = [
            "MATCH (d:Drug) WHERE d.name = $name RETURN d.name",
            "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name = $name RETURN i.desc",
            "MATCH (p:Patient)-[:hasEncounter]->(e:Encounter) RETURN e.encounterId LIMIT $n",
            "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name ORDER BY d.name LIMIT $n",
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN i.desc",
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, count(i) GROUP BY d",
            "MATCH (p:Patient) OPTIONAL MATCH (p)-[:hasEncounter]->(e:Encounter) \
             WHERE p.mrn CONTAINS $needle RETURN p.mrn, e.encounterId SKIP $offset LIMIT $n",
        ];
        let queries = pgso_bench::microbenchmark().into_iter().map(|q| q.query);
        let classes = CLASSES.iter().map(|text| pgso_query::parse(text).unwrap());
        let mut rng = proptest::TestRng::new(11);
        let random: Vec<Statement> = (0..2_000).map(|_| random_statement(&mut rng)).collect();
        let statements: Vec<Statement> = queries.chain(classes).chain(random).collect();
        for ontology in [catalog::medical(), catalog::financial()] {
            let (split, reference) =
                (WorkloadTracker::new(&ontology), WorkloadTracker::new(&ontology));
            for stmt in &statements {
                split.record(&split.resolve(&ontology, stmt));
                reference.record_statement_reference(&ontology, stmt);
                assert_eq!(split.snapshot(), reference.snapshot(), "{stmt}");
            }
            assert!(!split.snapshot().property_counts.is_empty(), "properties were reached");
        }
    }

    #[test]
    fn reset_zeroes_counts() {
        let o = catalog::med_mini();
        let tracker = WorkloadTracker::new(&o);
        tracker.record_statement(&o, &treat_query());
        tracker.reset();
        let snap = tracker.snapshot();
        assert_eq!(snap.total_queries, 0);
        assert!(snap.concept_counts.iter().all(|&c| c == 0));
        assert!(snap.property_counts.is_empty());
    }
}

//! Benchmark scale ladder: deterministic instance graphs at 1×, 10×, 100×
//! (and any other rung) of a base size, with **prefix-stable global ids**.
//!
//! A [`ScaleLadder`] pre-generates independent instance *chunks* — chunk
//! `i` is `InstanceKg::generate(…, base_scale, seed + i)` — and a rung `r`
//! graph is chunks `0..r` loaded sequentially into one backend. Because the
//! loader is deterministic and vertex ids are dense and sequential, rung
//! `r` is an **induced prefix** of every larger rung: vertex `v` of rung 1
//! has the same id, label, properties and neighbour lists at rung 10 and
//! rung 100. Benchmarks can therefore compare backends and scales on
//! graphs that are bit-identical where they overlap, and a query's answer
//! at a small rung stays valid at every larger one (modulo rows contributed
//! by later chunks).
//!
//! Chunks are disjoint sub-communities — all relationship instances are
//! intra-chunk — which models growth by accretion (new patients, new drug
//! families) rather than by densification: label scans grow linearly with
//! the rung while per-vertex fan-out stays constant, which is the regime
//! where adjacency layout (not raw edge count) dominates traversal cost.

use crate::instance::InstanceKg;
use crate::load::{load_into, LoadReport};
use pgso_graphstore::GraphBackend;
use pgso_ontology::{DataStatistics, Ontology};
use pgso_pgschema::PropertyGraphSchema;

/// Pre-generated chunks of a benchmark scale ladder; see the module docs.
#[derive(Debug, Clone)]
pub struct ScaleLadder {
    chunks: Vec<InstanceKg>,
}

impl ScaleLadder {
    /// Pre-generates `max_rung` chunks, each an independent instance graph
    /// of size `base_scale` seeded `seed`, `seed + 1`, …. Generation cost
    /// is linear in `max_rung`; rungs are then loadable in any order.
    pub fn generate(
        ontology: &Ontology,
        statistics: &DataStatistics,
        base_scale: f64,
        seed: u64,
        max_rung: usize,
    ) -> Self {
        assert!(max_rung >= 1, "a ladder needs at least one rung");
        let chunks = (0..max_rung)
            .map(|i| InstanceKg::generate(ontology, statistics, base_scale, seed + i as u64))
            .collect();
        Self { chunks }
    }

    /// Number of pre-generated chunks (the largest loadable rung).
    pub fn max_rung(&self) -> usize {
        self.chunks.len()
    }

    /// The first chunk — the rung-1 instance, usable directly wherever a
    /// single [`InstanceKg`] is expected (e.g. server construction; later
    /// chunks then arrive through [`ScaleLadder::chunks_above_base`]).
    pub fn base_chunk(&self) -> &InstanceKg {
        &self.chunks[0]
    }

    /// Chunks `1..rung`: what a rung-`r` graph adds on top of the base
    /// chunk, in load order.
    pub fn chunks_above_base(&self, rung: usize) -> &[InstanceKg] {
        assert!(rung <= self.chunks.len(), "rung {rung} exceeds {}", self.chunks.len());
        &self.chunks[1..rung]
    }

    /// Loads chunks `0..rung` sequentially into `backend` under `schema`,
    /// returning the merged report. Loading the same rung into any two
    /// empty backends yields bit-identical ids and adjacency.
    pub fn load_rung(
        &self,
        backend: &mut dyn GraphBackend,
        ontology: &Ontology,
        schema: &PropertyGraphSchema,
        rung: usize,
    ) -> LoadReport {
        assert!(
            (1..=self.chunks.len()).contains(&rung),
            "rung {rung} outside 1..={}",
            self.chunks.len()
        );
        let mut total = LoadReport::default();
        for chunk in &self.chunks[..rung] {
            let report = load_into(backend, ontology, schema, chunk);
            total.vertices += report.vertices;
            total.edges += report.edges;
            total.skipped_edges += report.skipped_edges;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_graphstore::{MemoryGraph, VertexId};
    use pgso_ontology::{catalog, StatisticsConfig};

    fn fixture() -> (Ontology, DataStatistics, PropertyGraphSchema) {
        let ontology = catalog::med_mini();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 11);
        let schema = PropertyGraphSchema::direct_from_ontology(&ontology);
        (ontology, statistics, schema)
    }

    #[test]
    fn rungs_scale_linearly_and_deterministically() {
        let (ontology, statistics, schema) = fixture();
        let ladder = ScaleLadder::generate(&ontology, &statistics, 0.3, 7, 3);
        assert_eq!(ladder.max_rung(), 3);
        let mut counts = Vec::new();
        for rung in 1..=3 {
            let mut a = MemoryGraph::new();
            let mut b = MemoryGraph::new();
            let ra = ladder.load_rung(&mut a, &ontology, &schema, rung);
            let rb = ladder.load_rung(&mut b, &ontology, &schema, rung);
            assert_eq!(ra, rb);
            assert_eq!(a.export_updates(), b.export_updates(), "rung {rung} not deterministic");
            counts.push(a.vertex_count());
        }
        // Each chunk is the same base size, so rungs grow ~linearly.
        assert!(counts[1] > counts[0] && counts[2] > counts[1]);
        assert!(counts[2] >= counts[0] * 2, "{counts:?}");
    }

    #[test]
    fn smaller_rungs_are_induced_prefixes_of_larger_ones() {
        let (ontology, statistics, schema) = fixture();
        let ladder = ScaleLadder::generate(&ontology, &statistics, 0.3, 7, 3);
        let mut small = MemoryGraph::new();
        let mut large = MemoryGraph::new();
        ladder.load_rung(&mut small, &ontology, &schema, 1);
        ladder.load_rung(&mut large, &ontology, &schema, 3);
        assert!(large.vertex_count() > small.vertex_count());
        for id in 0..small.vertex_count() as u64 {
            let id = VertexId(id);
            assert_eq!(small.vertex(id), large.vertex(id), "vertex {id:?} differs");
            for label in ["treat", "cause", "has", "isA", "unionOf"] {
                assert_eq!(
                    small.out_neighbours(id, label),
                    large.out_neighbours(id, label),
                    "out {id:?} {label}"
                );
                assert_eq!(
                    small.in_neighbours(id, label),
                    large.in_neighbours(id, label),
                    "in {id:?} {label}"
                );
            }
        }
    }

    #[test]
    fn base_chunk_matches_rung_one() {
        let (ontology, statistics, schema) = fixture();
        let ladder = ScaleLadder::generate(&ontology, &statistics, 0.3, 7, 2);
        let mut via_rung = MemoryGraph::new();
        ladder.load_rung(&mut via_rung, &ontology, &schema, 1);
        let mut via_chunk = MemoryGraph::new();
        load_into(&mut via_chunk, &ontology, &schema, ladder.base_chunk());
        assert_eq!(via_rung.export_updates(), via_chunk.export_updates());
        assert_eq!(ladder.chunks_above_base(2).len(), 1);
    }
}

//! Allocation budget of the loader: `load_into` compiles one load plan per
//! call, then allocates per vertex, edge and property value it writes — not
//! per schema lookup, and not to read back what it wrote.
//!
//! Two numbers are bounded for MED and FIN under the optimized schema, where
//! merged vertices and replicated LIST properties make the load heaviest:
//! heap allocations per loaded vertex + edge, and bytes allocated per payload
//! byte. Each is measured at two scales and must not grow between them: the
//! plan is a fixed cost and everything after it is linear.

use pgso_core::{optimize_nsc, OptimizerConfig, OptimizerInput};
use pgso_datagen::{load_into, InstanceKg};
use pgso_graphstore::{GraphBackend, MemoryGraph};
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, Ontology, StatisticsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can touch
    // them without allocating. Per thread: tests run in parallel.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` unchanged; the only added work is
// bumping two thread-local integers, which cannot affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What loading `ontology`'s instance graph at `scale` under its optimized
/// schema costs on this thread: (allocations per loaded vertex + edge, bytes
/// allocated per payload byte).
fn load_cost(ontology: &Ontology, scale: f64) -> (f64, f64) {
    let stats = DataStatistics::synthesize(ontology, &StatisticsConfig::small(), 42);
    let af = AccessFrequencies::uniform(ontology, 1_000.0);
    let input = OptimizerInput::new(ontology, &stats, &af);
    let schema = optimize_nsc(input, &OptimizerConfig::default()).schema;
    let instance = InstanceKg::generate(ontology, &stats, scale, 42);
    let mut graph = MemoryGraph::new();
    let (allocations, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    load_into(&mut graph, ontology, &schema, &instance);
    let allocations = ALLOCATIONS.with(Cell::get) - allocations;
    let bytes = BYTES.with(Cell::get) - bytes;
    let loaded = (graph.vertex_count() + graph.edge_count()) as f64;
    (allocations as f64 / loaded, bytes as f64 / graph.payload_bytes() as f64)
}

/// Bounds `ontology`'s load cost at scales 0.05 and 0.2.
fn assert_within_budget(ontology: Ontology, max_allocations: f64, max_bytes: f64) {
    let name = ontology.name().to_string();
    let (small, large) = (load_cost(&ontology, 0.05), load_cost(&ontology, 0.2));
    for (scale, (allocations, bytes)) in [(0.05, small), (0.2, large)] {
        assert!(
            allocations <= max_allocations,
            "{name} @{scale}: {allocations:.1} allocations per vertex + edge (budget {max_allocations})"
        );
        assert!(
            bytes <= max_bytes,
            "{name} @{scale}: {bytes:.1} bytes allocated per payload byte (budget {max_bytes})"
        );
    }
    assert!(
        large.0 <= small.0,
        "{name}: allocations per vertex + edge grow, {small:?} → {large:?}"
    );
    assert!(large.1 <= small.1, "{name}: bytes per payload byte grow, {small:?} → {large:?}");
}

#[test]
fn medical_load_allocates_per_vertex_edge_and_value() {
    // Measured: 12.0 and 21.2 at 0.05, less at 0.2.
    assert_within_budget(catalog::medical(), 16.0, 25.0);
}

#[test]
fn financial_load_allocates_per_vertex_edge_and_value() {
    // Measured: 46.0 and 22.6 at 0.05, less at 0.2.
    assert_within_budget(catalog::financial(), 50.0, 25.0);
}

/// The counter itself: a test that could not fail proves nothing.
#[test]
fn the_counter_counts() {
    let (allocations, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let buffer = std::hint::black_box(vec![0u8; 1_000]);
    assert_eq!(ALLOCATIONS.with(Cell::get) - allocations, 1);
    assert!(BYTES.with(Cell::get) - bytes >= 1_000);
    drop(buffer);
}

//! Allocation budget of publication: a steady-state `flush_ingest` extends
//! the graph of the epoch the previous publication retired by the updates
//! it lacks, so what it allocates depends on the batch, not on the graph.
//!
//! The same 64-update batch is published on med_mini at scales 0.5 and 5.0
//! (≈540 and ≈2,400 vertices), and the allocations of one steady-state
//! publication must be the same on both. A publication that replays the whole journal
//! into a fresh backend allocates per vertex and edge of the graph, and
//! fails this.

use pgso_datagen::InstanceKg;
use pgso_graphstore::{props, GraphUpdate, VertexId};
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_server::{IngestConfig, KgServer, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can touch
    // it without allocating. Per thread: tests run in parallel.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only added work is
// bumping a thread-local integer, which cannot affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

const BATCH: usize = 64;
/// Publications before measuring: the first rebuilds (nothing is retired
/// yet), the second extends the initial epoch's graph.
const WARMUP: usize = 2;
const MEASURED: usize = 5;

/// 48 new drugs, each of the first 16 with an edge to a base vertex.
fn batch(first_id: u64, n: usize) -> Vec<GraphUpdate> {
    let drugs = (0..48).map(|i| GraphUpdate::AddVertex {
        label: "Drug".into(),
        properties: props([("name", format!("PublishedDrug_{n}_{i}").into())]),
    });
    let edges = (0..16).map(|i| GraphUpdate::AddEdge {
        label: "treat".into(),
        src: VertexId(first_id + i),
        dst: VertexId(i),
    });
    drugs.chain(edges).collect()
}

/// Heap allocations of one steady-state `flush_ingest` of a [`BATCH`]-update
/// batch on med_mini at `scale` (the median of [`MEASURED`] publications),
/// and the graph's vertex count.
fn publish_allocations(scale: f64) -> (u64, usize) {
    let ontology = catalog::med_mini();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
    let instance = InstanceKg::generate(&ontology, &statistics, scale, 7);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let config = ServerConfig {
        auto_reoptimize: false,
        ingest: IngestConfig {
            publish_batch: usize::MAX,
            publish_interval: Duration::from_secs(3600),
        },
        ..ServerConfig::default()
    };
    let server = KgServer::new(ontology, statistics, instance, frequencies, config);
    let mut counts: Vec<u64> = (0..WARMUP + MEASURED)
        .map(|n| {
            let first_id = server.current_epoch().graph().vertex_count() as u64;
            let updates = batch(first_id, n);
            assert_eq!(updates.len(), BATCH);
            server.ingest(updates).expect("every endpoint exists");
            let before = ALLOCATIONS.with(Cell::get);
            assert!(server.flush_ingest());
            ALLOCATIONS.with(Cell::get) - before
        })
        .skip(WARMUP)
        .collect();
    counts.sort_unstable();
    (counts[MEASURED / 2], server.current_epoch().graph().vertex_count())
}

#[test]
fn steady_state_publication_allocates_per_update_not_per_vertex() {
    let (small, small_vertices) = publish_allocations(0.5);
    let (large, large_vertices) = publish_allocations(5.0);
    assert!(large_vertices >= 4 * small_vertices, "{small_vertices} vs {large_vertices} vertices");
    // The graph it extends lacks the previous batch and this one: measured
    // ≈5.1 allocations per update applied.
    let budget = 8 * 2 * BATCH as u64;
    for (allocations, vertices) in [(small, small_vertices), (large, large_vertices)] {
        assert!(
            allocations <= budget,
            "{allocations} allocations publishing {BATCH} updates onto {vertices} vertices \
             (budget {budget})"
        );
    }
    // Flat up to the doubling of the graph's vectors, which lands in
    // different publications at different sizes (measured: 654 and 659).
    assert!(
        small.abs_diff(large) <= 16,
        "publication allocations grow with the graph: {small} at {small_vertices} vertices, \
         {large} at {large_vertices}"
    );
}

/// The counter itself: a test that could not fail proves nothing.
#[test]
fn the_counter_counts() {
    let before = ALLOCATIONS.with(Cell::get);
    let buffer = std::hint::black_box(vec![0u8; 1_000]);
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 1);
    drop(buffer);
}

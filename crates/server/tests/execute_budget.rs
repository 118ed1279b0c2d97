//! Allocation budget of the serving path: `KgServer::execute` of a prepared
//! statement runs the cached, compiled plan with the request's values read
//! in place, so what it allocates is what it returns — the statement is not
//! copied, re-resolved or re-tracked per request.
//!
//! Three bounds, on med_mini with ten extra drugs that share one name:
//! a prepared point lookup that matches nothing allocates at most three
//! times; a three-hop statement that matches nothing allocates exactly what
//! the one-node point does, so no per-pattern-part copy can creep back; and
//! a point lookup returning ten rows allocates at most two per row (the row
//! and its string) plus three.

use pgso_datagen::InstanceKg;
use pgso_graphstore::{props, GraphUpdate};
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_server::{IngestConfig, KgServer, Params, ServerConfig};
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

const POINT: &str = "MATCH (d:Drug) WHERE d.name = $name RETURN d.name";
const THREE_HOP: &str = "MATCH (d:Drug)-[:treat]->(i:Indication)-[:hasCondition]->(c:Condition), \
                         (d)-[:has]->(x:DrugInteraction) WHERE d.name = $name \
                         RETURN d.name, i.desc, c.name, x.summary";
const TWINS: usize = 10;

/// med_mini with [`TWINS`] more drugs named `Twin`, published.
fn server() -> KgServer {
    let ontology = catalog::med_mini();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 7);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.5, 7);
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
    let twin = || GraphUpdate::AddVertex {
        label: "Drug".into(),
        properties: props([("name", "Twin".into())]),
    };
    server.ingest((0..TWINS).map(|_| twin()).collect()).unwrap();
    assert!(server.flush_ingest());
    server
}

/// The most any of five executions of `text` with `$name = name` allocates,
/// after one that caches the plan and builds the equality index, and the
/// rows it returns.
fn execute_allocations(server: &KgServer, text: &str, name: &str) -> (u64, usize) {
    let prepared = server.prepare_text(text).unwrap();
    let params = Params::new().set("name", name);
    let rows = server.execute(&prepared, &params).unwrap().rows.len();
    let most = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.with(Cell::get);
            let result = server.execute(&prepared, &params).unwrap();
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(result.rows.len(), rows);
            drop(result);
            allocations
        })
        .max();
    (most.unwrap(), rows)
}

#[test]
fn a_point_that_matches_nothing_allocates_at_most_three_times() {
    let server = server();
    let (allocations, rows) = execute_allocations(&server, POINT, "NoSuchDrug");
    assert_eq!(rows, 0);
    assert!(allocations <= 3, "{allocations} allocations");
}

#[test]
fn a_three_hop_that_matches_nothing_allocates_what_a_one_node_one_does() {
    let server = server();
    let (point, _) = execute_allocations(&server, POINT, "NoSuchDrug");
    let (three_hop, rows) = execute_allocations(&server, THREE_HOP, "NoSuchDrug");
    assert_eq!(rows, 0);
    assert_eq!(three_hop, point, "allocations must not grow with the pattern");
}

#[test]
fn a_ten_row_point_allocates_two_per_row_and_three_more() {
    let server = server();
    let (allocations, rows) = execute_allocations(&server, POINT, "Twin");
    assert_eq!(rows, TWINS);
    assert!(allocations <= 2 * rows as u64 + 3, "{allocations} allocations for {rows} rows");
}

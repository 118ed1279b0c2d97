//! Allocation budget of the executor: the invariant the repository
//! benchmark's `allocs_per_query` comes from.
//!
//! The executor reads through the backend's borrowed forms and keeps its
//! matches in one flat table, so a query allocates per projected row and
//! value, and per aggregation group — never per candidate, per neighbour or
//! per match. A plain window (no aggregate, `DISTINCT` or `ORDER BY`) stops
//! matching at `SKIP + LIMIT`, so it allocates the same at any size. An
//! aggregate folds the values it reads in place: a group costs its row, and
//! the elements of a LIST property cost nothing however many there are. The
//! group index keys on the bindings themselves, so a group builds no key.
//! Every other case below runs at two sizes and bounds the *slope* between
//! them; a fixed cost (the resolved statement, the scratch row, a vector
//! doubling a few more times) does not count against it.

use pgso_graphstore::{props, GraphBackend, MemoryGraph, PropertyValue, VertexId};
use pgso_query::{execute_statement, Aggregate, CmpOp, Statement, StatementBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can touch
    // it without allocating. Per thread: tests run in parallel.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only added work is
// bumping a thread-local integer, which cannot affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// Heap allocations (and reallocations) one execution of `stmt` makes on
/// this thread, with the number of matches and rows it found.
fn execution(stmt: &Statement, graph: &MemoryGraph) -> (u64, usize, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = execute_statement(stmt, graph);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, result.matches, result.rows.len())
}

/// `drugs` Drug vertices, each treating `width` Indications of its own,
/// each of those with `width` Symptoms of its own; every vertex is named.
fn tree(drugs: usize, width: usize) -> MemoryGraph {
    let mut graph = MemoryGraph::new();
    let named = |graph: &mut MemoryGraph, label: &str, name: String| -> VertexId {
        graph.add_vertex(label, props([("name", name.into())]))
    };
    for d in 0..drugs {
        let drug = named(&mut graph, "Drug", format!("drug-{d}"));
        for i in 0..width {
            let indication = named(&mut graph, "Indication", format!("indication-{d}-{i}"));
            graph.add_edge("treat", drug, indication);
            for s in 0..width {
                let symptom = named(&mut graph, "Symptom", format!("symptom-{d}-{i}-{s}"));
                graph.add_edge("show", indication, symptom);
            }
        }
    }
    graph
}

#[test]
fn a_rejecting_label_scan_allocates_the_same_at_any_size() {
    let stmt = Statement::builder("scan")
        .node("d", "Drug")
        .ret_property("d", "name")
        .filter("d", "name", CmpOp::Eq, "no such drug")
        .build();
    let (small, ..) = execution(&stmt, &tree(100, 0));
    let (large, matches, rows) = execution(&stmt, &tree(1_000, 0));
    assert_eq!((matches, rows), (0, 0));
    assert_eq!(small, large, "allocations must not depend on the candidates rejected");
}

/// Drug → Indication → Symptom, returning the drug's and the symptom's name.
fn two_hop() -> StatementBuilder {
    Statement::builder("two-hop")
        .node("d", "Drug")
        .node("i", "Indication")
        .node("s", "Symptom")
        .edge("d", "treat", "i")
        .edge("i", "show", "s")
        .ret_property("d", "name")
        .ret_property("s", "name")
}

#[test]
fn a_two_hop_match_allocates_per_returned_row_and_value() {
    let stmt = two_hop().build();
    let columns = 2.0;
    let (small, small_matches, _) = execution(&stmt, &tree(10, 2));
    let (large, large_matches, rows) = execution(&stmt, &tree(10, 10));
    assert_eq!((small_matches, large_matches, rows), (40, 1_000, 1_000));
    // One row vector and one string per column for each further match; the
    // slack covers the result and match tables doubling a few more times.
    let slope = (large - small) as f64 / (large_matches - small_matches) as f64;
    assert!(
        slope <= 1.0 + columns + 0.05,
        "{slope} allocations per match ({small} for 40 matches, {large} for 1000)"
    );
}

#[test]
fn a_limited_two_hop_match_allocates_the_same_at_any_size() {
    // A plain window stops matching once it has its rows, so a graph with
    // 250 times the matches costs not one allocation more.
    let stmt = two_hop().limit(5).build();
    let (small, small_matches, _) = execution(&stmt, &tree(10, 2));
    let (large, large_matches, rows) = execution(&stmt, &tree(100, 10));
    assert_eq!((small_matches, large_matches, rows), (5, 5, 5));
    assert_eq!(small, large, "allocations must not depend on the matches past the window");
}

#[test]
fn grouped_counts_allocate_per_group_not_per_binding() {
    let stmt = Statement::builder("grouped")
        .node("d", "Drug")
        .node("i", "Indication")
        .edge("d", "treat", "i")
        .ret_property("d", "name")
        .ret_aggregate(Aggregate::Count, "i", None)
        .group_by("d")
        .build();
    let (base, base_matches, base_rows) = execution(&stmt, &tree(20, 5));
    let (more_bindings, matches, rows) = execution(&stmt, &tree(20, 50));
    assert_eq!((base_matches, base_rows, matches, rows), (100, 20, 1_000, 20));
    // Ten times the bindings in the same groups: only the tables that hold
    // them double a few more times.
    assert!(
        more_bindings <= base + 8,
        "{base} allocations for 100 bindings, {more_bindings} for 1000, both in 20 groups"
    );
    let (more_groups, matches, rows) = execution(&stmt, &tree(40, 5));
    assert_eq!((matches, rows), (200, 40));
    // A group costs its row and the value in it, plus its share of the
    // group index growing: the index keys on the bindings in place.
    let slope = (more_groups - base) as f64 / 20.0;
    assert!(slope <= 2.5, "{slope} allocations per further group ({base} → {more_groups})");
}

#[test]
fn a_list_aggregate_allocates_the_same_at_any_list_length() {
    // The 1:M rules replicate a neighbour's property onto the vertex as a
    // LIST, so `size(collect(d.p))` answers with no traversal; folding the
    // elements in place makes the list's length cost reads, not copies.
    let stmt = Statement::builder("list-count")
        .node("d", "Drug")
        .ret_aggregate(Aggregate::CollectCount, "d", Some("Indication.desc"))
        .build();
    let graph = |length: usize| {
        let mut graph = MemoryGraph::new();
        for d in 0..50 {
            let descs = (0..length).map(|i| format!("indication-{d}-{i}"));
            graph.add_vertex("Drug", props([("Indication.desc", PropertyValue::str_list(descs))]));
        }
        graph
    };
    let (short, matches, rows) = execution(&stmt, &graph(2));
    assert_eq!((matches, rows), (50, 1));
    let (long, ..) = execution(&stmt, &graph(40));
    assert_eq!(short, long, "allocations must not depend on the LIST length");
    let result = execute_statement(&stmt, &graph(40));
    assert_eq!(result.scalar(), Some(2_000));
}

/// The counter itself: a test that could not fail proves nothing.
#[test]
fn the_counter_counts() {
    let before = ALLOCATIONS.with(Cell::get);
    let graph = tree(3, 0);
    assert!(ALLOCATIONS.with(Cell::get) - before >= 3, "three vertices allocate");
    assert_eq!(graph.vertex_count(), 3);
}

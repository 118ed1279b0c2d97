//! End-to-end adaptive re-optimization: a server whose schema was optimized
//! for a patient-centric workload observes a shift to a drug-centric
//! workload, re-optimizes off the hot path, swaps the schema atomically, and
//! afterwards answers the shifted workload with fewer edge traversals. Also
//! covers plan-cache invalidation across the swap, and a swap declined
//! because ingested updates pin the old base's vertex ids.

use pgso_core::{optimize_nsc, OptimizerConfig, OptimizerInput};
use pgso_datagen::{validate, InstanceKg};
use pgso_graphstore::{props, GraphUpdate, VertexId};
use pgso_ontology::{catalog, DataStatistics, Ontology, StatisticsConfig};
use pgso_query::{Aggregate, QueryResult, Statement};
use pgso_server::{KgServer, ServerConfig, WorkloadTracker};

/// Typed statements reach the server as their `Display` text.
fn serve(server: &KgServer, stmt: &Statement) -> QueryResult {
    server.serve_text(&stmt.to_string()).expect("a statement's Display text parses")
}

/// Patient-centric phase-A workload: encounters, diagnoses, lab results.
fn phase_a_queries() -> Vec<Statement> {
    vec![
        Statement::builder("patient-lookup").node("p", "Patient").ret_property("p", "mrn").build(),
        Statement::builder("encounters")
            .node("p", "Patient")
            .node("e", "Encounter")
            .edge("p", "hasEncounter", "e")
            .ret_aggregate(Aggregate::CollectCount, "e", Some("encounterId"))
            .build(),
        Statement::builder("diagnoses")
            .node("p", "Patient")
            .node("dg", "Diagnosis")
            .edge("p", "hasDiagnosis", "dg")
            .ret_aggregate(Aggregate::CollectCount, "dg", Some("code"))
            .build(),
        Statement::builder("lab-results")
            .node("e", "Encounter")
            .node("l", "LabResult")
            .edge("e", "hasLabResult", "l")
            .ret_aggregate(Aggregate::CollectCount, "l", Some("unit"))
            .build(),
    ]
}

/// Drug-centric phase-B workload: the paper's Q9-style aggregations.
fn phase_b_queries() -> Vec<Statement> {
    vec![
        Statement::builder("q9-routes")
            .node("d", "Drug")
            .node("dr", "DrugRoute")
            .edge("d", "hasDrugRoute", "dr")
            .ret_aggregate(Aggregate::CollectCount, "dr", Some("drugRouteId"))
            .build(),
        Statement::builder("indications")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build(),
        Statement::builder("side-effects")
            .node("d", "Drug")
            .node("s", "SideEffect")
            .edge("d", "hasSideEffect", "s")
            .ret_aggregate(Aggregate::CollectCount, "s", Some("name"))
            .build(),
    ]
}

/// Derives access frequencies for a query mix the same way the server's own
/// tracker would observe it.
fn frequencies_for(
    ontology: &Ontology,
    queries: &[Statement],
    repeats: usize,
) -> pgso_ontology::AccessFrequencies {
    let tracker = WorkloadTracker::new(ontology);
    for _ in 0..repeats {
        for q in queries {
            tracker.record_statement(ontology, q);
        }
    }
    tracker.to_frequencies(ontology, 10_000.0)
}

fn adaptive_server() -> KgServer {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 23);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 23);
    let initial = frequencies_for(&ontology, &phase_a_queries(), 10);

    // A space budget makes the schema workload-sensitive: only the most
    // beneficial replications fit, so what is "most beneficial" — and hence
    // the schema — changes when the workload mix changes.
    let input = OptimizerInput::new(&ontology, &statistics, &initial);
    let nsc = optimize_nsc(input, &OptimizerConfig::default());
    let optimizer = OptimizerConfig::with_space_limit(nsc.total_cost / 8);

    KgServer::new(
        ontology,
        statistics,
        instance,
        initial,
        ServerConfig {
            optimizer,
            drift_threshold: 0.25,
            check_interval: 64,
            plan_cache_capacity: 256,
            auto_reoptimize: true,
            ..ServerConfig::default()
        },
    )
}

#[test]
fn workload_shift_triggers_reoptimization_and_cuts_traversals() {
    let server = adaptive_server();
    let phase_b = phase_b_queries();
    let probe = &phase_b[0]; // Q9: Drug -[hasDrugRoute]-> DrugRoute

    // Pre-shift: the schema was optimized for phase A, so the drug-centric
    // probe still pays its edge traversals.
    let before = serve(&server, probe);
    assert!(
        before.stats.edge_traversals > 0,
        "phase-A schema should not have replicated DrugRoute onto Drug"
    );
    let answer_before = before.scalar();
    assert_eq!(server.current_epoch().number, 0);

    // Shift: serve the drug-centric workload until a drift check fires.
    let mut swapped = false;
    for round in 0..50 {
        for q in &phase_b {
            let _ = serve(&server, q);
        }
        if server.reoptimization_events().iter().any(|e| e.swapped) {
            swapped = true;
            let _ = round;
            break;
        }
    }
    assert!(swapped, "drift {:.3} never triggered a schema swap", server.drift());

    let events = server.reoptimization_events();
    let event = events.iter().find(|e| e.swapped).unwrap();
    assert!(event.drift >= 0.25, "swap must have been driven by drift");
    assert!(event.changes > 0, "swap must correspond to structural changes");
    assert_eq!(event.from_epoch, 0);
    assert_eq!(server.current_epoch().number, 1, "epoch bumped exactly once");
    let epoch = server.current_epoch();
    assert_eq!(validate(epoch.graph(), &epoch.schema), [], "the swapped-in graph conforms");

    // Post-shift: the re-optimized schema answers the same probe with fewer
    // traversals (the 1:M aggregation now reads a replicated LIST property),
    // and the answer is unchanged.
    let after = serve(&server, probe);
    assert_eq!(answer_before, after.scalar(), "rewrite must preserve the answer");
    assert!(
        after.stats.edge_traversals < before.stats.edge_traversals,
        "shifted workload should get cheaper: before {:?}, after {:?}",
        before.stats,
        after.stats
    );
    assert_eq!(
        after.stats.edge_traversals, 0,
        "Q9 should become a pure property read on the new schema"
    );
}

#[test]
fn plan_cache_is_invalidated_by_the_swap() {
    let server = adaptive_server();
    let phase_b = phase_b_queries();

    // Warm the cache on epoch 0.
    for q in &phase_b {
        let _ = serve(&server, q);
    }
    let warm = server.cache_stats();
    assert_eq!(warm.misses, phase_b.len() as u64);
    assert_eq!(warm.invalidations, 0);

    // Drive the shift until the swap happens.
    for _ in 0..50 {
        for q in &phase_b {
            let _ = serve(&server, q);
        }
        if server.reoptimization_events().iter().any(|e| e.swapped) {
            break;
        }
    }
    assert!(server.reoptimization_events().iter().any(|e| e.swapped));
    let after_swap = server.cache_stats();
    assert!(
        after_swap.invalidations >= phase_b.len() as u64,
        "every epoch-0 plan must be invalidated: {after_swap:?}"
    );

    // The next round misses (plans re-rewritten against epoch 1), then hits.
    let misses_before = server.cache_stats().misses;
    for q in &phase_b {
        let _ = serve(&server, q);
    }
    let misses_mid = server.cache_stats().misses;
    assert!(
        misses_mid > misses_before || after_swap.misses > warm.misses,
        "post-swap serving must rewrite fresh plans"
    );
    let hits_before = server.cache_stats().hits;
    for q in &phase_b {
        let _ = serve(&server, q);
    }
    assert_eq!(
        server.cache_stats().hits,
        hits_before + phase_b.len() as u64,
        "fresh epoch-1 plans must now be served from the cache"
    );
}

#[test]
fn stable_workload_never_swaps() {
    let server = adaptive_server();
    let phase_a = phase_a_queries();
    for _ in 0..60 {
        for q in &phase_a {
            let _ = serve(&server, q);
        }
    }
    assert_eq!(server.current_epoch().number, 0, "matching workload must not swap");
    assert!(
        server.reoptimization_events().iter().all(|e| !e.swapped),
        "events: {:?}",
        server.reoptimization_events()
    );
}

#[test]
fn swap_after_ingest_declines_instead_of_remapping_ids() {
    let server = adaptive_server();
    let phase_b = phase_b_queries();
    let indications = &phase_b[1]; // Drug -[treat]-> Indication
    let before = serve(&server, indications).scalar().expect("a count");

    // One new Indication and a treat edge from the first Drug to it. Ingest
    // names vertices by id in the served base.
    let epoch = server.current_epoch();
    let drug = epoch.graph().vertices_with_label("Drug")[0];
    let indication = VertexId(epoch.graph().vertex_count() as u64);
    drop(epoch);
    server
        .ingest(vec![
            GraphUpdate::AddVertex {
                label: "Indication".into(),
                properties: props([("desc", "Ingested".into())]),
            },
            GraphUpdate::AddEdge { label: "treat".into(), src: drug, dst: indication },
        ])
        .expect("both endpoints exist");
    assert!(server.flush_ingest());
    let published = server.current_epoch().number;
    assert_eq!(serve(&server, indications).scalar(), Some(before + 1));

    // Drive the drug-centric shift until a drift check fires. Its schema
    // renumbers the base's vertices, so the swap must decline rather than
    // replay the ingested edge onto other (or missing) vertices.
    for _ in 0..50 {
        for q in &phase_b {
            let _ = serve(&server, q);
        }
        if !server.reoptimization_events().is_empty() {
            break;
        }
    }
    let events = server.reoptimization_events();
    assert!(!events.is_empty(), "drift {:.3} never triggered a check", server.drift());
    assert!(events.iter().all(|e| !e.swapped && e.changes > 0), "events: {events:?}");
    assert_eq!(server.current_epoch().number, published, "a declined swap keeps the epoch");
    assert_eq!(
        serve(&server, indications).scalar(),
        Some(before + 1),
        "the ingested edge is still served"
    );
    // The baseline moved on, so the declined swap is not retried per check.
    for _ in 0..50 {
        for q in &phase_b {
            let _ = serve(&server, q);
        }
    }
    assert_eq!(server.reoptimization_events().len(), events.len());
}

//! Concurrency tests: N worker threads hammering one shared server must see
//! exactly the rows a serial execution sees, while the plan cache and the
//! backend's atomic access counters stay coherent.

use pgso_datagen::InstanceKg;
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_query::{Aggregate, QueryResult, Row, Statement};
use pgso_server::{KgServer, Params, PreparedStatement, ServerConfig};

/// Typed statements reach the server as their `Display` text.
fn serve(server: &KgServer, stmt: &Statement) -> QueryResult {
    server.serve_text(&stmt.to_string()).expect("a statement's Display text parses")
}

/// Executes a parameterless prepared statement.
fn run(server: &KgServer, prepared: &PreparedStatement) -> QueryResult {
    server.execute(prepared, &Params::new()).expect("no parameters to bind")
}

fn medical_server() -> KgServer {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 11);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 11);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    KgServer::new(
        ontology,
        statistics,
        instance,
        frequencies,
        ServerConfig { auto_reoptimize: false, ..ServerConfig::default() },
    )
}

/// A mixed workload: lookups, one-hop and two-hop patterns, aggregations.
fn workload() -> Vec<Statement> {
    vec![
        Statement::builder("drug-lookup").node("d", "Drug").ret_property("d", "name").build(),
        Statement::builder("treat")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("d", "name")
            .ret_property("i", "desc")
            .build(),
        Statement::builder("routes-agg")
            .node("d", "Drug")
            .node("dr", "DrugRoute")
            .edge("d", "hasDrugRoute", "dr")
            .ret_aggregate(Aggregate::CollectCount, "dr", Some("drugRouteId"))
            .build(),
        Statement::builder("patient-encounters")
            .node("p", "Patient")
            .node("e", "Encounter")
            .edge("p", "hasEncounter", "e")
            .ret_property("e", "encounterId")
            .build(),
        Statement::builder("two-hop")
            .node("p", "Patient")
            .node("e", "Encounter")
            .node("l", "LabResult")
            .edge("p", "hasEncounter", "e")
            .edge("e", "hasLabResult", "l")
            .ret_aggregate(Aggregate::Count, "l", None)
            .build(),
        Statement::builder("physician-count")
            .node("ph", "Physician")
            .ret_aggregate(Aggregate::Count, "ph", None)
            .build(),
    ]
}

#[test]
fn concurrent_execution_matches_serial_row_sets() {
    let server = medical_server();
    let queries = workload();

    // Serial reference: one execution of each query.
    let serial: Vec<Vec<Row>> = queries.iter().map(|q| serve(&server, q).rows).collect();
    for (query, rows) in queries.iter().zip(&serial) {
        assert!(!rows.is_empty(), "serial run of {} returned no rows", query.name);
    }

    // 8 threads × 25 rounds, all against the same shared backend.
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let server = &server;
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for (query, expected) in queries.iter().zip(serial) {
                        let result = serve(server, query);
                        assert_eq!(
                            &result.rows, expected,
                            "{} diverged under concurrency",
                            query.name
                        );
                    }
                }
            });
        }
    });

    let total = (THREADS * ROUNDS * queries.len() + queries.len()) as u64;
    assert_eq!(server.served(), total, "every request must be recorded");
    assert_eq!(server.tracker().total_queries(), total);

    // One rewrite per distinct shape; everything else came from the cache.
    let stats = server.cache_stats();
    assert_eq!(stats.misses, queries.len() as u64);
    assert_eq!(stats.hits, total - queries.len() as u64);
    assert_eq!(stats.invalidations, 0, "no schema swap happened");
}

#[test]
fn prepared_queries_are_thread_safe() {
    let server = medical_server();
    let handles: Vec<_> = workload()
        .iter()
        .map(|q| server.prepare_text(&q.to_string()).expect("a query's Display text parses"))
        .collect();
    let serial: Vec<Vec<Row>> = handles.iter().map(|ps| run(&server, ps).rows).collect();

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let server = &server;
            let handles = &handles;
            let serial = &serial;
            scope.spawn(move || {
                for _ in 0..20 {
                    for (ps, expected) in handles.iter().zip(serial) {
                        assert_eq!(&run(server, ps).rows, expected);
                    }
                }
            });
        }
    });
    assert_eq!(server.served(), (6 * 20 * handles.len() + handles.len()) as u64);
}

#[test]
fn parameterized_execution_is_thread_safe() {
    let server = medical_server();
    let ps = server
        .prepare_text("MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n")
        .expect("prepares");
    // Reference rows for a handful of distinct parameter sets.
    let params: Vec<Params> = (0..4)
        .map(|i| Params::new().set("needle", format!("Drug_name_{i}")).set("n", (i + 1) as i64))
        .collect();
    let serial: Vec<Vec<Row>> =
        params.iter().map(|p| server.execute(&ps, p).expect("binds").rows).collect();

    // Concurrent executions with interleaved parameter sets must each see
    // exactly their own bindings — by-name binding cannot cross-bind, even
    // when every thread shares one cached plan.
    std::thread::scope(|scope| {
        for t in 0..8 {
            let server = &server;
            let ps = &ps;
            let params = &params;
            let serial = &serial;
            scope.spawn(move || {
                for round in 0..15 {
                    let which = (t + round) % params.len();
                    let result = server.execute(ps, &params[which]).expect("binds");
                    assert_eq!(result.rows, serial[which], "params set {which} cross-bound");
                }
            });
        }
    });
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 1, "one prepared shape, one rewrite");
}

#[test]
fn per_query_stats_remain_attributable_under_concurrency() {
    // The backend counters are shared atomics; `execute` reports per-query
    // deltas. Under concurrency a delta can include a neighbour's work, so
    // per-query numbers may over-count, but the *backend total* must equal
    // serial expectations: counters never lose increments.
    let server = medical_server();
    let q = workload().remove(1); // Drug -[treat]-> Indication pattern
    let baseline = server.current_epoch().stats().edge_traversals;
    let serial_cost = {
        let r = serve(&server, &q);
        r.stats.edge_traversals
    };
    assert!(serial_cost > 0, "pattern query must traverse edges");

    const THREADS: usize = 4;
    const ROUNDS: usize = 10;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let server = &server;
            let q = &q;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let _ = serve(server, q);
                }
            });
        }
    });
    let total = server.current_epoch().stats().edge_traversals - baseline;
    assert_eq!(
        total,
        serial_cost * (THREADS as u64 * ROUNDS as u64 + 1),
        "atomic counters must not drop increments under contention"
    );
}

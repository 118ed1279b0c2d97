//! Remote observability acceptance: a wire client's trace id must be
//! visible in server trace events spanning the whole request path —
//! `net.request` (socket), `server.serve` (engine), `query.exec` plus
//! `stage.*` (executor), and `wal.group_commit` (durable prepare) — and the
//! OBSERVE scrape plane must return an exposition byte-identical to the
//! in-process `metrics_text()` (modulo the scrape's own output bytes), a
//! decodable binary snapshot, trace drains filtered by trace id, and a
//! health summary with the 1 s / 10 s / 60 s rolling windows.

use pgso::net::{KgClient, KgListener, NetConfig};
use pgso::ontology::catalog;
use pgso::persist::PersistConfig;
use pgso::prelude::*;
use pgso::server::WindowRates;
use std::sync::Arc;

fn build_server(persist: Option<PersistConfig>) -> Arc<KgServer> {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 31);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.04, 31);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let config = ServerConfig { auto_reoptimize: false, ..ServerConfig::default() };
    let server = match persist {
        None => KgServer::new(ontology, statistics, instance, frequencies, config),
        Some(p) => KgServer::new_persistent(ontology, statistics, instance, frequencies, config, p)
            .expect("persistent server builds"),
    };
    Arc::new(server)
}

const PREPARED_TEXT: &str =
    "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name ORDER BY d.name LIMIT $n";
const RUN_TEXT: &str =
    "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc ORDER BY d.name LIMIT 5";

/// The span names a drained trace carries, in no particular order.
fn names(events: &[pgso::net::WireTraceEvent]) -> Vec<&str> {
    events.iter().map(|e| e.name.as_str()).collect()
}

#[test]
fn client_trace_ids_span_net_engine_query_and_wal() {
    // Persistent server so PREPARE takes the WAL group-commit path.
    let dir = tempfile::tempdir().unwrap();
    let server = build_server(Some(PersistConfig::new_unsynced(dir.path())));
    let mut listener =
        KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default()).expect("binds");
    listener.serve().expect("serves");

    let mut client = KgClient::connect(listener.local_addr()).expect("connects");
    assert_eq!(client.last_trace_id(), 0, "no request sent yet");

    // PREPARE: the trace must reach the durable tail.
    let stmt = client.prepare(PREPARED_TEXT).expect("prepares");
    let prepare_trace = client.last_trace_id();
    assert_ne!(prepare_trace, 0, "PREPARE must have been stamped");

    // RUN: the trace must reach from the listener into the executor stages.
    let result = client.run(RUN_TEXT).expect("runs");
    assert!(result.rows.len() <= 5);
    let run_trace = client.last_trace_id();
    assert_ne!(run_trace, prepare_trace, "every request gets a fresh trace id");

    // EXECUTE: same chain through the prepared path.
    let params = Params::new().set("needle", "Drug_name").set("n", 3i64);
    client.execute(&stmt, &params).expect("executes");
    let execute_trace = client.last_trace_id();

    // Drain each trace remotely, filtered by its id. Every returned event
    // must belong to the requested trace, and the chain must cover the
    // socket, the engine, and the executor.
    let prepare_events = client.observe_trace(prepare_trace).expect("drains");
    assert!(prepare_events.iter().all(|e| e.span_id == prepare_trace));
    let got = names(&prepare_events);
    assert!(got.contains(&"net.request"), "prepare chain missing the socket span: {got:?}");
    assert!(got.contains(&"wal.group_commit"), "prepare chain missing the durable tail: {got:?}");

    for (label, trace_id) in [("RUN", run_trace), ("EXECUTE", execute_trace)] {
        let events = client.observe_trace(trace_id).expect("drains");
        assert!(events.iter().all(|e| e.span_id == trace_id), "{label}: foreign events leaked");
        let got = names(&events);
        for required in ["net.request", "server.serve", "query.exec"] {
            assert!(got.contains(&required), "{label} chain missing {required}: {got:?}");
        }
        assert!(
            got.iter().any(|n| n.starts_with("stage.")),
            "{label} chain missing executor stage spans: {got:?}"
        );
        // The socket span closes last, so it must cover at least as much
        // wall time as the engine span under it.
        let span_ns = |name: &str| {
            events
                .iter()
                .find(|e| e.name == name)
                .and_then(|e| e.duration)
                .expect("span carries a duration")
        };
        assert!(span_ns("net.request") >= span_ns("server.serve"), "{label}: span nesting");
    }

    // The same events are visible in-process, so the remote drain is a
    // faithful view of the server-side ring.
    let local: Vec<_> =
        server.trace_events().into_iter().filter(|e| e.span_id == run_trace).collect();
    let remote = client.observe_trace(run_trace).expect("drains");
    assert_eq!(local.len(), remote.len(), "remote drain must mirror the in-process ring");

    // Untraced requests stay out of the ring entirely: serve one in-process
    // (no wire trace context) and confirm no new span-less request events.
    let before = server.trace_events().len();
    server.serve_text(RUN_TEXT).expect("serves");
    let new: Vec<_> = server.trace_events().into_iter().skip(before).collect();
    assert!(
        new.iter().all(|e| e.name != "server.serve" && e.name != "query.exec"),
        "untraced serves must not emit request spans: {new:?}"
    );

    client.goodbye().expect("orderly close");
    assert!(listener.shutdown().drained);
}

#[test]
fn observe_scrape_matches_in_process_exposition() {
    let server = build_server(None);
    let mut listener =
        KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default()).expect("binds");
    listener.serve().expect("serves");

    let mut client = KgClient::connect(listener.local_addr()).expect("connects");
    for _ in 0..8 {
        client.run(RUN_TEXT).expect("runs");
    }

    // Scrape over the wire first, then render in-process: nothing moves in
    // between except the bytes of the scrape's own response, so the two
    // expositions must agree on every line but `net.bytes.out`.
    let scraped = client.observe_metrics_text().expect("scrapes");
    let local = server.metrics_text();
    let stable = |text: &str| {
        text.lines()
            .filter(|line| !line.contains("net_bytes_out"))
            .map(String::from)
            .collect::<Vec<_>>()
    };
    assert_eq!(stable(&scraped), stable(&local), "wire exposition diverged from in-process");
    assert!(scraped.contains("server_served"), "exposition missing engine series");
    assert!(scraped.contains("net_requests"), "exposition missing wire series");

    // The binary snapshot decodes to the same aggregates.
    let snapshot = client.observe_metrics_snapshot().expect("decodes");
    assert_eq!(snapshot.gauge("server.served"), Some(8.0));
    assert!(snapshot.counter("net.requests").is_some_and(|n| n >= 8));

    client.goodbye().expect("orderly close");
    assert!(listener.shutdown().drained);
}

#[test]
fn observe_health_reports_rolling_windows() {
    let server = build_server(None);
    let mut listener =
        KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default()).expect("binds");
    listener.serve().expect("serves");

    let mut client = KgClient::connect(listener.local_addr()).expect("connects");
    for _ in 0..5 {
        client.run(RUN_TEXT).expect("runs");
    }
    // One malformed statement: the wire error must surface in the windows.
    client.run("MATCH (").expect_err("parse error travels back");

    let health = client.observe_health().expect("summarizes");
    assert_eq!(health.served, 5, "only well-formed statements count as serves");
    assert_eq!(
        health.windows.map(|w: WindowRates| w.window_secs),
        [1, 10, 60],
        "rolling windows in WINDOW_SECS order"
    );
    // Everything above happened within the last second, so even the
    // tightest window has seen the full burst.
    assert!(health.windows[0].requests >= 5, "1 s window: {:?}", health.windows[0]);
    assert!(health.windows[0].errors >= 1, "the parse error must count: {:?}", health.windows[0]);
    assert!(health.windows[2].requests >= health.windows[0].requests, "60 s ⊇ 1 s");
    assert_eq!(health.schema_generation, server.current_epoch().schema_generation);
    assert_eq!(health.trace_dropped, 0);
    assert!(health.drift >= 0.0);

    client.goodbye().expect("orderly close");
    assert!(listener.shutdown().drained);
}

//! Observability acceptance: a persistent `KgServer` under a mixed
//! text + prepared workload with streaming ingest must expose — through one
//! [`MetricsSnapshot`] — query-latency percentiles, plan-cache hit ratio,
//! per-stage executor timings and WAL append/fsync timings, and the
//! snapshot must survive its own binary codec and text exposition. A server
//! with telemetry disabled still mirrors its engine-state gauges.

use pgso::datagen::{streaming_updates, UpdateStreamConfig};
use pgso::ontology::catalog;
use pgso::persist::PersistConfig;
use pgso::prelude::*;
use pgso::server::ServerConfig;

fn mixed_texts() -> Vec<&'static str> {
    vec![
        "MATCH (p:Patient) RETURN p.mrn LIMIT 5",
        "MATCH (p:Patient)-[:hasEncounter]->(e:Encounter) RETURN size(collect(e.encounterId))",
        "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN size(collect(i.desc))",
    ]
}

fn build_persistent(dir: &std::path::Path) -> KgServer {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 11);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.04, 11);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    KgServer::new_persistent(
        ontology,
        statistics,
        instance,
        frequencies,
        ServerConfig {
            auto_reoptimize: false,
            ingest: IngestConfig {
                publish_batch: 8,
                publish_interval: std::time::Duration::from_secs(3600),
            },
            ..ServerConfig::default()
        },
        // fsync on: the acceptance criterion includes `wal.fsync` timings.
        PersistConfig::new(dir),
    )
    .expect("persistent server builds")
}

#[test]
fn serving_metrics_cover_latency_cache_stages_and_wal() {
    let dir = tempfile::tempdir().unwrap();
    let server = build_persistent(dir.path());

    // Mixed workload: text serves (parse + cache), prepared executions
    // (bind by name), repeated so the plan cache gets hits.
    let prepared = server
        .prepare_text("MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n")
        .expect("prepares");
    let mut serves = 0u64;
    for round in 0..8 {
        for text in mixed_texts() {
            let result = server.serve_text(text).expect(text);
            assert!(result.elapsed >= result.stage_timings.expansion);
            serves += 1;
        }
        let params = Params::new().set("needle", "Drug_name").set("n", (3 + round) as i64);
        server.execute(&prepared, &params).expect("prepared executes");
        serves += 1;
    }

    // Streaming ingest past the publish batch: WAL appends + fsyncs, an
    // epoch swap, and a staged tail flushed at the end.
    let epoch = server.current_epoch();
    let updates = streaming_updates(
        server.ontology(),
        &epoch.schema,
        epoch.graph(),
        24,
        7,
        &UpdateStreamConfig::default(),
    );
    drop(epoch);
    server.ingest(updates).expect("ingest succeeds");
    server.flush_ingest();

    let snapshot = server.metrics_snapshot();

    // Query latency percentiles, recorded for every serve.
    let latency = snapshot.histogram("query.latency").expect("query.latency is registered");
    assert_eq!(latency.count, serves, "every serve records end-to-end latency");
    assert!(latency.percentile(0.50) > 0, "p50 > 0");
    assert!(latency.percentile(0.99) >= latency.percentile(0.50), "p99 >= p50");
    assert!(latency.max >= latency.percentile(0.99), "max >= p99");

    // Plan-cache hit ratio gauge, mirrored at snapshot time: the repeated
    // mix must be mostly hits.
    let hit_ratio = snapshot.gauge("plan_cache.hit_ratio").expect("hit ratio gauge");
    assert!(hit_ratio > 0.5 && hit_ratio <= 1.0, "repeated mix hits the cache: {hit_ratio}");

    // Per-stage executor series (sampled, but the first serve is always
    // detailed) and the per-prepared-statement series.
    let expansion = snapshot.histogram("query.stage.expansion").expect("stage series");
    assert!(expansion.count >= 1, "at least the first serve records stage detail");
    let (_, per_prepared) = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name.starts_with("prepared.") && name.ends_with(".latency"))
        .expect("per-prepared series");
    assert_eq!(per_prepared.count, 8, "one sample per prepared execution");

    // WAL timings: every ingest batch appended and (fsync mode) synced.
    let append = snapshot.histogram("wal.append").expect("wal.append series");
    assert!(append.count > 0, "ingest appended to the WAL");
    let fsync = snapshot.histogram("wal.fsync").expect("wal.fsync series");
    assert!(fsync.count > 0, "fsync-mode WAL times its group commits");
    assert!(fsync.percentile(0.50) > 0);
    assert!(snapshot.counter("epoch.ingest_swaps").unwrap_or(0) >= 1, "publish batch swapped");

    // The swap left a structured trace event behind.
    let events = server.trace_events();
    assert!(events.iter().any(|e| e.name == "epoch.swap"), "epoch swap is traced");

    // The snapshot ships: text exposition + the OBSERVE reply codec.
    let text = snapshot.render_text();
    assert!(text.contains("# TYPE query_latency histogram"), "{text}");
    assert!(text.contains("plan_cache_hit_ratio"), "{text}");
    assert!(text.contains("wal_fsync_count"), "{text}");
    use pgso::net::proto::{decode_response, encode_response};
    use pgso::net::{ObserveReply, Response};
    let reply = Response::Observe(ObserveReply::MetricsSnapshot(snapshot));
    let (op, payload) = encode_response(&reply);
    assert_eq!(decode_response(op, &payload), Ok(reply), "snapshot round-trips over the wire");
}

/// Wire-layer observability: serving over TCP threads `net.*` counters,
/// the request-latency histogram and the slow-request trace through the
/// server's own registry, all visible in one `metrics_text()` exposition.
#[test]
fn wire_serving_threads_net_metrics_through_the_server_registry() {
    use pgso::net::{KgClient, KgListener, NetConfig};
    use std::sync::Arc;

    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 11);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.04, 11);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let server = Arc::new(KgServer::new(
        ontology,
        statistics,
        instance,
        frequencies,
        ServerConfig { auto_reoptimize: false, ..ServerConfig::default() },
    ));

    // Threshold zero: every wire request is a "slow" request, so the trace
    // event path is exercised deterministically.
    let config = NetConfig {
        slow_request_threshold: Some(std::time::Duration::ZERO),
        ..NetConfig::default()
    };
    let mut listener = KgListener::bind(server.clone(), "127.0.0.1:0", config).unwrap();
    listener.serve().unwrap();

    let mut client = KgClient::connect(listener.local_addr()).expect("connects");
    let stmt = client
        .prepare("MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n")
        .expect("prepares");
    for n in 1..=6i64 {
        let params = Params::new().set("needle", "Drug_name").set("n", n);
        client.execute(&stmt, &params).expect("executes");
    }
    // One typed error so `net.errors` moves too.
    assert!(client.run("NOT A STATEMENT").is_err());
    client.goodbye().expect("orderly close");

    // Second short-lived connection so open != total.
    let extra = KgClient::connect(listener.local_addr()).expect("connects");
    drop(extra);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let snapshot = server.metrics_snapshot();
        let open = snapshot.gauge("net.connections.open").unwrap_or(f64::NAN);
        if open == 0.0 || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.counter("net.connections.total"), Some(2), "both connections counted");
    assert_eq!(snapshot.gauge("net.connections.open"), Some(0.0), "all connections closed");
    assert!(snapshot.counter("net.bytes.in").unwrap_or(0) > 0, "request bytes counted");
    assert!(snapshot.counter("net.bytes.out").unwrap_or(0) > 0, "response bytes counted");
    // 1 HELLO + 1 PREPARE + 6 EXECUTE + 1 RUN + 1 GOODBYE on the first
    // connection, plus the second connection's handshake HELLO.
    assert_eq!(snapshot.counter("net.requests"), Some(11), "every decoded frame counted");
    assert_eq!(snapshot.counter("net.errors"), Some(1), "the parse failure counted");

    // The wire latency histogram records EXECUTE/RUN only (the requests
    // that reach an engine), and with a zero threshold each one is also "slow".
    let latency = snapshot.histogram("net.request.latency").expect("wire latency series");
    assert_eq!(latency.count, 7, "6 executes + 1 failed run");
    assert!(latency.max > 0);
    assert_eq!(snapshot.counter("net.slow_requests"), Some(7));
    let events = server.trace_events();
    assert!(
        events.iter().any(|e| e.name == "net.slow_request"),
        "slow wire requests leave trace events"
    );

    // One exposition covers the engine and the wire layer in front of it.
    let text = server.metrics_text();
    assert!(text.contains("net_connections_total 2"), "{text}");
    assert!(text.contains("net_requests 11"), "{text}");
    assert!(text.contains("# TYPE net_request_latency histogram"), "{text}");
    assert!(text.contains("query_latency"), "engine series in the same exposition: {text}");

    assert!(listener.shutdown().drained);
}

#[test]
fn disabled_telemetry_still_mirrors_engine_gauges() {
    let ontology = catalog::med_mini();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 5);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 5);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let server = KgServer::new(
        ontology,
        statistics,
        instance,
        frequencies,
        ServerConfig { telemetry_enabled: false, ..ServerConfig::default() },
    );
    assert!(server.telemetry().is_none());

    let result = server.serve_text("MATCH (d:Drug) RETURN d.name LIMIT 2").expect("serves");
    // Stage timings ride on the result itself, telemetry on or off.
    assert!(result.stage_timings.total() <= result.elapsed + result.elapsed);

    let snapshot = server.metrics_snapshot();
    assert!(snapshot.histogram("query.latency").is_none(), "no hot-path series when disabled");
    assert_eq!(snapshot.gauge("server.served"), Some(1.0), "state gauges still mirror");
    assert!(snapshot.gauge("plan_cache.hit_ratio").is_some());
    assert!(server.trace_events().is_empty(), "no trace ring when disabled");
    assert!(server.metrics_text().contains("server_served 1"));
}

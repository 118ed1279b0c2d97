//! A served `WHERE d.name = $name` seeks the epoch graph's equality index,
//! and the index answers for what publication adds: once on the path that
//! extends the retired epoch's graph (which keeps the index it built and
//! has `add_vertex` append to it), once on the path that rebuilds a fresh
//! graph because a reader still holds the retired epoch (which starts
//! without an index and builds one on the first seek).

use pgso_datagen::InstanceKg;
use pgso_graphstore::{props, GraphUpdate};
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_server::{IngestConfig, KgServer, Params, PreparedStatement, ServerConfig};
use std::time::Duration;

const POINT: &str = "MATCH (d:Drug) WHERE d.name = $name RETURN d.name";

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
    KgServer::new(ontology, statistics, instance, frequencies, config)
}

/// Publishes one new drug named `name`; returns how the epoch's graph was
/// made (`reused` or `rebuilt`), from the `epoch.swap` trace event.
fn publish_drug(server: &KgServer, name: &str) -> String {
    let drug =
        GraphUpdate::AddVertex { label: "Drug".into(), properties: props([("name", name.into())]) };
    server.ingest(vec![drug]).unwrap();
    assert!(server.flush_ingest());
    let events = server.trace_events();
    let swap = events.iter().rev().find(|e| e.name == "epoch.swap").expect("a swap event");
    let (_, how) = swap.fields.iter().find(|(name, _)| *name == "graph").expect("graph field");
    how.to_string()
}

/// Asserts that the point statement finds exactly one drug named `name`,
/// reading that one vertex to check it and once more to project it: a seek,
/// not a scan of every drug.
fn assert_found(server: &KgServer, point: &PreparedStatement, name: &str, step: &str) {
    let result = server.execute(point, &Params::new().set("name", name)).unwrap();
    let rows: Vec<Option<&str>> = result.rows.iter().map(|row| row[0].as_str()).collect();
    assert_eq!(rows, [Some(name)], "{step}: {name}");
    assert_eq!(result.stats.vertex_reads, 2, "{step}: {name} is sought, not scanned");
    assert_eq!(result.predicate_checks, 1, "{step}: {name}");
}

#[test]
fn published_drugs_are_found_by_seek_on_reused_and_rebuilt_graphs() {
    let server = server();
    let point = server.prepare_text(POINT).unwrap();
    let base = server.serve_text("MATCH (d:Drug) RETURN d.name").unwrap();
    assert!(base.rows.len() > 1, "a seek must have drugs to skip");
    let mut names = vec![base.rows[0][0].as_str().expect("drugs have names").to_string()];
    // Every epoch is sought before it is retired, so each graph a
    // publication extends already holds the index it built.
    assert_found(&server, &point, &names[0], "the loaded epoch");
    let mut publish = |name: &str, expected: &str, step: &str| {
        assert_eq!(publish_drug(&server, name), expected, "{step}");
        names.push(name.to_string());
        names.iter().for_each(|name| assert_found(&server, &point, name, step));
    };
    // Each publication retires the epoch it replaces, and the one after it
    // extends that epoch's graph — unless a reader still holds it.
    publish("SeekDrug_0", "rebuilt", "first publication: nothing is retired yet");
    publish("SeekDrug_1", "reused", "extending the loaded epoch's graph");
    let held = server.current_epoch();
    publish("SeekDrug_2", "reused", "extending the first publication's graph");
    publish("SeekDrug_3", "rebuilt", "a reader holds the retired epoch");
    drop(held);
    let missing = server.execute(&point, &Params::new().set("name", "NoSuchDrug")).unwrap();
    assert!(missing.rows.is_empty());
    assert_eq!(missing.stats.vertex_reads, 0, "a name nobody holds reads nothing");
}

//! Ingest and the optimized schema's replicas (ROADMAP direction 11(a)).
//!
//! Ingest applies physical updates as they come: an edge lands in the
//! graph, but the LIST replica the optimized schema keeps of what lies
//! across it does not change. On MED the NSC schema answers
//! `size(collect(i.desc))` over `treat` from the replica on `Drug`, without
//! traversing an edge, so a served statement misses what ingest added.
//!
//! [`INGEST_KNOWN_DIFFERENCE`] names that difference: `(served answer,
//! treat edges out of drugs)` after one ingested drug with one `treat`
//! edge. Direction 11 step 2 (ingest in the ontology's vocabulary, which
//! maintains the replicas) must turn the pair into `(4, 4)`; this test
//! fails until the constant says so.

use pgso_datagen::InstanceKg;
use pgso_graphstore::{props, GraphBackend, GraphUpdate, VertexId};
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_server::{IngestConfig, KgServer, ServerConfig};
use std::time::Duration;

/// `(served answer, treat edges out of drugs)` after the ingest below: the
/// graph has the fourth edge, the replica the statement reads does not.
const INGEST_KNOWN_DIFFERENCE: (i64, usize) = (3, 4);

const COLLECT: &str = "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN size(collect(i.desc))";

/// `treat` edges leaving `Drug` vertices, counted without charging a read.
fn treat_edges(graph: &dyn GraphBackend) -> usize {
    graph.vertices_with_label("Drug").into_iter().map(|d| graph.out_degree(d, "treat")).sum()
}

#[test]
fn an_ingested_edge_is_not_in_the_replica_the_server_answers_from() {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 23);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 23);
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

    let before = server.serve_text(COLLECT).unwrap();
    assert_eq!(before.scalar(), Some(3));
    assert_eq!(before.stats.edge_traversals, 0, "answered from the replica");
    let epoch = server.current_epoch();
    assert_eq!(treat_edges(epoch.graph()), 3);

    let drug = VertexId(epoch.graph().vertex_count() as u64);
    let target = epoch.graph().vertices_with_label("IndicationCondition")[0];
    drop(epoch);
    let updates = vec![
        GraphUpdate::AddVertex {
            label: "Drug".into(),
            properties: props([("name", "IngestedDrug".into())]),
        },
        GraphUpdate::AddEdge { label: "treat".into(), src: drug, dst: target },
    ];
    server.ingest(updates).unwrap();
    assert!(server.flush_ingest());

    let served = server.serve_text(COLLECT).unwrap().scalar().unwrap();
    let edges = treat_edges(server.current_epoch().graph());
    assert_eq!((served, edges), INGEST_KNOWN_DIFFERENCE);
}

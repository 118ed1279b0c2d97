//! Crash-recovery acceptance: a `KgServer` killed after ingesting K updates
//! must recover to **bit-identical Q1–Q12 row sets** versus an uninterrupted
//! server that ingested the same updates — also from a store whose snapshots
//! record four storage shards — and its recovered `WorkloadTracker`
//! frequencies must equal the pre-kill state (last durable checkpoint:
//! snapshot + replayed WAL tail).

use pgso::datagen::{streaming_updates, validate, UpdateStreamConfig};
use pgso::ontology::catalog;
use pgso::persist::{PersistConfig, Snapshot};
use pgso::prelude::*;
use pgso::query::{QueryResult, Row};
use pgso::server::ServerConfig;
use pgso_bench::{microbenchmark, DatasetId};
use std::path::Path;

struct Inputs {
    ontology: Ontology,
    statistics: DataStatistics,
    instance: InstanceKg,
    frequencies: AccessFrequencies,
}

fn inputs(dataset: DatasetId) -> Inputs {
    let ontology = match dataset {
        DatasetId::Med => catalog::medical(),
        DatasetId::Fin => catalog::financial(),
    };
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 31);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.04, 31);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    Inputs { ontology, statistics, instance, frequencies }
}

fn config() -> ServerConfig {
    ServerConfig {
        auto_reoptimize: false,
        // Small publish batches so the K updates span several epoch swaps
        // and the final batch is still *staged* (WAL-only) at kill time.
        ingest: IngestConfig {
            publish_batch: 25,
            publish_interval: std::time::Duration::from_secs(3600),
        },
        ..ServerConfig::default()
    }
}

fn build(dataset: DatasetId, persist: Option<PersistConfig>) -> KgServer {
    let i = inputs(dataset);
    match persist {
        None => KgServer::new(i.ontology, i.statistics, i.instance, i.frequencies, config()),
        Some(p) => KgServer::new_persistent(
            i.ontology,
            i.statistics,
            i.instance,
            i.frequencies,
            config(),
            p,
        )
        .expect("persistent server builds"),
    }
}

fn dataset_queries(dataset: DatasetId) -> Vec<Statement> {
    microbenchmark().into_iter().filter(|q| q.dataset == dataset).map(|q| q.query).collect()
}

/// Typed statements reach a server as their `Display` text.
fn serve(server: &KgServer, statement: &Statement) -> QueryResult {
    server.serve_text(&statement.to_string()).expect("a statement's Display text parses")
}

/// The `$param` statement every matrix server prepares pre-kill; its handle
/// (dense id + typed signature) must survive the epoch swaps the ingest
/// batches cause *and* the recovery.
const PREPARED_TEXT: &str =
    "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name ORDER BY d.name LIMIT $n";

fn prepared_params() -> pgso::prelude::Params {
    pgso::prelude::Params::new().set("needle", "Drug_name").set("n", 5i64)
}

/// Copies the store in `dir` and rewrites every snapshot in the copy as a
/// server that partitioned its epochs across `shard_count` shards wrote it.
fn copy_store_with_shard_count(dir: &Path, shard_count: u32) -> tempfile::TempDir {
    let copy = tempfile::tempdir().unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, copy.path().join(path.file_name().unwrap())).unwrap();
    }
    let (snapshots, _) = pgso::persist::list_generations(copy.path()).unwrap();
    assert!(!snapshots.is_empty());
    for generation in snapshots {
        let path = pgso::persist::snapshot_path(copy.path(), generation);
        let snapshot = pgso::persist::read_snapshot(&path).unwrap();
        assert_eq!(snapshot.shard_count, 1, "servers record one backend per epoch");
        pgso::persist::write_snapshot(&path, &Snapshot { shard_count, ..snapshot }).unwrap();
    }
    copy
}

/// The kill/recover equivalence matrix: Med and Fin, each also recovered
/// from a copy of the store whose snapshots record four shards.
#[test]
fn killed_server_recovers_to_bit_identical_q1_q12_rows() {
    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let queries = dataset_queries(dataset);
        assert!(!queries.is_empty());
        let dir = tempfile::tempdir().unwrap();
        let persist = PersistConfig::new_unsynced(dir.path());

        // Server A: serve the full microbenchmark (the tracker learns),
        // ingest K updates, die without a checkpoint.
        let (updates, pre_kill_tracker, pre_kill_prepared_rows) = {
            let server = build(dataset, Some(persist.clone()));
            for query in &queries {
                let _ = serve(&server, query);
            }
            let prepared = server.prepare_text(PREPARED_TEXT).expect("prepares");
            let before_swaps = server.execute(&prepared, &prepared_params()).unwrap().rows;
            let epoch = server.current_epoch();
            let updates = streaming_updates(
                server.ontology(),
                &epoch.schema,
                epoch.graph(),
                60,
                77,
                &UpdateStreamConfig::default(),
            );
            drop(epoch);
            let mut published_some = false;
            let mut staged_some = false;
            for batch in updates.chunks(20) {
                let report = server.ingest(batch.to_vec()).unwrap();
                published_some |= report.published;
                staged_some |= report.pending > 0;
            }
            assert!(published_some, "some batches must have been published pre-kill");
            assert!(staged_some, "some updates must still be WAL-only at kill time");
            // Taken *before* the final execute: this is the state the
            // last WAL tracker checkpoint captured, which is what
            // recovery restores.
            let tracker = server.tracker().snapshot();
            // The prepared handle survives the publication epoch swaps:
            // same signature, still executable, rows growing only with
            // the ingested data.
            let after_swaps = server.execute(&prepared, &prepared_params()).unwrap().rows;
            assert!(after_swaps.len() >= before_swaps.len());
            (updates, tracker, after_swaps)
            // drop = kill: no checkpoint, no flush
        };
        // Stores written before epochs became one backend each carry their
        // shard count; recovery must ignore it.
        let partitioned = copy_store_with_shard_count(dir.path(), 4);

        // Server B: identical construction, same request stream (one
        // prepared execution included, so the learned frequencies
        // match), same updates, never killed.
        let uninterrupted = build(dataset, None);
        for query in &queries {
            let _ = serve(&uninterrupted, query);
        }
        let prepared_b = uninterrupted.prepare_text(PREPARED_TEXT).unwrap();
        let _ = uninterrupted.execute(&prepared_b, &prepared_params()).unwrap();
        uninterrupted.ingest(updates.clone()).unwrap();
        uninterrupted.flush_ingest();

        // Recovery, from the store as written and from its partitioned copy.
        let recover = |persist| {
            let i = inputs(dataset);
            KgServer::recover(i.ontology, i.statistics, i.instance, config(), persist)
                .expect("recovery succeeds")
        };
        let recovered = recover(persist);
        let recovered_partitioned = recover(PersistConfig::new_unsynced(partitioned.path()));
        assert_eq!(
            recovered.published_updates(),
            updates.len(),
            "every durably logged update must be recovered"
        );

        // Tracker: recovered == pre-kill (snapshot + replayed tail; the
        // last WAL checkpoint rode along with the final ingest batch).
        let tracker = recovered.tracker().snapshot();
        assert_eq!(tracker, pre_kill_tracker, "{dataset:?}");
        let a = recovered.tracker().to_frequencies(recovered.ontology(), 10_000.0);
        let b = uninterrupted.tracker().to_frequencies(uninterrupted.ontology(), 10_000.0);
        for cid in recovered.ontology().concept_ids() {
            assert_eq!(
                a.concept(cid).to_bits(),
                b.concept(cid).to_bits(),
                "learned frequencies must match the uninterrupted server"
            );
        }

        // Both graphs conform to the schema they serve: every update the
        // stream generated lands on a vertex and an edge type it has.
        for server in [&recovered, &uninterrupted] {
            let epoch = server.current_epoch();
            assert_eq!(validate(epoch.graph(), &epoch.schema), [], "{dataset:?}");
        }

        // Q1–Q12: bit-identical row sets.
        for (index, query) in queries.iter().enumerate() {
            let recovered_rows = serve(&recovered, query).rows;
            let uninterrupted_rows = serve(&uninterrupted, query).rows;
            assert_eq!(recovered_rows, uninterrupted_rows, "{dataset:?} Q{}", index + 1);
            assert_eq!(
                serve(&recovered_partitioned, query).rows,
                recovered_rows,
                "{dataset:?} Q{}: a snapshot recording 4 shards",
                index + 1
            );
        }

        // The prepared handle registered pre-kill survives recovery:
        // the registry comes back in registration order with the typed
        // parameter signature intact, and executing it with the same
        // bindings reproduces the pre-kill rows (the staged WAL-only
        // updates replayed, so the graph is the pre-kill graph).
        let restored = recovered.prepared_statements();
        assert_eq!(restored.len(), 1, "{dataset:?}");
        let prepared = &restored[0];
        assert_eq!(
            prepared.signature().names().collect::<Vec<_>>(),
            ["needle", "n"],
            "parameter signature survives recovery"
        );
        assert_eq!(
            recovered.execute(prepared, &prepared_params()).unwrap().rows,
            pre_kill_prepared_rows,
            "{dataset:?}: prepared execution survives recovery"
        );
    }
}

/// A remote client killed mid-pipelined-burst (socket dropped without
/// reading a single response) must not take down the serving process — and
/// when the persistent server is later killed itself, it must recover to
/// bit-identical prepared-statement rows.
#[test]
fn socket_killed_client_leaves_persistent_server_recoverable() {
    use pgso::net::{KgClient, KgListener, NetConfig};
    use std::sync::Arc;

    let dir = tempfile::tempdir().unwrap();
    let persist = PersistConfig::new_unsynced(dir.path());

    let pre_kill_rows = {
        let server = Arc::new(build(DatasetId::Med, Some(persist.clone())));
        let mut listener =
            KgListener::bind(server.clone(), "127.0.0.1:0", NetConfig::default()).unwrap();
        listener.serve().unwrap();
        let addr = listener.local_addr();

        // A healthy client registers the prepared statement over the wire
        // (the registration is WAL-logged exactly like an in-process one).
        let mut healthy = KgClient::connect(addr).expect("connects");
        let stmt = healthy.prepare(PREPARED_TEXT).expect("prepares over the wire");
        let baseline = healthy.execute(&stmt, &prepared_params()).expect("executes").rows;

        // The victim: queue a deep pipelined burst and vanish without
        // reading one byte of response.
        let mut victim = KgClient::connect(addr).expect("connects");
        let victim_stmt = victim.prepare(PREPARED_TEXT).expect("prepares");
        for _ in 0..32 {
            victim.send_execute(&victim_stmt, &prepared_params()).expect("queues");
        }
        drop(victim); // socket killed mid-request

        // Ingest through the engine while the wire layer digests the kill.
        let epoch = server.current_epoch();
        let updates = streaming_updates(
            server.ontology(),
            &epoch.schema,
            epoch.graph(),
            30,
            77,
            &UpdateStreamConfig::default(),
        );
        drop(epoch);
        server.ingest(updates).unwrap();

        // The healthy sibling never noticed the kill.
        let after = healthy.execute(&stmt, &prepared_params()).expect("sibling survives").rows;
        assert!(after.len() >= baseline.len());
        healthy.goodbye().expect("orderly close");
        listener.shutdown();
        assert!(Arc::strong_count(&server) == 1, "the listener released the engine");
        let rows = server.execute(&server.prepared_statements()[0], &prepared_params());
        rows.unwrap().rows
        // drop(server) = kill: no checkpoint, no flush
    };

    let i = inputs(DatasetId::Med);
    let recovered = KgServer::recover(i.ontology, i.statistics, i.instance, config(), persist)
        .expect("recovery succeeds after a socket-killed client");
    let restored = recovered.prepared_statements();
    assert_eq!(restored.len(), 1, "the wire-registered prepared statement survives");
    assert_eq!(
        recovered.execute(&restored[0], &prepared_params()).unwrap().rows,
        pre_kill_rows,
        "recovered rows must be bit-identical to the pre-kill state"
    );
}

/// A torn WAL tail (the crash hit mid-append) recovers cleanly to the last
/// complete record: no panic, no partial vertex.
#[test]
fn recovery_survives_a_torn_wal_tail() {
    let dir = tempfile::tempdir().unwrap();
    let persist = PersistConfig::new_unsynced(dir.path());
    let total = {
        let server = build(DatasetId::Med, Some(persist.clone()));
        let epoch = server.current_epoch();
        let updates = streaming_updates(
            server.ontology(),
            &epoch.schema,
            epoch.graph(),
            20,
            13,
            &UpdateStreamConfig::default(),
        );
        drop(epoch);
        let total = updates.len();
        server.ingest(updates).unwrap();
        total
    };
    // Tear the newest WAL mid-record (deep enough to cut into the update
    // frames, not just the trailing tracker checkpoint).
    let (_, wals) = pgso::persist::list_generations(dir.path()).unwrap();
    let wal = pgso::persist::wal_path(dir.path(), *wals.last().unwrap());
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() * 3 / 5]).unwrap();

    let i = inputs(DatasetId::Med);
    let recovered = KgServer::recover(i.ontology, i.statistics, i.instance, config(), persist)
        .expect("torn tail must not prevent recovery");
    let survived = recovered.published_updates();
    assert!(survived < total, "the torn records must be dropped");
    assert!(survived > 0, "the complete prefix must survive");
    // The recovered graph still answers queries.
    let result = recovered
        .serve_text("MATCH (d:Drug) RETURN d.name LIMIT 3")
        .expect("recovered server serves");
    assert!(result.matches > 0);
}

/// What must not depend on how a server was put together.
fn fingerprint_of(
    server: &KgServer,
    queries: &[Statement],
) -> (u64, u64, usize, usize, Vec<Vec<Row>>) {
    let epoch = server.current_epoch();
    let rows = queries.iter().map(|q| serve(server, q).rows).collect();
    (
        epoch.number,
        epoch.schema_generation,
        epoch.graph().vertex_count(),
        epoch.graph().edge_count(),
        rows,
    )
}

/// `KgServer::{new, new_persistent, recover}` are shorthands for the
/// builder: a volatile, a persistent and a recovered server answer Q1–Q12
/// identically whichever spelling built them, and whether their instruments
/// live in a private registry or a shared, prefixed one.
#[test]
fn builder_and_pinned_constructors_build_the_same_server() {
    use pgso::server::TelemetrySink;
    use std::sync::Arc;

    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let queries = dataset_queries(dataset);
        let registry = Arc::new(MetricsRegistry::new());
        let shared = |name: &str| TelemetrySink::Shared {
            registry: registry.clone(),
            prefix: format!("tenant.{name}."),
        };
        let builder = || {
            let i = inputs(dataset);
            (
                KgServer::builder(i.ontology, i.statistics, i.instance).config(config()),
                i.frequencies,
            )
        };

        // Volatile.
        let pinned = build(dataset, None);
        let schema = pinned.current_epoch().schema.clone();
        let reference = fingerprint_of(&pinned, &queries);
        assert!(reference.4.iter().any(|rows| !rows.is_empty()), "{dataset:?} answers something");
        let (b, frequencies) = builder();
        let built = b.build(frequencies).expect("volatile build");
        let (b, frequencies) = builder();
        let built_shared = b.telemetry_sink(shared("volatile")).build(frequencies).expect("builds");
        for (label, server) in [("builder", &built), ("builder + shared sink", &built_shared)] {
            assert_eq!(server.current_epoch().schema, schema, "{dataset:?} {label}: schema");
            assert_eq!(fingerprint_of(server, &queries), reference, "{dataset:?} {label}");
            assert!(!server.is_persistent());
        }
        assert!(
            registry.snapshot().histogram("tenant.volatile.query.latency").is_some(),
            "the shared sink registers under its prefix"
        );

        // Persistent, then killed and recovered — one directory per spelling.
        let (pinned_dir, built_dir) = (tempfile::tempdir().unwrap(), tempfile::tempdir().unwrap());
        {
            let pinned = build(dataset, Some(PersistConfig::new_unsynced(pinned_dir.path())));
            let (b, frequencies) = builder();
            let built = b
                .persist(PersistConfig::new_unsynced(built_dir.path()))
                .telemetry_sink(shared("persistent"))
                .build(frequencies)
                .expect("persistent build");
            for (label, server) in [("new_persistent", &pinned), ("builder", &built)] {
                assert!(server.is_persistent());
                assert_eq!(server.current_epoch().schema, schema, "{dataset:?} {label}: schema");
                assert_eq!(fingerprint_of(server, &queries), reference, "{dataset:?} {label}");
            }
            // drop = kill
        }
        let i = inputs(dataset);
        let pinned = KgServer::recover(
            i.ontology,
            i.statistics,
            i.instance,
            config(),
            PersistConfig::new_unsynced(pinned_dir.path()),
        )
        .expect("recovers");
        let (b, _) = builder();
        let built = b
            .persist(PersistConfig::new_unsynced(built_dir.path()))
            .telemetry_sink(shared("recovered"))
            .recover()
            .expect("recovers");
        for (label, server) in [("recover", &pinned), ("builder", &built)] {
            assert_eq!(server.current_epoch().schema, schema, "{dataset:?} {label}: schema");
            assert_eq!(
                fingerprint_of(server, &queries),
                reference,
                "{dataset:?} recovered {label}"
            );
        }

        // The two terminals refuse each other's preconditions with typed
        // errors: recovery needs a directory, a fresh build an empty one.
        let (b, _) = builder();
        assert_eq!(b.recover().unwrap_err().kind(), std::io::ErrorKind::InvalidInput);
        let (b, frequencies) = builder();
        let occupied = b.persist(PersistConfig::new_unsynced(built_dir.path())).build(frequencies);
        assert_eq!(occupied.unwrap_err().kind(), std::io::ErrorKind::AlreadyExists);
    }
}

//! Cross-tenant isolation acceptance for `pgso-tenant` + the wire
//! protocol:
//!
//! * a 2-tenant [`TenantHost`] answers both tenants' Q1–Q12 **bit-identical**
//!   to two standalone `KgServer`s built from the same inputs;
//! * one tenant's churn — ingest publications, WAL rotations, snapshot
//!   writes, a re-optimization attempt — leaves a sibling's concurrent
//!   readers unstalled and its answers bit-identical;
//! * a killed multi-tenant host recovers every tenant from its namespaced
//!   `<root>/tenants/<name>` directory bit-identically;
//! * over TCP: `USE` re-targets ad-hoc queries (handles stay bound to the
//!   preparing tenant), unknown tenants and quota exhaustion are
//!   *survivable* typed errors, and a revision-2 client is refused at HELLO
//!   (one protocol revision; no negotiating down);
//! * a pipelined `USE` re-targets only the requests behind it, and a tenant
//!   closed and re-created under its old name never answers a PREPARE with
//!   its predecessor's handle.

use pgso::ontology::catalog;
use pgso::persist::PersistConfig;
use pgso::prelude::*;
use pgso::server::{IngestConfig, ServerConfig};
use pgso_bench::{microbenchmark, DatasetId};
use pgso_net::frame::{write_frame, FrameReader, MAX_FRAME_LEN};
use pgso_net::proto::{decode_response, encode_request, ErrorCode, Request, Response};
use pgso_net::{KgClient, KgListener, NetConfig, NetError, PROTOCOL_VERSION};
use pgso_tenant::{TenantHost, TenantHostConfig, TenantQuotas, TenantSpec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn quiet() -> ServerConfig {
    ServerConfig { auto_reoptimize: false, ..ServerConfig::default() }
}

/// Full-catalog inputs, same knobs as `tests/net_e2e.rs`.
fn dataset_spec(dataset: DatasetId) -> TenantSpec {
    let ontology = match dataset {
        DatasetId::Med => catalog::medical(),
        DatasetId::Fin => catalog::financial(),
    };
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 31);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.04, 31);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    TenantSpec { ontology, statistics, instance, frequencies }
}

/// Small med-mini inputs for the churn / wire tests; `scale` varies so
/// sibling tenants return *different* answers and routing mistakes show.
fn mini_spec(seed: u64, scale: f64) -> TenantSpec {
    let ontology = catalog::med_mini();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), seed);
    let instance = InstanceKg::generate(&ontology, &statistics, scale, seed);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    TenantSpec { ontology, statistics, instance, frequencies }
}

fn dataset_queries(dataset: DatasetId) -> Vec<String> {
    microbenchmark()
        .into_iter()
        .filter(|q| q.dataset == dataset)
        .map(|q| q.query.to_string())
        .collect()
}

fn new_drug(i: u32) -> GraphUpdate {
    GraphUpdate::AddVertex {
        label: "Drug".into(),
        properties: pgso_graphstore::props([("name", format!("IngestedDrug_{i:04}").into())]),
    }
}

// ---- in-process equivalence ---------------------------------------------

/// The headline acceptance: Med and Fin hosted side by side in one
/// `TenantHost` answer their Q1–Q12 exactly as two standalone servers do.
#[test]
fn two_tenant_host_matches_standalone_servers_bit_identically() {
    let host = TenantHost::new(TenantHostConfig { server: quiet(), ..Default::default() });
    let med = host.create_tenant("med", dataset_spec(DatasetId::Med)).expect("med tenant");
    let fin = host.create_tenant("fin", dataset_spec(DatasetId::Fin)).expect("fin tenant");
    assert_eq!(host.tenant_names(), vec!["fin".to_string(), "med".to_string()]);
    assert_eq!(host.default_tenant().expect("first tenant is default").name(), "med");

    for (dataset, tenant) in [(DatasetId::Med, &med), (DatasetId::Fin, &fin)] {
        let spec = dataset_spec(dataset);
        let standalone =
            KgServer::new(spec.ontology, spec.statistics, spec.instance, spec.frequencies, quiet());
        let queries = dataset_queries(dataset);
        assert!(!queries.is_empty());
        for text in &queries {
            let hosted = tenant.serve_text(text).expect("hosted query serves");
            let solo = standalone.serve_text(text).expect("standalone query serves");
            assert_eq!(
                hosted.rows,
                solo.rows,
                "{} tenant diverged from standalone on: {text}",
                dataset.label()
            );
            assert_eq!(hosted.matches, solo.matches);
        }
    }

    // The shared exposition carries both tenants' series, prefixed apart.
    let exposition = host.metrics_text();
    assert!(exposition.contains("tenant_med_query_latency_count"));
    assert!(exposition.contains("tenant_fin_query_latency_count"));
    assert!(exposition.contains("tenant_med_plan_cache_hits"));
    assert!(exposition.contains("tenant_fin_epoch_number"));
}

// ---- churn isolation ----------------------------------------------------

/// While tenant A publishes ingest batches, rotates its WAL, writes
/// snapshot generations and attempts a re-optimization swap, tenant B's
/// concurrent reader keeps getting bit-identical rows, and B's epoch never
/// moves.
#[test]
fn sibling_reader_stays_bit_identical_through_churn() {
    let dir = tempfile::tempdir().expect("tempdir");
    let mut persist = PersistConfig::new_unsynced("");
    // A few hundred bytes of WAL force a rotation + snapshot per batch —
    // the exact storms that must not leak across tenant directories.
    persist.snapshot_wal_bytes = 512;
    let config = ServerConfig {
        auto_reoptimize: false,
        drift_threshold: 0.05,
        ingest: IngestConfig { publish_batch: 16, publish_interval: Duration::from_secs(3600) },
        ..ServerConfig::default()
    };
    let host = TenantHost::new(TenantHostConfig {
        root: Some(dir.path().to_path_buf()),
        server: config,
        persist,
        default_quotas: TenantQuotas::unlimited(),
    });
    let a = host.create_tenant("churner", mini_spec(7, 0.05)).expect("tenant A");
    let b = host.create_tenant("reader", mini_spec(11, 0.08)).expect("tenant B");

    const READ: &str = "MATCH (d:Drug) RETURN d.name ORDER BY d.name LIMIT 25";
    let baseline = b.serve_text(READ).expect("baseline read");
    assert!(!baseline.rows.is_empty());
    let b_epoch = b.server().current_epoch().number;

    let stop = Arc::new(AtomicBool::new(false));
    let reader = std::thread::spawn({
        let b = b.clone();
        let baseline_rows = baseline.rows.clone();
        let stop = stop.clone();
        move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let r = b.serve_text(READ).expect("reader query serves during churn");
                assert_eq!(r.rows, baseline_rows, "tenant B's rows changed under A's churn");
                reads += 1;
            }
            reads
        }
    });

    // A's churn: six published batches (each big enough to rotate A's WAL
    // and write a snapshot), an explicit synchronous checkpoint, a skewed
    // serving burst, and a re-optimization attempt.
    for batch in 0u32..6 {
        let updates = (0..16).map(|i| new_drug(batch * 16 + i)).collect();
        a.ingest(updates).expect("tenant A ingest");
        let _ = a.serve_text("MATCH (d:Drug) RETURN count(d)").expect("A serves");
    }
    assert!(a.server().checkpoint().expect("checkpoint io"), "A is persistent");
    for _ in 0..50 {
        let _ = a.serve_text("MATCH (c:Condition) RETURN count(c)").expect("A skewed serve");
    }
    let _ = a.server().try_reoptimize();

    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader thread");
    assert!(reads > 0, "reader made progress during the churn");

    // A visibly churned; B did not move at all.
    assert!(a.server().current_epoch().number > 0, "A's ingest published epochs");
    assert_eq!(b.server().current_epoch().number, b_epoch, "B's epoch is untouched");
    assert_eq!(b.serve_text(READ).expect("post-churn read").rows, baseline.rows);

    // The churn stayed inside A's namespaced directory.
    assert!(dir.path().join("tenants/churner").is_dir());
    assert!(dir.path().join("tenants/reader").is_dir());
}

// ---- multi-tenant kill → recover ----------------------------------------

/// Both tenants of a killed persistent host recover bit-identically from
/// their own `<root>/tenants/<name>` directories; dropping one tenant
/// removes exactly its directory.
#[test]
fn killed_host_recovers_every_tenant_bit_identically() {
    let dir = tempfile::tempdir().expect("tempdir");
    let config = ServerConfig {
        auto_reoptimize: false,
        ingest: IngestConfig { publish_batch: 16, publish_interval: Duration::from_secs(3600) },
        ..ServerConfig::default()
    };
    let host_config = TenantHostConfig {
        root: Some(dir.path().to_path_buf()),
        server: config,
        persist: PersistConfig::new_unsynced(""),
        default_quotas: TenantQuotas::unlimited(),
    };
    const READ: &str = "MATCH (d:Drug) RETURN d.name ORDER BY d.name LIMIT 60";

    // Live phase: serve, ingest two full batches per tenant, kill without
    // a checkpoint (drop = kill; the WAL has everything).
    let (alpha_rows, beta_rows) = {
        let host = TenantHost::new(host_config.clone());
        let alpha = host.create_tenant("alpha", mini_spec(7, 0.05)).expect("alpha");
        let beta = host.create_tenant("beta", mini_spec(11, 0.08)).expect("beta");
        for tenant in [&alpha, &beta] {
            let _ = tenant.serve_text(READ).expect("pre-kill serve");
            tenant.ingest((0..32).map(new_drug).collect()).expect("pre-kill ingest");
        }
        (
            alpha.serve_text(READ).expect("alpha pre-kill").rows,
            beta.serve_text(READ).expect("beta pre-kill").rows,
        )
    };
    assert_ne!(alpha_rows, beta_rows, "scales differ, so the answers must too");

    // Recovery phase: a fresh host opens both tenants from disk.
    let host = TenantHost::new(host_config);
    let alpha = host.open("alpha", mini_spec(7, 0.05)).expect("alpha recovers");
    let beta = host.open("beta", mini_spec(11, 0.08)).expect("beta recovers");
    assert_eq!(alpha.serve_text(READ).expect("alpha post-recover").rows, alpha_rows);
    assert_eq!(beta.serve_text(READ).expect("beta post-recover").rows, beta_rows);

    // Dropping beta removes its directory and nothing else.
    host.drop_tenant("beta").expect("drop beta");
    assert!(!dir.path().join("tenants/beta").exists());
    assert!(dir.path().join("tenants/alpha").is_dir());
    assert_eq!(alpha.serve_text(READ).expect("alpha survives sibling drop").rows, alpha_rows);
}

// ---- wire: USE, quotas, v2 refusal ---------------------------------------

/// Wire behavior end to end: default-tenant landing, `USE` re-targeting,
/// handle-to-tenant binding, survivable UnknownTenant / QuotaExceeded
/// errors, and a hand-rolled revision-2 client on the same listener, which
/// gets a typed `BadHandshake` instead of a session.
#[test]
fn wire_use_routing_quota_rejection_and_v2_interop() {
    let host =
        Arc::new(TenantHost::new(TenantHostConfig { server: quiet(), ..Default::default() }));
    let a = host.create_tenant("a", mini_spec(7, 0.05)).expect("tenant a");
    let b = host.create_tenant("b", mini_spec(11, 0.6)).expect("tenant b");
    host.create_tenant_with(
        "capped",
        mini_spec(13, 0.05),
        TenantQuotas { max_inflight: 0, max_queries: 3, max_ingest_updates: 0 },
    )
    .expect("capped tenant");

    let mut listener =
        KgListener::bind_host(host.clone(), "127.0.0.1:0", NetConfig::default()).expect("bind");
    listener.serve().expect("serve");
    let addr = listener.local_addr();

    const COUNT: &str = "MATCH (d:Drug) RETURN count(d)";
    let expect_a = a.server().serve_text(COUNT).expect("a in-process").rows;
    let expect_b = b.server().serve_text(COUNT).expect("b in-process").rows;
    assert_ne!(expect_a, expect_b, "scales differ, so the counts must too");

    let mut client = KgClient::connect(addr).expect("connect");

    // Connections land on the default tenant (first created: "a").
    assert_eq!(client.run(COUNT).expect("default-tenant run").rows, expect_a);

    // USE re-targets ad-hoc queries...
    client.use_tenant("b").expect("USE b");
    assert_eq!(client.run(COUNT).expect("run on b").rows, expect_b);

    // ...but handles stay bound to the tenant that prepared them.
    let on_b = client.prepare(COUNT).expect("prepare on b");
    client.use_tenant("a").expect("USE a");
    assert_eq!(
        client.execute(&on_b, &Params::new()).expect("execute bound handle").rows,
        expect_b,
        "EXECUTE must run on the preparing tenant, not the current selection"
    );

    // Unknown tenant: typed, survivable, previous selection intact ("a").
    match client.use_tenant("nope") {
        Err(NetError::Remote { code: ErrorCode::UnknownTenant, .. }) => {}
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    assert_eq!(client.run(COUNT).expect("selection survives bad USE").rows, expect_a);

    // Quota exhaustion: three queries fit the lifetime budget, the fourth
    // is rejected with QuotaExceeded — and the connection keeps serving.
    client.use_tenant("capped").expect("USE capped");
    for _ in 0..3 {
        let _ = client.run(COUNT).expect("within budget");
    }
    match client.run(COUNT) {
        Err(NetError::Remote { code: ErrorCode::QuotaExceeded, message }) => {
            assert!(message.contains("quota"), "diagnostic names the quota: {message}");
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    client.use_tenant("a").expect("connection survives quota rejection");
    assert_eq!(client.run(COUNT).expect("post-rejection run").rows, expect_a);
    client.goodbye().expect("goodbye");

    // A revision-2 client (no USE in its vocabulary, no trace trailer) is
    // refused at HELLO and its connection drains; `KgClient` only speaks
    // the one revision, so this one is hand-rolled.
    {
        let mut stream = TcpStream::connect(addr).expect("v2 connect");
        let (op, payload) = encode_request(&Request::Hello { version: 2 });
        let mut frame = Vec::new();
        write_frame(&mut frame, op, &payload);
        stream.write_all(&frame).expect("v2 write");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("the server closes after refusing");
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        reader.extend(&bytes);
        let (op, payload) = reader.next_frame().expect("legal frame").expect("an ERROR frame");
        match decode_response(op, &payload).expect("decodes") {
            Response::Error { code: ErrorCode::BadHandshake, message } => {
                assert!(message.contains("version 2"), "{message}");
            }
            other => panic!("expected BadHandshake, got {other:?}"),
        }
        assert_eq!(reader.next_frame(), Ok(None), "nothing follows the refusal");
    }

    let report = listener.shutdown();
    assert!(report.drained, "all connections drained");
    // The capped tenant's rejection is visible in its health accounting.
    let health = host.tenant("capped").expect("capped").health();
    assert_eq!(health.rejected, 1);
    assert_eq!(health.admitted, 3);
}

/// Reads `stream` until `reader` holds one more whole frame, then decodes it.
fn next_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Response {
    let mut buf = [0u8; 4096];
    loop {
        if let Some((op, payload)) = reader.next_frame().expect("server frames are legal") {
            return decode_response(op, &payload).expect("decodes");
        }
        let n = stream.read(&mut buf).expect("reads");
        assert!(n > 0, "the server closed the connection mid-burst");
        reader.extend(&buf[..n]);
    }
}

/// Collects one result stream: ROWS chunks until the SUMMARY.
fn next_rows(stream: &mut TcpStream, reader: &mut FrameReader) -> Vec<pgso_query::Row> {
    let mut rows = Vec::new();
    loop {
        match next_response(stream, reader) {
            Response::Rows { rows: chunk } => rows.extend(chunk),
            Response::Summary { .. } => return rows,
            other => panic!("expected ROWS/SUMMARY, got {other:?}"),
        }
    }
}

/// A pipelined `USE` re-targets only the requests behind it. The burst
/// `HELLO; RUN q; USE b; RUN q` goes out in one write on a fresh connection,
/// again and again: the first RUN must answer from the default tenant `a`
/// every time, however the server schedules the burst.
#[test]
fn pipelined_use_never_reroutes_an_earlier_run() {
    let host =
        Arc::new(TenantHost::new(TenantHostConfig { server: quiet(), ..Default::default() }));
    let a = host.create_tenant("a", mini_spec(7, 0.05)).expect("tenant a");
    let b = host.create_tenant("b", mini_spec(11, 0.6)).expect("tenant b");
    let mut listener =
        KgListener::bind_host(host.clone(), "127.0.0.1:0", NetConfig::default()).expect("bind");
    listener.serve().expect("serve");

    const COUNT: &str = "MATCH (d:Drug) RETURN count(d)";
    let expect_a = a.server().serve_text(COUNT).expect("a in-process").rows;
    let expect_b = b.server().serve_text(COUNT).expect("b in-process").rows;
    assert_ne!(expect_a, expect_b, "scales differ, so the counts must too");

    let mut burst = Vec::new();
    for request in [
        Request::Hello { version: PROTOCOL_VERSION },
        Request::Run { text: COUNT.to_string(), trace: None },
        Request::Use { tenant: "b".to_string() },
        Request::Run { text: COUNT.to_string(), trace: None },
    ] {
        let (op, payload) = encode_request(&request);
        write_frame(&mut burst, op, &payload);
    }
    for attempt in 0..200 {
        let mut stream = TcpStream::connect(listener.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.write_all(&burst).expect("burst written");
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let hello = next_response(&mut stream, &mut reader);
        assert!(matches!(hello, Response::HelloOk { .. }), "{hello:?}");
        let first = next_rows(&mut stream, &mut reader);
        let switched = next_response(&mut stream, &mut reader);
        assert!(matches!(switched, Response::UseOk { .. }), "{switched:?}");
        let second = next_rows(&mut stream, &mut reader);
        assert_eq!(first, expect_a, "burst {attempt}: the RUN before `USE b` ran on b");
        assert_eq!(second, expect_b, "burst {attempt}: the RUN after `USE b` ran on a");
    }
    assert!(listener.shutdown().drained, "all connections drained");
}

/// PREPARE dedups statement texts across connections per tenant *instance*:
/// after `a` is closed and re-created under the same name, a fresh
/// connection's PREPARE gets a handle the new engine issued, not the closed
/// engine's, and executing it answers from the new data.
#[test]
fn wire_prepare_never_returns_a_closed_tenants_handle() {
    let host =
        Arc::new(TenantHost::new(TenantHostConfig { server: quiet(), ..Default::default() }));
    let old = host.create_tenant("a", mini_spec(7, 0.05)).expect("tenant a");
    let mut listener =
        KgListener::bind_host(host.clone(), "127.0.0.1:0", NetConfig::default()).expect("bind");
    listener.serve().expect("serve");
    let addr = listener.local_addr();

    const COUNT: &str = "MATCH (d:Drug) RETURN count(d)";
    let expect_old = old.server().serve_text(COUNT).expect("old a in-process").rows;
    let mut first = KgClient::connect(addr).expect("connect");
    let stmt = first.prepare(COUNT).expect("prepare on the first a");
    assert_eq!(first.execute(&stmt, &Params::new()).expect("execute").rows, expect_old);
    first.goodbye().expect("goodbye");

    host.close("a").expect("close a");
    let new = host.create_tenant("a", mini_spec(11, 0.6)).expect("re-created a");
    let expect_new = new.server().serve_text(COUNT).expect("new a in-process").rows;
    assert_ne!(expect_old, expect_new, "scales differ, so the counts must too");

    let mut fresh = KgClient::connect(addr).expect("connect");
    fresh.use_tenant("a").expect("USE the re-created a");
    let stmt = fresh.prepare(COUNT).expect("prepare on the re-created a");
    let result = fresh.execute(&stmt, &Params::new()).expect("the handle is the new engine's");
    assert_eq!(result.rows, expect_new);
    fresh.goodbye().expect("goodbye");
    assert!(listener.shutdown().drained, "all connections drained");
}

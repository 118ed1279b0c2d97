//! Durability scenario: build a persistent serving engine, teach it a
//! workload, ingest a stream of updates through the write-ahead log with a
//! checkpoint on the way, kill the server without any graceful shutdown —
//! and recover it, asserting that the optimized Q9 plan, the query answers
//! and the learned workload frequencies all survive the restart.
//!
//! ```text
//! cargo run --release --example persistent_kg
//! ```

use pgso::ontology::catalog;
use pgso::prelude::*;
use std::time::Instant;

/// The drug-centric workload the schema is optimized for; the probe is the
/// paper's Q9-style aggregation (Drug → DrugRoute).
const WORKLOAD: [&str; 3] = [
    "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) RETURN size(collect(dr.drugRouteId))",
    "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN size(collect(i.desc))",
    "MATCH (d:Drug) WHERE d.name CONTAINS 'Drug_name' RETURN d.name LIMIT 5",
];

/// Serves 120 workload texts ad hoc from 4 threads; returns (served, q/s).
fn replay_workload(server: &KgServer) -> (usize, f64) {
    let (total, threads) = (120, 4);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in (t..total).step_by(threads) {
                    server.serve_text(WORKLOAD[i % WORKLOAD.len()]).expect("workload parses");
                }
            });
        }
    });
    (total, total as f64 / started.elapsed().as_secs_f64())
}

fn build_inputs() -> (Ontology, DataStatistics, InstanceKg, AccessFrequencies) {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 23);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 23);
    // Teach the initial frequencies from the workload itself.
    let tracker = WorkloadTracker::new(&ontology);
    for text in WORKLOAD {
        tracker.record_statement(&ontology, &parse(text).expect("workload parses"));
    }
    let frequencies = tracker.to_frequencies(&ontology, 10_000.0);
    (ontology, statistics, instance, frequencies)
}

fn space_limited(
    inputs: &(Ontology, DataStatistics, InstanceKg, AccessFrequencies),
) -> ServerConfig {
    let nsc = optimize_nsc(
        OptimizerInput::new(&inputs.0, &inputs.1, &inputs.3),
        &OptimizerConfig::default(),
    );
    ServerConfig {
        optimizer: OptimizerConfig::with_space_limit(nsc.total_cost / 8),
        auto_reoptimize: false,
        ingest: IngestConfig { publish_batch: 64, publish_interval: std::time::Duration::ZERO },
        ..ServerConfig::default()
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("pgso-persistent-kg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let probe = WORKLOAD[0];

    let inputs = build_inputs();
    let config = space_limited(&inputs);
    let (pre_kill_answer, pre_kill_traversals, pre_kill_ratio, pre_kill_total, pre_kill_lookup) = {
        let (ontology, statistics, instance, frequencies) = build_inputs();
        let server = KgServer::new_persistent(
            ontology,
            statistics,
            instance,
            frequencies,
            config,
            PersistConfig::new(&dir),
        )
        .expect("persistent server builds");
        println!("serving from {} (WAL fsync on)", dir.display());

        // Steady state: 4 threads replay the workload; the tracker learns.
        let (served, qps) = replay_workload(&server);
        println!(
            "workload: {served} queries -> {qps:.0} q/s, plan-cache hit ratio {:.3}",
            server.cache_stats().hit_ratio()
        );

        // Ingest a stream of new entities through the WAL while serving.
        let epoch = server.current_epoch();
        let updates = streaming_updates(
            server.ontology(),
            &epoch.schema,
            epoch.graph(),
            200,
            99,
            &pgso::datagen::UpdateStreamConfig::default(),
        );
        drop(epoch);
        let total = updates.len();
        for (i, batch) in updates.chunks(50).enumerate() {
            let report = server.ingest(batch.to_vec()).expect("ingest is durable");
            println!(
                "ingest: {} updates (pending {}, published {}, wal {} bytes{})",
                report.accepted,
                report.pending,
                report.published,
                report.wal_bytes,
                if report.rotated { ", rotated + snapshot" } else { "" }
            );
            if i == 4 {
                // A checkpoint mid-stream: the WAL rotates and a snapshot
                // generation subsumes everything so far, so recovery below
                // is that snapshot plus the tail logged after it.
                server.checkpoint().expect("checkpoint is durable");
                println!("checkpoint: snapshot written, WAL rotated");
            }
        }
        server.flush_ingest();

        // A parameterized prepared statement registered pre-kill: the
        // registration rides the WAL, so its handle — id and signature —
        // comes back after recovery.
        let lookup = server
            .prepare_text("MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n")
            .expect("prepares");
        let looked_up = server
            .execute(&lookup, &Params::new().set("needle", "Drug_name_1").set("n", 3i64))
            .expect("binds");
        println!(
            "prepared lookup [{}] pre-kill: {} rows",
            lookup.signature().names().collect::<Vec<_>>().join(", "),
            looked_up.rows.len()
        );

        let probe_result = server.serve_text(probe).expect("probe parses");
        let ratio = server.cache_stats().hit_ratio();
        println!(
            "\npre-kill probe (Q9): answer {:?}, {} edge traversals, hit ratio {ratio:.3}",
            probe_result.scalar(),
            probe_result.stats.edge_traversals
        );
        println!("killing the server (no final checkpoint, no graceful shutdown) ...");
        (probe_result.scalar(), probe_result.stats.edge_traversals, ratio, total, looked_up.rows)
        // <- server dropped here: the process state is gone, only dir remains
    };

    // ---- restart ----------------------------------------------------------
    let (ontology, statistics, instance, _) = build_inputs();
    let recovered =
        KgServer::recover(ontology, statistics, instance, config, PersistConfig::new(&dir))
            .expect("recovery finds the snapshot + WAL tail");
    println!(
        "\nrecovered: {} ingested updates survived, epoch {}, drift {:.3}",
        recovered.published_updates(),
        recovered.current_epoch().number,
        recovered.drift()
    );
    assert_eq!(recovered.published_updates(), pre_kill_total, "every logged update recovered");

    // The prepared-statement registry survives: the handle registered before
    // the kill is back, signature intact, and executes identically.
    let restored = recovered.prepared_statements();
    let lookup = restored.last().expect("registry recovered");
    println!(
        "recovered {} prepared statements; lookup signature [{}]",
        restored.len(),
        lookup.signature().names().collect::<Vec<_>>().join(", ")
    );
    let looked_up = recovered
        .execute(lookup, &Params::new().set("needle", "Drug_name_1").set("n", 3i64))
        .expect("recovered handle binds");
    assert_eq!(looked_up.rows, pre_kill_lookup, "prepared execution survives the restart");

    // The Q9 plan survives: same answer, same traversal count — the
    // optimized schema (and with it the rewrite) came back from the
    // snapshot, not from re-optimizing.
    let probe_result = recovered.serve_text(probe).expect("probe parses");
    assert_eq!(probe_result.scalar(), pre_kill_answer, "Q9 answer survives the restart");
    assert_eq!(
        probe_result.stats.edge_traversals, pre_kill_traversals,
        "Q9 plan (traversal count) survives the restart"
    );
    println!(
        "probe after recovery: answer {:?}, {} edge traversals (unchanged)",
        probe_result.scalar(),
        probe_result.stats.edge_traversals
    );

    // The learned frequencies survive too: replaying the same workload on
    // the recovered server reaches the same plan-cache hit ratio (same
    // shapes, same rewrites) and the drift picks up where it left off.
    let (served, qps) = replay_workload(&recovered);
    let ratio = recovered.cache_stats().hit_ratio();
    println!(
        "replay after recovery: {served} queries -> {qps:.0} q/s, hit ratio {ratio:.3} \
         (pre-kill {pre_kill_ratio:.3})"
    );
    assert!(
        (ratio - pre_kill_ratio).abs() < 0.05,
        "hit ratio must survive the restart ({ratio:.3} vs {pre_kill_ratio:.3})"
    );
    assert!(recovered.tracker().total_queries() > 0, "learned frequencies restored");

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nkill → recover round trip complete: plans, answers and workload survive.");
}

//! Serving scenario: spin up the concurrent serving engine on the medical
//! catalog with a space-constrained schema optimized for a patient-centric
//! workload, replay a workload that shifts to drug-centric queries, and watch
//! the engine detect the drift, re-optimize off the hot path, and swap in a
//! schema that answers the new workload with fewer edge traversals.
//!
//! Workloads go through the prepare/execute API: every statement text is
//! parsed and registered **once** (`prepare_text`), and the serve loops
//! replay `(handle, params)` executions — no per-request parsing, values
//! bound by name.
//!
//! ```text
//! cargo run --release --example serving_kg
//! ```

use pgso::ontology::catalog;
use pgso::prelude::*;
use std::time::{Duration, Instant};

/// Patient-centric phase A: the mix the initial schema is optimized for.
fn phase_a_texts() -> Vec<&'static str> {
    vec![
        "MATCH (p:Patient) RETURN p.mrn LIMIT $n",
        "MATCH (p:Patient)-[:hasEncounter]->(e:Encounter) RETURN size(collect(e.encounterId))",
        "MATCH (e:Encounter)-[:hasLabResult]->(l:LabResult) RETURN size(collect(l.unit))",
    ]
}

/// Drug-centric phase B: the paper's Q9-style aggregations take over.
fn phase_b_texts() -> Vec<&'static str> {
    vec![
        "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) RETURN size(collect(dr.drugRouteId))",
        "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN size(collect(i.desc))",
        "MATCH (d:Drug)-[:hasSideEffect]->(s:SideEffect) RETURN size(collect(s.name))",
    ]
}

/// Expands prepared handles into `total` round-robin jobs. A statement that
/// declares `$n` gets a varying limit bound per request; parameterless
/// statements execute with an empty parameter set.
fn jobs_for(handles: &[PreparedStatement], total: usize) -> Vec<(PreparedStatement, Params)> {
    (0..total)
        .map(|i| {
            let handle = handles[i % handles.len()].clone();
            let params = if handle.signature().is_empty() {
                Params::new()
            } else {
                Params::new().set("n", (5 + i % 20) as i64)
            };
            (handle, params)
        })
        .collect()
}

/// Replays `jobs` across `threads` scoped threads, job `i` on thread
/// `i % threads`, and returns the wall time.
fn replay(server: &KgServer, jobs: &[(PreparedStatement, Params)], threads: usize) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for (prepared, params) in jobs.iter().skip(t).step_by(threads) {
                    server.execute(prepared, params).expect("workload parameters bind");
                }
            });
        }
    });
    started.elapsed()
}

fn main() {
    let ontology = catalog::medical();
    println!("ontology: {}", ontology.summary());

    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 23);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.05, 23);

    // Observe phase A through a tracker to get the frequencies the initial
    // schema is optimized for — exactly what the server does online.
    let tracker = WorkloadTracker::new(&ontology);
    for _ in 0..10 {
        for text in phase_a_texts() {
            tracker.record_statement(&ontology, &parse_named(text, "phase-a").expect(text));
        }
    }
    let initial = tracker.to_frequencies(&ontology, 10_000.0);

    // Space budget = 1/8 of the unconstrained cost: the schema has to choose,
    // and what it chooses depends on the workload.
    let input = OptimizerInput::new(&ontology, &statistics, &initial);
    let nsc = optimize_nsc(input, &OptimizerConfig::default());
    let optimizer = OptimizerConfig::with_space_limit(nsc.total_cost / 8);
    println!("space budget: {} bytes (NSC would want {})", nsc.total_cost / 8, nsc.total_cost);

    let server = KgServer::new(
        ontology,
        statistics,
        instance,
        initial,
        ServerConfig {
            optimizer,
            drift_threshold: 0.25,
            check_interval: 64,
            ..ServerConfig::default()
        },
    );
    println!("serving epoch {} (optimized for phase A)\n", server.current_epoch().number);

    // Prepare once: each phase's statements are parsed and fingerprinted
    // here, never again in the serve loops.
    let phase_a: Vec<PreparedStatement> =
        phase_a_texts().iter().map(|t| server.prepare_text(t).expect(t)).collect();
    let phase_b: Vec<PreparedStatement> =
        phase_b_texts().iter().map(|t| server.prepare_text(t).expect(t)).collect();

    // Phase A steady state, served on 4 threads.
    let jobs = jobs_for(&phase_a, 256);
    let elapsed = replay(&server, &jobs, 4);
    println!(
        "phase A: {} executions on 4 threads -> {:.0} q/s, drift {:.3}, epoch {}",
        jobs.len(),
        jobs.len() as f64 / elapsed.as_secs_f64(),
        server.drift(),
        server.current_epoch().number
    );

    // The probe query both phases are judged by: prepared with a $needle
    // parameter, executed with different bindings as the example goes.
    let probe = server
        .prepare_text(
            "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) WHERE d.name CONTAINS $needle \
             RETURN size(collect(dr.drugRouteId))",
        )
        .expect("probe prepares");
    println!("probe signature: [{}]", probe.signature().names().collect::<Vec<_>>().join(", "));
    let before = server
        .execute(&probe, &Params::new().set("needle", "Drug_name"))
        .expect("probe params bind");
    println!(
        "\nprobe (Q9-style, Drug->DrugRoute aggregation) on phase-A schema: \
         {} edge traversals, answer {:?}",
        before.stats.edge_traversals,
        before.scalar()
    );

    // Phase B takes over; the drift checker notices and swaps. The prepared
    // handles stay valid across the swap — only the cached plans rewrite.
    println!("\nshifting workload to phase B ...");
    let jobs = jobs_for(&phase_b, 512);
    let elapsed = replay(&server, &jobs, 4);
    println!(
        "phase B: {} executions on 4 threads -> {:.0} q/s, epoch {}",
        jobs.len(),
        jobs.len() as f64 / elapsed.as_secs_f64(),
        server.current_epoch().number
    );
    for event in server.reoptimization_events() {
        println!(
            "re-optimization: epoch {} -> drift {:.3}, {} schema changes, swapped: {}",
            event.from_epoch, event.drift, event.changes, event.swapped
        );
    }

    let after = server
        .execute(&probe, &Params::new().set("needle", "Drug_name"))
        .expect("probe params bind");
    println!(
        "\nprobe on re-optimized schema: {} edge traversals (was {}), answer {:?}",
        after.stats.edge_traversals,
        before.stats.edge_traversals,
        after.scalar()
    );
    // A different binding reuses the same cached plan.
    let narrow = server
        .execute(&probe, &Params::new().set("needle", "Drug_name_1"))
        .expect("probe params bind");
    println!("probe rebound to a narrower needle: answer {:?}", narrow.scalar());
    let stats = server.cache_stats();
    println!(
        "plan cache: {} hits, {} misses, hit ratio {:.3}, {} invalidations across the swap",
        stats.hits,
        stats.misses,
        stats.hit_ratio(),
        stats.invalidations
    );
}

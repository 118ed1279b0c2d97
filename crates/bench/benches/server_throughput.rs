//! The one serving cell the repository benchmark (`benchmark/`) does not
//! cover yet; everything else this file used to measure — mixes, ingest
//! while serving, telemetry overhead, the loopback wire grid, the scale
//! ladder, the `BENCH_serving.json` report — is `benchmark/`'s job now, and
//! performance claims cite only that. The cell reaches the server the way
//! production does: statements prepared once, `$name` values bound per
//! request through `execute`.
//!
//! **Tenant grid** — a value-varying prepared mix replayed against a
//! `pgso_tenant::TenantHost` carrying 1/2/4 independent medical-catalog
//! tenants × 1/2 client threads per tenant, printing total and per-tenant
//! q/s and a **fairness ratio** (min/max of the per-tenant numbers). Beyond
//! throughput the cells are isolation gates: exact per-tenant admission
//! counts, zero quota rejections, and a ≥ 90% post-warm plan-cache hit ratio
//! on *every* tenant.
//!
//! Adaptive re-optimization is off so every sample measures one schema
//! epoch. `-- --test` (CI's smoke run) executes every cell once and gates
//! nothing on a rate.

use criterion::{criterion_group, criterion_main, Criterion};
use pgso_datagen::InstanceKg;
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, StatisticsConfig};
use pgso_query::Params;
use pgso_server::PreparedStatement;
use pgso_tenant::{Tenant, TenantHost, TenantHostConfig, TenantSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn medical_inputs(
    scale: f64,
    seed: u64,
) -> (pgso_ontology::Ontology, DataStatistics, InstanceKg, AccessFrequencies) {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), seed);
    let instance = InstanceKg::generate(&ontology, &statistics, scale, seed);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    (ontology, statistics, instance, frequencies)
}

/// The four `$param` statement texts of the tenant grid's value-varying
/// mix. Prepared **once** per tenant; every request binds its own values.
const PREPARED_TEXTS: [&str; 4] = [
    "MATCH (d:Drug) WHERE d.name CONTAINS $needle \
     RETURN d.name ORDER BY d.name LIMIT $n",
    "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name CONTAINS $needle \
     RETURN DISTINCT i.desc ORDER BY i.desc DESC LIMIT $n",
    "MATCH (p:Patient) OPTIONAL MATCH (p)-[:hasEncounter]->(e:Encounter) \
     WHERE p.mrn CONTAINS $needle RETURN p.mrn, e.encounterId SKIP $offset LIMIT $n",
    "MATCH (d:Drug)-[:hasDrugRoute]->(dr:DrugRoute) WHERE d.name CONTAINS $needle \
     RETURN size(collect(dr.drugRouteId)) LIMIT $n",
];

/// The value set for request `i` (statement `i % 4`): needles, offsets and
/// limits all vary per request.
fn varying_params(i: usize) -> Params {
    match i % 4 {
        0 => Params::new()
            .set("needle", format!("Drug_name_{}", i / 4))
            .set("n", (1 + i % 16) as i64),
        1 => Params::new().set("needle", format!("_{}", i % 10)).set("n", (2 + i % 8) as i64),
        2 => Params::new()
            .set("needle", format!("{}", i % 7))
            .set("offset", (i % 3) as i64)
            .set("n", (4 + i % 12) as i64),
        _ => Params::new().set("needle", "Drug_name").set("n", (1 + i % 4) as i64),
    }
}

/// The multi-tenant hosting grid: 1/2/4 equally-provisioned tenants
/// (distinct seeds, so distinct graphs) × 1/2 client threads per tenant.
/// Beyond throughput, the cells are isolation gates: every tenant must keep
/// its own plan cache ≥ 90% hot (hosting N graphs must not cross-pollute the
/// caches), no open-quota request may be rejected, and in full runs the
/// per-tenant q/s spread must stay within 2× (fairness ≥ 0.5 — no tenant
/// starved by its siblings).
fn tenant_grid(quick: bool) {
    // Duration-based cells: every thread loops until a shared stop flag and
    // counts what it served. Fixed-request cells mismeasure fairness badly —
    // a few hundred executes finish inside one scheduling quantum, so the
    // OS runs the threads nearly back-to-back and elapsed-from-start makes
    // whichever tenant ran first look several times faster.
    let cell_duration = Duration::from_millis(if quick { 100 } else { 500 });
    for tenants in [1usize, 2, 4] {
        let mut config = TenantHostConfig::default();
        config.server.auto_reoptimize = false;
        let host = TenantHost::new(config);
        let cohort: Vec<Arc<Tenant>> = (0..tenants)
            .map(|i| {
                let (ontology, statistics, instance, frequencies) =
                    medical_inputs(0.04, 42 + i as u64);
                host.create_tenant(
                    &format!("t{i}"),
                    TenantSpec { ontology, statistics, instance, frequencies },
                )
                .expect("grid tenant builds")
            })
            .collect();
        // Prepare the four texts and warm every tenant's plan cache once so
        // the cells measure steady-state serving.
        let prepared: Vec<Vec<PreparedStatement>> = cohort
            .iter()
            .map(|tenant| {
                PREPARED_TEXTS
                    .iter()
                    .map(|text| tenant.prepare_text(text).expect("grid statement prepares"))
                    .collect()
            })
            .collect();
        for (tenant, stmts) in cohort.iter().zip(&prepared) {
            for (i, stmt) in stmts.iter().enumerate() {
                tenant.execute(stmt, &varying_params(i)).expect("warm execute admits");
            }
        }
        let warm: Vec<_> = cohort.iter().map(|tenant| tenant.server().cache_stats()).collect();
        let mut served_by_tenant = vec![0u64; tenants];

        for threads_per_tenant in [1usize, 2] {
            let stop = AtomicBool::new(false);
            let counts: Vec<AtomicU64> = (0..tenants).map(|_| AtomicU64::new(0)).collect();
            let started = Instant::now();
            std::thread::scope(|scope| {
                for (t, (tenant, stmts)) in cohort.iter().zip(&prepared).enumerate() {
                    for worker in 0..threads_per_tenant {
                        let (stop, counts) = (&stop, &counts);
                        scope.spawn(move || {
                            // Offset each thread's value stream so siblings
                            // don't execute in lockstep.
                            let mut i = worker * 7919;
                            while !stop.load(Ordering::Relaxed) {
                                tenant
                                    .execute(&stmts[i % 4], &varying_params(i))
                                    .expect("open-quota execute admits");
                                counts[t].fetch_add(1, Ordering::Relaxed);
                                i += 1;
                            }
                        });
                    }
                }
                std::thread::sleep(cell_duration);
                stop.store(true, Ordering::Relaxed);
            });
            let wall = started.elapsed().as_secs_f64().max(1e-9);
            let per_tenant_qps: Vec<f64> =
                counts.iter().map(|count| count.load(Ordering::Relaxed) as f64 / wall).collect();
            for (t, count) in counts.iter().enumerate() {
                served_by_tenant[t] += count.load(Ordering::Relaxed);
            }
            let total_qps: f64 = per_tenant_qps.iter().sum();
            let slowest = per_tenant_qps.iter().cloned().fold(f64::INFINITY, f64::min);
            let fastest = per_tenant_qps.iter().cloned().fold(0.0f64, f64::max);
            let fairness = slowest / fastest.max(1e-9);
            let rounded: Vec<i64> = per_tenant_qps.iter().map(|&q| q as i64).collect();
            println!(
                "server_throughput/tenant_grid tenants_{tenants} threads_{threads_per_tenant} \
                 {total_qps:>12.0} queries/sec total  per-tenant {rounded:?}  \
                 fairness {fairness:.2}"
            );
            if quick {
                assert!(slowest > 0.0, "every tenant must have served its share");
            } else {
                assert!(
                    fairness >= 0.5,
                    "per-tenant q/s spread exceeded 2x (fairness {fairness:.2}) — \
                     a tenant is being starved by its siblings"
                );
            }
        }

        // Isolation accounting: exact per-tenant admission counts, zero
        // rejections (all quotas open), and a hot private plan cache.
        for (idx, tenant) in cohort.iter().enumerate() {
            let health = tenant.health();
            let expected_admitted = PREPARED_TEXTS.len() as u64 + served_by_tenant[idx];
            assert_eq!(
                health.admitted,
                expected_admitted,
                "tenant {} admission count off — requests leaked across tenants?",
                tenant.name()
            );
            assert_eq!(health.rejected, 0, "open quotas must reject nothing");
            let stats = tenant.server().cache_stats();
            let hits = stats.hits - warm[idx].hits;
            let misses = stats.misses - warm[idx].misses;
            let ratio = hits as f64 / (hits + misses).max(1) as f64;
            assert!(
                ratio >= 0.90,
                "tenant {} post-warm plan-cache hit ratio {ratio:.4} fell below 0.90 — \
                 multi-tenant hosting must not cross-pollute per-tenant caches",
                tenant.name()
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    tenant_grid(c.is_test_mode());
}

criterion_group!(benches, bench);
criterion_main!(benches);

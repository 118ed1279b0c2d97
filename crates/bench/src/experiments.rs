//! One function per table / figure of the paper's evaluation (Section 5),
//! plus two ablations (FPTAS vs greedy selection, disk buffer-pool size) and
//! a schema-size summary. Each function returns plain data rows, which the
//! `reproduce` binary prints.

use crate::queries::{figure12_workload, microbenchmark, DatasetId};
use crate::workbench::{build_disk_pair, build_memory_pair, compare_query, Workbench};
use pgso_core::{
    optimize_concept_centric, optimize_nsc, optimize_relation_centric,
    optimize_relation_centric_with, OptimizerConfig, SelectionStrategy,
};
use pgso_graphstore::DiskGraphConfig;
use pgso_ontology::WorkloadDistribution;
use std::time::Duration;

/// Space-constraint fractions used by Figures 8 (MED) and 9 (FIN).
pub const SPACE_FRACTIONS_MED: &[f64] =
    &[0.0001, 0.001, 0.01, 0.025, 0.04, 0.10, 0.15, 0.20, 0.25, 0.50, 0.75, 1.0];
/// FIN adds one smaller point (0.001%).
pub const SPACE_FRACTIONS_FIN: &[f64] =
    &[0.00001, 0.0001, 0.001, 0.01, 0.025, 0.04, 0.10, 0.15, 0.20, 0.25, 0.50, 0.75, 1.0];

/// One row of the benefit-ratio-vs-space experiments (Figures 8 and 9).
#[derive(Debug, Clone)]
pub struct BenefitRatioRow {
    /// Space budget as a fraction of the NSC cost.
    pub space_fraction: f64,
    /// Workload distribution label.
    pub workload: &'static str,
    /// Benefit ratio achieved by the relation-centric algorithm.
    pub rc: f64,
    /// Benefit ratio achieved by the concept-centric algorithm.
    pub cc: f64,
}

/// Figures 8 / 9: benefit ratio of RC and CC as the space constraint varies.
pub fn benefit_ratio_vs_space(dataset: DatasetId, seed: u64) -> Vec<BenefitRatioRow> {
    let fractions = match dataset {
        DatasetId::Med => SPACE_FRACTIONS_MED,
        DatasetId::Fin => SPACE_FRACTIONS_FIN,
    };
    let mut rows = Vec::new();
    for distribution in [WorkloadDistribution::Uniform, WorkloadDistribution::default_zipf()] {
        let wb = Workbench::new(dataset, distribution, seed);
        let base = OptimizerConfig::default();
        let nsc = wb.nsc(&base);
        for &fraction in fractions {
            let budget = (nsc.total_cost as f64 * fraction).round() as u64;
            let config = OptimizerConfig { space_limit: Some(budget), ..base };
            let rc = optimize_relation_centric(wb.input(), &config);
            let cc = optimize_concept_centric(wb.input(), &config);
            rows.push(BenefitRatioRow {
                space_fraction: fraction,
                workload: distribution.label(),
                rc: rc.benefit_ratio(&nsc),
                cc: cc.benefit_ratio(&nsc),
            });
        }
    }
    rows
}

/// One row of the Jaccard-threshold sensitivity experiment (Figure 10).
#[derive(Debug, Clone)]
pub struct JaccardRow {
    /// (θ1, θ2).
    pub thresholds: (f64, f64),
    /// Workload distribution label.
    pub workload: &'static str,
    /// Relation-centric benefit ratio.
    pub rc: f64,
    /// Concept-centric benefit ratio.
    pub cc: f64,
}

/// Figure 10: benefit ratio of RC and CC on FIN for different Jaccard
/// thresholds, with the space budget fixed to half the NSC cost under each
/// threshold pair.
pub fn benefit_ratio_vs_jaccard(seed: u64) -> Vec<JaccardRow> {
    let thresholds = [(0.9, 0.1), (0.66, 0.33), (0.6, 0.4), (0.5, 0.5)];
    let mut rows = Vec::new();
    for distribution in [WorkloadDistribution::Uniform, WorkloadDistribution::default_zipf()] {
        let wb = Workbench::new(DatasetId::Fin, distribution, seed);
        for (theta1, theta2) in thresholds {
            let base = OptimizerConfig::default().with_thresholds(theta1, theta2);
            let nsc = wb.nsc(&base);
            let config = OptimizerConfig { space_limit: Some(nsc.total_cost / 2), ..base };
            let rc = optimize_relation_centric(wb.input(), &config);
            let cc = optimize_concept_centric(wb.input(), &config);
            rows.push(JaccardRow {
                thresholds: (theta1, theta2),
                workload: distribution.label(),
                rc: rc.benefit_ratio(&nsc),
                cc: cc.benefit_ratio(&nsc),
            });
        }
    }
    rows
}

/// One row of the microbenchmark (Figure 11).
#[derive(Debug, Clone)]
pub struct MicrobenchRow {
    /// Query name (Q1–Q12).
    pub query: String,
    /// Dataset label.
    pub dataset: &'static str,
    /// Query family.
    pub family: &'static str,
    /// Backend name.
    pub backend: &'static str,
    /// Latency on the direct schema.
    pub direct: Duration,
    /// Latency on the optimized schema.
    pub optimized: Duration,
    /// Edge traversals on the direct schema.
    pub direct_traversals: u64,
    /// Edge traversals on the optimized schema.
    pub optimized_traversals: u64,
}

impl MicrobenchRow {
    /// DIR / OPT latency ratio.
    pub fn speedup(&self) -> f64 {
        self.direct.as_secs_f64() / self.optimized.as_secs_f64().max(1e-9)
    }
}

/// Figure 11: Q1–Q12 on both backends, DIR vs OPT.
pub fn microbenchmark_latency(scale: f64, repeats: usize, seed: u64) -> Vec<MicrobenchRow> {
    let mut rows = Vec::new();
    let config = OptimizerConfig::default();
    let tmp = std::env::temp_dir().join(format!("pgso-fig11-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir for disk graphs");

    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let wb = Workbench::new(dataset, WorkloadDistribution::default_zipf(), seed);
        let memory_pair = build_memory_pair(&wb, &config, scale, seed);
        let disk_dir = tmp.join(dataset.label());
        std::fs::create_dir_all(&disk_dir).expect("create disk dir");
        let disk_pair = build_disk_pair(
            &wb,
            &config,
            scale,
            seed,
            &disk_dir,
            DiskGraphConfig::with_pool_pages(8),
        )
        .expect("build disk-backed graphs");

        for bq in microbenchmark().into_iter().filter(|q| q.dataset == dataset) {
            let mem = compare_query(&bq.query, &memory_pair, repeats);
            rows.push(MicrobenchRow {
                query: bq.query.name.clone(),
                dataset: dataset.label(),
                family: bq.family,
                backend: "memory",
                direct: mem.direct.elapsed,
                optimized: mem.optimized.elapsed,
                direct_traversals: mem.direct.stats.edge_traversals,
                optimized_traversals: mem.optimized.stats.edge_traversals,
            });
            let disk = compare_query(&bq.query, &disk_pair, repeats);
            rows.push(MicrobenchRow {
                query: bq.query.name.clone(),
                dataset: dataset.label(),
                family: bq.family,
                backend: "disk",
                direct: disk.direct.elapsed,
                optimized: disk.optimized.elapsed,
                direct_traversals: disk.direct.stats.edge_traversals,
                optimized_traversals: disk.optimized.stats.edge_traversals,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    rows
}

/// One row of the total-workload-latency experiment (Figure 12).
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// Dataset label.
    pub dataset: &'static str,
    /// Backend name.
    pub backend: &'static str,
    /// Total latency of the 15-query workload on the direct schema.
    pub direct: Duration,
    /// Total latency on the optimized schema.
    pub optimized: Duration,
}

impl WorkloadRow {
    /// DIR / OPT total latency ratio.
    pub fn speedup(&self) -> f64 {
        self.direct.as_secs_f64() / self.optimized.as_secs_f64().max(1e-9)
    }
}

/// Figure 12: total latency of the mixed Zipf workload, per dataset and
/// backend.
pub fn workload_latency_experiment(scale: f64, seed: u64) -> Vec<WorkloadRow> {
    let config = OptimizerConfig::default();
    let tmp = std::env::temp_dir().join(format!("pgso-fig12-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir for disk graphs");
    let mut rows = Vec::new();
    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let wb = Workbench::new(dataset, WorkloadDistribution::default_zipf(), seed);
        let workload = figure12_workload(dataset);
        let memory_pair = build_memory_pair(&wb, &config, scale, seed);
        let (d, o) = crate::workbench::workload_latency(&workload, &memory_pair);
        rows.push(WorkloadRow {
            dataset: dataset.label(),
            backend: "memory",
            direct: d,
            optimized: o,
        });

        let disk_dir = tmp.join(dataset.label());
        std::fs::create_dir_all(&disk_dir).expect("create disk dir");
        let disk_pair = build_disk_pair(
            &wb,
            &config,
            scale,
            seed,
            &disk_dir,
            DiskGraphConfig::with_pool_pages(8),
        )
        .expect("build disk-backed graphs");
        let (d, o) = crate::workbench::workload_latency(&workload, &disk_pair);
        rows.push(WorkloadRow {
            dataset: dataset.label(),
            backend: "disk",
            direct: d,
            optimized: o,
        });
    }
    let _ = std::fs::remove_dir_all(&tmp);
    rows
}

/// One row of the optimizer-efficiency experiment (Table 2).
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// Dataset label.
    pub dataset: &'static str,
    /// Space constraint as a fraction of the NSC cost.
    pub space_fraction: f64,
    /// Relation-centric wall-clock time.
    pub rc: Duration,
    /// Concept-centric wall-clock time.
    pub cc: Duration,
}

/// Table 2: wall-clock time of RC and CC at 25% / 50% / 75% space budgets.
pub fn optimizer_efficiency(seed: u64) -> Vec<EfficiencyRow> {
    let mut rows = Vec::new();
    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let wb = Workbench::new(dataset, WorkloadDistribution::Uniform, seed);
        let base = OptimizerConfig::default();
        let nsc = wb.nsc(&base);
        for fraction in [0.25, 0.5, 0.75] {
            let budget = (nsc.total_cost as f64 * fraction) as u64;
            let config = OptimizerConfig { space_limit: Some(budget), ..base };
            let rc = optimize_relation_centric(wb.input(), &config);
            let cc = optimize_concept_centric(wb.input(), &config);
            rows.push(EfficiencyRow {
                dataset: dataset.label(),
                space_fraction: fraction,
                rc: rc.elapsed,
                cc: cc.elapsed,
            });
        }
    }
    rows
}

/// Ablation: one row of FPTAS vs greedy selection at one space budget.
#[derive(Debug, Clone)]
pub struct AblationKnapsackRow {
    /// Space budget as a fraction of the NSC cost.
    pub space_fraction: f64,
    /// Benefit ratio achieved with the FPTAS selection.
    pub fptas: f64,
    /// Benefit ratio achieved with the greedy selection.
    pub greedy: f64,
}

/// Ablation: FPTAS vs greedy selection inside the relation-centric algorithm
/// (FIN, uniform workload).
pub fn ablation_knapsack(seed: u64) -> Vec<AblationKnapsackRow> {
    let wb = Workbench::new(DatasetId::Fin, WorkloadDistribution::Uniform, seed);
    let base = OptimizerConfig::default();
    let nsc = wb.nsc(&base);
    let mut rows = Vec::new();
    for fraction in [0.01, 0.05, 0.1, 0.25, 0.5] {
        let budget = (nsc.total_cost as f64 * fraction) as u64;
        let config = OptimizerConfig { space_limit: Some(budget), ..base };
        let fptas = optimize_relation_centric_with(wb.input(), &config, SelectionStrategy::Fptas);
        let greedy = optimize_relation_centric_with(wb.input(), &config, SelectionStrategy::Greedy);
        rows.push(AblationKnapsackRow {
            space_fraction: fraction,
            fptas: fptas.benefit_ratio(&nsc),
            greedy: greedy.benefit_ratio(&nsc),
        });
    }
    rows
}

/// Ablation: sensitivity of the DIR/OPT gap to the disk buffer-pool size.
#[derive(Debug, Clone)]
pub struct AblationBufferPoolRow {
    /// Buffer-pool size in pages.
    pub pool_pages: usize,
    /// Total workload latency on the direct schema.
    pub direct: Duration,
    /// Total workload latency on the optimized schema.
    pub optimized: Duration,
}

/// Ablation: Figure 12's MED workload on the disk backend with varying buffer
/// pools.
pub fn ablation_buffer_pool(scale: f64, seed: u64) -> Vec<AblationBufferPoolRow> {
    let config = OptimizerConfig::default();
    let wb = Workbench::new(DatasetId::Med, WorkloadDistribution::default_zipf(), seed);
    let workload = figure12_workload(DatasetId::Med);
    let tmp = std::env::temp_dir().join(format!("pgso-ablation-bp-{}", std::process::id()));
    let mut rows = Vec::new();
    for pool_pages in [2usize, 8, 64, 1024] {
        let dir = tmp.join(pool_pages.to_string());
        std::fs::create_dir_all(&dir).expect("create disk dir");
        let pair = build_disk_pair(
            &wb,
            &config,
            scale,
            seed,
            &dir,
            DiskGraphConfig::with_pool_pages(pool_pages),
        )
        .expect("build disk-backed graphs");
        let (d, o) = crate::workbench::workload_latency(&workload, &pair);
        rows.push(AblationBufferPoolRow { pool_pages, direct: d, optimized: o });
    }
    let _ = std::fs::remove_dir_all(&tmp);
    rows
}

/// Schema sizes before and after NSC optimization, for one dataset.
#[derive(Debug, Clone)]
pub struct SchemaSummaryRow {
    /// Dataset label.
    pub dataset: &'static str,
    /// Vertex types in the direct schema.
    pub direct_vertices: usize,
    /// Edge types in the direct schema.
    pub direct_edges: usize,
    /// Vertex types in the NSC-optimized schema.
    pub optimized_vertices: usize,
    /// Edge types in the NSC-optimized schema.
    pub optimized_edges: usize,
}

/// Summarises how much the NSC schema shrinks each catalog ontology.
pub fn schema_summary(seed: u64) -> Vec<SchemaSummaryRow> {
    let mut rows = Vec::new();
    for dataset in [DatasetId::Med, DatasetId::Fin] {
        let wb = Workbench::new(dataset, WorkloadDistribution::Uniform, seed);
        let direct = pgso_pgschema::PropertyGraphSchema::direct_from_ontology(&wb.ontology);
        let nsc = optimize_nsc(wb.input(), &OptimizerConfig::default());
        rows.push(SchemaSummaryRow {
            dataset: dataset.label(),
            direct_vertices: direct.vertex_count(),
            direct_edges: direct.edge_count(),
            optimized_vertices: nsc.schema.vertex_count(),
            optimized_edges: nsc.schema.edge_count(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benefit_ratio_rows_are_valid_and_reach_one() {
        let rows = benefit_ratio_vs_space(DatasetId::Med, 11);
        assert_eq!(rows.len(), 2 * SPACE_FRACTIONS_MED.len());
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.rc), "{row:?}");
            assert!((0.0..=1.0).contains(&row.cc), "{row:?}");
        }
        // At a 100% budget both algorithms reach BR = 1 (paper, Figures 8/9).
        for row in rows.iter().filter(|r| (r.space_fraction - 1.0).abs() < 1e-12) {
            assert!((row.rc - 1.0).abs() < 1e-6, "{row:?}");
            assert!((row.cc - 1.0).abs() < 1e-6, "{row:?}");
        }
    }

    #[test]
    fn jaccard_rows_cover_four_threshold_pairs_and_two_workloads() {
        let rows = benefit_ratio_vs_jaccard(13);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.rc > 0.0 && row.rc <= 1.0, "{row:?}");
            assert!(row.cc > 0.0 && row.cc <= 1.0, "{row:?}");
        }
    }

    #[test]
    fn efficiency_rows_report_positive_times() {
        let rows = optimizer_efficiency(17);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.rc > Duration::ZERO);
            assert!(row.cc > Duration::ZERO);
        }
    }

    #[test]
    fn schema_summary_shows_shrinkage() {
        let rows = schema_summary(19);
        for row in &rows {
            assert!(row.optimized_vertices < row.direct_vertices, "{row:?}");
        }
    }

    #[test]
    fn knapsack_ablation_fptas_not_worse_than_greedy_overall() {
        let rows = ablation_knapsack(23);
        let fptas_total: f64 = rows.iter().map(|r| r.fptas).sum();
        let greedy_total: f64 = rows.iter().map(|r| r.greedy).sum();
        assert!(fptas_total >= greedy_total * 0.95, "fptas {fptas_total} vs greedy {greedy_total}");
    }
}

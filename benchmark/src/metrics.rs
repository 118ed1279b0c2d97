//! The single list of everything the benchmark reports: workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics. `BENCHMARK.json` is generated from this file (`-- manifest`),
//! `validate` checks a result file against it, and README.md gives each
//! metric's definition and the end-to-end metric each layer should move.

use crate::json::Json;

pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "paper_micro",
        why: "the paper's Q1-Q12 on DIR and OPT in-memory graphs: core rules, rewrite, executor and \
              memory store do all the work; server, net and persist do none",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "prepared statements through KgServer::execute in process, seven classes from point \
              lookup to full scan on 75k vertices: executor, storage reads and plan cache dominate; \
              wire and WAL idle",
    },
    WorkloadDef {
        name: "wire_small",
        why: "three small statement classes over loopback TCP at pipelining depth 1 and 16 on 7.5k \
              vertices: engine work is small, so net framing, readiness loop and tenant admission \
              dominate",
    },
    WorkloadDef {
        name: "ingest_durable",
        why: "fsynced WAL ingest and epoch publication with a burst of reads on every fresh epoch, \
              then checkpoint and recovery: the only workload where persist and publication do \
              most of the work",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// each has a per-workload definition — the table is in README.md.
///
/// A bound is three times the widest quartile spread the metric showed on any
/// workload over the ten-seed sweeps recorded under Repeatability in
/// README.md (the contract asks that a spread stay under a third of its
/// bound), rounded up, and never over the contract's cap of 0.25 — which is
/// where every timing lands on the reference host (spreads of 11-14 % when
/// its neighbours are busy) — nor under the floor the issue gives a count.
pub const END_TO_END: [EndToEndDef; 7] = [
    EndToEndDef { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "query_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "throughput_ops", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEndDef { name: "allocs_per_query", unit: "count", better: Better::Lower, bound: 0.03 },
    EndToEndDef { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.06 },
    EndToEndDef { name: "traversal_ratio", unit: "ratio", better: Better::Lower, bound: 0.001 },
    EndToEndDef { name: "space_ratio", unit: "ratio", better: Better::Lower, bound: 0.005 },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher as Hi, Lower as Lo};

pub const PER_LAYER: [LayerDef; 119] = [
    // ontology
    l("ontology.synthesize_ms", "ms", Lo),
    // core
    l("core.optimize_nsc_ms", "ms", Lo),
    l("core.optimize_pgsg_ms", "ms", Lo),
    l("core.rules_applied", "count", Hi),
    l("core.trav_ratio.pattern", "ratio", Lo),
    l("core.trav_ratio.lookup", "ratio", Lo),
    l("core.trav_ratio.aggregation", "ratio", Lo),
    l("core.speedup_geomean", "ratio", Hi),
    // pgschema
    l("pgschema.opt_vertex_types", "count", Lo),
    l("pgschema.opt_edge_types", "count", Lo),
    l("pgschema.payload_bytes_opt", "bytes", Lo),
    // datagen
    l("datagen.generate_ms.med", "ms", Lo),
    l("datagen.generate_ms.fin", "ms", Lo),
    l("datagen.load_dir_ms.med", "ms", Lo),
    l("datagen.load_dir_ms.fin", "ms", Lo),
    l("datagen.load_opt_ms.med", "ms", Lo),
    l("datagen.load_opt_ms.fin", "ms", Lo),
    l("datagen.load_opt_us_per_vertex.med", "us", Lo),
    l("datagen.load_opt_us_per_vertex.fin", "us", Lo),
    l("datagen.updates_gen_ms", "ms", Lo),
    // graphstore
    l("graphstore.memory.label_scan_ns_per_vertex", "ns", Lo),
    l("graphstore.memory.out_neighbours_ns", "ns", Lo),
    l("graphstore.memory.property_of_ns", "ns", Lo),
    l("graphstore.memory.vertex_ns", "ns", Lo),
    l("graphstore.memory.resident_bytes", "bytes", Lo),
    l("graphstore.csr.label_scan_ns_per_vertex", "ns", Lo),
    l("graphstore.csr.out_neighbours_ns", "ns", Lo),
    l("graphstore.csr.property_of_ns", "ns", Lo),
    l("graphstore.csr.vertex_ns", "ns", Lo),
    l("graphstore.csr.resident_bytes", "bytes", Lo),
    l("graphstore.disk.label_scan_ns_per_vertex", "ns", Lo),
    l("graphstore.disk.out_neighbours_ns", "ns", Lo),
    l("graphstore.disk.property_of_ns", "ns", Lo),
    l("graphstore.disk.vertex_ns", "ns", Lo),
    l("graphstore.disk.resident_bytes", "bytes", Lo),
    l("graphstore.csr.compile_ms", "ms", Lo),
    l("graphstore.disk.page_hit_ratio", "ratio", Hi),
    l("graphstore.vertex_reads_per_query", "count", Lo),
    l("graphstore.edge_traversals_per_query", "count", Lo),
    // query
    l("query.parse_us", "us", Lo),
    l("query.fingerprint_ns", "ns", Lo),
    l("query.rewrite_us", "us", Lo),
    l("query.bind_us", "us", Lo),
    l("query.exec_us.point", "us", Lo),
    l("query.exec_us.hop", "us", Lo),
    l("query.exec_us.limit", "us", Lo),
    l("query.exec_us.topk", "us", Lo),
    l("query.exec_us.scan", "us", Lo),
    l("query.exec_us.agg", "us", Lo),
    l("query.exec_us.optional", "us", Lo),
    l("query.stage.root_selection_us", "us", Lo),
    l("query.stage.expansion_us", "us", Lo),
    l("query.stage.optional_us", "us", Lo),
    l("query.stage.aggregate_us", "us", Lo),
    l("query.stage.windowing_us", "us", Lo),
    l("query.rows_per_query", "count", Lo),
    l("query.ns_per_row", "ns", Lo),
    l("query.reads_per_row.point", "ratio", Lo),
    l("query.reads_per_row.hop", "ratio", Lo),
    l("query.reads_per_row.limit", "ratio", Lo),
    l("query.reads_per_row.topk", "ratio", Lo),
    l("query.reads_per_row.scan", "ratio", Lo),
    l("query.reads_per_row.agg", "ratio", Lo),
    l("query.reads_per_row.optional", "ratio", Lo),
    l("query.predicate_checks_per_query", "count", Lo),
    l("query.equiv_failed", "count", Lo),
    // server
    l("server.prepare_us", "us", Lo),
    l("server.execute_us.point", "us", Lo),
    l("server.execute_us.hop", "us", Lo),
    l("server.execute_us.limit", "us", Lo),
    l("server.execute_us.topk", "us", Lo),
    l("server.execute_us.scan", "us", Lo),
    l("server.execute_us.agg", "us", Lo),
    l("server.execute_us.optional", "us", Lo),
    l("server.overhead_us", "us", Lo),
    l("server.plan_cache_hit_ratio", "ratio", Hi),
    l("server.telemetry_overhead_frac", "ratio", Lo),
    l("server.ingest_call_us", "us", Lo),
    l("server.publish_ms", "ms", Lo),
    l("server.publish_us_per_vertex", "us", Lo),
    l("server.read_stall_ms", "ms", Lo),
    l("server.read_slowdown_beside_writer", "ratio", Lo),
    l("server.checkpoint_ms", "ms", Lo),
    l("server.recover_ms", "ms", Lo),
    // persist
    l("persist.wal_append_us", "us", Lo),
    l("persist.wal_sync_us", "us", Lo),
    l("persist.wal_bytes_per_update", "bytes", Lo),
    l("persist.fsyncs_per_batch", "count", Lo),
    l("persist.write_amp", "ratio", Lo),
    l("persist.snapshot_write_ms", "ms", Lo),
    l("persist.snapshot_bytes", "bytes", Lo),
    l("persist.wal_read_ms", "ms", Lo),
    l("persist.recover_read_ms", "ms", Lo),
    // net
    l("net.connect_us", "us", Lo),
    l("net.prepare_us", "us", Lo),
    l("net.encode_request_ns", "ns", Lo),
    l("net.decode_request_ns", "ns", Lo),
    l("net.encode_response_ns_per_row", "ns", Lo),
    l("net.decode_response_ns_per_row", "ns", Lo),
    l("net.frame_read_ns", "ns", Lo),
    l("net.rtt_us", "us", Lo),
    l("net.wire_overhead_us", "us", Lo),
    l("net.unattributed_us", "us", Lo),
    l("net.bytes_per_response", "bytes", Lo),
    l("net.errors", "count", Lo),
    // tenant
    l("tenant.admit_ns", "ns", Lo),
    l("tenant.overhead_ns", "ns", Lo),
    l("tenant.quota_rejections", "count", Lo),
    // telemetry
    l("telemetry.hist_record_ns", "ns", Lo),
    l("telemetry.counter_inc_ns", "ns", Lo),
    l("telemetry.metrics_text_ms", "ms", Lo),
    // the traced round of the workload itself
    l("trace.sampled_ops", "count", Hi),
    l("trace.root_us", "us", Lo),
    l("trace.attributed_frac", "ratio", Hi),
    l("trace.unattributed_us", "us", Lo),
    l("trace.plain_p99_us", "us", Lo),
    // bench
    l("bench.trace_overhead_frac", "ratio", Lo),
    l("bench.host_parallel_speedup", "ratio", Hi),
    l("bench.host_spin_rate", "1/s", Hi),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

/// Collects metrics by name; the registry supplies units and order.
#[derive(Default)]
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push(Metric { name: name.into(), value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn extend(&mut self, other: MetricSet) {
        self.0.extend(other.0);
    }

    /// Renders exactly the registry's metrics, in registry order, as the
    /// contract's `{"name": {"value": v, "unit": u}}` object. With
    /// `complete`, a metric the run did not produce is a harness bug and
    /// reported as an error; without, it is left out.
    pub fn to_contract_json(&self, traced: bool, complete: bool) -> Result<Json, String> {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
        } else {
            END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
        };
        let mut out = Json::obj();
        for (name, unit) in names {
            let value = match self.get(name) {
                Some(value) => value,
                None if complete => return Err(format!("metric `{name}` was not measured")),
                None => continue,
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite"));
            }
            out = out.with(name, Json::obj().with("value", value).with("unit", unit));
        }
        Ok(out)
    }
}

/// `BENCHMARK.json`, generated.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj()
        .with("command", Json::Arr(command.iter().map(|s| Json::from(*s)).collect()))
        .with("paths", Json::Arr(vec![Json::from("benchmark")]))
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().with("name", w.name).with("why", w.why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.as_str())
                            .with("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.as_str())
                    })
                    .collect(),
            ),
        )
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Checks a manifest (parsed `BENCHMARK.json`) against the contract's limits.
pub fn check_manifest(manifest: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let keys: Vec<&str> = manifest.fields().iter().map(|(k, _)| k.as_str()).collect();
    let want = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    if keys.len() != want.len() || !want.iter().all(|k| keys.contains(k)) {
        problems.push(format!("keys must be exactly {want:?}, found {keys:?}"));
    }
    let list = |key: &str| manifest.get(key).map(Json::as_array).unwrap_or(&[]);
    let (workloads, e2e, layers) = (list("workloads"), list("end_to_end"), list("per_layer"));
    if !(2..=8).contains(&workloads.len()) {
        problems.push(format!("{} workloads (2..=8 allowed)", workloads.len()));
    }
    if !(1..=16).contains(&e2e.len()) {
        problems.push(format!("{} end-to-end metrics (1..=16 allowed)", e2e.len()));
    }
    if !(1..=128).contains(&layers.len()) {
        problems.push(format!("{} per-layer metrics (1..=128 allowed)", layers.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for item in workloads.iter().chain(e2e).chain(layers) {
        let name = item.get("name").and_then(Json::as_str).unwrap_or("");
        if !valid_name(name) {
            problems.push(format!("bad name `{name}`"));
        }
        if !seen.insert(name.to_string()) {
            problems.push(format!("name `{name}` used twice"));
        }
    }
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap_or("");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            problems.push(format!("workload why must be one line of 1..=200 chars: `{why}`"));
        }
    }
    for m in e2e.iter().chain(layers) {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("");
        if !m.get("unit").and_then(Json::as_str).is_some_and(valid_unit) {
            problems.push(format!("`{name}`: bad unit"));
        }
        if !matches!(m.get("better").and_then(Json::as_str), Some("lower" | "higher")) {
            problems.push(format!("`{name}`: better must be lower|higher"));
        }
    }
    for m in e2e {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("");
        match m.get("bound").and_then(Json::as_f64) {
            Some(b) if (0.0..=0.25).contains(&b) => {}
            other => problems.push(format!("`{name}`: bound {other:?} outside 0..=0.25")),
        }
    }
    let setup = e2e.iter().find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    match setup {
        Some(m)
            if m.get("unit").and_then(Json::as_str) == Some("s")
                && m.get("better").and_then(Json::as_str) == Some("lower") => {}
        _ => problems.push("end_to_end needs setup_s with unit s, better lower".to_string()),
    }
    match manifest.get("run_seconds").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        other => problems.push(format!("run_seconds {other:?} outside 1..=60")),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_manifest_meets_the_contract_limits() {
        let problems = check_manifest(&manifest());
        assert!(problems.is_empty(), "{problems:#?}");
        assert!(manifest().render().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // run from a checkout without the root file
        };
        assert_eq!(Json::parse(&text).expect("BENCHMARK.json parses"), manifest());
    }

    #[test]
    fn check_manifest_catches_limit_violations() {
        let bad = Json::obj()
            .with("command", Json::Arr(vec![]))
            .with("paths", Json::Arr(vec![]))
            .with("run_seconds", 0u64)
            .with("workloads", Json::Arr(vec![Json::obj().with("name", "a b").with("why", "x")]))
            .with(
                "end_to_end",
                Json::Arr(vec![Json::obj()
                    .with("name", "lat")
                    .with("unit", "m s")
                    .with("better", "faster")
                    .with("bound", 0.5)]),
            )
            .with("per_layer", Json::Arr(vec![]));
        let problems = check_manifest(&bad);
        for needle in
            ["workloads", "bad name", "bad unit", "better", "bound", "setup_s", "run_seconds"]
        {
            assert!(problems.iter().any(|p| p.contains(needle)), "missing {needle}: {problems:?}");
        }
    }

    #[test]
    fn contract_json_demands_every_registered_metric() {
        let mut set = MetricSet::new();
        for def in &END_TO_END {
            set.put(def.name, 1.5);
        }
        let json = set.to_contract_json(false, true).unwrap();
        assert_eq!(json.fields().len(), END_TO_END.len());
        assert_eq!(json.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        assert!(MetricSet::new().to_contract_json(true, true).is_err());
    }
}

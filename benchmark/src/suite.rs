//! `run`: every workload, each run in a fresh child process, every metric
//! printed by name with its unit and written to a results file. `validate`:
//! a results file checked against `BENCHMARK.json`.

use crate::host;
use crate::json::Json;
use crate::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

pub struct Options {
    /// Also make the traced run that yields the per-layer numbers.
    pub traced: bool,
    /// Seconds-long smoke run: one round, one set-up. Same names, marked
    /// `"mode": "quick"`, never comparable to a full run.
    pub quick: bool,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub out: Option<PathBuf>,
    /// Untraced runs per workload, seeds `seed..seed + repeat`; the value
    /// reported is their median and every run is kept for `compare`.
    pub repeat: usize,
}

const QUICK_SECONDS: f64 = 1.0;

/// One child run: the contract's result object, parsed.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    extra: &[&str],
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    match last.map(Json::parse) {
        Some(Ok(result)) => Ok(result),
        _ => Err(format!("the {workload} run printed no result (exit {:?})", output.status.code())),
    }
}

fn metric_entry(value: f64, unit: &str, runs: Option<&[f64]>) -> Json {
    let entry = Json::obj().with("value", value).with("unit", unit);
    match runs {
        Some(runs) if runs.len() > 1 => {
            entry.with("runs", Json::Arr(runs.iter().map(|&v| Json::Num(v)).collect()))
        }
        _ => entry,
    }
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn print_block(title: &str, block: &Json) {
    println!("{title}");
    for (name, entry) in block.fields() {
        let value = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        let runs = entry.get("runs").map(Json::as_array).unwrap_or(&[]);
        let values: Vec<f64> = runs.iter().filter_map(Json::as_f64).collect();
        if values.len() > 1 {
            println!("  {name:<44} {value:>16.4} {unit:<6} spread {:.2}%", spread(&values) * 100.0);
        } else {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
    }
}

pub fn run(options: &Options) -> Result<ExitCode, String> {
    let started = Instant::now();
    let seconds = options.seconds.unwrap_or(if options.quick {
        QUICK_SECONDS
    } else {
        metrics::RUN_SECONDS as f64
    });
    let quick: &[&str] = if options.quick { &["--quick"] } else { &[] };
    let host = host::measure(Duration::from_millis(200));
    println!(
        "host: nproc {}, spin {:.0} M/s, 2-thread parallel speedup {:.2}",
        host.nproc,
        host.spin_rate_per_s / 1e6,
        host.parallel_speedup
    );
    let mut all_correct = true;
    let mut workloads = Json::obj();
    let mut layers = Json::obj();
    for (position, workload) in WORKLOADS.iter().enumerate() {
        // How fast the host spins around each of this workload's runs: the
        // reference host slows by a quarter for minutes at a time, and
        // `compare` must not read that as a change in the program.
        let mut spin = vec![host::measure(Duration::from_millis(100)).spin_rate_per_s];
        let mut runs: Vec<Json> = Vec::new();
        for r in 0..options.repeat.max(1) {
            runs.push(child(workload.name, options.seed + r as u64, seconds, false, quick)?);
            spin.push(host::measure(Duration::from_millis(100)).spin_rate_per_s);
        }
        let flag = |key: &str| runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
        let correct = runs.iter().all(|r| r.get("correct") == Some(&Json::Bool(true)));
        let mut end_to_end = Json::obj();
        for def in &END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| value_of(r, def.name)).collect();
            if values.len() != runs.len() {
                return Err(format!("{}: a run did not report {}", workload.name, def.name));
            }
            end_to_end =
                end_to_end.with(def.name, metric_entry(median(&values), def.unit, Some(&values)));
        }
        let mut entry = Json::obj()
            .with("correct", correct)
            .with("ops_attempted", flag("attempted"))
            .with("ops_failed", flag("failed"))
            .with("host_spin_rate_per_s", median(&spin))
            .with("end_to_end", end_to_end);
        all_correct &= correct;
        if options.traced {
            // The probes do not depend on the workload: the first traced
            // run carries them for the whole suite.
            let mut extra = quick.to_vec();
            if position > 0 {
                extra.push("--no-probes");
            }
            let traced = child(workload.name, options.seed, seconds, true, &extra)?;
            all_correct &= traced.get("correct") == Some(&Json::Bool(true));
            let mut trace = Json::obj();
            for def in &PER_LAYER {
                let Some(value) = value_of(&traced, def.name) else { continue };
                // Measured on the workload's own traced round, not by the probes.
                let own = def.name.starts_with("trace.") || def.name == "bench.trace_overhead_frac";
                if own {
                    trace = trace.with(def.name, metric_entry(value, def.unit, None));
                } else if position == 0 {
                    layers = layers.with(def.name, metric_entry(value, def.unit, None));
                }
            }
            entry = entry.with("trace", trace);
        }
        println!();
        print_block(
            &format!(
                "{} — correct {correct}, ops attempted {}, failed {}, host spin {:.0} M/s",
                workload.name,
                flag("attempted"),
                flag("failed"),
                median(&spin) / 1e6
            ),
            entry.get("end_to_end").expect("just built"),
        );
        if let Some(trace) = entry.get("trace") {
            print_block("  traced round:", trace);
        }
        workloads = workloads.with(workload.name, entry);
    }
    if options.traced {
        println!();
        print_block("per-layer probes (MED rung 1; MED 0.1 / FIN 0.03):", &layers);
    }
    let results = Json::obj()
        .with("mode", if options.quick { "quick" } else { "full" })
        .with("seed", options.seed)
        .with("seconds", seconds)
        .with("repeat", options.repeat.max(1) as u64)
        .with("host", host.to_json())
        .with("workloads", workloads)
        .with("layers", layers);
    let out =
        options.out.clone().unwrap_or_else(|| crate::fixtures::out_dir().join("results.json"));
    std::fs::write(&out, results.render()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nwrote {} in {:.1}s", out.display(), started.elapsed().as_secs_f64());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

/// `BENCHMARK.json` text: one entry per line, stable, diff-friendly.
pub fn pretty_manifest() -> String {
    let manifest = metrics::manifest();
    let mut out = String::from("{\n");
    let fields = manifest.fields();
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        match value {
            Json::Arr(items) if items.iter().all(|item| matches!(item, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{comma}\n", other.render())),
        }
    }
    out.push('}');
    out
}

/// Checks `results` (written by `run --trace`) against `manifest`.
pub fn validate(manifest_path: &str, results_path: &str) -> Result<ExitCode, String> {
    let manifest = Json::read(manifest_path)?;
    let results = Json::read(results_path)?;
    let mut problems = metrics::check_manifest(&manifest);
    if manifest != metrics::manifest() {
        problems.push(format!("{manifest_path} differs from `manifest` output; regenerate it"));
    }
    let names = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .map(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
            .collect()
    };
    let has_number = |block: Option<&Json>, name: &str| {
        block.and_then(|b| b.get(name)?.get("value")?.as_f64()).is_some_and(f64::is_finite)
    };
    for workload in names("workloads") {
        let Some(entry) = results.get("workloads").and_then(|w| w.get(&workload)) else {
            problems.push(format!("results lack workload `{workload}`"));
            continue;
        };
        for key in ["ops_attempted", "ops_failed"] {
            if entry.get(key).and_then(Json::as_f64).is_none() {
                problems.push(format!("{workload}: no {key}"));
            }
        }
        for metric in names("end_to_end") {
            if !has_number(entry.get("end_to_end"), &metric) {
                problems.push(format!("{workload}: end-to-end metric `{metric}` missing"));
            }
        }
        for metric in names("per_layer") {
            let own = has_number(entry.get("trace"), &metric);
            if !own && !has_number(results.get("layers"), &metric) {
                problems.push(format!("{workload}: per-layer metric `{metric}` missing"));
            }
        }
    }
    if problems.is_empty() {
        println!("{results_path} matches {manifest_path}");
        Ok(ExitCode::SUCCESS)
    } else {
        for problem in &problems {
            eprintln!("{problem}");
        }
        Ok(ExitCode::FAILURE)
    }
}

//! `compare A.json B.json`: for every (end-to-end metric, workload) pair,
//! B's value against A's, direction-aware, against the metric's bound.
//!
//! A pair is `REGRESSED` when B is worse than A by more than the bound
//! (exit code 1), `improved` when better by more than the bound, and
//! `unchanged` otherwise — unless the medians cannot tell, and the pair is
//! `unresolved`: when either file holds several runs (`run --repeat`) whose
//! own quartile spread is wider than the bound, or, for a timing, when the
//! host spun at rates further apart than the bound while the two files'
//! runs of that workload were made.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::spread;
use std::process::ExitCode;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

/// Relative change of `b` against `a`, positive when worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(worse_by: f64, bound: f64, widest_spread: f64) -> Verdict {
    if widest_spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn entry<'a>(file: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    file.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)
}

/// How far apart the host's spin rates were around the two files' runs of
/// `workload`, as a share of the slower; 0 when a file does not say.
fn host_gap(a: &Json, b: &Json, workload: &str) -> f64 {
    let spin =
        |file: &Json| file.get("workloads")?.get(workload)?.get("host_spin_rate_per_s")?.as_f64();
    match (spin(a), spin(b)) {
        (Some(x), Some(y)) if x > 0.0 && y > 0.0 => x.max(y) / x.min(y) - 1.0,
        _ => 0.0,
    }
}

fn spread_of(entry: &Json) -> f64 {
    let runs: Vec<f64> = entry
        .get("runs")
        .map(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if runs.len() >= 2 {
        spread(&runs)
    } else {
        0.0
    }
}

pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (Json::read(a_path)?, Json::read(b_path)?);
    let mode = |f: &Json| f.get("mode").and_then(Json::as_str).unwrap_or("?").to_string();
    if mode(&a) != "full" || mode(&b) != "full" {
        return Err(format!("only full runs compare (A is {}, B is {})", mode(&a), mode(&b)));
    }
    let mut breaches = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "noise"
    );
    for workload in &WORKLOADS {
        let host_gap = host_gap(&a, &b, workload.name);
        for def in &END_TO_END {
            let (Some(ea), Some(eb)) =
                (entry(&a, workload.name, def.name), entry(&b, workload.name, def.name))
            else {
                return Err(format!("{}/{} is missing from a file", workload.name, def.name));
            };
            let value = |e: &Json| e.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (value(ea), value(eb));
            let worse_by = worsening(va, vb, def.better);
            // A count does not care how fast the host runs; a time does.
            let timing = matches!(def.unit, "s" | "us" | "1/s");
            let widest = spread_of(ea).max(spread_of(eb)).max(if timing { host_gap } else { 0.0 });
            let verdict = verdict(worse_by, def.bound, widest);
            breaches += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<16} {:<18} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}% {:>7.2}%  {}",
                workload.name,
                def.name,
                worse_by * 100.0,
                def.bound * 100.0,
                widest * 100.0,
                match verdict {
                    Verdict::Unchanged => "unchanged",
                    Verdict::Improved => "improved",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if breaches == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn host_gap_is_the_share_by_which_the_faster_file_spun_faster() {
        let file = |spin: f64| {
            let entry = Json::obj().with("host_spin_rate_per_s", spin);
            Json::obj().with("workloads", Json::obj().with("serve_mix", entry))
        };
        assert!((host_gap(&file(600e6), &file(800e6), "serve_mix") - 1.0 / 3.0).abs() < 1e-12);
        assert!((host_gap(&file(800e6), &file(600e6), "serve_mix") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(host_gap(&file(800e6), &Json::obj(), "serve_mix"), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(0.04, 0.05, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(0.06, 0.05, 0.01), Verdict::Regressed);
        assert_eq!(verdict(-0.06, 0.05, 0.01), Verdict::Improved);
        // A spread wider than the bound cannot resolve a difference either way.
        assert_eq!(verdict(0.06, 0.05, 0.08), Verdict::Unresolved);
        assert_eq!(verdict(0.0, 0.05, 0.08), Verdict::Unresolved);
        // Exact counts: any change beyond the (tiny) bound is a breach.
        assert_eq!(verdict(0.002, 0.001, 0.0), Verdict::Regressed);
    }
}

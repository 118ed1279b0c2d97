//! The repository benchmark. See `README.md` for every metric's definition.
//!
//! ```text
//! pgso-benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! pgso-benchmark run [--trace] [--quick] [--repeat K] [--seed N] [--seconds S] [--out FILE]
//! pgso-benchmark compare A.json B.json
//! pgso-benchmark validate BENCHMARK.json RESULTS.json
//! pgso-benchmark manifest                                        prints BENCHMARK.json
//! ```

mod alloc;
mod compare;
mod digest;
mod fixtures;
mod harness;
mod host;
mod json;
mod metrics;
mod probes;
mod spans;
mod stats;
mod suite;
mod workloads;

use harness::RunSpec;
use json::Json;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("bad value for {key}: `{text}`")),
        }
    }

    /// Arguments that are neither a `--key` nor the value following one.
    fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for (i, arg) in self.0.iter().enumerate() {
            if skip {
                skip = false;
            } else if arg.starts_with("--") {
                skip = self.0.get(i + 1).is_some_and(|next| !next.starts_with("--"));
            } else {
                out.push(arg.as_str());
            }
        }
        out
    }
}

/// One workload, in this process; the contract's JSON object on the last
/// line of standard output, everything else on standard error.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("--workload is required")?;
    let seconds: f64 = args.parsed("--seconds", metrics::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let spec =
        RunSpec { seed: args.parsed("--seed", 42)?, seconds, traced, quick: args.flag("--quick") };
    let mut outcome = workloads::run(workload, &spec).ok_or_else(|| {
        let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{workload}` (known: {known:?})")
    })?;
    // `run --trace` asks only its first child for the probes, which do not
    // depend on the workload; a run the driver starts always carries them.
    let probes = traced && !args.flag("--no-probes");
    if probes {
        outcome.metrics.extend(probes::run_all(&spec));
    }
    for note in &outcome.notes {
        eprintln!("[{workload}] {note}");
    }
    let result = Json::obj()
        .with("correct", outcome.correct)
        .with("attempted", outcome.attempted.max(1))
        .with("failed", outcome.failed)
        .with("metrics", outcome.metrics.to_contract_json(traced, probes || !traced)?);
    println!("{}", result.render());
    // A tripped correctness check is reported in the object and by the exit
    // code, so neither a script nor a person can miss it.
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn dispatch() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    match command.as_str() {
        "" => run_one(&args),
        "run" => suite::run(&suite::Options {
            traced: args.flag("--trace"),
            quick: args.flag("--quick"),
            seed: args.parsed("--seed", 42)?,
            seconds: args.value("--seconds").map(|_| args.parsed("--seconds", 0.0)).transpose()?,
            out: args.value("--out").map(Into::into),
            repeat: args.parsed("--repeat", 1)?,
        }),
        "compare" => match args.positional()[..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        "validate" => match args.positional()[..] {
            [manifest, results] => suite::validate(manifest, results),
            _ => Err("usage: validate BENCHMARK.json RESULTS.json".to_string()),
        },
        "manifest" => {
            println!("{}", suite::pretty_manifest());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    dispatch().unwrap_or_else(|message| {
        eprintln!("pgso-benchmark: {message}");
        ExitCode::FAILURE
    })
}

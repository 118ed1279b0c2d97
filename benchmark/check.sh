#!/usr/bin/env bash
# Builds the benchmark, runs the whole suite in quick mode with the traced
# run, and validates the output against BENCHMARK.json: every name within the
# contract's limits, every workload reporting setup_s, ops_attempted,
# ops_failed and every declared metric, BENCHMARK.json identical to what the
# metric registry generates. Ready for CI to call; takes about a minute
# including the build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
run() { cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"; }

cargo test --release --quiet --offline --manifest-path "$here/Cargo.toml"
run run --quick --trace --out "$here/out/quick.json"
run validate "$here/../BENCHMARK.json" "$here/out/quick.json"

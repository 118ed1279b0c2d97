//! # pgso-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 5), plus two ablation studies.
//!
//! * library — reusable experiment functions ([`experiments`]), the
//!   microbenchmark query set ([`queries`]) and dataset/loading plumbing
//!   ([`workbench`]);
//! * `reproduce` binary — prints the rows of each figure/table
//!   (`cargo run -p pgso-bench --bin reproduce -- all`);
//! * `server_throughput` Criterion bench — the tenants × threads serving
//!   grid (`cargo bench -p pgso-bench --bench server_throughput`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod queries;
pub mod workbench;

pub use queries::{figure12_workload, microbenchmark, BenchQuery, DatasetId};
pub use workbench::{
    build_disk_pair, build_memory_pair, compare_query, workload_latency, GraphPair, Workbench,
};

//! The service benchmark behind `BENCHMARK.json`: seeded workloads
//! driven over the wire (`run`), the same requests replayed layer by
//! layer (`trace`), and the rule that compares two sets of runs
//! (`compare`). The `bst-benchmark` binary is the command line; see
//! README.md.

pub mod compare;
pub mod data;
pub mod json;
pub mod place;
pub mod reference;
pub mod report;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;

/// The measured window, in seconds, when none is given: `run_seconds`
/// in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

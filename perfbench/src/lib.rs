//! # monetlite-perfbench
//!
//! The repository benchmark: four workloads driven through the engine's
//! public API, end-to-end metrics with regression bounds (listed in
//! `BENCHMARK.json` at the repository root), and a per-layer trace taken
//! from outside the engine. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod expected;
pub mod fixture;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod view;
pub mod workload;

use std::path::PathBuf;

/// Everything one `run` of one workload needs to know.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// One of [`workload::NAMES`].
    pub workload: String,
    /// Input seed: the same seed gives the same data and statements.
    pub seed: u64,
    /// Length of the timed section of an untraced run, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Tiny data, one round: a functional check, not a measurement.
    pub smoke: bool,
    /// Collecting hashes for `expected/`, so do not compare with them.
    pub bless: bool,
    /// The `bench` executable, re-run as the `prepare` child.
    pub exe: PathBuf,
    /// Scratch directory for databases and spill files (created, emptied
    /// and removed by the run).
    pub work: PathBuf,
    /// Directory result and trace files are written to.
    pub out: PathBuf,
    /// Host facts recorded in every output file.
    pub env: fixture::Env,
}

//! # smpss-bench — the figure-by-figure evaluation harness
//!
//! One binary per figure of the paper's §VI (`fig05_graph` …
//! `fig16_nqueens_scalability`), plus `ablations` for the design-choice
//! studies DESIGN.md lists, and criterion micro-benchmarks for the
//! runtime primitives and kernels. Performance of the runtime itself is
//! measured by the repository benchmark (`benchmark/`, declared in
//! `BENCHMARK.json`), not here.
//!
//! The harness combines three ingredients (see `smpss-sim` for why):
//!
//! 1. **recorded graphs** — the real runtime executes the real
//!    applications at structural scale (tiny blocks: graph shape depends
//!    only on the block *count*) with `record_graph` on;
//! 2. **calibrated costs** — real single-core kernel rates measured on
//!    this machine map each task to its virtual cost at the paper's
//!    block sizes;
//! 3. **the machine simulator** — replays the §III scheduler on 1–32
//!    virtual cores.

pub mod calibrate;
pub mod dags;
pub mod record;
pub mod series;

/// The thread counts the paper sweeps in Figures 11–16.
pub const PAPER_THREADS: &[usize] = &[1, 2, 4, 8, 12, 16, 24, 32];

/// Parse a `--quick` flag (smaller problem sizes for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Checks on what the repository benchmark (`benchmark/`) relies on: the
/// runtime counters it reads and the result files it commits. The
/// benchmark itself is a stand-alone package, so these run here.
///
/// The module is called `perf` only so that its tests keep the ids
/// (`perf::tests::*`) they had when this crate held a performance
/// harness. By subject, the counter tests belong in the root suites
/// (`tests/determinism.rs`, `tests/shard_semantics.rs`,
/// `tests/session_semantics.rs`, `crates/core/tests/failure_semantics.rs`)
/// and the result-file tests in a root `tests/benchmark_files.rs`;
/// moving them there changes their ids.
#[cfg(test)]
mod perf {
    mod tests;
}

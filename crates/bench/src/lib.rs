//! The benchmark harness: shared timing, reporting and calibration code
//! used by the `fig*`/`tab*` binaries (one per table/figure of the paper,
//! plus the `tab_ablations` design-ablation table).
//!
//! Run any figure with, e.g.:
//!
//! ```text
//! cargo run --release -p shalom-bench --bin fig7_small_warm
//! cargo run --release -p shalom-bench --bin fig9_irregular_parallel -- --full
//! ```
//!
//! Every binary accepts `--reps N` (timing repetitions; paper uses 10),
//! `--full` (paper-scale problem sizes; defaults are scaled for a small
//! host) and `--out DIR` (CSV output directory, default `results/`).
//! `--telemetry` additionally records the dispatch decisions of every
//! GEMM in the run and writes a `<figure>.telemetry.json` snapshot next
//! to the CSVs.

#![deny(missing_docs)]

pub mod args;
pub mod report;
pub mod runner;
pub mod telemetry;
pub mod timer;

pub use args::BenchArgs;
pub use report::Report;
pub use runner::{measure, measure_gflops, CacheState};
pub use timer::{host_peak_gflops, time_gemm, TimeStats};

#[cfg(test)]
mod tests {
    #[test]
    fn modules_link() {
        let a = crate::BenchArgs::parse_from(&[]);
        assert!(!a.full);
    }
}

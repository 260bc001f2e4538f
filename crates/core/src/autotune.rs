//! Empirical parameter auto-tuning — the paper's stated future work
//! (§10: "open up the kernel parameters to allow an auto-tuning framework
//! to search for the optimal parameters").
//!
//! [`autotune`] measures a given GEMM signature under a small factorial
//! search space — packing policy x edge schedule x blocking scale (the
//! `kc`/`mc`/`nc` derivation scaled through the cache-size inputs, §5.5's
//! "to adapt to different cache sizes, we can adjust the values of mc, nc
//! and kc") — and returns the fastest configuration with the full
//! measurement table. The analytic defaults are always in the space, so
//! tuning can only confirm or improve them.

use crate::api::gemm_with;
use crate::cache::CacheParams;
use crate::config::{EdgeSchedule, GemmConfig, PackingPolicy};
use crate::GemmElem;
use shalom_matrix::{Matrix, Op};
use std::time::{Duration, Instant};

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Human-readable description of the knob settings.
    pub label: String,
    /// The configuration.
    pub config: GemmConfig,
    /// Measured throughput, GFLOPS (geometric-mean over the timed reps).
    pub gflops: f64,
}

/// The tuning outcome: the winner plus the whole measurement table
/// (sorted fastest-first).
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The fastest configuration found.
    pub best: GemmConfig,
    /// All candidates with their measurements, fastest first.
    pub candidates: Vec<Candidate>,
}

impl TuneReport {
    /// Installs the winner's resolved plan as an override in the global
    /// override table, so subsequent calls with this signature under
    /// `base` dispatch through it without re-tuning. The signature must
    /// be the one that was tuned; persist with [`crate::plan::save_profile`].
    pub fn install<T: GemmElem>(
        &self,
        base: &GemmConfig,
        op_a: Op,
        op_b: Op,
        m: usize,
        n: usize,
        k: usize,
    ) -> crate::plan::PlanDescription {
        crate::plan::install_tuned::<T>(base, &self.best, op_a, op_b, m, n, k)
    }
}

fn scaled_cache(c: &CacheParams, num: usize, den: usize) -> CacheParams {
    CacheParams {
        l1: (c.l1 * num / den).max(4 * 1024),
        l2: (c.l2 * num / den).max(16 * 1024),
        l3: c.l3 * num / den,
    }
}

/// Measures one config: a warm-up call, then timed batched repetitions
/// (enough inner iterations to exceed ~2 ms per measurement).
fn measure<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    flops: f64,
    reps: usize,
) -> f64 {
    let mut once = || {
        gemm_with(
            cfg,
            op_a,
            op_b,
            T::ONE,
            a.as_ref(),
            b.as_ref(),
            T::ZERO,
            c.as_mut(),
        );
        std::hint::black_box(c.as_slice().first());
    };
    once();
    let t0 = Instant::now();
    once();
    let est = t0.elapsed().as_secs_f64().max(1e-8);
    let inner = ((2e-3 / est).ceil() as usize).clamp(1, 50_000);
    let mut log_sum = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            once();
        }
        log_sum += (t0.elapsed().as_secs_f64().max(1e-9) / inner as f64).ln();
    }
    flops / (log_sum / reps as f64).exp() / 1e9
}

/// Tunes the configuration for one GEMM signature within a wall-clock
/// budget. Returns the fastest config found; `base` supplies the thread
/// count and the detected cache geometry the search perturbs.
///
/// # Panics
/// If `m`, `n` or `k` is zero (there is nothing to tune).
pub fn autotune<T: GemmElem>(
    base: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    budget: Duration,
) -> TuneReport {
    assert!(
        m > 0 && n > 0 && k > 0,
        "degenerate GEMM has nothing to tune"
    );
    // Probe GEMMs are measurement noise, not workload: keep them out of
    // the decision records and the span timeline for the whole search.
    let _pause = crate::capture::pause();
    let (ar, ac) = match op_a {
        Op::NoTrans => (m, k),
        Op::Trans => (k, m),
    };
    let (br, bc) = match op_b {
        Op::NoTrans => (k, n),
        Op::Trans => (n, k),
    };
    let a = Matrix::<T>::random(ar, ac, 0xDEAD);
    let b = Matrix::<T>::random(br, bc, 0xBEEF);
    let mut c = Matrix::<T>::zeros(m, n);
    let flops = 2.0 * m as f64 * n as f64 * k as f64;

    let packings = [
        ("auto", PackingPolicy::Auto),
        ("fused", PackingPolicy::AlwaysFused),
        ("seq", PackingPolicy::AlwaysSequential),
        ("nopack", PackingPolicy::Never),
    ];
    let edges = [
        ("pipe", EdgeSchedule::Pipelined),
        ("batch", EdgeSchedule::Batched),
    ];
    let scales = [
        ("blk1.0", 1usize, 1usize),
        ("blk0.5", 1, 2),
        ("blk2.0", 2, 1),
    ];

    let deadline = Instant::now() + budget;
    let mut candidates = Vec::new();
    'outer: for (pl, packing) in packings {
        for (el, edge) in edges {
            for (sl, num, den) in scales {
                let config = GemmConfig {
                    packing,
                    edge,
                    cache: scaled_cache(&base.cache, num, den),
                    threads: base.threads,
                    isa: base.isa,
                };
                let gflops = measure(&config, op_a, op_b, &a, &b, &mut c, flops, 3);
                candidates.push(Candidate {
                    label: format!("{pl}+{el}+{sl}"),
                    config,
                    gflops,
                });
                if Instant::now() >= deadline {
                    break 'outer;
                }
            }
        }
    }
    candidates.sort_by(|x, y| y.gflops.total_cmp(&x.gflops));
    TuneReport {
        best: candidates[0].config,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::{assert_close, gemm_tolerance, reference};

    #[test]
    fn tunes_and_returns_sorted_table() {
        let base = GemmConfig::with_threads(1);
        let report = autotune::<f32>(
            &base,
            Op::NoTrans,
            Op::NoTrans,
            16,
            16,
            16,
            Duration::from_millis(1500),
        );
        assert!(!report.candidates.is_empty());
        for w in report.candidates.windows(2) {
            assert!(w[0].gflops >= w[1].gflops, "table must be sorted");
        }
        assert!(report.candidates[0].gflops > 0.0);
    }

    #[test]
    fn budget_caps_the_search() {
        let base = GemmConfig::with_threads(1);
        let t0 = Instant::now();
        let report = autotune::<f32>(
            &base,
            Op::NoTrans,
            Op::Trans,
            8,
            8,
            8,
            Duration::from_millis(50),
        );
        // Grossly bounded: a 50 ms budget must not run for many seconds.
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert!(!report.candidates.is_empty());
    }

    #[test]
    fn tuned_config_still_computes_correctly() {
        let base = GemmConfig::with_threads(1);
        let report = autotune::<f64>(
            &base,
            Op::NoTrans,
            Op::NoTrans,
            13,
            13,
            13,
            Duration::from_millis(800),
        );
        let a = Matrix::<f64>::random(13, 13, 1);
        let b = Matrix::<f64>::random(13, 13, 2);
        let mut c = Matrix::<f64>::zeros(13, 13);
        let mut want = Matrix::<f64>::zeros(13, 13);
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            want.as_mut(),
        );
        gemm_with(
            &report.best,
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f64>(13, 2.0));
    }

    #[test]
    #[should_panic(expected = "nothing to tune")]
    fn degenerate_rejected() {
        let base = GemmConfig::with_threads(1);
        let _ = autotune::<f32>(
            &base,
            Op::NoTrans,
            Op::NoTrans,
            0,
            8,
            8,
            Duration::from_millis(10),
        );
    }
}

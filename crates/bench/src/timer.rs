//! Timing utilities following the paper's methodology (§7.4): each kernel
//! runs `reps` times; the **geometric mean** of the runtimes is reported
//! with the min–max spread.

use std::time::Instant;

/// Runtime statistics over the repetitions.
#[derive(Debug, Clone, Copy)]
pub struct TimeStats {
    /// Geometric mean runtime, seconds.
    pub geomean: f64,
    /// Fastest repetition, seconds.
    pub min: f64,
    /// Slowest repetition, seconds.
    pub max: f64,
}

impl TimeStats {
    /// Throughput in GFLOPS for an operation of `flops` floating-point
    /// operations, at the geometric-mean runtime.
    pub fn gflops(&self, flops: f64) -> f64 {
        flops / self.geomean / 1e9
    }
}

/// Times `body` `reps` times (after `warmup` untimed runs). `between`
/// runs untimed before every timed repetition — Figure 8 passes the cache
/// flusher here; Figure 7 passes a no-op (warm cache).
pub fn time_gemm(
    reps: usize,
    warmup: usize,
    mut between: impl FnMut(),
    mut body: impl FnMut(),
) -> TimeStats {
    assert!(reps >= 1);
    for _ in 0..warmup {
        body();
    }
    let mut log_sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..reps {
        between();
        let t0 = Instant::now();
        body();
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        log_sum += dt.ln();
        min = min.min(dt);
        max = max.max(dt);
    }
    TimeStats {
        geomean: (log_sum / reps as f64).exp(),
        min,
        max,
    }
}

/// Calibrates the host's achievable FMA peak in GFLOPS for element type
/// `T` at the 128-bit width the baselines run: the best of the main
/// micro-kernel's register tiles that `tab_ablations` compares, on an
/// L1-resident panel. The analytic 7x12 is the paper's answer for 32
/// vector registers; x86-64 has 16 XMM registers, which its 21
/// accumulators overflow, so the other tiles are timed too. Used as the
/// normalization denominator of the %-of-peak figures (Figure 2): the
/// host exposes no reliable frequency/peak metadata, so the *measured*
/// micro-kernel ceiling stands in for the theoretical peak (documented in
/// EXPERIMENTS.md).
pub fn host_peak_gflops<T: shalom_core::GemmElem>() -> f64 {
    [
        tile_peak::<T, 7, 3>(),
        tile_peak::<T, 8, 2>(),
        tile_peak::<T, 4, 1>(),
        tile_peak::<T, 16, 1>(),
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

/// Best-of-5 GFLOPS of the `mr x (nrv * lanes)` 128-bit main kernel.
fn tile_peak<T: shalom_core::GemmElem, const MR: usize, const NRV: usize>() -> f64 {
    use shalom_kernels::main_kernel::main_kernel_shape;

    let nr = NRV * T::LANES;
    let kc = 128;
    let a = vec![T::from_f64(0.5); MR * kc];
    let b = vec![T::from_f64(0.25); kc * nr];
    let mut c = vec![T::ZERO; MR * nr];
    let inner = 2000;
    let flops = 2.0 * (MR * nr * kc) as f64 * inner as f64;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..inner {
            // SAFETY: a is MR x kc, b is kc x nr and c is MR x nr, all at
            // tight strides, which is the kernel's whole footprint.
            unsafe {
                main_kernel_shape::<T::Vec, MR, NRV>(
                    kc,
                    T::ONE,
                    a.as_ptr(),
                    kc,
                    b.as_ptr(),
                    nr,
                    T::ONE,
                    c.as_mut_ptr(),
                    nr,
                );
            }
        }
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        best = best.max(flops / dt / 1e9);
        std::hint::black_box(&c);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_ordering() {
        let s = time_gemm(
            5,
            1,
            || {},
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
        );
        assert!(s.min <= s.geomean && s.geomean <= s.max);
        assert!(s.min > 0.0);
    }

    #[test]
    fn gflops_arithmetic() {
        let s = TimeStats {
            geomean: 0.5,
            min: 0.4,
            max: 0.6,
        };
        assert!((s.gflops(1e9) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn between_runs_before_each_rep() {
        let mut count = 0;
        time_gemm(3, 2, || count += 1, || {});
        assert_eq!(count, 3, "between must run once per timed rep only");
    }

    #[test]
    fn host_peak_is_positive() {
        // No `p32 > p64` comparison: two timings on a shared host order
        // either way, and the test failed on that under `--release`.
        let p32 = host_peak_gflops::<f32>();
        let p64 = host_peak_gflops::<f64>();
        assert!(p32.is_finite() && p32 > 0.0, "f32 peak {p32}");
        assert!(p64.is_finite() && p64 > 0.0, "f64 peak {p64}");
        // The floors hold for optimized code; an unoptimized scalar build
        // measures near them.
        if !cfg!(debug_assertions) {
            assert!(p32 > 0.1, "f32 peak {p32}");
            assert!(p64 > 0.05, "f64 peak {p64}");
        }
    }
}

//! Tier-1 guard for the `shalom_core::sync` atomics facade — the hook
//! that lets the `modelcheck` feature swap instrumented atomics into
//! the pool and plan-cache protocols.
//!
//! In the default configuration the facade must be invisible: the
//! re-exported types ARE `std::sync::atomic` (checked by type
//! identity, which is a compile-time proof of zero overhead), and the
//! pooled GEMM path that routes its task claims through the facade
//! produces bitwise-identical results to the serial path.

use shalom_core::{gemm_with, prewarm, sync, GemmConfig, Op};
use shalom_matrix::Matrix;

#[test]
fn facade_resolves_to_std_in_the_default_build() {
    // Compile-time proof the default build is the std configuration.
    const { assert!(sync::FACADE_IS_STD) };
    // Type identity, not just API compatibility: a facade atomic
    // coerces to a std atomic reference. This fails to compile if the
    // facade ever wraps instead of re-exporting in the std build.
    let n = sync::AtomicUsize::new(3);
    let as_std: &std::sync::atomic::AtomicUsize = &n;
    assert_eq!(as_std.load(std::sync::atomic::Ordering::Relaxed), 3);
    let b = sync::AtomicBool::new(true);
    let as_std: &std::sync::atomic::AtomicBool = &b;
    assert!(as_std.load(std::sync::atomic::Ordering::Relaxed));
}

#[test]
fn pooled_gemm_is_bitwise_identical_to_serial_through_the_facade() {
    prewarm(4, 1 << 20);
    // Irregular paper shapes plus a square one; alpha/beta exercise
    // the accumulate path.
    for &(m, n, k) in &[
        (17usize, 9usize, 31usize),
        (64, 64, 64),
        (5, 128, 3),
        (33, 65, 7),
    ] {
        let a = Matrix::<f32>::random(m, k, 11);
        let b = Matrix::<f32>::random(k, n, 12);
        let seed_c = Matrix::<f32>::random(m, n, 13);

        let mut serial = seed_c.clone();
        let mut pooled = seed_c.clone();
        let cfg = |threads| GemmConfig {
            threads,
            ..GemmConfig::default()
        };
        for (c, threads) in [(&mut serial, 1), (&mut pooled, 4)] {
            gemm_with(
                &cfg(threads),
                Op::NoTrans,
                Op::NoTrans,
                1.5f32,
                a.as_ref(),
                b.as_ref(),
                -0.5f32,
                c.as_mut(),
            );
        }
        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    serial.at(i, j).to_bits(),
                    pooled.at(i, j).to_bits(),
                    "({i},{j}) of {m}x{n}x{k} diverged between serial and pooled"
                );
            }
        }
    }
}

//! Integration: the full LibShalom driver against the naive oracle over
//! a systematic grid of modes, precisions, shapes, scalars, strides,
//! policies and thread counts.

use libshalom::core::{describe_plan, BPlan, ShapeClass};
use libshalom::matrix::{assert_close, gemm_tolerance, reference, Matrix};
use libshalom::{gemm_with, EdgeSchedule, GemmConfig, GemmElem, Op, PackingPolicy};

#[allow(clippy::too_many_arguments)]
fn check<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    beta: f64,
    ld_pad: usize,
) {
    let (ar, ac) = match op_a {
        Op::NoTrans => (m, k),
        Op::Trans => (k, m),
    };
    let (br, bc) = match op_b {
        Op::NoTrans => (k, n),
        Op::Trans => (n, k),
    };
    let a = Matrix::<T>::random_with_ld(ar, ac, ac + ld_pad, 11);
    let b = Matrix::<T>::random_with_ld(br, bc, bc + ld_pad, 12);
    let mut c = Matrix::<T>::random_with_ld(m, n, n + ld_pad, 13);
    let mut want = c.clone();
    reference::gemm(
        op_a,
        op_b,
        T::from_f64(alpha),
        a.as_ref(),
        b.as_ref(),
        T::from_f64(beta),
        want.as_mut(),
    );
    gemm_with(
        cfg,
        op_a,
        op_b,
        T::from_f64(alpha),
        a.as_ref(),
        b.as_ref(),
        T::from_f64(beta),
        c.as_mut(),
    );
    assert_close(
        c.as_ref(),
        want.as_ref(),
        gemm_tolerance::<T>(k, 2.0 * (alpha.abs() + beta.abs()).max(1.0)),
    );
}

#[test]
fn mode_grid_f32_and_f64() {
    let cfg = GemmConfig::with_threads(1);
    for op_a in [Op::NoTrans, Op::Trans] {
        for op_b in [Op::NoTrans, Op::Trans] {
            for &(m, n, k) in &[(8, 8, 8), (23, 23, 23), (7, 12, 4), (50, 30, 40)] {
                check::<f32>(&cfg, op_a, op_b, m, n, k, 1.0, 1.0, 0);
                check::<f64>(&cfg, op_a, op_b, m, n, k, 1.0, 1.0, 0);
            }
        }
    }
}

#[test]
fn policy_by_schedule_grid() {
    for packing in [
        PackingPolicy::Auto,
        PackingPolicy::AlwaysFused,
        PackingPolicy::AlwaysSequential,
        PackingPolicy::Never,
    ] {
        for edge in [EdgeSchedule::Pipelined, EdgeSchedule::Batched] {
            let cfg = GemmConfig {
                packing,
                edge,
                ..GemmConfig::with_threads(1)
            };
            check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 45, 61, 33, 1.5, -0.5, 3);
            check::<f32>(&cfg, Op::NoTrans, Op::Trans, 45, 61, 33, 1.5, -0.5, 3);
            check::<f64>(&cfg, Op::Trans, Op::NoTrans, 45, 61, 33, 1.5, -0.5, 3);
        }
    }
}

#[test]
fn threaded_grid() {
    for threads in [2, 3, 5, 8] {
        let cfg = GemmConfig::with_threads(threads);
        for op_b in [Op::NoTrans, Op::Trans] {
            check::<f32>(&cfg, Op::NoTrans, op_b, 64, 200, 48, 1.0, 1.0, 0);
            check::<f64>(&cfg, Op::NoTrans, op_b, 64, 200, 48, 1.0, 0.0, 5);
        }
    }
}

#[test]
fn irregular_shapes_hit_lookahead() {
    // Shapes classified Irregular (hi >= 8*lo, hi >= 1024), which §4.2's
    // `t = 1` look-ahead was for, take the fused pack when B exceeds L1.
    let cfg = GemmConfig::with_threads(1);
    for (m, n, k) in [(16, 2048, 64), (2048, 16, 96)] {
        let plan = describe_plan::<f32>(&cfg, Op::NoTrans, Op::NoTrans, m, n, k).plan;
        assert_eq!(plan.class, ShapeClass::Irregular, "{m}x{n}x{k}");
        let want = if k * n * 4 <= cfg.cache.l1 {
            BPlan::Direct
        } else {
            BPlan::Fused
        };
        assert_eq!(plan.b_plan, want, "{m}x{n}x{k}");
    }
    check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 16, 2048, 64, 1.0, 1.0, 0);
    check::<f32>(&cfg, Op::NoTrans, Op::Trans, 16, 2048, 64, 1.0, 1.0, 0);
    check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 2048, 16, 96, 1.0, 1.0, 0);
    check::<f64>(&cfg, Op::NoTrans, Op::NoTrans, 16, 2048, 64, 1.0, 1.0, 0);
}

#[test]
fn scalar_special_cases() {
    let cfg = GemmConfig::with_threads(1);
    for &(alpha, beta) in &[(0.0, 0.0), (0.0, 1.0), (0.0, -2.0), (1.0, 0.0), (-3.0, 4.0)] {
        check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 30, 26, 17, alpha, beta, 0);
        check::<f64>(&cfg, Op::NoTrans, Op::Trans, 30, 26, 17, alpha, beta, 2);
    }
}

#[test]
fn single_row_col_and_dot() {
    let cfg = GemmConfig::with_threads(1);
    check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 1, 100, 50, 1.0, 1.0, 0); // row x mat
    check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 100, 1, 50, 1.0, 1.0, 0); // mat x col
    check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 1, 1, 100, 1.0, 1.0, 0); // dot
    check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 100, 100, 1, 1.0, 1.0, 0); // outer
}

#[test]
fn paper_workload_shapes() {
    let cfg = GemmConfig::with_threads(1);
    // Small sweep corners (Fig 7/8), CP2K (Fig 14), scaled VGG (Fig 15).
    for &(m, n, k) in &[
        (8, 8, 8),
        (120, 120, 120),
        (5, 5, 5),
        (26, 26, 13),
        (64, 784, 576),
        (128, 392, 1152),
    ] {
        check::<f32>(&cfg, Op::NoTrans, Op::Trans, m, n, k, 1.0, 1.0, 0);
        check::<f64>(&cfg, Op::NoTrans, Op::NoTrans, m, n, k, 1.0, 1.0, 0);
    }
}

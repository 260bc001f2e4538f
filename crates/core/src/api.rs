//! The public GEMM API: safe, view-based entry points plus raw BLAS-style
//! functions for C-flavoured callers.

use crate::capture;
use crate::config::GemmConfig;
use crate::parallel::{gemm_filled, gemm_parallel};
use crate::plan::GemmPlan;
use shalom_kernels::{FamilyElem, Vector};
use shalom_matrix::{reference, MatMut, MatRef, Op, Scalar};
use shalom_simd::{F32x4, F64x2};
use std::ops::Range;

/// Element types LibShalom has kernels for: a row in every registered
/// kernel set ([`FamilyElem`]), plus the 128-bit vector mapping the
/// baselines instantiate their own kernels at.
pub trait GemmElem: Scalar + FamilyElem {
    /// The 128-bit vector type carrying this element.
    type Vec: Vector<Elem = Self>;
}

impl GemmElem for f32 {
    type Vec = F32x4;
}

impl GemmElem for f64 {
    type Vec = F64x2;
}

impl<T: FamilyElem> GemmPlan<T> {
    /// Runs `C = alpha * op(A) * op(B) + beta * C` as this handle planned
    /// it: no lookup, no decision — a shape check, then the driver (or
    /// the §6 grid on the pool when the handle was built for several
    /// threads).
    ///
    /// # Panics
    /// If the views' stored shapes are not the ones the handle was built
    /// for — the same "incompatible" panic [`gemm_with`] raises.
    pub fn run(&self, alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, beta: T, mut c: MatMut<'_, T>) {
        reference::check_dims(self.op_a, self.op_b, self.m, self.n, self.k, &a, &b);
        assert!(
            c.rows() == self.m && c.cols() == self.n,
            "C stored {}x{} incompatible with the planned {}x{}",
            c.rows(),
            c.cols(),
            self.m,
            self.n
        );
        // SAFETY: SHALOM-D-DRIVER — the MatRef/MatMut views guarantee every
        // operand covers its full (rows, cols, ld) footprint, and the checks
        // above have validated the shapes against the plan's
        // (op_a, op_b, m, n, k).
        unsafe {
            gemm_parallel(
                self,
                alpha,
                a.as_ptr(),
                a.ld(),
                b.as_ptr(),
                b.ld(),
                beta,
                c.as_mut_ptr(),
                c.ld(),
            );
        }
    }

    /// Runs `C = alpha * op(A) * B + beta * C` for a handle planned with
    /// `op_b` NoTrans, without the `k x n` B: `fill(cols, dst)` replaces
    /// `dst` with the dense row-major `k x cols.len()` block of B's columns
    /// `cols` (an im2col lowering, say). The handle cuts C once by its
    /// thread grid, in one fork-join, and each tile fills and multiplies
    /// its columns in blocks whose `k x nb` slice fits half of L2, `nb` a
    /// multiple of the tile width: bitwise [`GemmPlan::run`] on the whole B.
    ///
    /// # Panics
    /// If `op_b` is `Trans`, A or C is not stored in the planned shape, or
    /// a fill leaves `dst` at a length other than `k * cols.len()`. A panic
    /// in `fill` on a pool worker surfaces here.
    pub fn run_filled(
        &self,
        alpha: T,
        a: MatRef<'_, T>,
        fill: &(dyn Fn(Range<usize>, &mut Vec<T>) + Sync),
        beta: T,
        c: MatMut<'_, T>,
    ) {
        // The run's one read of the capture state word picks the
        // instantiation.
        match capture::on() {
            true => gemm_filled::<T, true>(self, alpha, a, fill, beta, c),
            false => gemm_filled::<T, false>(self, alpha, a, fill, beta, c),
        }
    }
}

/// `C = alpha * op(A) * op(B) + beta * C` with an explicit configuration:
/// one [`GemmPlan::new`] (the plan, computed) and one [`GemmPlan::run`].
/// A caller repeating one signature can hold the handle instead.
///
/// Dimension conventions follow BLAS (and the paper's footnote 1): with
/// `C` of shape `M x N`, the *stored* `A` must be `M x K` under
/// [`Op::NoTrans`] and `K x M` under [`Op::Trans`]; likewise `B` is
/// `K x N` / `N x K`.
///
/// # Panics
/// If the stored operand shapes are inconsistent with `C` and the ops.
pub fn gemm_with<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let k = match op_a {
        Op::NoTrans => a.cols(),
        Op::Trans => a.rows(),
    };
    GemmPlan::new(cfg, op_a, op_b, c.rows(), c.cols(), k).run(alpha, a, b, beta, c)
}

/// `C = alpha * op(A) * op(B) + beta * C` under the default configuration
/// (detected caches, single thread — the paper's small-GEMM setting).
pub fn gemm<T: GemmElem>(
    op_a: Op,
    op_b: Op,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    gemm_with(&GemmConfig::default(), op_a, op_b, alpha, a, b, beta, c)
}

/// Single-precision GEMM (`cblas_sgemm` analogue over views).
pub fn sgemm(
    op_a: Op,
    op_b: Op,
    alpha: f32,
    a: MatRef<'_, f32>,
    b: MatRef<'_, f32>,
    beta: f32,
    c: MatMut<'_, f32>,
) {
    gemm(op_a, op_b, alpha, a, b, beta, c)
}

/// Double-precision GEMM (`cblas_dgemm` analogue over views).
pub fn dgemm(
    op_a: Op,
    op_b: Op,
    alpha: f64,
    a: MatRef<'_, f64>,
    b: MatRef<'_, f64>,
    beta: f64,
    c: MatMut<'_, f64>,
) {
    gemm(op_a, op_b, alpha, a, b, beta, c)
}

/// Raw-pointer single-precision GEMM with row-major BLAS semantics, for
/// callers holding C-style buffers.
///
/// # Safety
/// * `a` valid for reads of the stored A (`m x k` rows for `N`, `k x m`
///   for `T`) at leading dimension `lda`; likewise `b` at `ldb`;
/// * `c` valid for reads/writes of `m x n` at `ldc`;
/// * `c` does not alias `a` or `b`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn sgemm_raw(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    beta: f32,
    c: *mut f32,
    ldc: usize,
) {
    let plan = GemmPlan::<f32>::new(cfg, op_a, op_b, m, n, k);
    gemm_parallel(&plan, alpha, a, lda, b, ldb, beta, c, ldc)
}

/// Raw-pointer double-precision GEMM; see [`sgemm_raw`].
///
/// # Safety
/// As [`sgemm_raw`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn dgemm_raw(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    let plan = GemmPlan::<f64>::new(cfg, op_a, op_b, m, n, k);
    gemm_parallel(&plan, alpha, a, lda, b, ldb, beta, c, ldc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::{assert_close, gemm_tolerance, Matrix};

    fn check<T: GemmElem>(cfg: &GemmConfig, op_a: Op, op_b: Op, m: usize, n: usize, k: usize) {
        let (ar, ac) = match op_a {
            Op::NoTrans => (m, k),
            Op::Trans => (k, m),
        };
        let (br, bc) = match op_b {
            Op::NoTrans => (k, n),
            Op::Trans => (n, k),
        };
        let a = Matrix::<T>::random(ar, ac, 71);
        let b = Matrix::<T>::random(br, bc, 72);
        let mut c = Matrix::<T>::random(m, n, 73);
        let mut want = c.clone();
        reference::gemm(
            op_a,
            op_b,
            T::from_f64(1.25),
            a.as_ref(),
            b.as_ref(),
            T::from_f64(-0.5),
            want.as_mut(),
        );
        gemm_with(
            cfg,
            op_a,
            op_b,
            T::from_f64(1.25),
            a.as_ref(),
            b.as_ref(),
            T::from_f64(-0.5),
            c.as_mut(),
        );
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<T>(k, 2.0));
    }

    #[test]
    fn all_modes_both_precisions_default_config() {
        let cfg = GemmConfig::default();
        for op_a in [Op::NoTrans, Op::Trans] {
            for op_b in [Op::NoTrans, Op::Trans] {
                check::<f32>(&cfg, op_a, op_b, 37, 41, 29);
                check::<f64>(&cfg, op_a, op_b, 37, 41, 29);
            }
        }
    }

    #[test]
    fn parallel_matches_reference() {
        // Multiple threads on a 1-core host still exercises the fork-join
        // partitioning and sub-block views.
        for threads in [2, 3, 4, 7] {
            let cfg = GemmConfig::with_threads(threads);
            check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 61, 145, 33);
            check::<f32>(&cfg, Op::NoTrans, Op::Trans, 61, 145, 33);
            check::<f64>(&cfg, Op::Trans, Op::NoTrans, 61, 145, 33);
        }
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        // Each C element is computed by exactly one thread running the
        // same kernel sequence => identical rounding.
        let a = Matrix::<f32>::random(64, 80, 81);
        let b = Matrix::<f32>::random(80, 96, 82);
        let mut c1 = Matrix::<f32>::zeros(64, 96);
        let mut c4 = Matrix::<f32>::zeros(64, 96);
        gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c1.as_mut(),
        );
        gemm_with(
            &GemmConfig::with_threads(4),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c4.as_mut(),
        );
        assert_eq!(
            shalom_matrix::max_abs_diff(c1.as_ref(), c4.as_ref()),
            0.0,
            "parallel result must be deterministic and equal to serial"
        );
    }

    #[test]
    fn strided_views() {
        let a = Matrix::<f32>::random_with_ld(20, 30, 37, 91);
        let b = Matrix::<f32>::random_with_ld(30, 25, 31, 92);
        let mut c = Matrix::<f32>::random_with_ld(20, 25, 40, 93);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            1.0,
            want.as_mut(),
        );
        sgemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            1.0,
            c.as_mut(),
        );
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f32>(30, 2.0));
    }

    #[test]
    fn raw_api_agrees_with_view_api() {
        let cfg = GemmConfig::default();
        let a = Matrix::<f64>::random(15, 18, 94);
        let b = Matrix::<f64>::random(18, 22, 95);
        let mut c_view = Matrix::<f64>::zeros(15, 22);
        let mut c_raw = Matrix::<f64>::zeros(15, 22);
        dgemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c_view.as_mut(),
        );
        // SAFETY: a/b/c_raw are owned matrices shaped (15x18, 18x22, 15x22).
        unsafe {
            dgemm_raw(
                &cfg,
                Op::NoTrans,
                Op::NoTrans,
                15,
                22,
                18,
                1.0,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                0.0,
                c_raw.as_mut().as_mut_ptr(),
                c_raw.ld(),
            );
        }
        assert_eq!(
            shalom_matrix::max_abs_diff(c_view.as_ref(), c_raw.as_ref()),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f32>::zeros(3, 4);
        let b = Matrix::<f32>::zeros(5, 6); // should be 4 x n
        let mut c = Matrix::<f32>::zeros(3, 6);
        sgemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
    }

    #[test]
    fn paper_headline_sizes_smoke() {
        // 8^3 (NekBox), 23^3 (CP2K), 5x5x5 — the small kernels the paper
        // leads with; plus one scaled irregular VGG-like shape.
        let cfg = GemmConfig::default();
        for &(m, n, k) in &[(8, 8, 8), (23, 23, 23), (5, 5, 5), (64, 1024, 96)] {
            check::<f32>(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
            check::<f64>(&cfg, Op::NoTrans, Op::Trans, m, n, k);
        }
    }
}

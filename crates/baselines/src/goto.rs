//! The classical Goto-algorithm GEMM (Figure 1 of the paper) — the
//! strategy shared by OpenBLAS, BLIS and ARMPL, reimplemented faithfully:
//!
//! * **always packs both operands**, as a sequential phase separate from
//!   computation (the first missed opportunity of §3.2);
//! * packs into **sliver-major** buffers with **zero padding** at the
//!   edges, computing edge tiles at full register-tile width into a
//!   temporary C tile (the "pad the matrices with zeros" edge strategy of
//!   §2.2 — wasted flops on small matrices are exactly the ~10% edge
//!   penalty the paper measures);
//! * uses the **batched load schedule** inside the micro-kernel (all
//!   operand loads for a k-step before its FMA burst — Figure 6a);
//! * parallelizes **shape-blind**: a plain N-split (OpenBLAS/ARMPL
//!   class) or a fixed near-square thread grid (BLIS class), neither
//!   aligned to register-tile boundaries — the third missed opportunity
//!   of §3.2.
//!
//! Three presets differ in register tile and blocking, standing in for
//! the three large-GEMM libraries of the evaluation.

use crate::GemmImpl;
use shalom_core::{BlockSizes, CacheParams, GemmElem};
use shalom_kernels::pack::{pack_a_slivers_goto, pack_b_slivers_goto, pack_transpose};
use shalom_kernels::{FamilyElem, Vector};
use shalom_matrix::{MatMut, MatRef, Op, Scalar};

/// Register-tile presets (rows x 128-bit vectors per row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GotoTile {
    /// 16 x 1 vectors: 16x4 FP32 / 16x2 FP64 (OpenBLAS-class ARMv8 tile).
    T16x1,
    /// 8 x 3 vectors: 8x12 FP32 / 8x6 FP64 (BLIS-class ARMv8 tile).
    T8x3,
    /// 8 x 2 vectors: 8x8 FP32 / 8x4 FP64 (ARMPL-class conservative tile).
    T8x2,
}

/// How the preset chooses `kc`/`mc`/`nc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GotoBlocking {
    /// Fixed constants tuned for large GEMM (OpenBLAS style).
    Fixed,
    /// Cache-model-derived (BLIS's analytical blocking).
    Analytic,
}

/// Thread-partitioning style for the parallel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GotoParallel {
    /// Split the N dimension into `threads` equal ranges.
    NSplit,
    /// Near-square `tm x tn` grid with `tm = floor(sqrt(t))`.
    SquareGrid,
}

/// A Goto-class GEMM implementation; see the module docs.
pub struct GotoGemm {
    name: &'static str,
    tile: GotoTile,
    blocking: GotoBlocking,
    parallel: GotoParallel,
}

impl GotoGemm {
    /// OpenBLAS stand-in: 16-row tile, fixed blocking, N-split threads.
    pub fn openblas_class() -> Self {
        Self {
            name: "OpenBLAS-class",
            tile: GotoTile::T16x1,
            blocking: GotoBlocking::Fixed,
            parallel: GotoParallel::NSplit,
        }
    }

    /// BLIS stand-in: 8x12-style tile, analytic blocking, square grid.
    pub fn blis_class() -> Self {
        Self {
            name: "BLIS-class",
            tile: GotoTile::T8x3,
            blocking: GotoBlocking::Analytic,
            parallel: GotoParallel::SquareGrid,
        }
    }

    /// ARMPL stand-in: 8x8-style tile, fixed blocking, N-split threads.
    pub fn armpl_class() -> Self {
        Self {
            name: "ARMPL-class",
            tile: GotoTile::T8x2,
            blocking: GotoBlocking::Fixed,
            parallel: GotoParallel::NSplit,
        }
    }

    fn blocks(&self, elem_bytes: usize, mr: usize, nr: usize, lanes: usize) -> BlockSizes {
        match self.blocking {
            GotoBlocking::Fixed => BlockSizes {
                // Classic large-GEMM constants (OpenBLAS Param.h flavour).
                kc: 256,
                mc: 128,
                nc: 4096,
            },
            GotoBlocking::Analytic => {
                BlockSizes::derive(&CacheParams::detect(), elem_bytes, mr, nr, lanes)
            }
        }
    }
}

/// Batched-schedule micro-kernel over *packed* slivers: A in sliver
/// column-major (`ap[k*MR_ + i]`), B in sliver row-major (`bp[k*nr + j]`).
/// All loads of a k-step are issued before its FMA burst (Figure 6a).
///
/// # Safety
/// `ap` valid for `kc*MR_` reads, `bp` for `kc*NRV_*LANES` reads, `c` for
/// an `MR_ x NRV_*LANES` tile at stride `ldc`.
pub(crate) unsafe fn goto_kernel<V: Vector, const MR_: usize, const NRV_: usize>(
    kc: usize,
    alpha: V::Elem,
    ap: *const V::Elem,
    bp: *const V::Elem,
    beta: V::Elem,
    c: *mut V::Elem,
    ldc: usize,
) {
    let mut acc = [[V::zero(); NRV_]; MR_];
    for k in 0..kc {
        // Batch phase: B vectors then A broadcasts, grouped.
        let brow = bp.add(k * NRV_ * V::LANES);
        let mut bv = [V::zero(); NRV_];
        for (t, slot) in bv.iter_mut().enumerate() {
            *slot = V::load(brow.add(t * V::LANES));
        }
        let acol = ap.add(k * MR_);
        let mut av = [V::zero(); MR_];
        for (i, slot) in av.iter_mut().enumerate() {
            *slot = V::splat(*acol.add(i));
        }
        // FMA burst.
        for i in 0..MR_ {
            for t in 0..NRV_ {
                acc[i][t] = acc[i][t].fma(bv[t], av[i]);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let crow = c.add(i * ldc);
        if beta == V::Elem::ZERO {
            for (t, a) in row.iter().enumerate() {
                a.scale(alpha).store(crow.add(t * V::LANES));
            }
        } else {
            for (t, a) in row.iter().enumerate() {
                let cv = V::load(crow.add(t * V::LANES));
                a.scale(alpha)
                    .add(cv.scale(beta))
                    .store(crow.add(t * V::LANES));
            }
        }
    }
}

type KernelFn<V> = unsafe fn(
    usize,
    <V as Vector>::Elem,
    *const <V as Vector>::Elem,
    *const <V as Vector>::Elem,
    <V as Vector>::Elem,
    *mut <V as Vector>::Elem,
    usize,
);

fn kernel_for<V: Vector>(tile: GotoTile) -> (usize, usize, KernelFn<V>) {
    match tile {
        GotoTile::T16x1 => (16, V::LANES, goto_kernel::<V, 16, 1>),
        GotoTile::T8x3 => (8, 3 * V::LANES, goto_kernel::<V, 8, 3>),
        GotoTile::T8x2 => (8, 2 * V::LANES, goto_kernel::<V, 8, 2>),
    }
}

/// Serial Goto GEMM over raw pointers (classical loop order
/// `jj -> kk -> pack B -> ii -> pack A -> tiles`).
///
/// # Safety
/// Standard GEMM pointer contracts (see `shalom_core::api::sgemm_raw`).
#[allow(clippy::too_many_arguments)]
unsafe fn goto_serial<V: Vector>(
    imp: &GotoGemm,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: V::Elem,
    a: *const V::Elem,
    lda: usize,
    b: *const V::Elem,
    ldb: usize,
    beta: V::Elem,
    c: *mut V::Elem,
    ldc: usize,
) where
    V::Elem: FamilyElem,
{
    if m == 0 || n == 0 {
        return;
    }
    let (mr, nr, kernel) = kernel_for::<V>(imp.tile);
    let bs = imp.blocks(core::mem::size_of::<V::Elem>(), mr, nr, V::LANES);
    if k == 0 || alpha == V::Elem::ZERO {
        for i in 0..m {
            for j in 0..n {
                let p = c.add(i * ldc + j);
                *p = if beta == V::Elem::ZERO {
                    V::Elem::ZERO
                } else {
                    beta * *p
                };
            }
        }
        return;
    }
    // Workspace: packed B panel, packed A block, temp C tile, and a
    // transpose staging area for T operands — sized by the actual
    // problem, not the blocking ceilings (OpenBLAS keeps persistent
    // buffers; a fresh megabyte per tiny call would be a strawman).
    let nc_eff = bs.nc.min(n.div_ceil(nr) * nr);
    let mc_eff = bs.mc.min(m.div_ceil(mr) * mr);
    let kc_eff = bs.kc.min(k);
    let mut bc = vec![V::Elem::ZERO; nc_eff.div_ceil(nr) * nr * kc_eff];
    let mut ac = vec![V::Elem::ZERO; mc_eff.div_ceil(mr) * mr * kc_eff];
    let mut ctile = vec![V::Elem::ZERO; mr * nr];
    let mut stage = vec![V::Elem::ZERO; kc_eff * nc_eff.max(mc_eff)];

    let mut jj = 0usize;
    while jj < n {
        let ncur = bs.nc.min(n - jj);
        let mut kk = 0usize;
        while kk < k {
            let kcur = bs.kc.min(k - kk);
            let beta_eff = if kk == 0 { beta } else { V::Elem::ONE };
            // Pack op(B) panel (kcur x ncur) into sliver-major bc.
            match op_b {
                Op::NoTrans => {
                    pack_b_slivers_goto(b.add(kk * ldb + jj), ldb, kcur, ncur, nr, bc.as_mut_ptr());
                }
                Op::Trans => {
                    // Stage the transposed panel, then sliver-pack it.
                    pack_transpose(
                        b.add(jj * ldb + kk),
                        ldb,
                        ncur,
                        kcur,
                        stage.as_mut_ptr(),
                        ncur,
                    );
                    pack_b_slivers_goto(stage.as_ptr(), ncur, kcur, ncur, nr, bc.as_mut_ptr());
                }
            }
            let mut ii = 0usize;
            while ii < m {
                let mcur = bs.mc.min(m - ii);
                // Pack op(A) block (mcur x kcur) into sliver-major ac.
                match op_a {
                    Op::NoTrans => {
                        pack_a_slivers_goto(
                            a.add(ii * lda + kk),
                            lda,
                            mcur,
                            kcur,
                            mr,
                            ac.as_mut_ptr(),
                        );
                    }
                    Op::Trans => {
                        pack_transpose(
                            a.add(kk * lda + ii),
                            lda,
                            kcur,
                            mcur,
                            stage.as_mut_ptr(),
                            kcur,
                        );
                        pack_a_slivers_goto(stage.as_ptr(), kcur, mcur, kcur, mr, ac.as_mut_ptr());
                    }
                }
                // Tile loops (GEBP).
                let mut js = 0usize;
                while js < ncur {
                    let ncols = nr.min(ncur - js);
                    let bsl = bc.as_ptr().add((js / nr) * bs_sliver_len(kcur, nr));
                    let mut is = 0usize;
                    while is < mcur {
                        let mrows = mr.min(mcur - is);
                        let asl = ac.as_ptr().add((is / mr) * mr * kcur);
                        let cdst = c.add((ii + is) * ldc + jj + js);
                        if mrows == mr && ncols == nr {
                            kernel(kcur, alpha, asl, bsl, beta_eff, cdst, ldc);
                        } else {
                            // Edge tile: full-width compute into the temp
                            // tile (zero-padded operands), then merge the
                            // valid region — the padding strategy's cost.
                            kernel(kcur, alpha, asl, bsl, V::Elem::ZERO, ctile.as_mut_ptr(), nr);
                            for i in 0..mrows {
                                for j in 0..ncols {
                                    let p = cdst.add(i * ldc + j);
                                    let v = ctile[i * nr + j];
                                    *p = if beta_eff == V::Elem::ZERO {
                                        v
                                    } else {
                                        v + beta_eff * *p
                                    };
                                }
                            }
                        }
                        is += mr;
                    }
                    js += nr;
                }
                ii += mcur;
            }
            kk += kcur;
        }
        jj += ncur;
    }
}

#[inline]
fn bs_sliver_len(kc: usize, nr: usize) -> usize {
    kc * nr
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
#[derive(Clone, Copy)]
struct SendConst<T>(*const T);
unsafe impl<T> Send for SendConst<T> {}
unsafe impl<T> Sync for SendConst<T> {}

impl<T: GemmElem> GemmImpl<T> for GotoGemm {
    fn name(&self) -> &'static str {
        self.name
    }

    fn supports_parallel(&self) -> bool {
        true
    }

    fn gemm(
        &self,
        threads: usize,
        op_a: Op,
        op_b: Op,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        mut c: MatMut<'_, T>,
    ) {
        let m = c.rows();
        let n = c.cols();
        let k = match op_a {
            Op::NoTrans => a.cols(),
            Op::Trans => a.rows(),
        };
        shalom_matrix::reference::check_dims(op_a, op_b, m, n, k, &a, &b);
        let t = threads.max(1);
        let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
        let ap = SendConst(a.as_ptr());
        let bp = SendConst(b.as_ptr());
        let cp = SendPtr(c.as_mut_ptr());
        // Shape-blind partition: plain even splits, NOT aligned to the
        // register tile (deliberately reproducing the §3.2 edge-case
        // inflation of the classical libraries).
        let (tm, tn) = match self.parallel {
            _ if t == 1 => (1, 1),
            GotoParallel::NSplit => (1, t),
            GotoParallel::SquareGrid => {
                let tm = (t as f64).sqrt().floor() as usize;
                let tm = tm.max(1);
                (tm, t / tm)
            }
        };
        if tm * tn <= 1 {
            unsafe {
                goto_serial::<T::Vec>(
                    self, op_a, op_b, m, n, k, alpha, ap.0, lda, bp.0, ldb, beta, cp.0, ldc,
                );
            }
            return;
        }
        std::thread::scope(|scope| {
            for ti in 0..tm {
                let m0 = ti * m / tm;
                let m1 = (ti + 1) * m / tm;
                for tjx in 0..tn {
                    let n0 = tjx * n / tn;
                    let n1 = (tjx + 1) * n / tn;
                    if m1 == m0 || n1 == n0 {
                        continue;
                    }
                    scope.spawn(move || unsafe {
                        let (ap, bp, cp) = (ap, bp, cp);
                        let a_off = match op_a {
                            Op::NoTrans => m0 * lda,
                            Op::Trans => m0,
                        };
                        let b_off = match op_b {
                            Op::NoTrans => n0,
                            Op::Trans => n0 * ldb,
                        };
                        goto_serial::<T::Vec>(
                            self,
                            op_a,
                            op_b,
                            m1 - m0,
                            n1 - n0,
                            k,
                            alpha,
                            ap.0.add(a_off),
                            lda,
                            bp.0.add(b_off),
                            ldb,
                            beta,
                            cp.0.add(m0 * ldc + n0),
                            ldc,
                        );
                    });
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::{assert_close, gemm_tolerance, reference, Matrix};

    fn check(imp: &GotoGemm, threads: usize, op_a: Op, op_b: Op, m: usize, n: usize, k: usize) {
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        let a = Matrix::<f32>::random(ar, ac, 11);
        let b = Matrix::<f32>::random(br, bc, 12);
        let mut c = Matrix::<f32>::random(m, n, 13);
        let mut want = c.clone();
        reference::gemm(op_a, op_b, 1.5, a.as_ref(), b.as_ref(), -0.5, want.as_mut());
        imp.gemm(
            threads,
            op_a,
            op_b,
            1.5,
            a.as_ref(),
            b.as_ref(),
            -0.5,
            c.as_mut(),
        );
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f32>(k, 2.0));
    }

    fn check_f64(imp: &GotoGemm, op_a: Op, op_b: Op, m: usize, n: usize, k: usize) {
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        let a = Matrix::<f64>::random(ar, ac, 14);
        let b = Matrix::<f64>::random(br, bc, 15);
        let mut c = Matrix::<f64>::random(m, n, 16);
        let mut want = c.clone();
        reference::gemm(op_a, op_b, 1.0, a.as_ref(), b.as_ref(), 1.0, want.as_mut());
        imp.gemm(1, op_a, op_b, 1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut());
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f64>(k, 2.0));
    }

    #[test]
    fn all_presets_all_modes() {
        for imp in [
            GotoGemm::openblas_class(),
            GotoGemm::blis_class(),
            GotoGemm::armpl_class(),
        ] {
            for op_a in [Op::NoTrans, Op::Trans] {
                for op_b in [Op::NoTrans, Op::Trans] {
                    check(&imp, 1, op_a, op_b, 33, 29, 21);
                    check_f64(&imp, op_a, op_b, 33, 29, 21);
                }
            }
        }
    }

    #[test]
    fn edge_heavy_and_tiny() {
        let imp = GotoGemm::openblas_class();
        for &(m, n, k) in &[(1, 1, 1), (16, 4, 8), (17, 5, 9), (5, 23, 13), (8, 8, 8)] {
            check(&imp, 1, Op::NoTrans, Op::NoTrans, m, n, k);
            check(&imp, 1, Op::NoTrans, Op::Trans, m, n, k);
        }
    }

    #[test]
    fn parallel_paths() {
        check(
            &GotoGemm::openblas_class(),
            4,
            Op::NoTrans,
            Op::NoTrans,
            40,
            120,
            30,
        );
        check(
            &GotoGemm::blis_class(),
            4,
            Op::NoTrans,
            Op::Trans,
            40,
            120,
            30,
        );
        check(
            &GotoGemm::armpl_class(),
            3,
            Op::Trans,
            Op::NoTrans,
            40,
            120,
            30,
        );
    }

    #[test]
    fn multi_block_large() {
        // Exceeds the fixed kc=256/mc=128 so all block loops iterate.
        check(
            &GotoGemm::openblas_class(),
            1,
            Op::NoTrans,
            Op::NoTrans,
            150,
            300,
            280,
        );
    }

    #[test]
    fn degenerate() {
        let imp = GotoGemm::blis_class();
        check(&imp, 1, Op::NoTrans, Op::NoTrans, 5, 5, 0);
        check(&imp, 2, Op::NoTrans, Op::NoTrans, 0, 5, 5);
    }
}

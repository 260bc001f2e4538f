//! The full-tile micro-kernel — paper Algorithm 2 and Figure 3, with the
//! fused packing of §5.3 / Figure 4 as a schedule of the same body.
//!
//! Updates an `MR x NR` tile of C with the product of an `MR x kc` sliver
//! of A (read *unpacked*, rows contiguous — the §4.1 insight) and a
//! `kc x NR` sliver of B read at `(b, ldb)`: the unpacked source panel,
//! or the packed `Bc` buffer at stride `NR`. Only the stride differs.
//!
//! How A enters the FMA follows the ISA ([`Vector::WIDE`]). On the 128-bit
//! set each iteration group of `j = LANES` k-steps issues `MR` vector loads
//! of A (each covering `j` consecutive k-elements of one row), `j * NR/j`
//! vector loads of B, and `j * MR * NR/j` lane-indexed FMAs — the paper's
//! `fmla v, v, v.s[i]`, matching the operation counts behind its CMR
//! formula (Eq. 2). x86 has no FMA-by-element, so the wide sets take every
//! k as one broadcast step: `NR/j` vector loads of B, then per row one
//! broadcast of `A[i, k]` and `NR/j` FMAs. The 128-bit set's k tail runs
//! the same step. Both forms round each C element identically: one fused
//! chain over k in increasing order.
//!
//! Packing rides on that chain rather than being a second kernel. With
//! `PACK` set, every loaded B row is also stored to `Bc` (Figure 4 step ①)
//! between the FMA groups of the k-step that loaded it, so the
//! out-of-order core hides the store behind the FMA stream — the paper's
//! central packing-overlap idea. The store touches no accumulator, so a
//! packing call rounds a C element exactly as a plain one. Figure 4's
//! step ② — copying the *next* panel too, the `t = 1` look-ahead of
//! §5.3.2 — is not built: it ran level with `t = 0` (EXPERIMENTS.md).
//!
//! shalom-analysis: deny(panic)

use crate::{Vector, MR, NR_VECS};
use shalom_matrix::Scalar;
use shalom_simd::prefetch_read;

/// Applies `C = alpha * acc + beta * C` for one `m x n`-vector tile row.
///
/// # Safety
/// `c` valid for `nvecs * V::LANES` element reads/writes.
#[inline(always)]
// CONTRACT(SHALOM-K-WB: lanes = V::LANES)
unsafe fn writeback_row<V: Vector>(
    acc: &[V],
    nvecs: usize,
    alpha: V::Elem,
    beta: V::Elem,
    c: *mut V::Elem,
) {
    if beta == V::Elem::ZERO {
        for (t, &a) in acc.iter().enumerate().take(nvecs) {
            a.scale(alpha).store(c.add(t * V::LANES));
        }
    } else {
        for (t, &a) in acc.iter().enumerate().take(nvecs) {
            let cv = V::load(c.add(t * V::LANES));
            a.scale(alpha)
                .add(cv.scale(beta))
                .store(c.add(t * V::LANES));
        }
    }
}

/// The one full-tile kernel body (`MR_` rows x `NRV_` vectors of
/// `V::LANES` columns): computes `C[0..MR_, 0..NRV_*LANES] = alpha *
/// A_sliver * B_sliver + beta * C`, where `A_sliver` is `MR_ x kc` at `a`
/// with row stride `lda` and `B_sliver` is `kc x (NRV_*LANES)` at `b` with
/// row stride `ldb`. With `PACK`, each B row is also stored to `bc` at
/// stride `nr = NRV_*LANES`.
///
/// After a `PACK` call, rows `mr..mc` of the C block can be updated by
/// the same body reading `bc` with `ldb = nr`, the cache- and TLB-friendly
/// access the packing exists to provide.
///
/// # Safety
/// * `a` valid for reads of `MR_` rows of `kc` elements at stride `lda`;
/// * `b` valid for reads of `kc` rows of `NRV_*LANES` elements at stride
///   `ldb`;
/// * `c` valid for reads/writes of `MR_` rows of `NRV_*LANES` elements at
///   stride `ldc`;
/// * with `PACK`, `bc` valid for writes of `kc * nr` elements (unused
///   otherwise);
/// * no written operand (`c`, `bc`) aliases another operand.
// `inline(always)` is load-bearing: the `family` module wraps this body in
// `#[target_feature(enable = "avx2,fma")]`-style dispatch shims, and the body
// only compiles to wide FMA if it inlines into those shims.
#[inline(always)]
// PANIC-OK(index): acc/av/bv arrays sized by MR_/NRV_, indexed by loop counters
// bounded by the same const generics.
// ALLOC-FREE
// CONTRACT(SHALOM-K-MAIN: m = MR_, n = NRV_ * V::LANES)
pub unsafe fn tile_kernel<V: Vector, const MR_: usize, const NRV_: usize, const PACK: bool>(
    kc: usize,
    alpha: V::Elem,
    a: *const V::Elem,
    lda: usize,
    b: *const V::Elem,
    ldb: usize,
    beta: V::Elem,
    c: *mut V::Elem,
    ldc: usize,
    bc: *mut V::Elem,
) {
    let nr = NRV_ * V::LANES;
    // Contract SHALOM-K-MAIN preconditions (registry cross-checked; the
    // full footprint is validated by the shadow-memory harness).
    debug_assert!(!c.is_null());
    debug_assert!(MR_ <= 1 || ldc >= nr);
    if kc > 0 {
        debug_assert!(!a.is_null() && !b.is_null() && (!PACK || !bc.is_null()));
        debug_assert!(MR_ <= 1 || lda >= kc);
        debug_assert!(kc <= 1 || ldb >= nr);
    }
    let mut acc = [[V::zero(); NRV_]; MR_];
    let mut k = 0usize;
    // 128-bit: full j-wide iteration groups, vector loads of A rows and
    // the lane-indexed FMA.
    while !V::WIDE && k + V::LANES <= kc {
        let mut av = [V::zero(); MR_];
        for (i, slot) in av.iter_mut().enumerate() {
            *slot = V::load(a.add(i * lda + k));
        }
        // One reserved register's worth of lookahead (§5.2.1): pull the
        // next A group while this one is being consumed.
        prefetch_read(a.add(k + V::LANES));
        for lane in 0..V::LANES {
            let kk = k + lane;
            let brow = b.add(kk * ldb);
            let mut bv = [V::zero(); NRV_];
            for (t, slot) in bv.iter_mut().enumerate() {
                *slot = V::load(brow.add(t * V::LANES));
            }
            for i in 0..MR_ {
                for t in 0..NRV_ {
                    acc[i][t] = acc[i][t].fma_lane_dyn(bv[t], av[i], lane);
                }
                // Step ①: the row being consumed goes to Bc, between the
                // FMA groups of this lane.
                if PACK && i == MR_ / 2 {
                    let bcrow = bc.add(kk * nr);
                    for (t, v) in bv.iter().enumerate() {
                        v.store(bcrow.add(t * V::LANES));
                    }
                }
            }
        }
        k += V::LANES;
    }
    // The broadcast step: every k on the wide sets, the k tail otherwise,
    // with the same step ① between its FMA groups.
    while k < kc {
        let brow = b.add(k * ldb);
        let mut bv = [V::zero(); NRV_];
        for (t, slot) in bv.iter_mut().enumerate() {
            *slot = V::load(brow.add(t * V::LANES));
        }
        for i in 0..MR_ {
            let s = V::splat(*a.add(i * lda + k));
            for t in 0..NRV_ {
                acc[i][t] = acc[i][t].fma(bv[t], s);
            }
            if PACK && i == MR_ / 2 {
                let bcrow = bc.add(k * nr);
                for (t, v) in bv.iter().enumerate() {
                    v.store(bcrow.add(t * V::LANES));
                }
            }
        }
        k += 1;
    }
    for (i, row) in acc.iter().enumerate() {
        writeback_row::<V>(row, NRV_, alpha, beta, c.add(i * ldc));
    }
}

/// [`tile_kernel`] without packing: the plain outer-product
/// update at a compile-time tile shape. The default LibShalom tile is
/// [`MR`]`=7` x [`NR_VECS`]`=3` (see [`main_kernel`]); other shapes exist
/// for the baseline libraries and the tile-size ablation.
///
/// # Safety
/// As [`tile_kernel`] without `bc`.
#[inline(always)]
pub unsafe fn main_kernel_shape<V: Vector, const MR_: usize, const NRV_: usize>(
    kc: usize,
    alpha: V::Elem,
    a: *const V::Elem,
    lda: usize,
    b: *const V::Elem,
    ldb: usize,
    beta: V::Elem,
    c: *mut V::Elem,
    ldc: usize,
) {
    debug_assert!(!c.is_null() && (MR_ <= 1 || ldc >= NRV_ * V::LANES));
    let no_bc = core::ptr::null_mut();
    tile_kernel::<V, MR_, NRV_, false>(kc, alpha, a, lda, b, ldb, beta, c, ldc, no_bc)
}

/// The LibShalom main micro-kernel at the analytic tile (7 x 12 for FP32,
/// 7 x 6 for FP64). See [`tile_kernel`] for semantics and safety.
///
/// # Safety
/// As [`main_kernel_shape`] with `MR_ = 7`, `NRV_ = 3`.
#[inline]
pub unsafe fn main_kernel<V: Vector>(
    kc: usize,
    alpha: V::Elem,
    a: *const V::Elem,
    lda: usize,
    b: *const V::Elem,
    ldb: usize,
    beta: V::Elem,
    c: *mut V::Elem,
    ldc: usize,
) {
    debug_assert!(!c.is_null() && ldc >= NR_VECS * V::LANES);
    main_kernel_shape::<V, MR, NR_VECS>(kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::{assert_close, gemm_tolerance, reference, MatRef, Matrix, Op};
    use shalom_simd::{F32x4, F64x2};

    fn run_main<V: Vector>(
        kc: usize,
        alpha: V::Elem,
        beta: V::Elem,
        lda_pad: usize,
        ldb_pad: usize,
    ) {
        let nr = NR_VECS * V::LANES;
        let a = Matrix::<V::Elem>::random_with_ld(MR, kc, kc + lda_pad, 1);
        let b = Matrix::<V::Elem>::random_with_ld(kc, nr, nr + ldb_pad, 2);
        let mut c = Matrix::<V::Elem>::random(MR, nr, 3);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            want.as_mut(),
        );
        // SAFETY: a/b/c are owned matrices sized exactly to the tile.
        unsafe {
            main_kernel::<V>(
                kc,
                alpha,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                beta,
                c.as_mut().as_mut_ptr(),
                c.ld(),
            );
        }
        assert_close(
            c.as_ref(),
            want.as_ref(),
            gemm_tolerance::<V::Elem>(kc, 1.0),
        );
    }

    #[test]
    fn f32_tile_matches_reference() {
        run_main::<F32x4>(16, 1.0, 1.0, 0, 0);
    }

    #[test]
    fn f64_tile_matches_reference() {
        run_main::<F64x2>(16, 1.0, 1.0, 0, 0);
    }

    #[test]
    fn k_tails_all_residues() {
        for kc in 1..=9 {
            run_main::<F32x4>(kc, 1.0, 1.0, 0, 0);
            run_main::<F64x2>(kc, 1.0, 1.0, 0, 0);
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        for &(al, be) in &[(1.0, 0.0), (2.5, 0.0), (1.0, 1.0), (-0.5, 2.0), (0.0, 3.0)] {
            run_main::<F32x4>(8, al as f32, be as f32, 0, 0);
            run_main::<F64x2>(8, al, be, 0, 0);
        }
    }

    #[test]
    fn strided_operands() {
        run_main::<F32x4>(13, 1.0, 1.0, 5, 9);
        run_main::<F64x2>(13, 1.0, 1.0, 5, 9);
    }

    #[test]
    fn beta_zero_overwrites_nan_c() {
        let kc = 4;
        let nr = crate::NR_F32;
        let a = Matrix::<f32>::random(MR, kc, 1);
        let b = Matrix::<f32>::random(kc, nr, 2);
        let mut c = Matrix::from_fn(MR, nr, |_, _| f32::NAN);
        // SAFETY: a/b/c are owned matrices sized exactly to the tile.
        unsafe {
            main_kernel::<F32x4>(
                kc,
                1.0,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                0.0,
                c.as_mut().as_mut_ptr(),
                c.ld(),
            );
        }
        for i in 0..MR {
            for j in 0..nr {
                assert!(c.at(i, j).is_finite());
            }
        }
    }

    #[test]
    fn kc_zero_only_scales_c() {
        let nr = crate::NR_F32;
        let a = Matrix::<f32>::zeros(MR, 1);
        let b = Matrix::<f32>::zeros(1, nr);
        let mut c = Matrix::<f32>::random(MR, nr, 9);
        let orig = c.clone();
        // SAFETY: kc = 0 touches only c, which is owned and tile-sized.
        unsafe {
            main_kernel::<F32x4>(
                0,
                1.0,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                2.0,
                c.as_mut().as_mut_ptr(),
                c.ld(),
            );
        }
        for i in 0..MR {
            for j in 0..nr {
                assert_eq!(c.at(i, j), 2.0 * orig.at(i, j));
            }
        }
    }

    #[test]
    fn alternative_shapes_match_reference() {
        fn run_shape<V: Vector, const MR_: usize, const NRV_: usize>(kc: usize) {
            let nr = NRV_ * V::LANES;
            let a = Matrix::<V::Elem>::random(MR_, kc, 11);
            let b = Matrix::<V::Elem>::random(kc, nr, 12);
            let mut c = Matrix::<V::Elem>::zeros(MR_, nr);
            let mut want = Matrix::<V::Elem>::zeros(MR_, nr);
            reference::gemm(
                Op::NoTrans,
                Op::NoTrans,
                V::Elem::ONE,
                a.as_ref(),
                b.as_ref(),
                V::Elem::ZERO,
                want.as_mut(),
            );
            // SAFETY: matrices sized exactly to the MR_ x NRV_ tile.
            unsafe {
                main_kernel_shape::<V, MR_, NRV_>(
                    kc,
                    V::Elem::ONE,
                    a.as_slice().as_ptr(),
                    a.ld(),
                    b.as_slice().as_ptr(),
                    b.ld(),
                    V::Elem::ZERO,
                    c.as_mut().as_mut_ptr(),
                    c.ld(),
                );
            }
            assert_close(
                c.as_ref(),
                want.as_ref(),
                gemm_tolerance::<V::Elem>(kc, 1.0),
            );
        }
        // The ablation shapes: 8x4, 4x4, 8x8 (f32) and 8x4, 4x2 (f64).
        run_shape::<F32x4, 8, 1>(10);
        run_shape::<F32x4, 4, 1>(10);
        run_shape::<F32x4, 8, 2>(10);
        run_shape::<F64x2, 8, 2>(10);
        run_shape::<F64x2, 4, 1>(10);
    }

    /// `tile_kernel` with and without `PACK`, reading the tile's own
    /// panel at a padded stride next to a second one it must not touch:
    /// checks the tile, and that the sentinel-filled `bc` holds exactly
    /// the panel read when packing and stays untouched otherwise.
    fn run_pack<V: Vector>(kc: usize, pack: bool) {
        let nr = NR_VECS * V::LANES;
        let a = Matrix::<V::Elem>::random(MR, kc, 21);
        let b = Matrix::<V::Elem>::random_with_ld(kc, 2 * nr, 2 * nr + 3, 22);
        let mut c = Matrix::<V::Elem>::random(MR, nr, 23);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            V::Elem::ONE,
            a.as_ref(),
            b.as_ref().submatrix(0, 0, kc, nr),
            V::Elem::ONE,
            want.as_mut(),
        );
        let sentinel = V::Elem::from_f64(-1.0);
        let mut bc = vec![sentinel; kc * nr];
        // SAFETY: operands owned and sized to the SHALOM-K-MAIN footprint;
        // bc is kc*nr.
        unsafe {
            let (ap, bp, cp, bcp) = (
                a.as_slice().as_ptr(),
                b.as_slice().as_ptr(),
                c.as_mut().as_mut_ptr(),
                bc.as_mut_ptr(),
            );
            if pack {
                tile_kernel::<V, MR, NR_VECS, true>(
                    kc,
                    V::Elem::ONE,
                    ap,
                    a.ld(),
                    bp,
                    b.ld(),
                    V::Elem::ONE,
                    cp,
                    c.ld(),
                    bcp,
                );
            } else {
                tile_kernel::<V, MR, NR_VECS, false>(
                    kc,
                    V::Elem::ONE,
                    ap,
                    a.ld(),
                    bp,
                    b.ld(),
                    V::Elem::ONE,
                    cp,
                    c.ld(),
                    core::ptr::null_mut(),
                );
            }
        }
        assert_close(
            c.as_ref(),
            want.as_ref(),
            gemm_tolerance::<V::Elem>(kc, 1.0),
        );
        let packed = MatRef::from_slice(&bc, kc, nr, nr);
        for k in 0..kc {
            for j in 0..nr {
                let want_bc = if pack { b.at(k, j) } else { sentinel };
                assert_eq!(packed.at(k, j), want_bc, "bc at ({k},{j})");
            }
        }
    }

    #[test]
    fn every_b_handling_computes_and_packs() {
        for kc in [1, 2, 3, 5, 6, 16] {
            for pack in [false, true] {
                run_pack::<F32x4>(kc, pack);
                run_pack::<F64x2>(kc, pack);
            }
        }
    }
}

//! The main (outer-product) micro-kernel — paper Algorithm 2 and Figure 3.
//!
//! Updates an `MR x NR` tile of C with the product of an `MR x kc` sliver
//! of A (read *unpacked*, rows contiguous — the §4.1 insight) and a
//! `kc x NR` sliver of B (read either unpacked with the source leading
//! dimension, or from the packed `Bc` buffer with leading dimension `NR`;
//! the kernel body is the same, only the stride differs).
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
//! The *fused-pack* variant additionally streams every loaded B row into
//! `Bc` (and optionally the **next** panel's rows, the paper's `t = 1`
//! lookahead for irregular shapes, §5.3.2 / Figure 4 steps ① and ②),
//! interleaving those stores between the FMAs so the out-of-order core can
//! hide them — the paper's central packing-overlap idea.
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

/// Outer-product micro-kernel with a compile-time tile shape
/// (`MR_` rows x `NRV_` vectors of `V::LANES` columns).
///
/// Computes `C[0..MR_, 0..NRV_*LANES] = alpha * A_sliver * B_sliver +
/// beta * C` where `A_sliver` is `MR_ x kc` at `a` with row stride `lda`
/// and `B_sliver` is `kc x (NRV_*LANES)` at `b` with row stride `ldb`.
///
/// The default LibShalom tile is [`MR`]`=7` x [`NR_VECS`]`=3` (see
/// [`main_kernel`]); other shapes exist for the baseline libraries and the
/// tile-size ablation.
///
/// # Safety
/// * `a` valid for reads of `MR_` rows of `kc` elements at stride `lda`;
/// * `b` valid for reads of `kc` rows of `NRV_*LANES` elements at stride
///   `ldb`;
/// * `c` valid for reads/writes of `MR_` rows of `NRV_*LANES` elements at
///   stride `ldc`;
/// * no aliasing between `c` and the inputs.
// `inline(always)` is load-bearing: the `family` module wraps this body in
// `#[target_feature(enable = "avx2,fma")]`-style dispatch shims, and the body
// only compiles to wide FMA if it inlines into those shims.
#[inline(always)]
// PANIC-OK(index): acc/av/bv arrays sized by MR_/NRV_, indexed by loop counters
// bounded by the same const generics.
// ALLOC-FREE
// CONTRACT(SHALOM-K-MAIN: m = MR_, n = NRV_ * V::LANES)
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
    // Contract SHALOM-K-MAIN preconditions (registry cross-checked; the
    // full footprint is validated by the shadow-memory harness).
    debug_assert!(!c.is_null());
    debug_assert!(MR_ <= 1 || ldc >= NRV_ * V::LANES);
    if kc > 0 {
        debug_assert!(!a.is_null() && !b.is_null());
        debug_assert!(MR_ <= 1 || lda >= kc);
        debug_assert!(kc <= 1 || ldb >= NRV_ * V::LANES);
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
            let brow = b.add((k + lane) * ldb);
            let mut bv = [V::zero(); NRV_];
            for (t, slot) in bv.iter_mut().enumerate() {
                *slot = V::load(brow.add(t * V::LANES));
            }
            for i in 0..MR_ {
                for t in 0..NRV_ {
                    acc[i][t] = acc[i][t].fma_lane_dyn(bv[t], av[i], lane);
                }
            }
        }
        k += V::LANES;
    }
    // The broadcast step: every k on the wide sets, the k tail otherwise.
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
        }
        k += 1;
    }
    for (i, row) in acc.iter().enumerate() {
        writeback_row::<V>(row, NRV_, alpha, beta, c.add(i * ldc));
    }
}

/// The LibShalom main micro-kernel at the analytic tile (7 x 12 for FP32,
/// 7 x 6 for FP64). See [`main_kernel_shape`] for semantics and safety.
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

/// Lookahead request for the fused-pack kernel: copy the *next* `nr`-column
/// panel of B into a second `Bc` region while computing with the current
/// one (the paper's `t = 1` setting for irregular-shaped GEMM, Figure 4
/// step ②).
#[derive(Debug, Clone, Copy)]
pub struct PackAhead<T> {
    /// Source: next panel's column 0 within the same B rows (stride `ldb`).
    pub src: *const T,
    /// Destination: the next panel's `Bc` region (stride `nr`).
    pub dst: *mut T,
}

/// Fused compute-and-pack micro-kernel for the NN mode (paper Algorithm 1
/// lines 6–8): identical computation to [`main_kernel`] on an *unpacked*
/// B (stride `ldb`), but every loaded B row chunk is also stored to the
/// linear buffer `bc` (row stride `nr = NRV*LANES`), and — when `ahead` is
/// set — the next panel's rows are copied too, all interleaved between the
/// FMA stream.
///
/// After this kernel runs, rows `mr..mc` of the C block can be updated by
/// the main kernel reading `bc` with `ldb = nr`, which is the cache- and
/// TLB-friendly access the packing exists to provide.
///
/// Rounds every C element exactly as [`main_kernel_shape`] does (the same
/// FMA chain over `kc`, then [`writeback_row`]), so within a kernel set
/// the first `mr` rows of a panel are indistinguishable from the rest.
///
/// # Safety
/// As [`main_kernel_shape`], plus: `bc` valid for writes of `kc * NR`
/// elements; `ahead.src` (if set) valid for reads of `kc` rows of `NR`
/// elements at stride `ldb`, and `ahead.dst` for `kc * NR` element
/// writes. `bc` must not alias the inputs.
// `inline(always)`: inlines into the per-ISA `#[target_feature]` entry
// points of `family`, like `main_kernel_shape`.
#[inline(always)]
// PANIC-OK(index): register arrays sized by MR_/NRV_, indexed by loops bounded
// by those constants.
// ALLOC-FREE
// CONTRACT(SHALOM-K-FUSED: m = MR_, n = NRV_ * V::LANES, ahead_src = src, ahead_dst = dst)
pub unsafe fn main_kernel_fused_pack<V: Vector, const MR_: usize, const NRV_: usize>(
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
    ahead: Option<PackAhead<V::Elem>>,
) {
    let nr = NRV_ * V::LANES;
    // Contract SHALOM-K-FUSED preconditions.
    debug_assert!(!c.is_null() && ldc >= nr);
    if kc > 0 {
        debug_assert!(!a.is_null() && !b.is_null() && !bc.is_null());
        debug_assert!(MR_ <= 1 || lda >= kc);
        debug_assert!(kc <= 1 || ldb >= nr);
    }
    if let Some(p) = ahead {
        debug_assert!(kc == 0 || (!p.src.is_null() && !p.dst.is_null()));
    }
    let mut acc = [[V::zero(); NRV_]; MR_];
    let mut k = 0usize;
    // 128-bit: lane-indexed groups, as in `main_kernel_shape`.
    while !V::WIDE && k + V::LANES <= kc {
        let mut av = [V::zero(); MR_];
        for (i, slot) in av.iter_mut().enumerate() {
            *slot = V::load(a.add(i * lda + k));
        }
        for lane in 0..V::LANES {
            let kk = k + lane;
            let brow = b.add(kk * ldb);
            let bcrow = bc.add(kk * nr);
            let mut bv = [V::zero(); NRV_];
            for (t, slot) in bv.iter_mut().enumerate() {
                *slot = V::load(brow.add(t * V::LANES));
            }
            // Figure 4 step ①: the row we are consuming goes to Bc, the
            // store issued between the FMAs of this lane so the OoO core
            // overlaps it with computation.
            for i in 0..MR_ {
                for t in 0..NRV_ {
                    acc[i][t] = acc[i][t].fma_lane_dyn(bv[t], av[i], lane);
                }
                if i == MR_ / 2 {
                    for (t, v) in bv.iter().enumerate() {
                        v.store(bcrow.add(t * V::LANES));
                    }
                }
            }
            // Figure 4 step ② (t = 1 lookahead): stream the next panel's
            // row through, again between FMA groups.
            if let Some(PackAhead { src, dst }) = ahead {
                let srow = src.add(kk * ldb);
                let drow = dst.add(kk * nr);
                for t in 0..NRV_ {
                    V::load(srow.add(t * V::LANES)).store(drow.add(t * V::LANES));
                }
            }
        }
        k += V::LANES;
    }
    // The broadcast step (every k on the wide sets, the k tail otherwise),
    // with the same Figure 4 steps ① and ② between its FMA groups.
    while k < kc {
        let brow = b.add(k * ldb);
        let bcrow = bc.add(k * nr);
        let mut bv = [V::zero(); NRV_];
        for (t, slot) in bv.iter_mut().enumerate() {
            *slot = V::load(brow.add(t * V::LANES));
        }
        for i in 0..MR_ {
            let s = V::splat(*a.add(i * lda + k));
            for t in 0..NRV_ {
                acc[i][t] = acc[i][t].fma(bv[t], s);
            }
            if i == MR_ / 2 {
                for (t, v) in bv.iter().enumerate() {
                    v.store(bcrow.add(t * V::LANES));
                }
            }
        }
        if let Some(PackAhead { src, dst }) = ahead {
            let srow = src.add(k * ldb);
            let drow = dst.add(k * nr);
            for t in 0..NRV_ {
                V::load(srow.add(t * V::LANES)).store(drow.add(t * V::LANES));
            }
        }
        k += 1;
    }
    for (i, row) in acc.iter().enumerate() {
        writeback_row::<V>(row, NRV_, alpha, beta, c.add(i * ldc));
    }
}

/// A panel-copy request streamed through [`main_kernel_streamed`]: `rows`
/// rows of `nr` elements are moved from `src` (stride `src_ld`) to `dst`
/// (stride `nr`), the moves interleaved with the kernel's FMA groups.
#[derive(Debug, Clone, Copy)]
pub struct StreamCopy<T> {
    /// Copy source (the next unpacked B panel).
    pub src: *const T,
    /// Source row stride.
    pub src_ld: usize,
    /// Copy destination (the next `Bc` region, stride `nr`).
    pub dst: *mut T,
    /// Number of rows to move (the next panel's `kc`).
    pub rows: usize,
}

/// Main micro-kernel reading an already-packed `Bc` panel (stride `nr`),
/// with an optional interleaved panel copy — the steady state of the
/// paper's `t = 1` lookahead for irregular-shaped GEMM (§5.3.2): iteration
/// `t` computes from the panel packed during iteration `t-1` while packing
/// the panel iteration `t+1` will use.
///
/// Rounds every C element exactly as [`main_kernel_shape`] does.
///
/// # Safety
/// As [`main_kernel_shape`] with `ldb = NR`; additionally `stream.src` (if
/// set) valid for `rows` rows of `NR` elements at stride `src_ld` and
/// `stream.dst` for `rows * NR` writes, not aliasing anything else.
#[inline(always)]
// PANIC-OK(index): register arrays sized by MR_/NRV_, indexed by loops bounded
// by those constants.
// ALLOC-FREE
// CONTRACT(SHALOM-K-STREAM: m = MR_, n = NRV_ * V::LANES, stream_src = s.src, stream_dst = s.dst, stream_rows = s.rows, stream_ld = s.src_ld)
pub unsafe fn main_kernel_streamed<V: Vector, const MR_: usize, const NRV_: usize>(
    kc: usize,
    alpha: V::Elem,
    a: *const V::Elem,
    lda: usize,
    bc_packed: *const V::Elem,
    beta: V::Elem,
    c: *mut V::Elem,
    ldc: usize,
    stream: Option<StreamCopy<V::Elem>>,
) {
    let nr = NRV_ * V::LANES;
    // Contract SHALOM-K-STREAM preconditions.
    debug_assert!(!c.is_null() && ldc >= nr);
    if kc > 0 {
        debug_assert!(!a.is_null() && !bc_packed.is_null() && (MR_ <= 1 || lda >= kc));
    }
    if let Some(s) = stream {
        debug_assert!(s.rows == 0 || (!s.src.is_null() && !s.dst.is_null()));
        debug_assert!(s.rows <= 1 || s.src_ld >= nr);
    }
    let mut acc = [[V::zero(); NRV_]; MR_];
    let mut k = 0usize;
    // 128-bit: lane-indexed groups, as in `main_kernel_shape`.
    while !V::WIDE && k + V::LANES <= kc {
        let mut av = [V::zero(); MR_];
        for (i, slot) in av.iter_mut().enumerate() {
            *slot = V::load(a.add(i * lda + k));
        }
        for lane in 0..V::LANES {
            let kk = k + lane;
            let brow = bc_packed.add(kk * nr);
            let mut bv = [V::zero(); NRV_];
            for (t, slot) in bv.iter_mut().enumerate() {
                *slot = V::load(brow.add(t * V::LANES));
            }
            for i in 0..MR_ {
                for t in 0..NRV_ {
                    acc[i][t] = acc[i][t].fma_lane_dyn(bv[t], av[i], lane);
                }
                // The copy traffic rides between FMA groups, exactly like
                // the fused pack's Bc stores.
                if i == MR_ / 2 {
                    if let Some(s) = stream {
                        if kk < s.rows {
                            let srow = s.src.add(kk * s.src_ld);
                            let drow = s.dst.add(kk * nr);
                            for t in 0..NRV_ {
                                V::load(srow.add(t * V::LANES)).store(drow.add(t * V::LANES));
                            }
                        }
                    }
                }
            }
        }
        k += V::LANES;
    }
    // The broadcast step (every k on the wide sets, the k tail otherwise),
    // its copy row again between FMA groups.
    while k < kc {
        let brow = bc_packed.add(k * nr);
        let mut bv = [V::zero(); NRV_];
        for (t, slot) in bv.iter_mut().enumerate() {
            *slot = V::load(brow.add(t * V::LANES));
        }
        for i in 0..MR_ {
            let s = V::splat(*a.add(i * lda + k));
            for t in 0..NRV_ {
                acc[i][t] = acc[i][t].fma(bv[t], s);
            }
            if i == MR_ / 2 {
                if let Some(s) = stream {
                    if k < s.rows {
                        let srow = s.src.add(k * s.src_ld);
                        let drow = s.dst.add(k * nr);
                        for t in 0..NRV_ {
                            V::load(srow.add(t * V::LANES)).store(drow.add(t * V::LANES));
                        }
                    }
                }
            }
        }
        k += 1;
    }
    // Drain any copy rows beyond kc (the next panel can be deeper when the
    // caller's kk tiling differs; in the driver `rows == kc`, but the
    // kernel stays correct regardless).
    if let Some(s) = stream {
        let mut r = kc;
        while r < s.rows {
            let srow = s.src.add(r * s.src_ld);
            let drow = s.dst.add(r * nr);
            for t in 0..NRV_ {
                V::load(srow.add(t * V::LANES)).store(drow.add(t * V::LANES));
            }
            r += 1;
        }
    }
    for (i, row) in acc.iter().enumerate() {
        writeback_row::<V>(row, NRV_, alpha, beta, c.add(i * ldc));
    }
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

    fn run_fused<V: Vector>(kc: usize, ahead: bool) {
        let nr = NR_VECS * V::LANES;
        let src_cols = if ahead { 2 * nr } else { nr };
        let a = Matrix::<V::Elem>::random(MR, kc, 21);
        let b = Matrix::<V::Elem>::random(kc, src_cols, 22);
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
        let mut bc = vec![V::Elem::ZERO; 2 * kc * nr];
        let (bc_cur, bc_next) = bc.split_at_mut(kc * nr);
        // SAFETY: b has 2*nr columns when ahead is set, so column nr
        // starts the second panel; bc halves are kc*nr each; all owned.
        let ahead_req = ahead.then(|| PackAhead {
            src: unsafe { b.as_slice().as_ptr().add(nr) },
            dst: bc_next.as_mut_ptr(),
        });
        // SAFETY: operands owned and sized to the fused-pack footprint.
        unsafe {
            main_kernel_fused_pack::<V, MR, NR_VECS>(
                kc,
                V::Elem::ONE,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                V::Elem::ONE,
                c.as_mut().as_mut_ptr(),
                c.ld(),
                bc_cur.as_mut_ptr(),
                ahead_req,
            );
        }
        // Computation correct:
        assert_close(
            c.as_ref(),
            want.as_ref(),
            gemm_tolerance::<V::Elem>(kc, 1.0),
        );
        // Current panel packed correctly (kc x nr, stride nr):
        let packed = MatRef::from_slice(bc_cur, kc, nr, nr);
        for k in 0..kc {
            for j in 0..nr {
                assert_eq!(packed.at(k, j), b.at(k, j), "bc mismatch at ({k},{j})");
            }
        }
        if ahead {
            let packed_next = MatRef::from_slice(bc_next, kc, nr, nr);
            for k in 0..kc {
                for j in 0..nr {
                    assert_eq!(
                        packed_next.at(k, j),
                        b.at(k, nr + j),
                        "bc_next mismatch at ({k},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_pack_computes_and_packs_f32() {
        run_fused::<F32x4>(16, false);
        run_fused::<F32x4>(16, true);
    }

    #[test]
    fn fused_pack_computes_and_packs_f64() {
        run_fused::<F64x2>(16, false);
        run_fused::<F64x2>(16, true);
    }

    #[test]
    fn fused_pack_k_tails() {
        for kc in 1..=6 {
            run_fused::<F32x4>(kc, true);
            run_fused::<F64x2>(kc, true);
        }
    }

    fn run_streamed<V: Vector>(kc: usize, copy_rows: usize) {
        let nr = NR_VECS * V::LANES;
        let a = Matrix::<V::Elem>::random(MR, kc, 51);
        let bc = Matrix::<V::Elem>::random(kc, nr, 52); // already-packed panel
        let next = Matrix::<V::Elem>::random(copy_rows.max(1), nr + 3, 53); // strided source
        let mut c = Matrix::<V::Elem>::random(MR, nr, 54);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            V::Elem::ONE,
            a.as_ref(),
            bc.as_ref(),
            V::Elem::ONE,
            want.as_mut(),
        );
        let mut dst = vec![V::Elem::from_f64(-1.0); copy_rows.max(1) * nr];
        let stream = (copy_rows > 0).then_some(StreamCopy {
            src: next.as_slice().as_ptr(),
            src_ld: next.ld(),
            dst: dst.as_mut_ptr(),
            rows: copy_rows,
        });
        // SAFETY: packed panel, stream source, and dst are owned buffers
        // sized to the streamed kernel's footprint.
        unsafe {
            main_kernel_streamed::<V, MR, NR_VECS>(
                kc,
                V::Elem::ONE,
                a.as_slice().as_ptr(),
                a.ld(),
                bc.as_slice().as_ptr(),
                V::Elem::ONE,
                c.as_mut().as_mut_ptr(),
                c.ld(),
                stream,
            );
        }
        assert_close(
            c.as_ref(),
            want.as_ref(),
            gemm_tolerance::<V::Elem>(kc, 1.0),
        );
        for r in 0..copy_rows {
            for j in 0..nr {
                assert_eq!(dst[r * nr + j], next.at(r, j), "stream copy ({r},{j})");
            }
        }
    }

    #[test]
    fn streamed_computes_and_copies() {
        run_streamed::<F32x4>(16, 16);
        run_streamed::<F64x2>(16, 16);
    }

    #[test]
    fn streamed_copy_row_mismatch_and_none() {
        // Copy deeper than kc (drain path), shallower, and absent.
        run_streamed::<F32x4>(5, 9);
        run_streamed::<F32x4>(9, 5);
        run_streamed::<F32x4>(7, 0);
        run_streamed::<F64x2>(3, 8);
    }
}

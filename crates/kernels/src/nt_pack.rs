//! The NT-mode fused packing micro-kernel — paper Algorithm 3, Figure 5.
//!
//! Under the NT mode (`C = A · Bᵀ`, B stored `N x K` row-major), the `nr`
//! elements the outer-product kernel wants from a "row" of `op(B)` live in
//! different stored rows of B — strided, unvectorizable. LibShalom
//! therefore always packs B in this mode, and hides the packing behind an
//! *inner-product* (vector-vector FMA) computation that walks both A and
//! the stored B along the contiguous `K` dimension:
//!
//! * load 7 vectors of A (`V0–V6`) and 3 vectors of B (`V7–V9`), each
//!   covering `j` consecutive k-elements;
//! * issue the 21 vector FMAs into `V10–V31`;
//! * *scatter* the `j` lanes of each B vector into `Bc` (lane `l` of row
//!   `r` goes to `Bc[(k+l) * nr + (jcol+r)]` — distance `nr` between
//!   lanes, adjacent columns for adjacent rows, exactly Figure 5), the
//!   stores interleaved with the FMAs;
//! * after the k-loop, horizontally reduce each accumulator and update C.
//!
//! Calling the kernel `nr / 3` times (4x for FP32, 2x for FP64) with the
//! same A tile and successive B row triples fills one complete `kc x nr`
//! `Bc` panel — which rows `mr..mc` of the C block then consume through
//! the ordinary [`crate::main_kernel`].
//!
//! The 7x3 shape is Eq. 1 solved for 32 registers of 128 bits, and only
//! the 128-bit kernel set instantiates it (`family::kernel_set!`): at 512
//! bits `k < 16` is all scalar tail and on AVX2's 16 registers the 21
//! accumulators spill, and measured there a transposing pack followed by
//! the NN kernels beats it at every shape (DESIGN §14.2). It is what a
//! NEON host runs and what the §8.4 packing ablation compares against.
//!
//! shalom-analysis: deny(panic)

use crate::{Vector, MR};
use shalom_matrix::Scalar;

/// Stored-B rows processed per invocation (the paper's 7 x **3** packing
/// micro-kernel).
pub const NT_BCOLS: usize = 3;

/// A-rows the packing kernel covers (the paper's **7** x 3): on the
/// 128-bit set the first `min(NT_ROWS, m)` rows of a fused NT panel carry
/// the inner-product rounding.
pub const NT_ROWS: usize = MR;

/// Monomorphized Algorithm-3 body: `M` A-rows x `BC` stored B-rows, with
/// compile-time bounds so the accumulator tile register-allocates (a
/// runtime-bounded loop would spill every FMA to the stack).
///
/// # Safety
/// As [`nt_pack_kernel`] with `m = M`, `bcols = BC`.
#[inline(always)]
// PANIC-OK(index): acc/av/bv/tail arrays sized by M/BC const generics, indexed by
// loop counters bounded by the same.
// ALLOC-FREE
// CONTRACT(SHALOM-K-NT: m = M, n = BC)
unsafe fn nt_pack_body<V: Vector, const M: usize, const BC: usize>(
    kc: usize,
    nr: usize,
    jcol: usize,
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
    let mut acc = [[V::zero(); BC]; M];
    let mut tail = [[V::Elem::ZERO; BC]; M];
    let mut k = 0usize;
    while k + V::LANES <= kc {
        let mut av = [V::zero(); M];
        for (i, slot) in av.iter_mut().enumerate() {
            *slot = V::load(a.add(i * lda + k));
        }
        let mut bv = [V::zero(); BC];
        for (r, slot) in bv.iter_mut().enumerate() {
            *slot = V::load(b.add(r * ldb + k));
        }
        // Vector-vector FMAs with the scatter stores interleaved
        // (Algorithm 3 lines 5-6: "FMAs and scatter instructions occur
        // interchangeably").
        for i in 0..M {
            for r in 0..BC {
                acc[i][r] = acc[i][r].fma(av[i], bv[r]);
            }
            if i < BC {
                for lane in 0..V::LANES {
                    *bc.add((k + lane) * nr + jcol + i) = bv[i].extract_dyn(lane);
                }
            }
        }
        // If fewer A rows than B rows (deep edge), finish the scatter.
        let mut r = M;
        while r < BC {
            for lane in 0..V::LANES {
                *bc.add((k + lane) * nr + jcol + r) = bv[r].extract_dyn(lane);
            }
            r += 1;
        }
        k += V::LANES;
    }
    // k tail: scalar inner-product steps + scalar scatter.
    while k < kc {
        let mut bs = [V::Elem::ZERO; BC];
        for (r, slot) in bs.iter_mut().enumerate() {
            *slot = *b.add(r * ldb + k);
            *bc.add(k * nr + jcol + r) = *slot;
        }
        for (i, trow) in tail.iter_mut().enumerate() {
            let x = *a.add(i * lda + k);
            for r in 0..BC {
                trow[r] = trow[r] + x * bs[r];
            }
        }
        k += 1;
    }
    // Reduce V10-V31 to scalars (Algorithm 3 line 7) and update C.
    for i in 0..M {
        let crow = c.add(i * ldc + jcol);
        for r in 0..BC {
            let dot = acc[i][r].reduce_sum() + tail[i][r];
            let p = crow.add(r);
            if beta == V::Elem::ZERO {
                *p = alpha * dot;
            } else {
                *p = alpha * dot + beta * *p;
            }
        }
    }
}

macro_rules! nt_dispatch_bc {
    ($V:ty, $M:literal, $bc:expr, ($($a:expr),*)) => {
        match $bc {
            1 => nt_pack_body::<$V, $M, 1>($($a),*),
            2 => nt_pack_body::<$V, $M, 2>($($a),*),
            _ => nt_pack_body::<$V, $M, 3>($($a),*),
        }
    };
}

macro_rules! nt_dispatch {
    ($V:ty, $m:expr, $bc:expr, $args:tt) => {
        match $m {
            1 => nt_dispatch_bc!($V, 1, $bc, $args),
            2 => nt_dispatch_bc!($V, 2, $bc, $args),
            3 => nt_dispatch_bc!($V, 3, $bc, $args),
            4 => nt_dispatch_bc!($V, 4, $bc, $args),
            5 => nt_dispatch_bc!($V, 5, $bc, $args),
            6 => nt_dispatch_bc!($V, 6, $bc, $args),
            _ => nt_dispatch_bc!($V, 7, $bc, $args),
        }
    };
}

/// Fused inner-product compute + scatter-pack kernel (Algorithm 3).
///
/// Updates `C[0..m, jcol..jcol+bcols] = alpha * A · B_rowsᵀ + beta * C`
/// where `A` is an `m x kc` sliver (row stride `lda`) and `B_rows` is
/// `bcols` stored rows of the `N x K` matrix B starting at `b` (row stride
/// `ldb`), while scattering those same B elements into the packed panel
/// `bc` (row stride `nr`, columns `jcol..jcol+bcols`).
///
/// `c` points at the C tile's row 0 / column 0 (NOT offset by `jcol`).
///
/// # Safety
/// * `a` valid for `m` rows x `kc` elements at stride `lda` (`m <= 7`);
/// * `b` valid for `bcols` rows x `kc` elements at stride `ldb`
///   (`bcols <= 3`);
/// * `c` valid for `m` rows x `jcol + bcols` cols read/write at stride
///   `ldc`;
/// * `bc` valid for `kc * nr` element writes, `jcol + bcols <= nr`;
/// * no aliasing between `c`/`bc` and the inputs.
// `inline(always)` down to the body: the kernel sets call this through
// their `#[target_feature]` entry points (`family::kernel_set!`).
#[inline(always)]
pub unsafe fn nt_pack_kernel<V: Vector>(
    m: usize,
    bcols: usize,
    kc: usize,
    nr: usize,
    jcol: usize,
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
    // Contract SHALOM-K-NT preconditions.
    debug_assert!(
        (1..=NT_ROWS).contains(&m) && (1..=NT_BCOLS).contains(&bcols) && jcol + bcols <= nr
    );
    debug_assert!(!c.is_null() && (m <= 1 || ldc >= jcol + bcols));
    if kc > 0 {
        debug_assert!(!a.is_null() && !b.is_null() && !bc.is_null());
        debug_assert!(m <= 1 || lda >= kc);
        debug_assert!(bcols <= 1 || ldb >= kc);
    }
    nt_dispatch!(
        V,
        m,
        bcols,
        (kc, nr, jcol, alpha, a, lda, b, ldb, beta, c, ldc, bc)
    )
}

/// Fills a complete `kc x nr` `Bc` panel from `npanel` stored rows of B
/// while updating `C[0..m, 0..npanel]`, by invoking [`nt_pack_kernel`]
/// once per row triple. Columns beyond `npanel` (when `npanel < nr`, the
/// N edge) are zero-filled so downstream main-kernel reads are defined.
///
/// # Safety
/// As [`nt_pack_kernel`], with `b` valid for `npanel` rows and `c` for
/// `m x npanel`.
#[inline(always)]
// CONTRACT(SHALOM-K-NT-PANEL: n = npanel)
pub unsafe fn nt_pack_panel<V: Vector>(
    m: usize,
    npanel: usize,
    kc: usize,
    nr: usize,
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
    // Contract SHALOM-K-NT-PANEL preconditions; the per-triple checks
    // are repeated by each nt_pack_kernel call below.
    debug_assert!(npanel <= nr);
    // The zero-fill below writes the whole kc x nr panel even when
    // npanel = 0, so bc must be valid whenever the panel is non-empty.
    debug_assert!(kc == 0 || nr == 0 || !bc.is_null());
    let mut j = 0usize;
    while j < npanel {
        let bcols = NT_BCOLS.min(npanel - j);
        nt_pack_kernel::<V>(
            m,
            bcols,
            kc,
            nr,
            j,
            alpha,
            a,
            lda,
            b.add(j * ldb),
            ldb,
            beta,
            c,
            ldc,
            bc,
        );
        j += bcols;
    }
    for k in 0..kc {
        for jj in npanel..nr {
            *bc.add(k * nr + jj) = V::Elem::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NR_VECS;
    use shalom_matrix::{assert_close, gemm_tolerance, MatRef, Matrix, Op};
    use shalom_simd::{F32x4, F64x2};

    fn run_panel<V: Vector>(m: usize, npanel: usize, kc: usize, alpha: V::Elem, beta: V::Elem) {
        let nr = NR_VECS * V::LANES;
        assert!(npanel <= nr);
        let a = Matrix::<V::Elem>::random(m, kc, 41);
        let b = Matrix::<V::Elem>::random(npanel, kc, 42); // stored N x K
        let mut c = Matrix::<V::Elem>::random(m, npanel, 43);
        let mut want = c.clone();
        shalom_matrix::reference::gemm(
            Op::NoTrans,
            Op::Trans,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            want.as_mut(),
        );
        let mut bc = vec![V::Elem::from_f64(-7.0); kc * nr];
        // SAFETY: a/b/c are owned matrices of the declared panel shape
        // and bc holds the full kc x nr packed panel.
        unsafe {
            nt_pack_panel::<V>(
                m,
                npanel,
                kc,
                nr,
                alpha,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                beta,
                c.as_mut().as_mut_ptr(),
                c.ld(),
                bc.as_mut_ptr(),
            );
        }
        assert_close(
            c.as_ref(),
            want.as_ref(),
            gemm_tolerance::<V::Elem>(kc, 1.0),
        );
        // Bc holds the transposed panel: bc[k][j] == B[j][k], zero-padded.
        let packed = MatRef::from_slice(&bc, kc, nr, nr);
        for k in 0..kc {
            for j in 0..nr {
                let want = if j < npanel {
                    b.at(j, k)
                } else {
                    V::Elem::ZERO
                };
                assert_eq!(packed.at(k, j), want, "bc mismatch at ({k},{j})");
            }
        }
    }

    #[test]
    fn full_tile_f32() {
        run_panel::<F32x4>(7, 12, 16, 1.0, 1.0);
    }

    #[test]
    fn full_tile_f64() {
        run_panel::<F64x2>(7, 6, 16, 1.0, 1.0);
    }

    #[test]
    fn k_tails() {
        for kc in 1..=9 {
            run_panel::<F32x4>(7, 12, kc, 1.0, 1.0);
            run_panel::<F64x2>(7, 6, kc, 1.0, 1.0);
        }
    }

    #[test]
    fn partial_panels_and_rows() {
        for m in 1..=7 {
            for npanel in 1..=12 {
                run_panel::<F32x4>(m, npanel, 5, 1.0, 1.0);
            }
        }
        for m in 1..=7 {
            for npanel in 1..=6 {
                run_panel::<F64x2>(m, npanel, 5, 1.0, 1.0);
            }
        }
    }

    #[test]
    fn alpha_beta() {
        run_panel::<F32x4>(7, 12, 8, 2.0, 0.0);
        run_panel::<F32x4>(7, 12, 8, 0.5, -1.0);
        run_panel::<F64x2>(7, 6, 8, 0.0, 2.0);
    }

    #[test]
    fn bcols_constant_matches_paper() {
        // 7 x 3 packing kernel; 4 calls fill a FP32 panel (12 / 3), 2
        // calls fill an FP64 panel (6 / 3) — §5.3.2.
        assert_eq!(NT_BCOLS, 3);
        assert_eq!(crate::NR_F32 / NT_BCOLS, 4);
        assert_eq!(crate::NR_F64 / NT_BCOLS, 2);
    }
}

//! Edge-case micro-kernels (paper §5.4, Figure 6).
//!
//! When `M % mr != 0` or `N % nr != 0`, the remainder block is updated by
//! a kernel sized for the exact remainder. Like the hand-written
//! assembly libraries (OpenBLAS ships a dedicated routine per edge
//! shape), we **monomorphize** one kernel per `(m, nv)` pair — with
//! compile-time tile bounds the accumulator tile lives entirely in
//! vector registers; a single runtime-bounded loop would force every FMA
//! through a stack slot and run an order of magnitude slower.
//!
//! Two instruction schedules are kept so the Figure 13 ablation compares
//! real code paths:
//!
//! * **pipelined** (Figure 6b, LibShalom): the next k-step's B row is
//!   loaded while the current step's FMAs execute, and A broadcasts are
//!   interleaved between FMA groups — dependent instructions sit far
//!   apart.
//! * **batched** (Figure 6a, OpenBLAS): all operand loads for a k-step
//!   are issued as one batch before its FMA burst, exposing the load
//!   latency.
//!
//! Both compute `C[0..m, 0..n] = alpha * A*B + beta * C` for any
//! `1 <= m <= mr`, `1 <= n <= nr`, bit-identically (same operation order
//! per accumulator), differing only in schedule.
//!
//! Remainder columns (`n % LANES`) depend on the vector type. The 128-bit
//! types keep the scalar tail they always had (plain `x * b + acc`). The
//! runtime-dispatched wide types ([`Vector::WIDE`]) carry them in one
//! partially loaded/stored vector per row, so a remainder column is
//! rounded by the same fused lane arithmetic as every other column of the
//! kernel set — the rounding contract the driver's bitwise guarantees
//! rest on.
//!
//! shalom-analysis: deny(panic)

use crate::{Vector, MR, NR_VECS};
use shalom_matrix::Scalar;
use shalom_simd::prefetch_read;

const MAX_SCALAR_COLS: usize = 3; // up to LANES-1 remainder columns (f32x4)

/// Splits an edge width into `(nv, ns)`: `nv` full vectors of columns
/// plus `ns` remainder columns. The 128-bit types take `ns < LANES`
/// scalar columns; the wide types always end in one partial vector of
/// `1 <= ns <= LANES` lanes (a full-width tile is `nv = nrv - 1` plus a
/// full-mask tail), so no kernel ever carries an idle tail accumulator.
#[inline(always)]
pub(crate) fn split_cols<V: Vector>(n: usize) -> (usize, usize) {
    if V::WIDE {
        let nv = n.saturating_sub(1) / V::LANES;
        (nv, n - nv * V::LANES)
    } else {
        (n / V::LANES, n % V::LANES)
    }
}

/// The monomorphized edge kernel body: `M` rows, `NV` full vectors of
/// columns plus `ns` remainder columns (see [`split_cols`]), schedule
/// selected by `PIPE`.
///
/// # Safety
/// * `a` valid for `M x kc` reads at stride `lda`;
/// * `b` valid for `kc x (NV*LANES + ns)` reads at stride `ldb`;
/// * `c` valid for `M x (NV*LANES + ns)` reads/writes at stride `ldc`.
#[inline(always)]
// PANIC-OK(index): accumulator arrays are [_; M]/[_; NV]/[_; NS] indexed by loop
// counters bounded by those const generics.
// ALLOC-FREE
// CONTRACT(SHALOM-K-EDGE: m = M, n = NV * V::LANES + ns)
pub(crate) unsafe fn edge_body<V: Vector, const M: usize, const NV: usize, const PIPE: bool>(
    ns: usize,
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
    debug_assert!(if V::WIDE {
        (1..=V::LANES).contains(&ns)
    } else {
        ns < V::LANES && ns <= MAX_SCALAR_COLS
    });
    let mut acc = [[V::zero(); NV]; M];
    // Remainder columns: a partial vector per row (wide) or scalars.
    let mut tacc = [V::zero(); M];
    let mut sacc = [[V::Elem::ZERO; MAX_SCALAR_COLS]; M];
    if kc > 0 {
        // Prologue (pipelined): step 0's B operands.
        let mut bv = [V::zero(); NV];
        let mut bt = V::zero();
        let mut bs = [V::Elem::ZERO; MAX_SCALAR_COLS];
        if PIPE {
            for (t, slot) in bv.iter_mut().enumerate() {
                *slot = V::load(b.add(t * V::LANES));
            }
            if V::WIDE {
                bt = V::load_partial(b.add(NV * V::LANES), ns);
            } else {
                for (s, slot) in bs.iter_mut().enumerate().take(ns) {
                    *slot = *b.add(NV * V::LANES + s);
                }
            }
        }
        for k in 0..kc {
            let (cur_bv, cur_bt, cur_bs);
            if PIPE {
                cur_bv = bv;
                cur_bt = bt;
                cur_bs = bs;
                // Steady state: issue the *next* row's loads so they
                // overlap this step's dependent FMA chain (Fig. 6b).
                if k + 1 < kc {
                    let nrow = b.add((k + 1) * ldb);
                    prefetch_read(nrow.add(V::LANES * NV));
                    for (t, slot) in bv.iter_mut().enumerate() {
                        *slot = V::load(nrow.add(t * V::LANES));
                    }
                    if V::WIDE {
                        bt = V::load_partial(nrow.add(NV * V::LANES), ns);
                    } else {
                        for (s, slot) in bs.iter_mut().enumerate().take(ns) {
                            *slot = *nrow.add(NV * V::LANES + s);
                        }
                    }
                }
            } else {
                // Batched: this step's loads, grouped (Fig. 6a).
                let brow = b.add(k * ldb);
                let mut v = [V::zero(); NV];
                for (t, slot) in v.iter_mut().enumerate() {
                    *slot = V::load(brow.add(t * V::LANES));
                }
                let mut tv = V::zero();
                let mut sv = [V::Elem::ZERO; MAX_SCALAR_COLS];
                if V::WIDE {
                    tv = V::load_partial(brow.add(NV * V::LANES), ns);
                } else {
                    for (s, slot) in sv.iter_mut().enumerate().take(ns) {
                        *slot = *brow.add(NV * V::LANES + s);
                    }
                }
                cur_bv = v;
                cur_bt = tv;
                cur_bs = sv;
            }
            if PIPE {
                // A broadcasts interleaved between per-row FMA groups.
                for i in 0..M {
                    let x = *a.add(i * lda + k);
                    let ax = V::splat(x);
                    for t in 0..NV {
                        acc[i][t] = acc[i][t].fma(cur_bv[t], ax);
                    }
                    if V::WIDE {
                        tacc[i] = tacc[i].fma(cur_bt, ax);
                    } else {
                        for s in 0..ns {
                            sacc[i][s] = sacc[i][s] + x * cur_bs[s];
                        }
                    }
                }
            } else {
                // All A loads batched before the FMA burst.
                let mut ax = [V::zero(); M];
                let mut asc = [V::Elem::ZERO; M];
                for i in 0..M {
                    let x = *a.add(i * lda + k);
                    asc[i] = x;
                    ax[i] = V::splat(x);
                }
                for i in 0..M {
                    for t in 0..NV {
                        acc[i][t] = acc[i][t].fma(cur_bv[t], ax[i]);
                    }
                    if V::WIDE {
                        tacc[i] = tacc[i].fma(cur_bt, ax[i]);
                    } else {
                        for s in 0..ns {
                            sacc[i][s] = sacc[i][s] + asc[i] * cur_bs[s];
                        }
                    }
                }
            }
        }
    }
    // Writeback: the `writeback_row` epilogue per vector, the partial
    // vector included.
    for i in 0..M {
        let crow = c.add(i * ldc);
        if beta == V::Elem::ZERO {
            for t in 0..NV {
                acc[i][t].scale(alpha).store(crow.add(t * V::LANES));
            }
            if V::WIDE {
                tacc[i]
                    .scale(alpha)
                    .store_partial(crow.add(NV * V::LANES), ns);
            } else {
                for s in 0..ns {
                    *crow.add(NV * V::LANES + s) = alpha * sacc[i][s];
                }
            }
        } else {
            for t in 0..NV {
                let cv = V::load(crow.add(t * V::LANES));
                acc[i][t]
                    .scale(alpha)
                    .add(cv.scale(beta))
                    .store(crow.add(t * V::LANES));
            }
            if V::WIDE {
                let cv = V::load_partial(crow.add(NV * V::LANES), ns);
                tacc[i]
                    .scale(alpha)
                    .add(cv.scale(beta))
                    .store_partial(crow.add(NV * V::LANES), ns);
            } else {
                for s in 0..ns {
                    let p = crow.add(NV * V::LANES + s);
                    *p = alpha * sacc[i][s] + beta * *p;
                }
            }
        }
    }
}

/// The jump table over the monomorphized [`edge_body`] instances of one
/// register tile: `rows` lists every row count `1..=mr`, `vecs` every
/// full-vector count [`split_cols`] can return for `n <= nr`. Expanded
/// once per kernel set inside that set's `#[target_feature]` entry point
/// (`family::kernel_set!`), so every body inlines at the set's ISA.
macro_rules! edge_dispatch {
    ($V:ty, $PIPE:expr, [$($m:literal)+], $vecs:tt, $rows:expr, $nv:expr, $args:tt) => {
        match $rows {
            $($m => $crate::edge::edge_dispatch!(@nv $V, $PIPE, $m, $vecs, $nv, $args),)+
            _ => {}
        }
    };
    (@nv $V:ty, $PIPE:expr, $m:literal, [$($v:literal)+], $nv:expr, $args:tt) => {
        match $nv {
            $($v => $crate::edge::edge_body::<$V, $m, $v, { $PIPE }> $args,)+
            _ => {}
        }
    };
}
pub(crate) use edge_dispatch;

/// The 128-bit edge kernel at the `7 x 3`-vector tile, schedule chosen by
/// `PIPE`: dispatches to the exact-size monomorphized body.
///
/// # Safety
/// * `a` valid for `m` rows x `kc` cols at stride `lda`;
/// * `b` valid for `kc` rows x `n` cols at stride `ldb`;
/// * `c` valid for `m` rows x `n` cols read/write at stride `ldc`;
/// * `1 <= m <= 7`, `1 <= n <= NR_VECS * LANES`, no aliasing with `c`.
#[inline(always)]
pub unsafe fn edge_kernel<V: Vector, const PIPE: bool>(
    m: usize,
    n: usize,
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
    // Contract SHALOM-K-EDGE preconditions.
    debug_assert!((1..=MR).contains(&m) && n >= 1 && n <= NR_VECS * V::LANES);
    debug_assert!(!c.is_null() && (m <= 1 || ldc >= n));
    if kc > 0 {
        debug_assert!(!a.is_null() && !b.is_null());
        debug_assert!(m <= 1 || lda >= kc);
        debug_assert!(kc <= 1 || ldb >= n);
    }
    let (nv, ns) = split_cols::<V>(n);
    edge_dispatch!(
        V,
        PIPE,
        [1 2 3 4 5 6 7],
        [0 1 2 3],
        m,
        nv,
        (ns, kc, alpha, a, lda, b, ldb, beta, c, ldc)
    )
}

/// [`edge_kernel`] with the software-pipelined schedule of Figure 6b (the
/// LibShalom strategy).
///
/// # Safety
/// As [`edge_kernel`].
#[inline]
pub unsafe fn edge_kernel_pipelined<V: Vector>(
    m: usize,
    n: usize,
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
    debug_assert!((1..=MR).contains(&m) && (1..=NR_VECS * V::LANES).contains(&n));
    edge_kernel::<V, true>(m, n, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

/// [`edge_kernel`] with the batched schedule of Figure 6a (the OpenBLAS
/// strategy the paper criticizes).
///
/// # Safety
/// As [`edge_kernel`].
#[inline]
pub unsafe fn edge_kernel_batched<V: Vector>(
    m: usize,
    n: usize,
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
    debug_assert!((1..=MR).contains(&m) && (1..=NR_VECS * V::LANES).contains(&n));
    edge_kernel::<V, false>(m, n, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::{assert_close, gemm_tolerance, max_abs_diff, reference, Matrix, Op};
    use shalom_simd::{F32x4, F64x2};

    type EdgeFn<V> = unsafe fn(
        usize,
        usize,
        usize,
        <V as Vector>::Elem,
        *const <V as Vector>::Elem,
        usize,
        *const <V as Vector>::Elem,
        usize,
        <V as Vector>::Elem,
        *mut <V as Vector>::Elem,
        usize,
    );

    fn run_edge<V: Vector>(
        f: EdgeFn<V>,
        m: usize,
        n: usize,
        kc: usize,
        alpha: V::Elem,
        beta: V::Elem,
    ) -> Matrix<V::Elem> {
        let a = Matrix::<V::Elem>::random(m.max(1), kc.max(1), 31);
        let b = Matrix::<V::Elem>::random(kc.max(1), n.max(1), 32);
        let mut c = Matrix::<V::Elem>::random(m.max(1), n.max(1), 33);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            alpha,
            a.as_ref().submatrix(0, 0, m, kc),
            b.as_ref().submatrix(0, 0, kc, n),
            beta,
            want.as_mut().submatrix_mut(0, 0, m, n),
        );
        // SAFETY: matrices are allocated at least m x kc / kc x n / m x n.
        unsafe {
            f(
                m,
                n,
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
        c
    }

    #[test]
    fn pipelined_all_small_shapes_f32() {
        for m in 1..=7 {
            for n in 1..=12 {
                run_edge::<F32x4>(edge_kernel_pipelined::<F32x4>, m, n, 9, 1.0, 1.0);
            }
        }
    }

    #[test]
    fn batched_all_small_shapes_f32() {
        for m in 1..=7 {
            for n in 1..=12 {
                run_edge::<F32x4>(edge_kernel_batched::<F32x4>, m, n, 9, 1.0, 1.0);
            }
        }
    }

    #[test]
    fn pipelined_all_small_shapes_f64() {
        for m in 1..=7 {
            for n in 1..=6 {
                run_edge::<F64x2>(edge_kernel_pipelined::<F64x2>, m, n, 9, 1.0, 1.0);
            }
        }
    }

    #[test]
    fn batched_all_small_shapes_f64() {
        for m in 1..=7 {
            for n in 1..=6 {
                run_edge::<F64x2>(edge_kernel_batched::<F64x2>, m, n, 9, 1.0, 1.0);
            }
        }
    }

    #[test]
    fn schedules_agree_bitwise() {
        // Same operation order per accumulator => identical rounding.
        for &(m, n, kc) in &[(3, 5, 17), (7, 12, 8), (1, 1, 1), (5, 11, 3)] {
            let p = run_edge::<F32x4>(edge_kernel_pipelined::<F32x4>, m, n, kc, 1.5, 0.5);
            let b = run_edge::<F32x4>(edge_kernel_batched::<F32x4>, m, n, kc, 1.5, 0.5);
            assert_eq!(max_abs_diff(p.as_ref(), b.as_ref()), 0.0);
        }
    }

    #[test]
    fn kc_zero_scales_only() {
        let mut c = Matrix::<f32>::random(3, 5, 7);
        let orig = c.clone();
        let a = Matrix::<f32>::zeros(3, 1);
        let b = Matrix::<f32>::zeros(1, 5);
        // SAFETY: kc = 0 touches only c, which is owned and 3x5.
        unsafe {
            edge_kernel_pipelined::<F32x4>(
                3,
                5,
                0,
                1.0,
                a.as_slice().as_ptr(),
                1,
                b.as_slice().as_ptr(),
                5,
                -1.0,
                c.as_mut().as_mut_ptr(),
                c.ld(),
            );
        }
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(c.at(i, j), -orig.at(i, j));
            }
        }
    }

    #[test]
    fn alpha_beta_edge_combinations() {
        for &(al, be) in &[(0.0, 2.0), (2.0, 0.0), (-1.0, -1.0)] {
            run_edge::<F32x4>(edge_kernel_pipelined::<F32x4>, 4, 7, 6, al, be);
            run_edge::<F64x2>(edge_kernel_batched::<F64x2>, 4, 5, 6, al as f64, be as f64);
        }
    }

    #[test]
    fn long_k_accumulation() {
        run_edge::<F32x4>(edge_kernel_pipelined::<F32x4>, 6, 11, 257, 1.0, 1.0);
        run_edge::<F64x2>(edge_kernel_batched::<F64x2>, 5, 5, 257, 1.0, 1.0);
    }
}

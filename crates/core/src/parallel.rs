//! Parallelization (paper §6): static two-level work partitioning
//! executed on the persistent worker pool.
//!
//! C is divided into a `Tm x Tn` grid of sub-blocks, one task each. The
//! per-thread computation-to-memory ratio (Eq. 3) is
//! `CMR = M*N / (M*Tn + N*T/Tn)`; by the AM-GM inequality (Eq. 4) it
//! peaks at `Tn* = sqrt(T*N/M)`. `Tn` must divide `T` so cores divide
//! evenly; we evaluate Eq. 3 at the divisors bracketing `Tn*` and keep
//! the better one (the paper's up-bound alone degenerates to `1 x T`
//! slabs for prime `T` on row-heavy shapes). Block boundaries are
//! rounded to multiples of the dispatched kernel set's `mr` / `nr` so the
//! partition itself creates no new edge cases (the §3.2 third missed
//! opportunity), and every worker inherits that same set from the
//! parent's plan handle.
//!
//! The grid is dispatched through `pool.rs`: the §3.1 argument is that
//! fixed per-call overheads dominate small GEMM, and spawning `Tm*Tn`
//! fresh OS threads per call is such an overhead.

use crate::capture;
use crate::driver::{gemm_serial, with_workspace, Workspace};
use crate::error::stored_dims;
use crate::plan::GemmPlan;
use crate::pool;
use shalom_kernels::FamilyElem;
use shalom_matrix::{MatMut, MatRef, Op};
use std::ops::Range;

/// The thread grid for a `m x n` output with `t` workers: `(tm, tn)`
/// with `tm * tn == t`.
///
/// Implements §6.1 with a degenerate-grid fix: let `Tn* = sqrt(T*N/M)`
/// (the Eq. 4 real optimum), find the largest divisor of `T` at or below
/// it and the smallest at or above it, and keep whichever minimizes the
/// Eq. 3 denominator `M*Tn + N*T/Tn` (ties go to the upper divisor, the
/// paper's original up-bound — preserving the worked example `M = 2048`,
/// `N = 256`, `T = 64` -> `Tn = 4`, `Tm = 16`). Because the denominator
/// is convex in `Tn`, the better bracketing divisor is the global
/// optimum over all divisors — in particular a prime `T` on a row-heavy
/// shape now yields the `T x 1` split rather than a pathological
/// `1 x T` slab.
pub fn partition_threads(t: usize, m: usize, n: usize) -> (usize, usize) {
    assert!(t >= 1, "at least one thread");
    if t == 1 || m == 0 || n == 0 {
        return (1, t);
    }
    let tn_star = (t as f64 * n as f64 / m as f64).sqrt().clamp(1.0, t as f64);
    // Bracketing divisors of t around the real optimum.
    let mut down = 1usize; // largest divisor <= tn_star
    let mut up = t; // smallest divisor >= tn_star
    let mut d = 1;
    while d * d <= t {
        if t.is_multiple_of(d) {
            for q in [d, t / d] {
                let qf = q as f64;
                if qf <= tn_star && q > down {
                    down = q;
                }
                if qf >= tn_star && q < up {
                    up = q;
                }
            }
        }
        d += 1;
    }
    // Eq. 3: CMR = M*N / (M*Tn + N*T/Tn). Compare denominators exactly.
    let denom = |tn: usize| m as u128 * tn as u128 + n as u128 * (t / tn) as u128;
    let tn = if denom(down) < denom(up) { down } else { up };
    (t / tn, tn)
}

/// Chunk `p` of `len` split into `parts` contiguous chunks whose starts
/// are multiples of `quantum` (except possibly the final remainder), as
/// `(start, len)`; chunks may be empty when `len` is small. Computed
/// directly so the steady-state pool path never allocates a chunk list.
pub fn quantized_chunk(len: usize, parts: usize, quantum: usize, p: usize) -> (usize, usize) {
    assert!(parts >= 1 && quantum >= 1);
    let per = len.div_ceil(quantum).div_ceil(parts);
    let start = (p * per * quantum).min(len);
    let end = ((p + 1) * per * quantum).min(len);
    (start, end - start)
}

/// Raw-pointer wrapper that promises the wrapped pointer is safe to move
/// across the fork-join scope (the sub-blocks each thread touches are
/// disjoint by construction). Shared with `batch.rs`, whose items are
/// disjoint by the slice's own borrow rules.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

// Copy unconditionally (a derive would demand `T: Copy`): the wrapper
// holds only the pointer, and worker closures must copy it per call to
// stay `Fn`.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: SHALOM-D-SEND — the C partition gives each thread a disjoint
// sub-block, so concurrent writes through the shared base never alias.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: SHALOM-D-SEND — see above; shared reads of the base are fine.
unsafe impl<T> Sync for SendPtr<T> {}
pub(crate) struct SendConstPtr<T>(pub(crate) *const T);

impl<T> Clone for SendConstPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendConstPtr<T> {}
// SAFETY: SHALOM-D-SEND — A and B are read-only for the whole scope.
unsafe impl<T> Send for SendConstPtr<T> {}
// SAFETY: SHALOM-D-SEND — read-only; concurrent reads never conflict.
unsafe impl<T> Sync for SendConstPtr<T> {}

/// Multi-threaded `C = alpha * op(A)*op(B) + beta * C`: partitions C by
/// the plan's §6 grid and runs the serial driver per sub-block on the
/// persistent pool, each under the plan the parent derives for it
/// ([`GemmPlan::for_block`] — no worker looks anything up). Nested calls —
/// issued from inside a pool task — run serially on the caller: the pool
/// has one call slot, and a small GEMM inside a batch must not try to
/// split itself anyway (§7.4).
///
/// The run's one read of the capture state word picks the instantiation:
/// with both sinks off, [`run`]'s capture-free one; with a sink on, the
/// capturing one behind a cold call.
///
/// # Safety
/// As [`gemm_serial`].
pub(crate) unsafe fn gemm_parallel<T: FamilyElem>(
    plan: &GemmPlan<T>,
    alpha: T,
    a: *const T,
    lda: usize,
    b: *const T,
    ldb: usize,
    beta: T,
    c: *mut T,
    ldc: usize,
) {
    if capture::on() {
        return gemm_parallel_captured(plan, alpha, a, lda, b, ldb, beta, c, ldc);
    }
    run::<T, false>(plan, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// [`gemm_parallel`] with a sink on. Outlined and cold, so the
/// capture-off path carries none of it.
///
/// # Safety
/// As [`gemm_serial`].
#[cold]
#[inline(never)]
unsafe fn gemm_parallel_captured<T: FamilyElem>(
    plan: &GemmPlan<T>,
    alpha: T,
    a: *const T,
    lda: usize,
    b: *const T,
    ldb: usize,
    beta: T,
    c: *mut T,
    ldc: usize,
) {
    run::<T, true>(plan, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// The run of a handle, one instantiation per capture state. With
/// `CAPTURE`, one capture region covers the whole threaded call
/// (dispatch, tiles, join) and each tile is a worker region under it, so
/// the parent record can report fork-join overhead (wall time minus the
/// slowest tile); the pool separately captures its dispatch (publish +
/// wake) latency. Without it there is no capture code.
///
/// # Safety
/// As [`gemm_serial`].
unsafe fn run<T: FamilyElem, const CAPTURE: bool>(
    plan: &GemmPlan<T>,
    alpha: T,
    a: *const T,
    lda: usize,
    b: *const T,
    ldb: usize,
    beta: T,
    c: *mut T,
    ldc: usize,
) {
    let (m, n) = (plan.m, plan.n);
    if plan.threads == 1 || m == 0 || n == 0 || pool::in_pool_context() {
        with_workspace(|ws| {
            gemm_serial::<T, CAPTURE>(plan, alpha, a, lda, b, ldb, beta, c, ldc, ws)
        });
        return;
    }
    let call = CAPTURE.then(|| capture::Call::begin(capture::Phase::Parallel, plan));
    let workers = call.as_ref().map(capture::Call::workers);
    // The tile of the set the *whole* problem resolved to is the
    // partition quantum.
    let (tm, tn, mr, nr) = (plan.tm, plan.tn, plan.ks.mr, plan.ks.nr);
    let ap = SendConstPtr(a);
    let bp = SendConstPtr(b);
    let cp = SendPtr(c);

    // Task index -> grid cell, chunk geometry computed on the fly: the
    // steady-state path allocates nothing.
    let job = |idx: usize, ws: &mut Workspace| {
        let (ri, rl) = quantized_chunk(m, tm, mr, idx / tn);
        let (ci, cl) = quantized_chunk(n, tn, nr, idx % tn);
        if rl == 0 || cl == 0 {
            return;
        }
        // Rebind the wrapper structs whole: disjoint closure capture
        // would otherwise capture the raw-pointer *fields*, which are
        // not Sync, and the closure could not cross the pool.
        let (ap, bp, cp) = (ap, bp, cp);
        let worker = workers.map(|w| (w, w.begin(idx)));
        // Reconstruct the sub-block operand pointers. Stored-A row
        // offset depends on op: N indexes rows by i, T by k.
        let a_off = match plan.op_a {
            Op::NoTrans => ri * lda,
            Op::Trans => ri,
        };
        let b_off = match plan.op_b {
            Op::NoTrans => ci,
            Op::Trans => ci * ldb,
        };
        // SAFETY: SHALOM-D-DRIVER — the quantized chunks partition the
        // `m x n` output, so every sub-block's operand views stay inside
        // the views validated by the caller; sub-blocks are disjoint in C
        // (SHALOM-D-SEND).
        unsafe {
            gemm_serial::<T, CAPTURE>(
                &plan.for_block(rl, cl),
                alpha,
                ap.0.add(a_off),
                lda,
                bp.0.add(b_off),
                ldb,
                beta,
                cp.0.add(ri * ldc + ci),
                ldc,
                ws,
            )
        };
        if let Some((w, tagged)) = worker {
            w.end(tagged);
        }
    };
    pool::run(plan.threads, tm * tn, &job);

    if let Some(call) = call {
        capture::parallel_end(call, plan);
    }
}

/// The column blocking of a filled run over `n` columns, as `(nb, tail)`.
/// `nb` is the widest multiple of the tile width `nr` with
/// `k * nb * size_of::<T>() <= cfg.cache.l2 / 2`, at least `nr` and at
/// most `n` (and at least 1, so an empty range still has a block width).
/// `tail` is the width of the last block when that is not `nb`, else 0:
/// the `n % nb` leftover columns, joined to the last full block when the
/// two still fit the budget. Every block streams the whole of A, so one
/// block fewer is one pass over A fewer — a 4608-deep layer's filters do
/// not fit in L2.
fn column_blocks<T: FamilyElem>(plan: &GemmPlan<T>, n: usize) -> (usize, usize) {
    let nr = plan.ks.nr;
    let fit = plan.cfg.cache.l2 / 2 / (plan.k.max(1) * core::mem::size_of::<T>());
    let nb = (fit / nr * nr).max(nr).min(n).max(1);
    match n % nb {
        rest if rest > 0 && nb + rest <= fit => (nb, nb + rest),
        rest => (nb, rest),
    }
}

/// [`GemmPlan::run_filled`], one instantiation per capture state: one
/// fork-join over the handle's grid (one tile on the calling thread when
/// serial or inside a pool task), recorded as [`run`] records it.
pub(crate) fn gemm_filled<T: FamilyElem, const CAPTURE: bool>(
    plan: &GemmPlan<T>,
    alpha: T,
    a: MatRef<'_, T>,
    fill: &(dyn Fn(Range<usize>, &mut Vec<T>) + Sync),
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (m, n, k) = (plan.m, plan.n, plan.k);
    let [stored_a, _] = stored_dims(plan.op_a, plan.op_b, m, n, k);
    let stored = [(a.rows(), a.cols()), (c.rows(), c.cols())];
    assert!(
        plan.op_b == Op::NoTrans && stored == [stored_a, (m, n)],
        "A and C stored {stored:?} incompatible with the planned filled {m}x{n}x{k}"
    );
    let (tm, tn) = match pool::in_pool_context() {
        true => (1, 1),
        false => (plan.tm, plan.tn),
    };
    let call =
        (CAPTURE && tm * tn > 1).then(|| capture::Call::begin(capture::Phase::Parallel, plan));
    let workers = call.as_ref().map(capture::Call::workers);
    let (cp, ldc) = (SendPtr(c.as_mut_ptr()), c.ld());
    let job = |idx: usize, ws: &mut Workspace| {
        let (ri, rl) = quantized_chunk(m, tm, plan.ks.mr, idx / tn);
        let (ci, cl) = quantized_chunk(n, tn, plan.ks.nr, idx % tn);
        if rl == 0 || cl == 0 {
            return;
        }
        let (cp, worker) = (cp, workers.map(|w| (w, w.begin(idx))));
        let a_tile = match plan.op_a {
            Op::NoTrans => a.submatrix(ri, 0, rl, k),
            Op::Trans => a.submatrix(0, ri, k, rl),
        };
        let (nb, tail) = column_blocks(plan, cl);
        let (mut j0, mut buf) = (ci, Vec::with_capacity(k * nb.max(tail)));
        while j0 < ci + cl {
            let w = if ci + cl - j0 == tail { tail } else { nb };
            fill(j0..j0 + w, &mut buf);
            let filled = buf.len();
            assert!(
                k.checked_mul(w) == Some(filled),
                "a fill of {w} columns left {filled} elements, not {k} x {w}"
            );
            // SAFETY: SHALOM-D-DRIVER — `buf` holds the dense `k x w`
            // block (checked above), the tile's A is a checked view, and
            // the quantized chunks partition C, whose view was checked
            // above, into disjoint tiles (SHALOM-D-SEND).
            unsafe {
                gemm_serial::<T, CAPTURE>(
                    &plan.for_block(rl, w),
                    alpha,
                    a_tile.as_ptr(),
                    a.ld(),
                    buf.as_ptr(),
                    w,
                    beta,
                    cp.0.add(ri * ldc + j0),
                    ldc,
                    ws,
                )
            };
            j0 += w;
        }
        if let Some((w, tagged)) = worker {
            w.end(tagged);
        }
    };
    pool::run(plan.threads, tm * tn, &job);

    if let Some(call) = call {
        capture::parallel_end(call, plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every chunk of the split, in order.
    fn quantized_chunks(len: usize, parts: usize, quantum: usize) -> Vec<(usize, usize)> {
        (0..parts)
            .map(|p| quantized_chunk(len, parts, quantum, p))
            .collect()
    }

    #[test]
    fn paper_worked_example() {
        // M = 2048, N = 256, T = 64 -> Tn = 4, Tm = 16 (§6.1): the
        // bracketing divisors {2, 4} tie on Eq. 3, and ties keep the
        // paper's up-bound.
        assert_eq!(partition_threads(64, 2048, 256), (16, 4));
    }

    #[test]
    fn grid_always_multiplies_to_t() {
        for t in [1, 2, 3, 4, 6, 8, 12, 16, 32, 64] {
            for &(m, n) in &[(32usize, 10240usize), (10240, 32), (512, 512), (1, 1)] {
                let (tm, tn) = partition_threads(t, m, n);
                assert_eq!(tm * tn, t, "t={t} m={m} n={n}");
            }
        }
    }

    #[test]
    fn skew_follows_shape() {
        // Tall-and-skinny along N gets more column threads.
        let (tm_n, tn_n) = partition_threads(64, 32, 10240);
        assert!(tn_n > tm_n);
        let (tm_m, tn_m) = partition_threads(64, 10240, 32);
        assert!(tm_m > tn_m);
    }

    #[test]
    fn tn_is_smallest_divisor_above_star() {
        // T = 12, M = N -> tn* = sqrt(12) ~ 3.46; bracket {3, 4} ties on
        // Eq. 3 (300 + 400 vs 400 + 300) -> the upper divisor 4.
        assert_eq!(partition_threads(12, 100, 100), (3, 4));
    }

    #[test]
    fn cmr_picks_lower_divisor_when_it_wins() {
        // T = 12, M = 200, N = 300: tn* = sqrt(18) ~ 4.24, bracket
        // {4, 6}. Eq. 3 denominators: 200*4 + 300*3 = 1700 vs
        // 200*6 + 300*2 = 1800 -> the *lower* divisor wins (the old
        // up-bound rule wrongly chose 6).
        assert_eq!(partition_threads(12, 200, 300), (3, 4));
    }

    #[test]
    fn prime_t_square_and_skewed_shapes() {
        for t in [7usize, 11, 13] {
            // Square: both slab orientations give the same CMR; the tie
            // keeps the up-bound (1, t).
            assert_eq!(partition_threads(t, 100, 100), (1, t), "square t={t}");
            // Row-heavy: the old rule degenerated to (1, t) slabs; the
            // CMR comparison must flip to (t, 1).
            assert_eq!(partition_threads(t, 150, 100), (t, 1), "skewed t={t}");
            assert_eq!(partition_threads(t, 2048, 256), (t, 1), "tall t={t}");
            // Column-heavy mirrors to (1, t).
            assert_eq!(partition_threads(t, 256, 2048), (1, t), "wide t={t}");
        }
    }

    #[test]
    fn chosen_divisor_is_cmr_optimal() {
        // Exhaustive check on a grid: the chosen tn minimizes the Eq. 3
        // denominator over *all* divisors of t.
        for t in [2usize, 6, 7, 12, 13, 24, 36, 64] {
            for &(m, n) in &[
                (64usize, 2048usize),
                (2048, 64),
                (300, 200),
                (200, 300),
                (100, 100),
                (1, 4096),
            ] {
                let (_, tn) = partition_threads(t, m, n);
                let denom = |q: usize| m as u128 * q as u128 + n as u128 * (t / q) as u128;
                for q in 1..=t {
                    if t.is_multiple_of(q) {
                        assert!(
                            denom(tn) <= denom(q),
                            "t={t} m={m} n={n}: tn={tn} beaten by divisor {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_are_the_widest_tile_multiple_in_half_of_l2() {
        let cfg = crate::GemmConfig::with_threads(1);
        let plan = |cfg: &crate::GemmConfig, n, k| {
            GemmPlan::<f32>::new(cfg, Op::NoTrans, Op::NoTrans, 1, n, k)
        };
        let nr = plan(&cfg, 1, 1).ks.nr;
        let at = |l2: usize, n: usize, k: usize| {
            let cfg = crate::GemmConfig {
                cache: crate::CacheParams { l2, ..cfg.cache },
                ..cfg
            };
            column_blocks(&plan(&cfg, n, k), n)
        };
        // Half of L2 holds 3.5 tile widths of a 100-deep block: 3 fit,
        // and a leftover tile width does not join the last block.
        let l2 = 2 * 100 * 4 * nr * 7 / 2;
        assert_eq!(at(l2, 1000 * nr, 100), (3 * nr, nr));
        // Two leftover columns still fit beside a full block: one block
        // of 3 tile widths and 2 columns instead of a 2-column tail.
        assert_eq!(at(l2, 15 * nr + 2, 100), (3 * nr, 3 * nr + 2));
        // A whole B that fits is one block, whatever its width.
        assert_eq!(at(1 << 30, 7 * nr + 3, 100), (7 * nr + 3, 0));
        // Too deep for one tile width in half of L2: still one tile.
        assert_eq!(at(1024, 10 * nr, 100_000), (nr, 0));
        assert_eq!(at(1024, 10 * nr + 1, 100_000), (nr, 1));
        // Narrower than one tile: the whole range.
        assert_eq!(at(1024, nr - 1, 100_000), (nr - 1, 0));
        assert_eq!(at(1024, 0, 0), (1, 0));
    }

    #[test]
    #[should_panic(expected = "a fill of 8 columns left 23 elements")]
    fn a_short_fill_panics_before_its_block_is_read() {
        let plan = GemmPlan::<f32>::new(
            &crate::GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            4,
            8,
            3,
        );
        let a = shalom_matrix::Matrix::<f32>::zeros(4, 3);
        let mut c = shalom_matrix::Matrix::<f32>::zeros(4, 8);
        let short = |cols: Range<usize>, dst: &mut Vec<f32>| *dst = vec![0.0; 3 * cols.len() - 1];
        plan.run_filled(1.0, a.as_ref(), &short, 0.0, c.as_mut());
    }

    #[test]
    fn single_thread_short_circuit() {
        assert_eq!(partition_threads(1, 5000, 5000), (1, 1));
    }

    #[test]
    fn quantized_chunks_cover_exactly() {
        for &(len, parts, q) in &[
            (100usize, 4usize, 7usize),
            (3, 4, 12),
            (50176, 8, 12),
            (1, 1, 1),
            (0, 3, 4),
        ] {
            let chunks = quantized_chunks(len, parts, q);
            assert_eq!(chunks.len(), parts);
            let mut pos = 0;
            let mut total = 0;
            for &(s, l) in &chunks {
                assert!(s >= pos || l == 0);
                if l > 0 {
                    assert_eq!(s, pos);
                    assert_eq!(s % q, 0, "chunk start {s} not multiple of {q}");
                    pos = s + l;
                }
                total += l;
            }
            assert_eq!(total, len);
        }
    }

    #[test]
    fn quantized_chunks_interior_are_quantum_multiples() {
        let chunks = quantized_chunks(100, 3, 12);
        // Interior boundaries at multiples of 12 => only the global tail
        // (the last nonempty chunk) may carry the remainder — the §6 goal
        // of not manufacturing extra edge cases.
        for w in chunks.windows(2) {
            let (_, l0) = w[0];
            let (_, l1) = w[1];
            if l1 > 0 {
                assert_eq!(l0 % 12, 0);
            }
        }
    }

    #[test]
    fn chunks_are_whole_tiles_of_every_registered_set() {
        // The partition quantum is the dispatched set's tile: every chunk
        // but the last nonempty one is a whole number of tiles, at every
        // registered set, so only the global tail is ever ragged.
        for fam in shalom_kernels::registered_families() {
            for q in [fam.k_f32.mr, fam.k_f32.nr, fam.k_f64.mr, fam.k_f64.nr] {
                for len in [1usize, 25, 100, 512, 4096] {
                    for parts in 1..=5 {
                        let chunks = quantized_chunks(len, parts, q);
                        let last = chunks.iter().rposition(|&(_, l)| l > 0);
                        for (p, &(start, l)) in chunks.iter().enumerate() {
                            assert!(l == 0 || start % q == 0);
                            if Some(p) != last {
                                assert_eq!(l % q, 0, "len {len} parts {parts} q {q}: {chunks:?}");
                            }
                        }
                        assert_eq!(chunks.iter().map(|c| c.1).sum::<usize>(), len);
                    }
                }
            }
        }
        // `irregular_mt`'s 512x25 cell on two threads: 259 + 253 rows at the
        // 7-row quantum is a ragged 15-row tile on each worker; the
        // dispatched tile gives one ragged tile in all.
        assert_eq!(quantized_chunks(512, 2, 7), vec![(0, 259), (259, 253)]);
        assert_eq!(quantized_chunks(512, 2, 15), vec![(0, 270), (270, 242)]);
    }
}

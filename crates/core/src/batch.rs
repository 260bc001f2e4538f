//! Batched small GEMM.
//!
//! The paper's methodology section (§7.4) states how small GEMMs are
//! parallelized in practice: "parallelism is achieved by running multiple
//! GEMM kernels to process independent matrices" — each individual
//! product runs single-threaded (it is too small to split), and the
//! *batch* is distributed across cores. This is exactly the CP2K/DBCSR
//! block-sparse pattern and the `libxsmm_gemm_batch` use case.
//!
//! [`gemm_batch`] runs `C_i = alpha * op(A_i) * op(B_i) + beta * C_i`
//! over a set of independent problems. On the pool the batch is cut into
//! contiguous *chunks* of `g` items that form a dynamic work queue — a
//! participant claims the next chunk with one `fetch_add` and runs its
//! items back to back on its pool-owned workspace. A 5x5x5 f64 item is
//! ~60 ns, so claiming items one at a time bounced the counter's cache
//! line (and the lines neighbouring C tiles share) between cores on every
//! item; chunks pay that once per `g` items. The grain leaves about
//! `CLAIMS_PER_THREAD` claims per participant, so a ragged batch (mixed
//! shapes) still balances: no one is stranded behind more than a small
//! share of the work.

use crate::capture;
use crate::config::GemmConfig;
use crate::driver::{gemm_serial, with_workspace, Workspace};
use crate::parallel::SendPtr;
use crate::plan::GemmPlan;
use crate::{pool, GemmElem};
use shalom_matrix::{reference, MatMut, MatRef, Op};

/// Claims each participant of a pooled batch makes on average: enough
/// that a ragged tail rebalances, few enough that a claim's `fetch_add`
/// is paid once per many items.
const CLAIMS_PER_THREAD: usize = 8;

/// Items per claim of an `n`-item batch on `threads` participants. Keeps
/// at least `min(n, threads)` claims, so a batch of `threads` items still
/// goes to the pool.
fn chunk_grain(n: usize, threads: usize) -> usize {
    (n / (threads * CLAIMS_PER_THREAD)).max(1)
}

/// One problem of a batch: borrowed operand views and the output view.
pub struct BatchItem<'a, T> {
    /// Left operand (stored shape per `op_a`).
    pub a: MatRef<'a, T>,
    /// Right operand (stored shape per `op_b`).
    pub b: MatRef<'a, T>,
    /// Output, `m x n`.
    pub c: MatMut<'a, T>,
}

/// Runs a batch of independent GEMMs, all sharing `(op_a, op_b, alpha,
/// beta)` (the BLAS "group" convention). Problems may differ in shape.
///
/// With `cfg.threads == 1` the batch runs serially; otherwise contiguous
/// chunks of items are a dynamic queue drained by the pool's workers
/// (each *item* stays single-threaded — the §7.4 discipline for small
/// GEMM).
///
/// # Panics
/// If any item's stored dimensions are inconsistent with its `C` and the
/// ops.
pub fn gemm_batch<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    alpha: T,
    items: &mut [BatchItem<'_, T>],
) {
    gemm_batch_beta(cfg, op_a, op_b, alpha, T::ONE, items)
}

/// [`gemm_batch`] with an explicit `beta`.
///
/// # Panics
/// As [`gemm_batch`].
pub fn gemm_batch_beta<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    alpha: T,
    beta: T,
    items: &mut [BatchItem<'_, T>],
) {
    // Validate everything up front so a worker never panics mid-batch.
    for it in items.iter() {
        let (m, n, k) = item_dims(op_a, it);
        reference::check_dims(op_a, op_b, m, n, k, &it.a, &it.b);
    }
    // The batch's one read of the capture state word picks the item
    // loop's instantiation.
    if capture::on() {
        return run_items_captured(cfg, op_a, op_b, alpha, beta, items);
    }
    run_items::<T, false>(cfg, op_a, op_b, alpha, beta, items);
}

/// `(m, n, k)` of one batch member.
fn item_dims<T: GemmElem>(op_a: Op, it: &BatchItem<'_, T>) -> (usize, usize, usize) {
    let k = match op_a {
        Op::NoTrans => it.a.cols(),
        Op::Trans => it.a.rows(),
    };
    (it.c.rows(), it.c.cols(), k)
}

/// [`run_items`] with a sink on. Outlined and cold, so the capture-off
/// path carries none of it.
#[cold]
#[inline(never)]
fn run_items_captured<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    alpha: T,
    beta: T,
    items: &mut [BatchItem<'_, T>],
) {
    run_items::<T, true>(cfg, op_a, op_b, alpha, beta, items);
}

/// The item loop of a validated batch, one instantiation per capture
/// state. With `CAPTURE` the batch is one `Batch` region (and one tick of
/// the batch counters) and every member a `BatchItem` region whose serial
/// record reads `Batch`; without it there is no capture code.
fn run_items<T: GemmElem, const CAPTURE: bool>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    alpha: T,
    beta: T,
    items: &mut [BatchItem<'_, T>],
) {
    let t = cfg.resolved_threads().max(1).min(items.len().max(1));
    let batch_tok = CAPTURE.then(|| capture::batch_begin(items.len()));
    let serial_cfg = GemmConfig { threads: 1, ..*cfg };
    // Batched small GEMM is usually shape-uniform (the CP2K / strided
    // convention): build ONE plan handle for the whole batch instead of
    // one per item. A ragged batch builds a handle per item.
    let shared: Option<GemmPlan<T>> = items.first().and_then(|first| {
        let dims = item_dims(op_a, first);
        items
            .iter()
            .all(|it| item_dims(op_a, it) == dims)
            .then(|| GemmPlan::new(&serial_cfg, op_a, op_b, dims.0, dims.1, dims.2))
    });
    // The serial path and every pooled chunk run this loop over a slice.
    let run_slice = |items: &mut [BatchItem<'_, T>], ws: &mut Workspace| {
        for it in items {
            let (m, n, k) = item_dims(op_a, it);
            // Also tags the thread, so the item's serial record reads
            // `Batch` even on the caller's thread.
            let item_tok = CAPTURE.then(|| capture::batch_item_begin(m, n, k));
            let own;
            let plan = match &shared {
                Some(plan) => plan,
                None => {
                    own = GemmPlan::new(&serial_cfg, op_a, op_b, m, n, k);
                    &own
                }
            };
            // SAFETY: SHALOM-D-DRIVER — each item's MatRef/MatMut views
            // cover their full footprints and check_dims validated every
            // shape above against the dimensions the plan was built for.
            unsafe {
                gemm_serial::<T, CAPTURE>(
                    plan,
                    alpha,
                    it.a.as_ptr(),
                    it.a.ld(),
                    it.b.as_ptr(),
                    it.b.ld(),
                    beta,
                    it.c.as_mut_ptr(),
                    it.c.ld(),
                    ws,
                )
            };
            if let Some(tok) = item_tok {
                capture::batch_item_end(tok);
            }
        }
    };
    if t <= 1 || pool::in_pool_context() {
        // A nested batch (issued from inside a pool task) also lands
        // here: republishing would deadlock on the pool's single call
        // slot.
        with_workspace(|ws| run_slice(items, ws));
    } else {
        // Dynamic queue of contiguous chunks: chunk `c` is items
        // `[c * grain, min((c + 1) * grain, n))`, one `fetch_add` each.
        let n_items = items.len();
        let grain = chunk_grain(n_items, t);
        let base = SendPtr(items.as_mut_ptr());
        let job = |c: usize, ws: &mut Workspace| {
            // Whole-struct rebind so the closure captures the Sync
            // wrapper, not its raw-pointer field (disjoint capture).
            #[allow(clippy::redundant_locals)]
            let base = base;
            let lo = c * grain;
            let len = grain.min(n_items - lo);
            // SAFETY: SHALOM-D-POOL — the pool hands each chunk index to
            // exactly one claimant and chunks are disjoint ranges inside
            // `items`, so this exclusive reborrow of one chunk never
            // aliases another (SHALOM-D-SEND: the base crosses threads).
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), len) };
            run_slice(chunk, ws);
        };
        pool::run(t, n_items.div_ceil(grain), &job);
    }
    if let Some(tok) = batch_tok {
        capture::end(tok);
    }
}

/// Strided batch over contiguous storage: `count` problems of identical
/// shape laid out at fixed element strides (the `cblas_gemm_batch_strided`
/// convention, convenient for tensor slices).
///
/// # Safety
/// `a`, `b`, `c` must be valid for `count` problems at the given strides:
/// problem `i` reads `a[i*stride_a ..]` as a stored-A of the implied
/// shape (and likewise `b`), and reads/writes `c[i*stride_c ..]` as
/// `m x n` with leading dimension `n`. The `c` regions must be disjoint.
#[allow(clippy::too_many_arguments)]
pub unsafe fn gemm_batch_strided<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: *const T,
    stride_a: usize,
    b: *const T,
    stride_b: usize,
    beta: T,
    c: *mut T,
    stride_c: usize,
    count: usize,
) {
    let (ar, ac) = match op_a {
        Op::NoTrans => (m, k),
        Op::Trans => (k, m),
    };
    let (br, bc) = match op_b {
        Op::NoTrans => (k, n),
        Op::Trans => (n, k),
    };
    let mut items: Vec<BatchItem<'_, T>> = (0..count)
        .map(|i| BatchItem {
            a: MatRef::from_raw_parts(a.add(i * stride_a), ar, ac, ac),
            b: MatRef::from_raw_parts(b.add(i * stride_b), br, bc, bc),
            c: MatMut::from_raw_parts(c.add(i * stride_c), m, n, n),
        })
        .collect();
    gemm_batch_beta(cfg, op_a, op_b, alpha, beta, &mut items);
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::{assert_close, gemm_tolerance, max_abs_diff, Matrix};

    type Problems = (Vec<Matrix<f32>>, Vec<Matrix<f32>>, Vec<Matrix<f32>>);

    fn make_problems(count: usize, dims: impl Fn(usize) -> (usize, usize, usize)) -> Problems {
        let mut aa = Vec::new();
        let mut bb = Vec::new();
        let mut cc = Vec::new();
        for i in 0..count {
            let (m, n, k) = dims(i);
            aa.push(Matrix::random(m, k, 300 + i as u64));
            bb.push(Matrix::random(k, n, 400 + i as u64));
            cc.push(Matrix::random(m, n, 500 + i as u64));
        }
        (aa, bb, cc)
    }

    fn run_and_check(
        cfg: &GemmConfig,
        count: usize,
        dims: impl Fn(usize) -> (usize, usize, usize),
    ) {
        let (aa, bb, mut cc) = make_problems(count, &dims);
        let want: Vec<Matrix<f32>> = cc
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut w = c.clone();
                reference::gemm(
                    Op::NoTrans,
                    Op::NoTrans,
                    2.0,
                    aa[i].as_ref(),
                    bb[i].as_ref(),
                    1.0,
                    w.as_mut(),
                );
                w
            })
            .collect();
        let mut items: Vec<BatchItem<'_, f32>> = aa
            .iter()
            .zip(&bb)
            .zip(&mut cc)
            .map(|((a, b), c)| BatchItem {
                a: a.as_ref(),
                b: b.as_ref(),
                c: c.as_mut(),
            })
            .collect();
        gemm_batch(cfg, Op::NoTrans, Op::NoTrans, 2.0, &mut items);
        drop(items);
        for (i, c) in cc.iter().enumerate() {
            let (_, _, k) = dims(i);
            assert_close(c.as_ref(), want[i].as_ref(), gemm_tolerance::<f32>(k, 4.0));
        }
    }

    #[test]
    fn uniform_batch_serial() {
        run_and_check(&GemmConfig::with_threads(1), 17, |_| (8, 8, 8));
    }

    #[test]
    fn uniform_batch_parallel() {
        run_and_check(&GemmConfig::with_threads(4), 17, |_| (23, 23, 23));
    }

    #[test]
    fn ragged_batch() {
        // Mixed shapes, including degenerate ones.
        run_and_check(&GemmConfig::with_threads(3), 12, |i| {
            [(5, 5, 5), (13, 5, 13), (1, 9, 4), (26, 26, 13)][i % 4]
        });
    }

    #[test]
    fn ragged_batch_in_multi_item_chunks() {
        // 61 items at 3 threads: a grain of 2, so every claim but the
        // last runs two items of different shapes back to back.
        assert_eq!(chunk_grain(61, 3), 2);
        run_and_check(&GemmConfig::with_threads(3), 61, |i| {
            [(5, 5, 5), (13, 5, 13), (1, 9, 4), (26, 26, 13), (8, 3, 6)][i % 5]
        });
    }

    #[test]
    fn grain_keeps_a_claim_per_participant() {
        for threads in 2..=8 {
            for n in 1..=2048 {
                let g = chunk_grain(n, threads);
                assert!(
                    n.div_ceil(g) >= n.min(threads),
                    "n={n} threads={threads} grain={g}"
                );
            }
        }
        assert_eq!(chunk_grain(4096, 2), 256);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut items: Vec<BatchItem<'_, f32>> = Vec::new();
        gemm_batch(
            &GemmConfig::with_threads(4),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            &mut items,
        );
    }

    #[test]
    fn parallel_batch_is_deterministic() {
        let dims = |_: usize| (13, 13, 13);
        let (aa, bb, cc0) = make_problems(20, dims);
        let mut c_serial = cc0.clone();
        let mut c_par = cc0;
        for (cfg, cs) in [
            (GemmConfig::with_threads(1), &mut c_serial),
            (GemmConfig::with_threads(5), &mut c_par),
        ] {
            let mut items: Vec<BatchItem<'_, f32>> = aa
                .iter()
                .zip(&bb)
                .zip(cs.iter_mut())
                .map(|((a, b), c)| BatchItem {
                    a: a.as_ref(),
                    b: b.as_ref(),
                    c: c.as_mut(),
                })
                .collect();
            gemm_batch(&cfg, Op::NoTrans, Op::NoTrans, 1.0, &mut items);
        }
        for (s, p) in c_serial.iter().zip(&c_par) {
            assert_eq!(max_abs_diff(s.as_ref(), p.as_ref()), 0.0);
        }
    }

    #[test]
    fn strided_batch_matches_itemized() {
        let (m, n, k, count) = (8usize, 8usize, 8usize, 9usize);
        let abuf = Matrix::<f32>::random(count * m, k, 7);
        let bbuf = Matrix::<f32>::random(count * k, n, 8);
        let mut cbuf1 = vec![0f32; count * m * n];
        let cfg = GemmConfig::with_threads(2);
        // SAFETY: abuf/bbuf/cbuf1 hold `count` dense (m, n, k) problems.
        unsafe {
            gemm_batch_strided::<f32>(
                &cfg,
                Op::NoTrans,
                Op::NoTrans,
                m,
                n,
                k,
                1.0,
                abuf.as_slice().as_ptr(),
                m * k,
                bbuf.as_slice().as_ptr(),
                k * n,
                0.0,
                cbuf1.as_mut_ptr(),
                m * n,
                count,
            );
        }
        // Check problem 3 against the oracle.
        let i = 3;
        let a = abuf.as_ref().submatrix(i * m, 0, m, k);
        let b = bbuf.as_ref().submatrix(i * k, 0, k, n);
        let mut want = Matrix::<f32>::zeros(m, n);
        reference::gemm(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, want.as_mut());
        let got = MatRef::from_slice(&cbuf1[i * m * n..(i + 1) * m * n], m, n, n);
        assert_close(got, want.as_ref(), gemm_tolerance::<f32>(k, 2.0));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn bad_item_dims_panic_before_any_work() {
        let a = Matrix::<f32>::zeros(4, 5);
        let b = Matrix::<f32>::zeros(6, 4); // wrong: needs 5 rows
        let mut c = Matrix::<f32>::zeros(4, 4);
        let mut items = vec![BatchItem {
            a: a.as_ref(),
            b: b.as_ref(),
            c: c.as_mut(),
        }];
        gemm_batch(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            &mut items,
        );
    }
}

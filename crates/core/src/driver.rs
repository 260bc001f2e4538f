//! The serial GEMM driver — paper Algorithm 1 with the exchanged loop
//! order (`jj -> ii -> kk`, §3.3) and the §4 packing decisions.
//!
//! This is the only blocked GEMM walk in the library. It is written
//! against a *kernel set* (`shalom_kernels::FamilyKernels`: the register
//! tile plus the full-tile kernel with and without Figure 4's B handling,
//! the edge, transposing-pack and — on the 128-bit set — NT-pack entry
//! points of one ISA level), which the call's [`GemmPlan`] carries along
//! with every other decision — so the 128-bit tiles and both AVX families
//! are instantiations of the same code, every mode, packing regime, edge
//! schedule and capture span applies at every vector width, and nothing
//! here looks anything up.
//!
//! One function per B-handling mode:
//!
//! * [`gemm_serial`] dispatches on the plan's `(op_a, op_b)`. A transposed A (TN/TT)
//!   is transpose-packed per `(ii, kk)` block into the workspace by the
//!   set's tiled, lane-transposing pack — after which the problem looks
//!   like NN/NT with a contiguous A block — the paper's "apply the NT/NN
//!   strategy to matrix A" (§4.3).
//! * NN-mode B handling implements the three §4.2 regimes: **no packing**
//!   when `size(B) <= L1`; **fused pack** (`t = 0`) where the first `mr`
//!   rows of each C panel are computed by the fused kernel that packs `Bc`
//!   as a side effect; and the **`t = 1` lookahead** for irregular shapes,
//!   double-buffering `Bc` so iteration `t` computes from the panel packed
//!   during iteration `t-1` while streaming panel `t+1` in.
//! * NT-mode B handling always packs (the transposed operand cannot be
//!   vector-loaded along N). A set with the inner-product panel (the
//!   128-bit one: Algorithm 3 at the width it was derived for) fuses the
//!   pack into it; every other set, and the ablation policies, run the
//!   same transposing pack on the `nr` stored rows of the panel — which
//!   also writes the panel's zero padding — and then compute every row
//!   from the packed buffer with the NN kernels.
//!
//! shalom-analysis: deny(panic)
//!
//! The whole driver is on the per-call critical path: no `unwrap`, no
//! `[]` indexing, no allocation outside [`Workspace::ensure`] — the
//! static-analysis passes (`crates/analysis`) enforce both.

use crate::capture;
use crate::config::{classify, GemmConfig, PackingPolicy, ShapeClass};
use crate::plan::GemmPlan;
use shalom_kernels::family::EdgeFn;
use shalom_kernels::main_kernel::PanelCopy;
use shalom_kernels::nt_pack::NT_ROWS;
use shalom_kernels::pack::pack_copy;
use shalom_kernels::{FamilyElem, FamilyKernels};
use shalom_matrix::{Op, Scalar};
use shalom_trace::BPlan;

/// Calls between decay-policy evaluations on a [`Workspace`].
const DECAY_WINDOW: u32 = 64;
/// A buffer shrinks when its retained length exceeds this multiple of
/// the window's high-water demand.
const DECAY_FACTOR: usize = 4;

/// Reusable per-thread scratch: the double-buffered `Bc` panel and the
/// transpose-packed A block for T modes. Backed by `u64` storage (8-byte
/// aligned, sufficient for `f32`/`f64`) so one instance serves both
/// precisions — a tiny GEMM must not pay a heap allocation per call.
///
/// Growth is amortized (grow-only within a decay window); a shrink
/// policy keeps one huge irregular call from pinning its high-water
/// capacity forever: every [`DECAY_WINDOW`] calls, a buffer whose
/// retained length exceeds [`DECAY_FACTOR`]`x` the window's high-water
/// demand is truncated back to that demand.
#[derive(Default)]
pub(crate) struct Workspace {
    bc: Vec<u64>,
    at: Vec<u64>,
    /// High-water `bc` demand (in words) in the current decay window.
    hw_bc: usize,
    /// High-water `at` demand (in words) in the current decay window.
    hw_at: usize,
    /// Calls observed in the current decay window.
    window_calls: u32,
}

fn decay_buf(buf: &mut Vec<u64>, hw_words: usize) {
    if buf.len() > DECAY_FACTOR * hw_words {
        buf.truncate(hw_words);
        buf.shrink_to_fit();
    }
}

impl Workspace {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Grows the buffers to hold the requested element counts and returns
    /// `(bc_ptr, at_ptr)`. Contents are uninitialized from the caller's
    /// perspective; every packing path fully writes before reading.
    fn ensure<T: Scalar>(&mut self, bc_elems: usize, at_elems: usize) -> (*mut T, *mut T) {
        let word = |elems: usize| (elems * core::mem::size_of::<T>()).div_ceil(8);
        let bw = word(bc_elems);
        let aw = word(at_elems);
        // Evaluate decay BEFORE deriving pointers: a shrink reallocates,
        // which would invalidate the pointers returned below.
        self.hw_bc = self.hw_bc.max(bw);
        self.hw_at = self.hw_at.max(aw);
        self.window_calls += 1;
        if self.window_calls >= DECAY_WINDOW {
            decay_buf(&mut self.bc, self.hw_bc);
            decay_buf(&mut self.at, self.hw_at);
            self.window_calls = 0;
            self.hw_bc = 0;
            self.hw_at = 0;
        }
        if self.bc.len() < bw {
            self.bc.resize(bw, 0);
        }
        if self.at.len() < aw {
            self.at.resize(aw, 0);
        }
        (
            self.bc.as_mut_ptr() as *mut T,
            self.at.as_mut_ptr() as *mut T,
        )
    }

    /// Pre-grows both scratch buffers to hold at least `bytes` bytes
    /// each, without counting toward the decay window (pool prewarm: a
    /// later burst of small calls may shrink them back — that is the
    /// decay policy working, not a prewarm failure).
    pub(crate) fn reserve_bytes(&mut self, bytes: usize) {
        let words = bytes.div_ceil(core::mem::size_of::<u64>());
        if self.bc.len() < words {
            self.bc.resize(words, 0);
        }
        if self.at.len() < words {
            self.at.resize(words, 0);
        }
    }

    /// Current retained capacity of the scratch buffers in bytes (the
    /// per-thread workspace high-water mark decision records report).
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.bc.len() + self.at.len()) * core::mem::size_of::<u64>()
    }
}

/// Runs a sequential-pack region. In the walk's `CAPTURE` instance it
/// is one capture region of the named phase (`PackA` / `PackB`): the
/// span, and the call's `pack_ns`; in the other it is the bare body.
macro_rules! pack_timed {
    ($capture:expr, $phase:ident, $body:expr) => {{
        if $capture {
            let __pack_tok = capture::begin(capture::Phase::$phase, 0);
            let __r = $body;
            capture::pack_end(__pack_tok);
            __r
        } else {
            $body
        }
    }};
}

thread_local! {
    /// Workspace for threads the pool does not own: the serial path and
    /// the calling thread when it participates in a pool drain. Pool
    /// workers instead *own* a [`Workspace`] that survives across calls
    /// (`pool.rs`) — a thread-local cannot outlive a scope-spawned
    /// thread, which is exactly the per-call realloc bug the pool fixes.
    pub(crate) static WORKSPACE: core::cell::RefCell<Workspace> =
        core::cell::RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's shared [`WORKSPACE`]. If it is already
/// borrowed — a nested GEMM issued from inside a pool drain on the
/// calling thread — falls back to a fresh scratch instance rather than
/// panicking on the `RefCell` double borrow.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut Workspace::new()),
    })
}

pub(crate) fn resolve_nn_plan(
    cfg: &GemmConfig,
    m: usize,
    n: usize,
    k: usize,
    elem_bytes: usize,
) -> BPlan {
    let b_bytes = k * n * elem_bytes;
    let shape = classify(m, n, k, elem_bytes, &cfg.cache);
    match cfg.packing {
        PackingPolicy::Never => BPlan::Direct,
        PackingPolicy::AlwaysSequential => BPlan::Sequential,
        PackingPolicy::AlwaysFused => {
            if shape == ShapeClass::Irregular {
                BPlan::FusedLookahead
            } else {
                BPlan::Fused
            }
        }
        PackingPolicy::Auto => {
            if b_bytes <= cfg.cache.l1 {
                BPlan::Direct
            } else if shape == ShapeClass::Irregular {
                BPlan::FusedLookahead
            } else {
                BPlan::Fused
            }
        }
    }
}

pub(crate) fn resolve_nt_plan<T>(cfg: &GemmConfig, ks: &FamilyKernels<T>) -> BPlan {
    // NT always packs (§4.3); only the fused-vs-sequential axis remains,
    // and only on a set that has the inner-product panel to fuse into.
    match cfg.packing {
        PackingPolicy::Auto | PackingPolicy::AlwaysFused if ks.nt_pack.is_some() => BPlan::Fused,
        _ => BPlan::Sequential,
    }
}

/// Single-threaded `C = alpha * op(A)*op(B) + beta * C` over raw pointers,
/// exactly as `plan` says: its ops and shape, kernel set, edge entry, §4
/// B-plan, §5.5 blocking and workspace demand.
///
/// One instantiation per capture state, chosen by the caller. With
/// `CAPTURE` the call is one `Serial` region, closed into its decision
/// record with the executed tile and the plan's source; each block is a
/// `Compute` region and each sequential pack a `PackA`/`PackB` one, all
/// runtime-gated on the state word. Without it there is no capture code.
///
/// # Safety
/// For the plan's `(op_a, op_b, m, n, k)`:
/// * `a` valid for reads of the stored A (`m x k` for N, `k x m` for T) at
///   stride `lda`; likewise `b` (`k x n` / `n x k`) at `ldb`;
/// * `c` valid for reads/writes of `m x n` at stride `ldc`;
/// * `c` does not alias `a` or `b`.
pub(crate) unsafe fn gemm_serial<T: FamilyElem, const CAPTURE: bool>(
    plan: &GemmPlan<T>,
    alpha: T,
    a: *const T,
    lda: usize,
    b: *const T,
    ldb: usize,
    beta: T,
    c: *mut T,
    ldc: usize,
    ws: &mut Workspace,
) {
    let (op_a, op_b, m, n, k) = (plan.op_a, plan.op_b, plan.m, plan.n, plan.k);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == T::ZERO {
        scale_c(m, n, beta, c, ldc);
        return;
    }
    let call = CAPTURE.then(|| capture::Call::begin(capture::Phase::Serial, plan));
    let (ks, edge, bs, b_plan) = (plan.ks, plan.edge_fn, plan.bs, plan.b_plan);
    let (bc_ptr, at_ptr) = ws.ensure::<T>(plan.bc_elems, plan.at_elems);
    // `Bc` is two panels (the t = 1 lookahead's double buffer).
    let bc_panel = plan.bc_elems / 2;

    // ALLOC-FREE: begin — after `ensure` above, the whole block walk runs
    // out of reused workspace; a stray allocation here is a per-call cost
    // the library exists to remove.
    // Loop L1 (parallelized at the outer level in the threaded driver).
    let mut jj = 0usize;
    while jj < n {
        let ncur = bs.nc.min(n - jj);
        // Loop L3 exchanged above L2 (§3.3): A walked contiguously.
        let mut ii = 0usize;
        while ii < m {
            let mcur = bs.mc.min(m - ii);
            let mut kk = 0usize;
            while kk < k {
                let kcur = bs.kc.min(k - kk);
                let beta_eff = if kk == 0 { beta } else { T::ONE };
                // Resolve the A block: direct for N, transpose-packed for T.
                let (a_blk, lda_blk): (*const T, usize) = match op_a {
                    Op::NoTrans => (a.add(ii * lda + kk), lda),
                    Op::Trans => {
                        pack_timed!(
                            CAPTURE,
                            PackA,
                            (ks.pack_transpose)(
                                a.add(kk * lda + ii),
                                lda,
                                kcur,
                                mcur,
                                at_ptr,
                                kcur,
                                0
                            )
                        );
                        (at_ptr as *const T, kcur)
                    }
                };
                let c_blk = c.add(ii * ldc + jj);
                let compute_tok = CAPTURE.then(|| {
                    capture::begin(capture::Phase::Compute, capture::shape(mcur, ncur, kcur))
                });
                match op_b {
                    Op::NoTrans => nn_block::<T, CAPTURE>(
                        ks,
                        edge,
                        b_plan,
                        mcur,
                        ncur,
                        kcur,
                        alpha,
                        a_blk,
                        lda_blk,
                        b.add(kk * ldb + jj),
                        ldb,
                        beta_eff,
                        c_blk,
                        ldc,
                        bc_ptr,
                        bc_panel,
                    ),
                    Op::Trans => nt_block::<T, CAPTURE>(
                        ks,
                        edge,
                        b_plan,
                        mcur,
                        ncur,
                        kcur,
                        alpha,
                        a_blk,
                        lda_blk,
                        b.add(jj * ldb + kk),
                        ldb,
                        beta_eff,
                        c_blk,
                        ldc,
                        bc_ptr,
                    ),
                }
                if let Some(tok) = compute_tok {
                    capture::end(tok);
                }
                kk += kcur;
            }
            ii += mcur;
        }
        jj += ncur;
    }
    // ALLOC-FREE: end

    if let Some(call) = call {
        capture::serial_end(call, plan, ws.capacity_bytes());
    }
}

/// `C = beta * C` over an `m x n` block.
///
/// # Safety
/// `c` must be valid for reads and writes of every row `i in 0..m` at
/// `c + i * ldc`, each `n` elements wide (the C sub-block of the
/// SHALOM-D-DRIVER operand contract).
// ALLOC-FREE
unsafe fn scale_c<T: Scalar>(m: usize, n: usize, beta: T, c: *mut T, ldc: usize) {
    if beta == T::ONE {
        return;
    }
    for i in 0..m {
        let row = c.add(i * ldc);
        if beta == T::ZERO {
            for j in 0..n {
                *row.add(j) = T::ZERO;
            }
        } else {
            for j in 0..n {
                *row.add(j) = beta * *row.add(j);
            }
        }
    }
}

/// Updates rows `i0..mcur` of one `nr`-wide C panel from a packed (or
/// direct) B panel using the set's main kernel on full `mr x nr` tiles
/// and its edge kernel on everything else.
///
/// # Safety
/// Inherits the SHALOM-D-DRIVER block contract: `a_blk` covers rows
/// `0..mcur` x `kcur` at stride `lda`, `bsrc` covers `kcur` rows of
/// `ncols` elements at stride `ldb`, and `c_panel` covers `mcur` rows
/// of `ncols` elements at stride `ldc`, with `ncols <= nr`. The edge
/// kernels' contract (SHALOM-K-EDGE) holds for every remainder it is
/// handed: `m <= mr`, `n <= nr`.
#[allow(clippy::too_many_arguments)]
// ALLOC-FREE
unsafe fn sweep_rows<T: FamilyElem>(
    ks: &FamilyKernels<T>,
    edge: EdgeFn<T>,
    i0: usize,
    mcur: usize,
    ncols: usize,
    kcur: usize,
    alpha: T,
    a_blk: *const T,
    lda: usize,
    bsrc: *const T,
    ldb: usize,
    beta_eff: T,
    c_panel: *mut T,
    ldc: usize,
) {
    let mr = ks.mr;
    let mut i = i0;
    if ncols == ks.nr {
        while i + mr <= mcur {
            (ks.kernel)(
                kcur,
                alpha,
                a_blk.add(i * lda),
                lda,
                bsrc,
                ldb,
                beta_eff,
                c_panel.add(i * ldc),
                ldc,
            );
            i += mr;
        }
    }
    while i < mcur {
        let mrem = mr.min(mcur - i);
        edge(
            mrem,
            ncols,
            kcur,
            alpha,
            a_blk.add(i * lda),
            lda,
            bsrc,
            ldb,
            beta_eff,
            c_panel.add(i * ldc),
            ldc,
        );
        i += mrem;
    }
}

/// One `(ii, kk)` block of the NN driver: the `j` loop over `nr`-wide
/// panels with the resolved B plan.
///
/// # Safety
/// Inherits the SHALOM-D-DRIVER block contract: `a_blk` covers
/// `mcur x kcur` at stride `lda`, `b_blk` covers `kcur x ncur` at
/// stride `ldb`, `c_blk` covers `mcur x ncur` at stride `ldc`, and
/// `bc` points to workspace for two packed panels of `bc_panel >=
/// kcur * nr` elements each (the double buffer for the t = 1 lookahead).
#[allow(clippy::too_many_arguments)]
// ALLOC-FREE
unsafe fn nn_block<T: FamilyElem, const CAPTURE: bool>(
    ks: &FamilyKernels<T>,
    edge: EdgeFn<T>,
    plan: BPlan,
    mcur: usize,
    ncur: usize,
    kcur: usize,
    alpha: T,
    a_blk: *const T,
    lda: usize,
    b_blk: *const T,
    ldb: usize,
    beta_eff: T,
    c_blk: *mut T,
    ldc: usize,
    bc: *mut T,
    bc_panel: usize,
) {
    let (mr, nr) = (ks.mr, ks.nr);
    let full_panels = ncur / nr;
    // Double buffer as a swapped pointer pair (no `[]` indexing on the
    // hot path): `cur_buf` feeds this iteration's compute, `next_buf`
    // receives the panel streamed ahead for the next one.
    let mut cur_buf = bc;
    let mut next_buf = bc.add(bc_panel);
    let mut have_packed = false;

    for p in 0..full_panels {
        let j = p * nr;
        let b_panel = b_blk.add(j);
        let c_panel = c_blk.add(j);
        let next_full = p + 1 < full_panels;
        // Where rows `i0..mcur` of this panel read B from, after the
        // plan's first pass (if any) has run.
        let (i0, bsrc, ld_src): (usize, *const T, usize) = match plan {
            BPlan::Direct => (0, b_panel, ldb),
            // The fused plans' first pass: the panel packs itself, or —
            // under the look-ahead, once its predecessor copied it — is
            // read packed; the look-ahead also copies the next panel.
            BPlan::Fused | BPlan::FusedLookahead if mcur >= mr => {
                let copy = (plan == BPlan::FusedLookahead && next_full).then_some(PanelCopy {
                    src: b_panel.add(nr),
                    src_ld: ldb,
                    dst: next_buf,
                });
                let (b_in, ld_in, pack) = if have_packed {
                    (cur_buf as *const T, nr, None)
                } else {
                    (b_panel, ldb, Some(cur_buf))
                };
                (ks.kernel_pack)(
                    kcur, alpha, a_blk, lda, b_in, ld_in, beta_eff, c_panel, ldc, pack, copy,
                );
                have_packed = copy.is_some();
                let packed = cur_buf;
                if have_packed {
                    core::mem::swap(&mut cur_buf, &mut next_buf);
                }
                (mr, packed, nr)
            }
            // Sequential — and the fused plans on a block shorter than
            // the `mr`-row tile their kernels ride on.
            _ => {
                pack_timed!(
                    CAPTURE,
                    PackB,
                    pack_copy(b_panel, ldb, kcur, nr, cur_buf, nr)
                );
                have_packed = false;
                (0, cur_buf, nr)
            }
        };
        sweep_rows(
            ks, edge, i0, mcur, nr, kcur, alpha, a_blk, lda, bsrc, ld_src, beta_eff, c_panel, ldc,
        );
    }
    // N edge: the final sub-`nr` panel, read directly from B (contiguous
    // within each row, so no packing benefit — §4.1 criterion ❶ holds).
    let ncols = ncur - full_panels * nr;
    if ncols > 0 {
        let j = full_panels * nr;
        sweep_rows(
            ks,
            edge,
            0,
            mcur,
            ncols,
            kcur,
            alpha,
            a_blk,
            lda,
            b_blk.add(j),
            ldb,
            beta_eff,
            c_blk.add(j),
            ldc,
        );
    }
}

/// One `(ii, kk)` block of the NT driver: B stored `N x K`; every panel is
/// packed — fused into Algorithm 3 where the plan says so and the set has
/// the panel, by the set's transposing pack otherwise.
///
/// # Safety
/// Inherits the SHALOM-D-DRIVER block contract with B transposed:
/// `a_blk` covers `mcur x kcur` at stride `lda`, `b_blk` covers `ncur`
/// stored rows of `kcur` elements at stride `ldb`, `c_blk` covers
/// `mcur x ncur` at stride `ldc`, and `bc` holds one `kc_max x nr`
/// packed panel.
#[allow(clippy::too_many_arguments)]
// ALLOC-FREE
unsafe fn nt_block<T: FamilyElem, const CAPTURE: bool>(
    ks: &FamilyKernels<T>,
    edge: EdgeFn<T>,
    plan: BPlan,
    mcur: usize,
    ncur: usize,
    kcur: usize,
    alpha: T,
    a_blk: *const T,
    lda: usize,
    b_blk: *const T, // stored rows jj.., k offset applied
    ldb: usize,
    beta_eff: T,
    c_blk: *mut T,
    ldc: usize,
    bc: *mut T,
) {
    let nr = ks.nr;
    let mut j = 0usize;
    while j < ncur {
        let ncols = nr.min(ncur - j);
        let b_panel = b_blk.add(j * ldb); // `ncols` stored rows of B
        let c_panel = c_blk.add(j);
        // Rows the pack pass already computed.
        let m0 = match (plan, ks.nt_pack) {
            (BPlan::Fused | BPlan::FusedLookahead, Some(nt_pack)) => {
                let m0 = NT_ROWS.min(mcur);
                nt_pack(
                    m0, ncols, kcur, nr, alpha, a_blk, lda, b_panel, ldb, beta_eff, c_panel, ldc,
                    bc,
                );
                m0
            }
            // Transpose-pack the panel (kcur x ncols, zero-padded to nr),
            // then compute every row from the packed buffer.
            _ => {
                pack_timed!(
                    CAPTURE,
                    PackB,
                    (ks.pack_transpose)(b_panel, ldb, ncols, kcur, bc, nr, nr - ncols)
                );
                0
            }
        };
        sweep_rows(
            ks, edge, m0, mcur, ncols, kcur, alpha, a_blk, lda, bc, nr, beta_eff, c_panel, ldc,
        );
        j += ncols;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EdgeSchedule, IsaPolicy};
    use shalom_kernels::registered_families;
    use shalom_matrix::{assert_close, gemm_tolerance, reference, Matrix};

    #[test]
    fn workspace_decays_after_burst() {
        let mut ws = Workspace::new();
        // One huge irregular call pins a large capacity...
        let _ = ws.ensure::<f32>(1 << 20, 1 << 20);
        let burst_bytes = ws.capacity_bytes();
        assert!(burst_bytes >= 2 * (1 << 20));
        // ...then two full windows of small steady demand. The first
        // window still contains the burst in its high-water mark; the
        // second is all-small, so its decay evaluation must shrink.
        for _ in 0..2 * DECAY_WINDOW {
            let _ = ws.ensure::<f32>(1024, 0);
        }
        let settled = ws.capacity_bytes();
        assert!(
            settled <= burst_bytes / DECAY_FACTOR,
            "capacity {settled} did not decay from burst {burst_bytes}"
        );
        // The unused `at` buffer decays all the way to empty.
        assert_eq!(ws.at.len(), 0);
        // And the retained bc still serves the steady demand growth-free.
        assert_eq!(ws.bc.len(), 1024 * 4 / 8);
    }

    #[test]
    fn workspace_steady_state_never_shrinks_below_demand() {
        let mut ws = Workspace::new();
        for _ in 0..4 * DECAY_WINDOW {
            let (bc, at) = ws.ensure::<f64>(512, 256);
            assert!(!bc.is_null() && !at.is_null());
            assert!(ws.bc.len() >= 512);
            assert!(ws.at.len() >= 256);
        }
    }

    #[test]
    fn reserve_bytes_does_not_advance_decay_window() {
        let mut ws = Workspace::new();
        ws.reserve_bytes(1 << 16);
        assert_eq!(ws.window_calls, 0);
        assert!(ws.capacity_bytes() >= 2 * (1 << 16));
    }

    /// One test case per registered kernel set and element type: a serial
    /// config forced to the set (so sub-tile shapes stay on it) and the
    /// set's `(mr, nr)`, which the tests scale their shapes by.
    struct SetCase {
        cfg: GemmConfig,
        mr: usize,
        nr: usize,
    }

    /// `(f32 case, f64 case)` for every family this host can execute,
    /// with a tiny L1 that forces the packing paths on small matrices.
    fn set_cases() -> Vec<(SetCase, SetCase)> {
        registered_families()
            .map(|fam| {
                let cfg = GemmConfig {
                    isa: IsaPolicy::Force(fam.isa),
                    cache: crate::cache::CacheParams {
                        l1: 256,
                        l2: 4 * 1024,
                        l3: 64 * 1024,
                    },
                    ..GemmConfig::with_threads(1)
                };
                let case = |mr, nr| SetCase { cfg, mr, nr };
                (
                    case(fam.k_f32.mr, fam.k_f32.nr),
                    case(fam.k_f64.mr, fam.k_f64.nr),
                )
            })
            .collect()
    }

    fn run<T: FamilyElem>(
        cfg: &GemmConfig,
        op_a: Op,
        op_b: Op,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
    ) {
        let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
        let (ar, ac) = match op_a {
            Op::NoTrans => (m, k),
            Op::Trans => (k, m),
        };
        let (br, bc_) = match op_b {
            Op::NoTrans => (k, n),
            Op::Trans => (n, k),
        };
        let a = Matrix::<T>::random(ar, ac, 61);
        let b = Matrix::<T>::random(br, bc_, 62);
        let mut c = Matrix::<T>::random(m, n, 63);
        let mut want = c.clone();
        reference::gemm(
            op_a,
            op_b,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            want.as_mut(),
        );
        let mut ws = Workspace::new();
        let plan = GemmPlan::<T>::new(cfg, op_a, op_b, m, n, k);
        // SAFETY: operands are owned Matrix buffers shaped for (op, m, n, k).
        unsafe {
            gemm_serial::<_, false>(
                &plan,
                alpha,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                beta,
                c.as_mut().as_mut_ptr(),
                c.ld(),
                &mut ws,
            );
        }
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<T>(k, 2.0));
    }

    /// Runs `f` once per registered set and element type.
    fn on_every_set(f: impl Fn(&SetCase, fn(&GemmConfig, Op, Op, usize, usize, usize, f64, f64))) {
        for (c32, c64) in set_cases() {
            f(&c32, run::<f32>);
            f(&c64, run::<f64>);
        }
    }

    const N: Op = Op::NoTrans;
    const T_: Op = Op::Trans;

    #[test]
    fn nn_direct_small() {
        on_every_set(|s, run| {
            let cfg = GemmConfig {
                cache: crate::cache::CacheParams::fallback(),
                ..s.cfg
            };
            run(&cfg, N, N, 3 * s.mr + 2, 2 * s.nr + 5, 17, 1.0, 1.0);
        });
    }

    #[test]
    fn nn_all_packing_plans() {
        on_every_set(|s, run| {
            for packing in [
                PackingPolicy::Auto,
                PackingPolicy::AlwaysFused,
                PackingPolicy::AlwaysSequential,
                PackingPolicy::Never,
            ] {
                let cfg = GemmConfig { packing, ..s.cfg };
                run(&cfg, N, N, 5 * s.mr + 5, 3 * s.nr + 4, 40, 1.0, 1.0);
            }
        });
    }

    #[test]
    fn nn_lookahead_path_irregular() {
        // Irregular shape (n >> m) with small L1 triggers FusedLookahead:
        // panel 0 packs itself and copies panel 1, every later panel reads
        // its packed copy and copies the next, at every set's tile.
        on_every_set(|s, run| {
            let m = 2 * s.mr + 2;
            assert_eq!(
                resolve_nn_plan(&s.cfg, m, 2048, 64, 4),
                BPlan::FusedLookahead
            );
            run(&s.cfg, N, N, m, 2048, 64, 1.0, 1.0);
        });
    }

    #[test]
    fn nt_fused_and_sequential() {
        on_every_set(|s, run| {
            for packing in [PackingPolicy::Auto, PackingPolicy::AlwaysSequential] {
                let cfg = GemmConfig { packing, ..s.cfg };
                run(&cfg, N, T_, 4 * s.mr + 5, 3 * s.nr + 9, 27, 1.0, 1.0);
            }
        });
    }

    #[test]
    fn tn_and_tt_modes() {
        on_every_set(|s, run| {
            run(&s.cfg, T_, N, 4 * s.mr + 3, 2 * s.nr + 2, 19, 1.0, 1.0);
            run(&s.cfg, T_, T_, 4 * s.mr + 3, 2 * s.nr + 2, 19, 1.0, 1.0);
        });
    }

    #[test]
    fn edge_heavy_shapes() {
        // Shapes deliberately around, not on, the set's tile: every edge
        // path, remainder rows and remainder columns.
        on_every_set(|s, run| {
            let (mr, nr) = (s.mr, s.nr);
            for (m, n, k) in [
                (1, 1, 1),
                (mr, nr, 4),
                (mr + 1, nr + 1, 5),
                (mr - 1, nr - 1, 3),
                (2 * mr + 1, 2 * nr + 1, 9),
            ] {
                run(&s.cfg, N, N, m, n, k, 1.0, 1.0);
                run(&s.cfg, N, T_, m, n, k, 1.0, 1.0);
            }
        });
    }

    #[test]
    fn alpha_beta_matrix_of_cases() {
        on_every_set(|s, run| {
            for (al, be) in [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (-1.5, 0.5)] {
                run(&s.cfg, N, N, 2 * s.mr + 6, 2 * s.nr + 6, 25, al, be);
                run(&s.cfg, N, T_, 2 * s.mr + 6, 2 * s.nr + 6, 25, al, be);
            }
        });
    }

    #[test]
    fn batched_edge_schedule_works_end_to_end() {
        on_every_set(|s, run| {
            let cfg = GemmConfig {
                edge: EdgeSchedule::Batched,
                ..s.cfg
            };
            run(&cfg, N, N, s.mr + 2, s.nr + 2, 11, 1.0, 1.0);
        });
    }

    #[test]
    fn multiple_cache_blocks() {
        // Force several (jj, ii, kk) iterations with the tiny cache.
        on_every_set(|s, run| {
            run(&s.cfg, N, N, 150, 170, 130, 1.0, 1.0);
            run(&s.cfg, N, T_, 150, 170, 130, 1.0, 1.0);
            run(&s.cfg, T_, N, 90, 110, 70, 1.0, 1.0);
        });
    }

    #[test]
    fn degenerate_dims() {
        on_every_set(|s, run| {
            run(&s.cfg, N, N, 0, 5, 3, 1.0, 1.0);
            run(&s.cfg, N, N, 5, 0, 3, 1.0, 1.0);
            run(&s.cfg, N, N, 5, 5, 0, 1.0, 0.5);
        });
    }

    #[test]
    fn fused_plan_with_fewer_rows_than_mr() {
        // B larger than the tiny L1 forces Fused, but mcur < mr takes the
        // pack-copy + edge-kernel fallback inside the fused branch.
        on_every_set(|s, run| {
            let m = s.mr - 2;
            assert_eq!(resolve_nn_plan(&s.cfg, m, 40, 40, 4), BPlan::Fused);
            run(&s.cfg, N, N, m, 40, 40, 1.0, 1.0);
        });
    }

    #[test]
    fn lookahead_plan_with_fewer_rows_than_mr() {
        // Irregular shape and m < mr: the double-buffered t=1 path must
        // fall back per panel without corrupting its buffer rotation —
        // also when only the last `ii` block is short.
        on_every_set(|s, run| {
            let m = s.mr - 2;
            assert_eq!(
                resolve_nn_plan(&s.cfg, m, 2048, 48, 4),
                BPlan::FusedLookahead
            );
            run(&s.cfg, N, N, m, 2048, 48, 1.0, 1.0);
            let bs = GemmPlan::<f32>::new(&s.cfg, N, N, 4096, 2048, 48).bs;
            run(&s.cfg, N, N, bs.mc + m, 2048, 48, 1.0, 1.0);
        });
    }

    #[test]
    fn nan_in_a_propagates_not_hides() {
        // A library must not mask non-finite inputs: a NaN in A must
        // reach every C element its row influences, and no other.
        for (s, _) in set_cases() {
            let (m, n) = (s.mr + 3, s.nr + 2);
            let mut a = Matrix::<f32>::random(m, 6, 1);
            a.set(3, 2, f32::NAN);
            let b = Matrix::<f32>::random(6, n, 2);
            let mut c = Matrix::<f32>::zeros(m, n);
            let mut ws = Workspace::new();
            let plan = GemmPlan::<f32>::new(&s.cfg, N, N, m, n, 6);
            // SAFETY: a (m x 6), b (6 x n) and c (m x n) are owned matrices.
            unsafe {
                gemm_serial::<_, false>(
                    &plan,
                    1.0,
                    a.as_slice().as_ptr(),
                    a.ld(),
                    b.as_slice().as_ptr(),
                    b.ld(),
                    0.0,
                    c.as_mut().as_mut_ptr(),
                    c.ld(),
                    &mut ws,
                );
            }
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(c.at(i, j).is_nan(), i == 3, "({i},{j}) at mr {}", s.mr);
                }
            }
        }
    }

    #[test]
    fn huge_leading_dimensions() {
        // ld far larger than cols (views into wide parent buffers).
        for (s, _) in set_cases() {
            let (m, n) = (s.mr + 2, s.nr + 1);
            let a = Matrix::<f32>::random_with_ld(m, 11, 300, 4);
            let b = Matrix::<f32>::random_with_ld(11, n, 257, 5);
            let mut c = Matrix::<f32>::random_with_ld(m, n, 301, 6);
            let mut want = c.clone();
            reference::gemm(N, N, 1.0, a.as_ref(), b.as_ref(), 1.0, want.as_mut());
            let mut ws = Workspace::new();
            let plan = GemmPlan::<f32>::new(&s.cfg, N, N, m, n, 11);
            // SAFETY: matrices allocated with oversized leading dimensions.
            unsafe {
                gemm_serial::<_, false>(
                    &plan,
                    1.0,
                    a.as_slice().as_ptr(),
                    a.ld(),
                    b.as_slice().as_ptr(),
                    b.ld(),
                    1.0,
                    c.as_mut().as_mut_ptr(),
                    c.ld(),
                    &mut ws,
                );
            }
            assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f32>(11, 2.0));
        }
    }
}

//! Persistent fork-join worker pool.
//!
//! The paper's premise (§3.1, §7.4) is that fixed per-call overheads
//! dominate small and irregular GEMM — which makes spawning `Tm x Tn`
//! fresh OS threads per call (the previous `std::thread::scope` design)
//! exactly the wrong runtime. This module keeps one process-lifetime set
//! of workers parked on a condvar; a parallel or batched call *publishes*
//! a job, the workers wake, drain a shared atomic task counter, and park
//! again. Two properties matter for GEMM:
//!
//! * **Workspace reuse.** Every worker *owns* a [`Workspace`] that
//!   survives across calls, so the `Bc`/`At` scratch is heap-allocated
//!   once (or by [`prewarm`]) instead of per call — the workspace-reuse
//!   bug the thread-local-only design had, since a scope-spawned thread's
//!   thread-local dies with it.
//! * **Dynamic load balance.** Tasks are claimed with one `fetch_add`
//!   each, so ragged work is balanced by construction, unlike a static
//!   split. A task is whatever the caller makes it: one §6 tile, or one
//!   contiguous chunk of a §7.4 batch's items (`batch.rs` sizes the
//!   chunks so the claim cost is paid once per many small items).
//!
//! ## Wake protocol
//!
//! One mutex guards the pool state; `work_cv` wakes parked workers,
//! `done_cv` doubles as the completion signal and the queue for
//! concurrent publishers. A publisher (a) waits until no call is in
//! flight, (b) resets the task counter and bumps the epoch, (c) sets
//! `active` to the worker count and stores the job pointer, (d) notifies
//! `work_cv`, then participates in the drain itself. Every alive worker
//! joins every epoch (even if only to find the counter exhausted),
//! reserves the call's workspace size, drains, and decrements `active`;
//! the publisher returns when `active == 0`, which is what makes the
//! lifetime erasure of the job pointer sound. Completion therefore
//! depends only on the workers that exist, never on the participant
//! count the caller asked for. Pool resizing happens at publish time:
//! growth spawns workers lazily, shrink bumps an anonymous `retire`
//! count that any waking worker may consume by exiting *instead of*
//! joining. Retirement is deliberately not tied to worker identity:
//! exits happen lazily on wake, so an id-based rule would let the alive
//! set drift out of sync with the participant arithmetic (`active`) and
//! deadlock the publisher.
//!
//! Calls from *inside* a pool worker (nested GEMM) must not republish —
//! that would deadlock on the single call slot. [`in_pool_context`]
//! flags pool threads (and the publisher while it participates); callers
//! fall back to their serial paths.
//!
//! shalom-analysis: deny(panic)
//!
//! Worker dispatch is on the per-call path; the one deliberate panic (worker-poison propagation) is PANIC-OK-tagged below.

use crate::capture;
use crate::driver::{with_workspace, Workspace};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// The shape every pool job takes: called once per claimed task index
/// with the claiming thread's workspace.
type Job = dyn Fn(usize, &mut Workspace) + Sync;

/// Lifetime-erased job pointer stored in the shared call slot.
#[derive(Clone, Copy)]
struct JobPtr(*const Job);
// SAFETY: SHALOM-D-POOL — the pointer crosses threads only inside a
// published call, and `publish` does not return (or unwind) until every
// worker counted in `active` has finished dereferencing it.
unsafe impl Send for JobPtr {}

/// One published fork-join call.
#[derive(Clone, Copy)]
struct CallSlot {
    job: JobPtr,
    tasks: usize,
    /// Scratch bytes every participant reserves in its workspace on
    /// joining ([`prewarm`]'s request; 0 for a plain call).
    reserve: usize,
    epoch: u64,
}

struct PoolState {
    /// Monotone call counter; workers use it to join each call once.
    epoch: u64,
    /// The in-flight call, if any. Doubles as the publisher queue lock:
    /// a new publisher waits on `done_cv` while this is `Some`.
    call: Option<CallSlot>,
    /// Pending retirements: each unit is consumed by one waking worker,
    /// which exits instead of joining the call (see module docs on why
    /// retirement must be anonymous rather than id-based).
    retire: usize,
    /// Workers currently alive (spawned and not yet exited), including
    /// those that still owe a pending retirement.
    spawned: usize,
    /// Workers that still owe a decrement for the in-flight call.
    active: usize,
    /// A worker panicked while draining the in-flight call.
    panicked: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Wakes parked workers when a call is published (a shrink's
    /// pending retirements ride along on the same wake).
    work_cv: Condvar,
    /// Signals call completion; also queues concurrent publishers.
    done_cv: Condvar,
    /// Next unclaimed task index of the in-flight call.
    next_task: AtomicUsize,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            state: Mutex::new(PoolState {
                epoch: 0,
                call: None,
                retire: 0,
                spawned: 0,
                active: 0,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next_task: AtomicUsize::new(0),
        }
    }
}

/// The process-lifetime pool every GEMM entry point publishes to.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

thread_local! {
    /// True on pool worker threads, and on a publisher thread while it
    /// participates in its own call's drain.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is executing inside a pool call. Nested
/// GEMM entry points check this and fall back to their serial paths: a
/// republish from inside a call would deadlock on the single call slot.
pub(crate) fn in_pool_context() -> bool {
    IN_POOL.with(|f| f.get())
}

/// RAII flag for the publisher's own participation in the drain.
struct InPoolGuard {
    prev: bool,
}

impl InPoolGuard {
    fn enter() -> Self {
        let prev = IN_POOL.with(|f| f.replace(true));
        InPoolGuard { prev }
    }
}

impl Drop for InPoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|f| f.set(prev));
    }
}

fn lock_state(p: &'static Pool) -> std::sync::MutexGuard<'static, PoolState> {
    // A poisoned pool mutex means a worker panicked *while holding the
    // lock*, which the protocol never does (jobs run outside it); if it
    // happens anyway, the state transitions are all valid, so continue.
    match p.state.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn worker_main(p: &'static Pool) {
    IN_POOL.with(|f| f.set(true));
    let mut ws = Workspace::new();
    let mut seen_epoch = 0u64;
    loop {
        let call = {
            let mut st = lock_state(p);
            // A park span opens lazily on the first actual wait, so a
            // worker that finds work immediately records nothing.
            let mut park_tok = capture::Span::inert();
            loop {
                // Retirement is checked before joining a call, so a
                // publish that shrank the pool counts exactly
                // `spawned - retire` participants into `active`.
                if st.retire > 0 {
                    st.retire -= 1;
                    st.spawned -= 1;
                    capture::end(park_tok);
                    return;
                }
                match st.call {
                    Some(c) if c.epoch != seen_epoch => {
                        capture::end(park_tok);
                        break c;
                    }
                    _ => {
                        if park_tok.is_inert() {
                            park_tok = capture::begin(capture::Phase::Park, 0);
                        }
                        st = match p.work_cv.wait(st) {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        }
                    }
                }
            }
        };
        seen_epoch = call.epoch;
        let res = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: SHALOM-D-POOL — the publisher keeps the closure
            // alive (blocked in `publish`) until this worker decrements
            // `active` below, so the erased borrow is still live here.
            let job = unsafe { &*call.job.0 };
            ws.reserve_bytes(call.reserve);
            drain(p, job, call.tasks, &mut ws);
        }));
        let mut st = lock_state(p);
        if res.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            p.done_cv.notify_all();
        }
    }
}

/// Claims and runs tasks until the shared counter is exhausted. Relaxed
/// RMWs suffice: each index is handed out exactly once by `fetch_add`,
/// and all data the job touches is ordered by the state mutex (reset and
/// publish happen before any worker observes the call).
fn drain(p: &Pool, job: &(dyn Fn(usize, &mut Workspace) + Sync), tasks: usize, ws: &mut Workspace) {
    loop {
        // ORDERING(SHALOM-O-POOL-TASK): Relaxed RMW — `fetch_add` hands each index
        // out exactly once; the state mutex publishes the job before workers run.
        let i = p.next_task.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            return;
        }
        job(i, ws);
    }
}

/// Runs `job(0..tasks)` across `threads` participants: this thread plus
/// `threads - 1` persistent workers, all pulling indices from one shared
/// counter. Blocks until every task has run *and* every worker has
/// detached from the job.
///
/// Falls back to running everything inline when `threads <= 1`, when
/// there is at most one task, or when already inside a pool call.
///
/// # Panics
/// Propagates a panic from the job (on this thread via `resume_unwind`;
/// worker panics surface as a new panic after the call completes).
pub(crate) fn run(threads: usize, tasks: usize, job: &(dyn Fn(usize, &mut Workspace) + Sync)) {
    run_on(pool(), threads, tasks, job);
}

/// [`run`] on the pool `p`.
fn run_on(
    p: &'static Pool,
    threads: usize,
    tasks: usize,
    job: &(dyn Fn(usize, &mut Workspace) + Sync),
) {
    if threads <= 1 || tasks <= 1 || in_pool_context() {
        with_workspace(|ws| {
            for i in 0..tasks {
                job(i, ws);
            }
        });
        return;
    }
    publish(p, threads, tasks, 0, job);
}

/// Publishes `job(0..tasks)` on `p` to `threads - 1` workers, drains it
/// alongside them and waits for every worker to detach. Every
/// participant first reserves `reserve` workspace bytes.
fn publish(
    p: &'static Pool,
    threads: usize,
    tasks: usize,
    reserve: usize,
    job: &(dyn Fn(usize, &mut Workspace) + Sync),
) {
    // The dispatch region covers slot claim + publish + wake — the
    // latency paid before this thread starts computing (any queue wait
    // shows up nested inside it); aux carries the task count.
    let dispatch_tok = capture::begin(capture::Phase::Dispatch, tasks as u64);

    let desired = threads - 1;
    // SAFETY: SHALOM-D-POOL — `job` outlives this function body, and the
    // completion wait below guarantees no worker holds the erased
    // reference past the `active == 0` transition, which happens before
    // `publish` returns or unwinds.
    let job_ptr = JobPtr(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize, &mut Workspace) + Sync + '_), *const Job>(job)
    });

    let epoch;
    {
        let mut st = lock_state(p);
        let mut queue_tok = capture::Span::inert();
        while st.call.is_some() {
            if queue_tok.is_inert() {
                queue_tok = capture::begin(capture::Phase::QueueWait, 0);
            }
            st = match p.done_cv.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        capture::end(queue_tok);
        // Resize toward `desired` alive workers. Growth cancels pending
        // retirements before spawning; shrink adds to them. Either way
        // `spawned - retire` is the exact participant count afterwards.
        let alive = st.spawned - st.retire;
        if alive < desired {
            let mut need = desired - alive;
            let cancel = need.min(st.retire);
            st.retire -= cancel;
            need -= cancel;
            for _ in 0..need {
                if !spawn_worker(p) {
                    break; // proceed with fewer workers
                }
                st.spawned += 1;
            }
        } else {
            st.retire += alive - desired;
        }
        // ORDERING(SHALOM-O-POOL-TASK): Relaxed reset is ordered by the state
        // mutex held here — workers only observe it after the epoch publish.
        p.next_task.store(0, Ordering::Relaxed);
        st.epoch += 1;
        epoch = st.epoch;
        st.active = st.spawned - st.retire;
        st.panicked = false;
        st.call = Some(CallSlot {
            job: job_ptr,
            tasks,
            reserve,
            epoch,
        });
    }
    p.work_cv.notify_all();
    capture::dispatch_end(dispatch_tok);

    // Participate in the drain on this thread's workspace. Panics are
    // deferred: workers borrow the caller's stack through the job, so we
    // must wait for them even while unwinding.
    let caller_res = catch_unwind(AssertUnwindSafe(|| {
        let _guard = InPoolGuard::enter();
        with_workspace(|ws| {
            ws.reserve_bytes(reserve);
            drain(p, job, tasks, ws);
        });
    }));

    let worker_panicked;
    {
        let mut st = lock_state(p);
        // The join barrier is recorded even when workers already
        // finished (a ~0 ns span), so pooled timelines always show the
        // publish/compute/join structure.
        let barrier_tok = capture::begin(capture::Phase::Barrier, 0);
        while st.active > 0 {
            st = match p.done_cv.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        capture::end(barrier_tok);
        worker_panicked = st.panicked;
        st.call = None;
    }
    // Free the call slot for queued publishers.
    p.done_cv.notify_all();

    if let Err(payload) = caller_res {
        resume_unwind(payload);
    }
    if worker_panicked {
        // PANIC-OK: deliberate propagation — a worker died mid-task, so C
        // holds partial output; surfacing a caller panic is the only
        // honest outcome (mirrors std::thread::scope semantics).
        panic!("a pool worker panicked while running a GEMM task");
    }
}

/// Spins the pool up to `threads` participants and pre-sizes every
/// participant's workspace scratch buffers to at least `workspace_bytes`
/// bytes each, so the steady-state parallel path performs no heap
/// allocation at all (the §3.1 amortization argument, made testable).
///
/// Publishes a call with no tasks whose slot carries the size. Every
/// participant reserves the slot's size on joining — the caller as it
/// starts its drain, each worker as it wakes — and every alive worker
/// joins every call, so all of them have grown their workspaces, in
/// parallel, when this returns; also when a spawn failed and the pool
/// came up short of `threads`. Idempotent; cheap when the pool is
/// already warm.
pub fn prewarm(threads: usize, workspace_bytes: usize) {
    prewarm_on(pool(), threads, workspace_bytes);
}

/// [`prewarm`] on the pool `p`.
fn prewarm_on(p: &'static Pool, threads: usize, workspace_bytes: usize) {
    if threads <= 1 || in_pool_context() {
        with_workspace(|ws| ws.reserve_bytes(workspace_bytes));
        return;
    }
    publish(p, threads, 0, workspace_bytes, &|_, _| {});
}

/// Starts one worker thread serving `p`; false if the OS refused.
fn spawn_worker(p: &'static Pool) -> bool {
    #[cfg(test)]
    if !tests::spawn_allowed() {
        return false;
    }
    static NEXT_NAME: AtomicUsize = AtomicUsize::new(0);
    // ORDERING(SHALOM-O-POOL-NAME): Relaxed unique-id tick for the
    // thread name; nothing is published through it.
    let name = NEXT_NAME.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(format!("shalom-pool-{name}"))
        .spawn(move || worker_main(p))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    thread_local! {
        /// Worker spawns this thread's publishes may still make before
        /// `spawn_worker` reports an OS refusal.
        static SPAWN_BUDGET: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// Consumes one unit of this thread's spawn budget, if any is left.
    pub(super) fn spawn_allowed() -> bool {
        SPAWN_BUDGET.with(|b| {
            let left = b.get();
            b.set(left.saturating_sub(1));
            left > 0
        })
    }

    #[test]
    fn runs_every_task_exactly_once() {
        for (threads, tasks) in [(2, 8), (4, 4), (4, 1), (1, 5), (3, 100)] {
            let hits: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
            let job = |i: usize, _ws: &mut Workspace| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            };
            run(threads, tasks, &job);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} threads={threads}");
            }
        }
    }

    #[test]
    fn oversubscribed_pool_more_threads_than_tasks() {
        // 8 participants, 3 tasks: five must find the counter exhausted
        // and still hand control back without hanging.
        let hits: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        let job = |i: usize, _ws: &mut Workspace| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        run(8, 3, &job);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn resize_up_and_down_across_calls() {
        for threads in [2usize, 4, 3, 8, 2] {
            let total = AtomicU64::new(0);
            let job = |_i: usize, _ws: &mut Workspace| {
                total.fetch_add(1, Ordering::Relaxed);
            };
            run(threads, 16, &job);
            assert_eq!(total.load(Ordering::Relaxed), 16, "threads={threads}");
        }
    }

    #[test]
    fn rapid_resize_churn_never_wedges() {
        // Regression for an id-based retirement bug: exits happen lazily
        // on wake, so after a shrink the alive set could be e.g. {0, 2}
        // while a later publish counted workers by id < target — worker
        // 2 then exited instead of joining and `active` never reached
        // zero. Hammer shrink/grow transitions with work between them so
        // lazy exits interleave with publishes in many orders.
        for round in 0..200 {
            let threads = [2usize, 5, 3, 7, 2, 4][round % 6];
            let total = AtomicU64::new(0);
            let job = |_i: usize, _ws: &mut Workspace| {
                total.fetch_add(1, Ordering::Relaxed);
            };
            run(threads, threads + 1, &job);
            assert_eq!(
                total.load(Ordering::Relaxed),
                threads as u64 + 1,
                "round={round} threads={threads}"
            );
        }
    }

    #[test]
    fn nested_run_falls_back_inline_without_deadlock() {
        // A task that itself calls `run` must execute the inner tasks
        // inline (in_pool_context) rather than republishing.
        let inner_total = AtomicU64::new(0);
        let outer = |_i: usize, _ws: &mut Workspace| {
            let inner = |_j: usize, _ws2: &mut Workspace| {
                inner_total.fetch_add(1, Ordering::Relaxed);
            };
            assert!(in_pool_context());
            run(4, 5, &inner);
        };
        run(3, 4, &outer);
        assert_eq!(inner_total.load(Ordering::Relaxed), 4 * 5);
        assert!(!in_pool_context());
    }

    #[test]
    fn nested_gemm_inside_pool_worker_is_serial_and_correct() {
        use shalom_matrix::{max_abs_diff, Matrix};
        let a = Matrix::<f32>::random(24, 24, 11);
        let b = Matrix::<f32>::random(24, 24, 12);
        let mut want = Matrix::<f32>::zeros(24, 24);
        crate::gemm_with(
            &crate::GemmConfig::with_threads(1),
            crate::Op::NoTrans,
            crate::Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            want.as_mut(),
        );
        let mut cs: Vec<Matrix<f32>> = (0..4).map(|_| Matrix::zeros(24, 24)).collect();
        {
            let slots: Vec<Mutex<&mut Matrix<f32>>> = cs.iter_mut().map(Mutex::new).collect();
            // Each task runs a *multi-threaded* gemm_with from inside a
            // pool worker; it must fall back to serial, not deadlock.
            let job = |i: usize, _ws: &mut Workspace| {
                let mut c = slots[i].lock().unwrap();
                crate::gemm_with(
                    &crate::GemmConfig::with_threads(4),
                    crate::Op::NoTrans,
                    crate::Op::NoTrans,
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    0.0,
                    c.as_mut(),
                );
            };
            run(3, slots.len(), &job);
        }
        for c in &cs {
            assert_eq!(max_abs_diff(c.as_ref(), want.as_ref()), 0.0);
        }
    }

    #[test]
    fn prewarm_is_idempotent_and_sizes_caller_workspace() {
        prewarm(4, 1 << 16);
        prewarm(4, 1 << 16);
        // The caller's thread-local workspace was part of the warm set.
        with_workspace(|ws| assert!(ws.capacity_bytes() >= 2 * (1 << 16)));
    }

    #[test]
    fn prewarm_and_run_complete_on_a_short_pool() {
        // A private pool whose publisher may spawn one worker: prewarm
        // asks for four participants and gets two. Run on a helper
        // thread, so a hang fails the test instead of wedging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let p: &'static Pool = Box::leak(Box::new(Pool::new()));
            SPAWN_BUDGET.with(|b| b.set(1));
            prewarm_on(p, 4, 1 << 12);
            let spawned = lock_state(p).spawned;
            let hits: Vec<AtomicU64> = (0..9).map(|_| AtomicU64::new(0)).collect();
            let job = |i: usize, _ws: &mut Workspace| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            };
            run_on(p, 4, hits.len(), &job);
            let counts: Vec<u64> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
            let _ = tx.send((spawned, counts));
        });
        let (spawned, counts) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("prewarm or run on a short pool did not return");
        helper.join().expect("the publisher thread panicked");
        assert_eq!(spawned, 1);
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn worker_panic_propagates_after_completion() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            let job = |i: usize, _ws: &mut Workspace| {
                if i == 3 {
                    panic!("boom");
                }
            };
            run(4, 8, &job);
        }));
        assert!(res.is_err());
        // The pool must still be usable afterwards.
        let total = AtomicU64::new(0);
        let job = |_i: usize, _ws: &mut Workspace| {
            total.fetch_add(1, Ordering::Relaxed);
        };
        run(4, 8, &job);
        assert_eq!(total.load(Ordering::Relaxed), 8);
    }
}

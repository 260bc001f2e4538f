//! The bounded, bucketed request queue.
//!
//! Requests are type-erased into [`QueuedItem`]s and grouped into
//! [`Bucket`]s keyed by [`BucketKey`] — the serial [`PlanKey`] the
//! dispatch would resolve under plus the `alpha`/`beta` bit patterns.
//! Everything in one bucket is legal to hand to a single
//! `gemm_batch` call and resolves to the *same plan*, which is
//! where batching recovers its overhead: one scheduler wake, one plan
//! resolution and one batch-entry validation per flush instead of per
//! request.
//!
//! shalom-analysis: deny(panic)

use crate::completion::{lock_ignore_poison, CompletionCell, ScopeState};
use crate::error::ServiceError;
use crate::request::{GemmRequest, ServiceElem};
use crate::stats::ServiceStats;
use shalom_core::{request_plan_key, GemmConfig, Op, PlanKey};
use shalom_trace::{now_ns, shape_key, span_end, span_start, Phase};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Row/col/leading-dimension triple of one erased operand view.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ViewDims {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) ld: usize,
}

/// A type-erased, admission-stamped request waiting in a bucket.
pub(crate) struct QueuedItem {
    pub(crate) a_ptr: *const (),
    pub(crate) a: ViewDims,
    pub(crate) b_ptr: *const (),
    pub(crate) b: ViewDims,
    pub(crate) c_ptr: *mut (),
    pub(crate) c: ViewDims,
    /// Admission timestamp (`shalom_trace::now_ns` clock).
    pub(crate) enqueue_ns: u64,
    /// Deadline on the same clock; `u64::MAX` = none, `0` = already
    /// expired at submission (deterministic expiry for past instants).
    pub(crate) deadline_ns: u64,
    pub(crate) cell: Arc<CompletionCell>,
    pub(crate) scope: Option<Arc<ScopeState>>,
}

// SAFETY: the raw operand pointers travel to the scheduler thread. The
// submitter guarantees the pointees outlive the request (the scope API
// pins `'env` borrows until `wait_zero`; `submit_wait` blocks in-place),
// and exclusive access to `c` transfers wholesale: the submitter does
// not touch it again until the completion cell publishes.
unsafe impl Send for QueuedItem {}

/// What coalesces: the serial plan identity plus scaling bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BucketKey {
    pub(crate) plan: PlanKey,
    pub(crate) alpha_bits: u64,
    pub(crate) beta_bits: u64,
}

/// One coalescing group plus the timer state its flush decisions need.
pub(crate) struct Bucket {
    pub(crate) key: BucketKey,
    pub(crate) cfg: GemmConfig,
    pub(crate) op_a: Op,
    pub(crate) op_b: Op,
    pub(crate) items: Vec<QueuedItem>,
    /// `enqueue_ns` of the oldest member (linger timer origin).
    pub(crate) oldest_ns: u64,
    /// Earliest member deadline; `u64::MAX` when none.
    pub(crate) nearest_deadline_ns: u64,
}

impl Bucket {
    fn new(key: BucketKey, cfg: GemmConfig, op_a: Op, op_b: Op, capacity: usize) -> Self {
        Bucket {
            key,
            cfg,
            op_a,
            op_b,
            items: Vec::with_capacity(capacity),
            oldest_ns: 0,
            nearest_deadline_ns: u64::MAX,
        }
    }

    fn push(&mut self, item: QueuedItem) {
        if self.items.is_empty() {
            self.oldest_ns = item.enqueue_ns;
        }
        self.nearest_deadline_ns = self.nearest_deadline_ns.min(item.deadline_ns);
        self.items.push(item);
    }

    /// Earliest instant a timer (linger or deadline slack) makes this
    /// bucket flush-ready.
    pub(crate) fn trigger_ns(&self, linger_ns: u64, slack_ns: u64) -> u64 {
        let linger_at = self.oldest_ns.saturating_add(linger_ns);
        let deadline_at = self.nearest_deadline_ns.saturating_sub(slack_ns);
        linger_at.min(deadline_at)
    }
}

/// Flush/admission policy, precomputed to nanoseconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    pub(crate) queue_capacity: usize,
    pub(crate) max_batch: usize,
    pub(crate) linger_ns: u64,
    pub(crate) slack_ns: u64,
}

/// Mutex-guarded queue state.
pub(crate) struct Inner {
    pub(crate) buckets: HashMap<BucketKey, Bucket>,
    /// Total queued items across buckets (bounded by `queue_capacity`).
    pub(crate) total: usize,
    pub(crate) shutdown: bool,
}

/// Everything the submitters and the scheduler thread share.
pub(crate) struct Shared {
    pub(crate) policy: Policy,
    pub(crate) inner: Mutex<Inner>,
    /// Scheduler wake signal (new bucket / full bucket / new earliest
    /// deadline / shutdown).
    pub(crate) work: Condvar,
    /// Queue-space signal for blocked submitters (flush / shutdown).
    pub(crate) space: Condvar,
    pub(crate) stats: ServiceStats,
}

impl Shared {
    pub(crate) fn new(policy: Policy) -> Self {
        Shared {
            policy,
            inner: Mutex::new(Inner {
                buckets: HashMap::new(),
                total: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            stats: ServiceStats::default(),
        }
    }
}

/// How a submission behaves when the queue is at capacity.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Admission {
    /// Fail immediately with [`ServiceError::QueueFull`].
    NonBlocking,
    /// Wait for space, up to the given absolute instant (forever when
    /// `None`); [`ServiceError::Timeout`] past it.
    Block(Option<Instant>),
}

/// Validate, stamp, admit and bucket one request.
///
/// On success the request's views are owned by the queue until its
/// completion cell publishes. All error paths leave the queue, the
/// scope counter and the output matrix untouched.
pub(crate) fn enqueue<T: ServiceElem>(
    shared: &Shared,
    req: &GemmRequest<'_, T>,
    cell: Arc<CompletionCell>,
    scope: Option<Arc<ScopeState>>,
    admission: Admission,
) -> Result<(), ServiceError> {
    let (m, n, k) = req.dims()?;
    let tok = span_start(Phase::Enqueue, shape_key(m, n, k));
    let res = enqueue_validated(shared, req, (m, n, k), cell, scope, admission);
    span_end(tok);
    res
}

fn enqueue_validated<T: ServiceElem>(
    shared: &Shared,
    req: &GemmRequest<'_, T>,
    shape: (usize, usize, usize),
    cell: Arc<CompletionCell>,
    scope: Option<Arc<ScopeState>>,
    admission: Admission,
) -> Result<(), ServiceError> {
    let (m, n, k) = shape;
    let key = BucketKey {
        plan: request_plan_key::<T>(&req.cfg, req.op_a, req.op_b, m, n, k),
        alpha_bits: req.alpha.to_bits_u64(),
        beta_bits: req.beta.to_bits_u64(),
    };
    let now = now_ns();
    // Convert the deadline onto the service clock once, at admission.
    // An already-past instant maps to the 0 sentinel so it expires
    // deterministically at any future flush (flush stamps are >= 1).
    let deadline_ns = match req.deadline {
        None => u64::MAX,
        Some(d) => {
            let at = Instant::now();
            match d.checked_duration_since(at) {
                None => 0,
                Some(left) => {
                    now.saturating_add(u64::try_from(left.as_nanos()).unwrap_or(u64::MAX))
                }
            }
        }
    };
    let item = QueuedItem {
        a_ptr: req.a.as_ptr() as *const (),
        a: ViewDims {
            rows: req.a.rows(),
            cols: req.a.cols(),
            ld: req.a.ld(),
        },
        b_ptr: req.b.as_ptr() as *const (),
        b: ViewDims {
            rows: req.b.rows(),
            cols: req.b.cols(),
            ld: req.b.ld(),
        },
        c_ptr: req.c.as_ptr() as *mut (),
        c: ViewDims {
            rows: req.c.rows(),
            cols: req.c.cols(),
            ld: req.c.ld(),
        },
        enqueue_ns: now,
        deadline_ns,
        cell,
        scope,
    };

    let mut g = lock_ignore_poison(&shared.inner);
    loop {
        if g.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if g.total < shared.policy.queue_capacity {
            break;
        }
        match admission {
            Admission::NonBlocking => {
                drop(g);
                reject(shared);
                return Err(ServiceError::QueueFull);
            }
            Admission::Block(None) => {
                g = shared.space.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            Admission::Block(Some(deadline)) => {
                let at = Instant::now();
                let Some(left) = deadline.checked_duration_since(at) else {
                    drop(g);
                    reject(shared);
                    return Err(ServiceError::Timeout);
                };
                if left.is_zero() {
                    drop(g);
                    reject(shared);
                    return Err(ServiceError::Timeout);
                }
                g = shared
                    .space
                    .wait_timeout(g, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }

    // Admitted. The scope counter must rise before the item becomes
    // reachable by the scheduler; both happen under the queue mutex.
    g.total += 1;
    let depth = g.total as u64;
    if let Some(s) = &item.scope {
        s.add_one();
    }
    let policy = shared.policy;
    let bucket = g
        .buckets
        .entry(key)
        .or_insert_with(|| Bucket::new(key, req.cfg, req.op_a, req.op_b, policy.max_batch));
    let was_empty = bucket.items.is_empty();
    let prev_nearest = bucket.nearest_deadline_ns;
    bucket.push(item);
    let became_full = bucket.items.len() >= policy.max_batch;
    let deadline_moved_up = bucket.nearest_deadline_ns < prev_nearest;
    drop(g);

    // Wake the scheduler only when this admission can move its next
    // flush earlier: a fresh linger timer (bucket was empty), a full
    // bucket (immediate flush), or a new earliest deadline. Steady-state
    // fills of a lingering bucket stay wake-free, which is where the
    // per-request overhead amortization comes from.
    if was_empty || became_full || deadline_moved_up {
        shared.work.notify_one();
    }
    shared.stats.on_submit(depth);
    Ok(())
}

#[cold]
fn reject(shared: &Shared) {
    shared.stats.on_reject();
}

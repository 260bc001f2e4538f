//! Async GEMM request service: shape-bucketed batching with
//! backpressure and deadlines.
//!
//! Server workloads rarely see one large GEMM; they see streams of
//! *small, repeated* ones (the paper's §2 motivation — transformer and
//! CNN inference layers). Dispatching each arrival individually pays
//! fixed costs per call: a scheduler wake, a plan resolution, batch
//! validation, lock traffic. This crate amortizes those by coalescing
//! concurrent requests that resolve to the *same serial plan*
//! ([`shalom_core::request_plan_key`] — the override table's own key, not a
//! second shape key) into single [`shalom_core::gemm_batch`] calls,
//! which is the paper's §7.4 batching discipline applied at a service
//! boundary.
//!
//! # Shape
//!
//! * [`Service::start`] spawns one scheduler thread over a bounded
//!   queue of [`GemmRequest`]s bucketed by plan key + `alpha`/`beta`
//!   bits.
//! * A bucket flushes when it reaches `max_batch`, when its oldest
//!   member has lingered `max_linger`, when a member's deadline comes
//!   within `deadline_slack`, or at shutdown (drain — nothing is
//!   dropped). Deadline-expired members complete with
//!   [`ServiceError::DeadlineExceeded`] and their output is untouched.
//! * Backpressure: [`ServiceScope::submit`] fails fast with
//!   [`ServiceError::QueueFull`]; [`Service::submit_wait`] blocks for
//!   space (optionally bounded, then [`ServiceError::Timeout`]).
//!
//! # Lifetimes
//!
//! Requests borrow caller matrices, so completion must be provably
//! before those borrows end. Two sound paths are offered:
//! [`Service::submit_wait`] blocks in place, and [`Service::scope`]
//! mirrors [`std::thread::scope`] — submissions return [`Completion`]
//! handles and the scope joins every outstanding request before it
//! returns, even on panic. A `mem::forget`-able "async handle that
//! blocks on drop" is deliberately not offered; leaking such a handle
//! would let borrows dangle while the scheduler still writes.
//!
//! ```
//! use shalom_core::{GemmConfig, Op};
//! use shalom_matrix::Matrix;
//! use shalom_service::{GemmRequest, Service, ServiceConfig};
//!
//! let svc = Service::start(ServiceConfig::default());
//! let a = Matrix::<f32>::random(8, 8, 1);
//! let b = Matrix::<f32>::random(8, 8, 2);
//! let mut c = Matrix::<f32>::zeros(8, 8);
//! svc.scope(|scope| {
//!     let done = scope
//!         .submit(GemmRequest::new(
//!             GemmConfig::default(),
//!             Op::NoTrans,
//!             Op::NoTrans,
//!             1.0f32,
//!             a.as_ref(),
//!             b.as_ref(),
//!             0.0f32,
//!             c.as_mut(),
//!         ))
//!         .expect("queue has space");
//!     done.wait().expect("no deadline set");
//! });
//! svc.shutdown();
//! ```

#![warn(missing_docs)]

mod completion;
mod error;
mod queue;
mod request;
mod scheduler;
mod stats;

pub use error::ServiceError;
pub use request::{GemmRequest, ServiceElem};
pub use stats::{FlushReason, ServiceStatsSnapshot};

use completion::{CompletionCell, ScopeState, DONE_EXPIRED, PENDING};
use queue::{Admission, Policy, Shared};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Queue and flush policy for one [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Bound on queued (admitted, not yet flushed) requests; admissions
    /// beyond it are backpressured.
    pub queue_capacity: usize,
    /// Flush a bucket as soon as it holds this many requests; also the
    /// cap on items per batched dispatch (a bucket that outgrew it
    /// between scheduler wakes drains in `max_batch`-sized chunks).
    pub max_batch: usize,
    /// Flush a bucket once its oldest member has waited this long.
    pub max_linger: Duration,
    /// Flush a bucket this far ahead of its nearest member deadline.
    pub deadline_slack: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            max_batch: 64,
            max_linger: Duration::from_micros(200),
            deadline_slack: Duration::from_micros(100),
        }
    }
}

impl ServiceConfig {
    fn policy(&self) -> Policy {
        Policy {
            queue_capacity: self.queue_capacity.max(1),
            max_batch: self.max_batch.max(1),
            linger_ns: saturating_ns(self.max_linger),
            slack_ns: saturating_ns(self.deadline_slack),
        }
    }
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A running GEMM service: one scheduler thread over a bounded,
/// bucketed request queue. See the crate docs for the full model.
pub struct Service {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Service {
    /// Spawn the scheduler thread and open the queue.
    pub fn start(cfg: ServiceConfig) -> Self {
        let shared = Arc::new(Shared::new(cfg.policy()));
        let worker = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("shalom-service".to_string())
            .spawn(move || scheduler::run(&worker))
            .expect("spawn shalom-service scheduler thread");
        Service {
            shared,
            scheduler: Mutex::new(Some(handle)),
        }
    }

    /// Submit one request and block until it completes (or fails
    /// admission). `timeout` bounds only the wait for *queue space*;
    /// once admitted, the call waits for completion unconditionally —
    /// that wait is what keeps the borrowed operands sound.
    pub fn submit_wait<T: ServiceElem>(
        &self,
        req: GemmRequest<'_, T>,
        timeout: Option<Duration>,
    ) -> Result<(), ServiceError> {
        let cell = Arc::new(CompletionCell::new());
        let admission = Admission::Block(timeout.map(|t| Instant::now() + t));
        queue::enqueue(&self.shared, &req, Arc::clone(&cell), None, admission)?;
        match cell.wait() {
            DONE_EXPIRED => Err(ServiceError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    /// Run `f` with a submission scope. Every request submitted through
    /// the scope is joined before `scope` returns — including when `f`
    /// panics (the panic resumes after the drain), which is what makes
    /// borrows of caller data sound, exactly like [`std::thread::scope`].
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope ServiceScope<'scope, 'env>) -> R,
    {
        let scope = ServiceScope {
            service: self,
            state: Arc::new(ScopeState::new()),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.state.wait_zero();
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Stop accepting work, drain every queued request (running or
    /// expiring each — nothing is dropped), and join the scheduler.
    /// Idempotent; also runs on `Drop`.
    pub fn shutdown(&self) {
        {
            let mut g = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            g.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        let handle = self
            .scheduler
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = handle {
            // A panicking scheduler already poisoned nothing we rely on
            // (completion ignores poison); surface it here instead.
            if h.join().is_err() {
                panic!("shalom-service scheduler thread panicked");
            }
        }
    }

    /// Requests admitted but not yet extracted for flush.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .total
    }

    /// Point-in-time copy of the service counters.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.shared.stats.snapshot()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Submission capability for one [`Service::scope`] call.
///
/// The two invariant lifetimes mirror [`std::thread::Scope`]: `'scope`
/// is the scope itself (completions cannot escape it), `'env` the
/// caller data requests may borrow (must enclose the scope).
pub struct ServiceScope<'scope, 'env: 'scope> {
    service: &'env Service,
    state: Arc<ScopeState>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> ServiceScope<'scope, 'env> {
    /// Submit without blocking; fails fast with
    /// [`ServiceError::QueueFull`] when the queue is at capacity. The
    /// returned handle may be waited on or simply dropped — the scope
    /// joins it either way.
    pub fn submit<T: ServiceElem>(
        &'scope self,
        req: GemmRequest<'env, T>,
    ) -> Result<Completion<'scope>, ServiceError> {
        let cell = Arc::new(CompletionCell::new());
        queue::enqueue(
            &self.service.shared,
            &req,
            Arc::clone(&cell),
            Some(Arc::clone(&self.state)),
            Admission::NonBlocking,
        )?;
        Ok(Completion {
            cell,
            _scope: PhantomData,
        })
    }

    /// Like [`ServiceScope::submit`], but blocks for queue space (up to
    /// `timeout`, then [`ServiceError::Timeout`]).
    pub fn submit_blocking<T: ServiceElem>(
        &'scope self,
        req: GemmRequest<'env, T>,
        timeout: Option<Duration>,
    ) -> Result<Completion<'scope>, ServiceError> {
        let cell = Arc::new(CompletionCell::new());
        let admission = Admission::Block(timeout.map(|t| Instant::now() + t));
        queue::enqueue(
            &self.service.shared,
            &req,
            Arc::clone(&cell),
            Some(Arc::clone(&self.state)),
            admission,
        )?;
        Ok(Completion {
            cell,
            _scope: PhantomData,
        })
    }
}

/// Handle to one in-flight request, bounded by its scope.
pub struct Completion<'scope> {
    cell: Arc<CompletionCell>,
    _scope: PhantomData<&'scope ()>,
}

impl std::fmt::Debug for Completion<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("done", &self.try_wait().is_some())
            .finish()
    }
}

impl Completion<'_> {
    /// Block until the request completes. `Ok` means the output matrix
    /// holds the result; [`ServiceError::DeadlineExceeded`] means it
    /// was never touched.
    pub fn wait(&self) -> Result<(), ServiceError> {
        match self.cell.wait() {
            DONE_EXPIRED => Err(ServiceError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    /// Non-blocking poll: `None` while pending, else as
    /// [`Completion::wait`].
    pub fn try_wait(&self) -> Option<Result<(), ServiceError>> {
        match self.cell.poll() {
            PENDING => None,
            DONE_EXPIRED => Some(Err(ServiceError::DeadlineExceeded)),
            _ => Some(Ok(())),
        }
    }

    /// Completion timestamp on the [`shalom_trace::now_ns`] clock,
    /// once done. The latency harness subtracts scheduled arrival times
    /// from this, so queueing delay is measured without coordinated
    /// omission.
    pub fn done_at_ns(&self) -> Option<u64> {
        self.cell.done_at()
    }
}

// Submitters on many threads share the service and its scopes.
#[allow(dead_code)]
fn _assert_thread_safety() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Service>();
    assert_sync::<Service>();
    assert_sync::<ServiceScope<'_, '_>>();
    assert_send::<Completion<'_>>();
    assert_sync::<Completion<'_>>();
}

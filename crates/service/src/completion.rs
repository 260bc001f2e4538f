//! Completion cells and scope drain-tracking.
//!
//! A [`CompletionCell`] is the rendezvous between the scheduler thread
//! (which writes the output matrix and then publishes "done") and the
//! submitting thread (which waits on the handle). The publication
//! protocol is the classic payload-then-flag shape:
//!
//! 1. scheduler writes `C` (plain stores through the erased pointer),
//! 2. stamps `done_at_ns` (Relaxed — sequenced before the flag store on
//!    the same thread, so the Release below also publishes it),
//! 3. stores `state` with Release *while holding `lock`* (the mutex
//!    closes the decide-then-sleep window: a waiter that saw PENDING
//!    cannot miss the notify because the store+notify happen under the
//!    same mutex the waiter re-checks under),
//! 4. `notify_all` — after step 3 has run for *every* member of the
//!    batch ([`CompletionCell::publish`] then [`CompletionCell::wake`]):
//!    a waiter woken by the first member finds the whole batch done and
//!    reaps it in one pass, instead of chasing the publication loop
//!    through one sleep/wake round trip per few members.
//!
//! Waiters Acquire-load `state`; observing DONE therefore orders every
//! output write before the waiter's reads. The same edge discharges the
//! scope counter: `ScopeState::complete_one` is called *after* the cell
//! is published, so `wait_zero` returning guarantees every output write
//! of every request in the scope has happened-before.
//!
//! shalom-analysis: deny(panic)

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Request not yet dispatched (or mid-flight).
pub(crate) const PENDING: u32 = 0;
/// Request ran; the output matrix holds the result.
pub(crate) const DONE_OK: u32 = 1;
/// Request expired before dispatch; the output matrix is untouched.
pub(crate) const DONE_EXPIRED: u32 = 2;

/// Ignore mutex poisoning: every critical section here is a handful of
/// loads/stores that cannot unwind, and completion must stay reachable
/// even if a *waiter* panicked while holding the guard elsewhere.
#[inline]
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One request's completion flag + timestamp (shared scheduler/waiter).
pub(crate) struct CompletionCell {
    /// PENDING / DONE_OK / DONE_EXPIRED. Written once by the scheduler.
    state: AtomicU32,
    /// `now_ns` at publication; 0 while pending.
    done_at_ns: AtomicU64,
    /// Lost-wakeup guard for `cond` (see module docs). Holds no data —
    /// `state` *is* the data, the mutex only sequences sleep vs notify.
    lock: Mutex<()>,
    cond: Condvar,
}

impl CompletionCell {
    pub(crate) fn new() -> Self {
        CompletionCell {
            state: AtomicU32::new(PENDING),
            done_at_ns: AtomicU64::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Publish the terminal state. Called exactly once, by the
    /// scheduler, after all output writes for this request; [`wake`]
    /// must follow.
    ///
    /// [`wake`]: CompletionCell::wake
    pub(crate) fn publish(&self, state: u32, now_ns: u64) {
        // ORDERING(SHALOM-O-SVC-STAMP): Relaxed stamp; sequenced before
        // the Release store below on this thread, so waiters that
        // Acquire the state also see the timestamp.
        self.done_at_ns.store(now_ns, Ordering::Relaxed);
        let _g = lock_ignore_poison(&self.lock);
        // ORDERING(SHALOM-O-SVC-DONE): Release publish of the output
        // matrix and timestamp; paired with the Acquire loads in
        // `poll`/`wait`. Performed under `lock` so a waiter between
        // its PENDING check and `cond.wait` cannot lose the notify
        // `wake` sends afterwards.
        self.state.store(state, Ordering::Release);
    }

    /// Wake every waiter of a published cell.
    pub(crate) fn wake(&self) {
        self.cond.notify_all();
    }

    /// Current state with the publication edge (Acquire).
    #[inline]
    pub(crate) fn poll(&self) -> u32 {
        // ORDERING(SHALOM-O-SVC-DONE): Acquire pairs with the Release in
        // `publish`; a DONE observation orders the output writes.
        self.state.load(Ordering::Acquire)
    }

    /// Block until the cell leaves PENDING; returns the terminal state.
    pub(crate) fn wait(&self) -> u32 {
        let s = self.poll();
        if s != PENDING {
            return s;
        }
        let mut g = lock_ignore_poison(&self.lock);
        loop {
            // Re-check under the mutex: `publish` stores under the same
            // mutex, so PENDING here implies the notify is still ahead.
            let s = self.poll();
            if s != PENDING {
                return s;
            }
            g = self.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publication timestamp, if done.
    pub(crate) fn done_at(&self) -> Option<u64> {
        if self.poll() == PENDING {
            None
        } else {
            // ORDERING(SHALOM-O-SVC-STAMP): Relaxed read is fine — the
            // Acquire in `poll` above already ordered the stamp.
            Some(self.done_at_ns.load(Ordering::Relaxed))
        }
    }
}

/// Outstanding-request counter for one [`crate::Service::scope`] call.
///
/// `add_one` runs on submitters *before* the item becomes visible to the
/// scheduler (under the queue mutex), `complete_one` on the scheduler
/// *after* the cell is published, so the count never under-reports live
/// borrows of scope data.
pub(crate) struct ScopeState {
    pending: AtomicUsize,
    /// Lost-wakeup guard for `cond`, same shape as `CompletionCell`.
    lock: Mutex<()>,
    cond: Condvar,
}

impl ScopeState {
    pub(crate) fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Register one in-flight request (submitter side).
    #[inline]
    pub(crate) fn add_one(&self) {
        // ORDERING(SHALOM-O-SVC-PENDING): Relaxed increment — the
        // submitter itself calls `wait_zero` later on this thread, and
        // cross-thread visibility rides the queue mutex that the item
        // publication already takes.
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Retire one request (scheduler side, after cell publication).
    pub(crate) fn complete_one(&self) {
        // ORDERING(SHALOM-O-SVC-PENDING): Release decrement pairs with
        // the Acquire in `wait_zero`: observing 0 there orders every
        // completed request's output writes before the scope returns.
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            drop(lock_ignore_poison(&self.lock));
            self.cond.notify_all();
        }
    }

    /// Block until every registered request has retired.
    pub(crate) fn wait_zero(&self) {
        // ORDERING(SHALOM-O-SVC-PENDING): Acquire load pairs with the
        // Release decrements; see `complete_one`.
        if self.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut g = lock_ignore_poison(&self.lock);
        loop {
            // ORDERING(SHALOM-O-SVC-PENDING): Acquire recheck under the
            // mutex, same pairing as the fast path above.
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            g = self.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cell_completes_once_and_stamps() {
        let cell = Arc::new(CompletionCell::new());
        assert_eq!(cell.poll(), PENDING);
        assert_eq!(cell.done_at(), None);
        let waiter = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.wait())
        };
        cell.publish(DONE_OK, 42);
        cell.wake();
        assert_eq!(waiter.join().expect("waiter"), DONE_OK);
        assert_eq!(cell.done_at(), Some(42));
    }

    #[test]
    fn scope_waits_for_all() {
        let state = Arc::new(ScopeState::new());
        for _ in 0..3 {
            state.add_one();
        }
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || state.complete_one())
            })
            .collect();
        state.wait_zero();
        for w in workers {
            w.join().expect("worker");
        }
        // Idempotent on the empty state.
        state.wait_zero();
    }
}

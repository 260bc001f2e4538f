//! The scheduler thread: drains buckets into `gemm_batch` calls.
//!
//! One thread per [`crate::Service`]. It sleeps on the `work` condvar
//! until the earliest bucket trigger (linger expiry or deadline slack),
//! wakes early when a submitter signals a state change that could move
//! that trigger up, and flushes the most urgent ready bucket outside
//! the queue mutex so submitters are never blocked behind a GEMM.
//!
//! shalom-analysis: deny(panic)

use crate::completion::{lock_ignore_poison, DONE_EXPIRED, DONE_OK};
use crate::queue::{Bucket, BucketKey, Inner, Policy, QueuedItem, Shared};
use crate::request::ServiceElem;
use crate::stats::FlushReason;
use shalom_core::{gemm_batch_beta, BatchItem};
use shalom_matrix::{MatMut, MatRef};
use shalom_trace::{now_ns, span_end, span_record, span_start, Phase};
use std::sync::PoisonError;
use std::time::Duration;

/// Scheduler main loop; returns once shutdown is set and the queue has
/// fully drained. Every queued item is completed exactly once (run or
/// expired) before this returns.
pub(crate) fn run(shared: &Shared) {
    let mut g = lock_ignore_poison(&shared.inner);
    loop {
        let now = now_ns();
        if let Some((key, reason)) = select_ready(&g, &shared.policy, now) {
            if let Some(bucket) = g.buckets.remove(&key) {
                g.total = g.total.saturating_sub(bucket.items.len());
                drop(g);
                // Space freed: admit blocked submitters while we run.
                shared.space.notify_all();
                flush(shared, &bucket, reason);
                g = lock_ignore_poison(&shared.inner);
            }
            continue;
        }
        if g.shutdown && g.total == 0 {
            break;
        }
        g = match next_event_ns(&g, &shared.policy) {
            None => shared.work.wait(g).unwrap_or_else(PoisonError::into_inner),
            Some(at) => {
                let now = now_ns();
                if at <= now {
                    // Trigger passed between the scans; re-select.
                    continue;
                }
                shared
                    .work
                    .wait_timeout(g, Duration::from_nanos(at - now))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
    }
    drop(g);
    // Late blocked submitters observe `shutdown` once woken.
    shared.space.notify_all();
}

// ALLOC-FREE: scheduler hot path — runs under the queue mutex on every
// wake; scans bucket headers only.
/// The most urgent flush-ready bucket, if any: full buckets first, then
/// the earliest timer trigger (deadline slack or linger), then — during
/// shutdown — any remaining bucket.
fn select_ready(inner: &Inner, policy: &Policy, now: u64) -> Option<(BucketKey, FlushReason)> {
    let mut best: Option<(BucketKey, FlushReason, u64)> = None;
    for (key, b) in inner.buckets.iter() {
        if b.items.is_empty() {
            continue;
        }
        let trigger = b.trigger_ns(policy.linger_ns, policy.slack_ns);
        let full = b.items.len() >= policy.max_batch;
        if !(full || now >= trigger || inner.shutdown) {
            continue;
        }
        let reason = if full {
            FlushReason::Full
        } else if now >= b.nearest_deadline_ns.saturating_sub(policy.slack_ns) {
            FlushReason::Deadline
        } else if now >= b.oldest_ns.saturating_add(policy.linger_ns) {
            FlushReason::Linger
        } else {
            FlushReason::Drain
        };
        let rank = if full { 0 } else { trigger };
        let better = match best {
            Some((_, _, best_rank)) => rank < best_rank,
            None => true,
        };
        if better {
            best = Some((*key, reason, rank));
        }
    }
    best.map(|(key, reason, _)| (key, reason))
}

// ALLOC-FREE: scheduler hot path — computes the sleep bound on every
// pass through the wait loop.
/// Earliest future instant any bucket becomes timer-ready; `None` when
/// the queue is empty (sleep until signalled).
fn next_event_ns(inner: &Inner, policy: &Policy) -> Option<u64> {
    let mut earliest: Option<u64> = None;
    for b in inner.buckets.values() {
        if b.items.is_empty() {
            continue;
        }
        let t = b.trigger_ns(policy.linger_ns, policy.slack_ns);
        let sooner = match earliest {
            Some(e) => t < e,
            None => true,
        };
        if sooner {
            earliest = Some(t);
        }
    }
    earliest
}

/// Run one extracted bucket: dispatch it in `max_batch`-sized chunks
/// (the bucket can outgrow `max_batch` when submitters outrun the
/// scheduler — each chunk is still one `gemm_batch` call and one stats
/// entry, so `max_batch = 1` really is a one-call-per-request
/// baseline). Called with the queue mutex *released*.
fn flush(shared: &Shared, bucket: &Bucket, reason: FlushReason) {
    // The linger span is recorded retroactively: it opened when the
    // bucket's first member arrived and closes at this flush.
    span_record(
        Phase::Linger,
        bucket.oldest_ns,
        now_ns().max(1),
        bucket.items.len() as u64,
    );
    for chunk in bucket.items.chunks(shared.policy.max_batch.max(1)) {
        flush_chunk(shared, bucket, chunk, reason);
    }
}

/// One batched dispatch: expire overdue members, run the rest through a
/// single `gemm_batch` call, publish every completion.
fn flush_chunk(shared: &Shared, bucket: &Bucket, chunk: &[QueuedItem], reason: FlushReason) {
    let t0 = now_ns().max(1);
    let tok = span_start(Phase::BatchFlush, chunk.len() as u64);

    // Deadline-expired members complete with an error *instead of
    // running*; their output matrices are untouched. Strictly-before
    // comparison plus the 0 sentinel makes "submitted already expired"
    // deterministic regardless of clock resolution.
    let mut live: Vec<&QueuedItem> = Vec::with_capacity(chunk.len());
    let mut expired = 0usize;
    for it in chunk {
        if it.deadline_ns < t0 {
            expired += 1;
        } else {
            live.push(it);
        }
    }

    let completed = live.len();
    if completed > 0 {
        match bucket.key.plan.elem_bits {
            64 => run_typed::<f64>(bucket, &live),
            _ => run_typed::<f32>(bucket, &live),
        }
    }

    span_end(tok);
    // Counters first, completions second: a waiter woken by its cell
    // must already see this flush in `stats()`.
    shared.stats.on_flush(reason, completed, expired);
    // Publish every member, then wake. A waiter woken mid-publication
    // reaps the few members done so far, resubmits and sleeps on the
    // next one; where it shares this thread's CPU that is two context
    // switches per few members (40k client sleeps a second against 8k,
    // a fifth of the closed-loop rate), so the saturation rate would
    // depend on where the host places the two threads (DESIGN §15.3).
    let done = now_ns();
    for it in chunk {
        if it.deadline_ns < t0 {
            it.cell.publish(DONE_EXPIRED, t0);
        } else {
            it.cell.publish(DONE_OK, done);
        }
    }
    // Retire each member from its scope after its cell is published.
    for it in chunk {
        it.cell.wake();
        if let Some(scope) = &it.scope {
            scope.complete_one();
        }
    }
}

/// Reconstruct the typed views and run one chunk through one
/// `gemm_batch` call — one plan lookup and one validation sweep for
/// every member (the §7.4 batching discipline).
fn run_typed<T: ServiceElem>(bucket: &Bucket, live: &[&QueuedItem]) {
    let alpha = T::from_bits_u64(bucket.key.alpha_bits);
    let beta = T::from_bits_u64(bucket.key.beta_bits);
    let mut items: Vec<BatchItem<'_, T>> = Vec::with_capacity(live.len());
    for &it in live {
        // SAFETY: pointers and dims were captured from live caller
        // views at admission; the submitting side keeps them alive (and
        // `c` exclusive) until this request's cell publishes, which
        // happens strictly after this call returns. Element type
        // matches: `elem_bits` is part of the bucket's plan key.
        let (a, b, c) = unsafe {
            (
                MatRef::from_raw_parts(it.a_ptr as *const T, it.a.rows, it.a.cols, it.a.ld),
                MatRef::from_raw_parts(it.b_ptr as *const T, it.b.rows, it.b.cols, it.b.ld),
                MatMut::from_raw_parts(it.c_ptr as *mut T, it.c.rows, it.c.cols, it.c.ld),
            )
        };
        items.push(BatchItem { a, b, c });
    }
    gemm_batch_beta(
        &bucket.cfg,
        bucket.op_a,
        bucket.op_b,
        alpha,
        beta,
        &mut items,
    );
}

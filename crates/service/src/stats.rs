//! Always-on service counters, one block per [`crate::Service`]: the
//! service's only traffic counts (the capture layer records its spans,
//! not its counts).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of flush-occupancy histogram buckets (powers of two: 1, 2–3,
/// 4–7, ..., 128+).
const OCC_BUCKETS: usize = 8;

/// Histogram bucket index for a flush of `occupancy` completed items.
fn occ_bucket(occupancy: usize) -> usize {
    if occupancy <= 1 {
        0
    } else {
        (usize::BITS - 1 - occupancy.leading_zeros()).min(OCC_BUCKETS as u32 - 1) as usize
    }
}

/// Why the scheduler flushed a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// Bucket reached `max_batch` items.
    Full,
    /// Oldest item hit `max_linger`.
    Linger,
    /// A member's deadline came within `deadline_slack`.
    Deadline,
    /// Shutdown drain.
    Drain,
}

impl FlushReason {
    fn index(self) -> usize {
        match self {
            FlushReason::Full => 0,
            FlushReason::Linger => 1,
            FlushReason::Deadline => 2,
            FlushReason::Drain => 3,
        }
    }
}

/// Lock-free counters owned by one [`crate::Service`].
//
// All sites Relaxed: pure monotone statistics, read only by `snapshot`.
#[derive(Default)]
pub(crate) struct ServiceStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    batches: AtomicU64,
    queue_depth_peak: AtomicU64,
    occupancy_peak: AtomicU64,
    flush_reasons: [AtomicU64; 4],
    occupancy: [AtomicU64; OCC_BUCKETS],
}

impl ServiceStats {
    /// One admitted request; `depth` is the queue total after admission.
    pub(crate) fn on_submit(&self, depth: u64) {
        // ORDERING(SHALOM-O-SVC-STATS): Relaxed monotone counters,
        // reporting only; snapshot tolerates torn cross-field views.
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// One request turned away (queue full or admission timeout).
    pub(crate) fn on_reject(&self) {
        // ORDERING(SHALOM-O-SVC-STATS): Relaxed, reporting only.
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One bucket flush: `completed` ran, `expired` hit their deadline.
    pub(crate) fn on_flush(&self, reason: FlushReason, completed: usize, expired: usize) {
        // ORDERING(SHALOM-O-SVC-STATS): Relaxed, reporting only.
        self.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.flush_reasons.get(reason.index()) {
            // ORDERING(SHALOM-O-SVC-STATS): Relaxed, reporting only.
            slot.fetch_add(1, Ordering::Relaxed);
        }
        // ORDERING(SHALOM-O-SVC-STATS): Relaxed, reporting only.
        self.expired.fetch_add(expired as u64, Ordering::Relaxed);
        if completed > 0 {
            // ORDERING(SHALOM-O-SVC-STATS): Relaxed, reporting only.
            self.completed
                .fetch_add(completed as u64, Ordering::Relaxed);
            self.occupancy_peak
                // ORDERING(SHALOM-O-SVC-STATS): Relaxed, reporting only.
                .fetch_max(completed as u64, Ordering::Relaxed);
            if let Some(slot) = self.occupancy.get(occ_bucket(completed)) {
                // ORDERING(SHALOM-O-SVC-STATS): Relaxed, reporting only.
                slot.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> ServiceStatsSnapshot {
        // ORDERING(SHALOM-O-SVC-STATS): Relaxed reads, reporting only.
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut occupancy = [0u64; OCC_BUCKETS];
        for (dst, src) in occupancy.iter_mut().zip(self.occupancy.iter()) {
            *dst = r(src);
        }
        let mut flush_reasons = [0u64; 4];
        for (dst, src) in flush_reasons.iter_mut().zip(self.flush_reasons.iter()) {
            *dst = r(src);
        }
        ServiceStatsSnapshot {
            submitted: r(&self.submitted),
            completed: r(&self.completed),
            rejected: r(&self.rejected),
            expired: r(&self.expired),
            batches: r(&self.batches),
            queue_depth_peak: r(&self.queue_depth_peak),
            occupancy_peak: r(&self.occupancy_peak),
            flush_full: flush_reasons[0],
            flush_linger: flush_reasons[1],
            flush_deadline: flush_reasons[2],
            flush_drain: flush_reasons[3],
            occupancy,
        }
    }
}

/// Plain-value copy of a service's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStatsSnapshot {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests turned away (queue full / admission timeout).
    pub rejected: u64,
    /// Requests whose deadline passed before dispatch.
    pub expired: u64,
    /// Bucket flushes (batched `gemm` calls).
    pub batches: u64,
    /// Highest queue total observed at any admission.
    pub queue_depth_peak: u64,
    /// Largest single flush (items actually run).
    pub occupancy_peak: u64,
    /// Flushes triggered by a full bucket.
    pub flush_full: u64,
    /// Flushes triggered by the linger timer.
    pub flush_linger: u64,
    /// Flushes triggered by deadline pressure.
    pub flush_deadline: u64,
    /// Flushes triggered by shutdown drain.
    pub flush_drain: u64,
    /// log2 histogram of flush occupancy: bucket `i` counts flushes
    /// that ran `2^i ..= 2^(i+1) - 1` items, the last one 128 or more.
    pub occupancy: [u64; OCC_BUCKETS],
}

impl ServiceStatsSnapshot {
    /// Mean items per non-empty flush (0.0 when nothing ran).
    pub fn mean_occupancy(&self) -> f64 {
        let runs: u64 = self.occupancy.iter().sum();
        if runs == 0 {
            0.0
        } else {
            self.completed as f64 / runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up() {
        let s = ServiceStats::default();
        s.on_submit(1);
        s.on_submit(3);
        s.on_reject();
        s.on_flush(FlushReason::Full, 2, 0);
        s.on_flush(FlushReason::Deadline, 0, 1);
        let snap = s.snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.queue_depth_peak, 3);
        assert_eq!(snap.occupancy_peak, 2);
        assert_eq!(snap.flush_full, 1);
        assert_eq!(snap.flush_deadline, 1);
        assert_eq!(snap.occupancy[occ_bucket(2)], 1);
        assert!((snap.mean_occupancy() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_buckets_are_log2() {
        assert_eq!(occ_bucket(0), 0);
        assert_eq!(occ_bucket(1), 0);
        assert_eq!(occ_bucket(2), 1);
        assert_eq!(occ_bucket(3), 1);
        assert_eq!(occ_bucket(4), 2);
        assert_eq!(occ_bucket(7), 2);
        assert_eq!(occ_bucket(64), 6);
        assert_eq!(occ_bucket(127), 6);
        assert_eq!(occ_bucket(128), 7);
        assert_eq!(occ_bucket(1 << 20), 7);
    }
}

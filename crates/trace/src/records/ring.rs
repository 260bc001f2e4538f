//! Lock-free ring buffer of recent [`DecisionRecord`]s.
//!
//! Writers never block and never spin: each record claims the next slot
//! with one `fetch_add`, then publishes through a per-slot sequence word
//! (seqlock style). If a writer catches a slot another writer is still
//! filling — only possible after a full lap by a concurrent producer —
//! the record is dropped and counted, keeping the GEMM hot path wait-free.

use super::record::DecisionRecord;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of recent records retained. Power of two so the slot index is
/// a mask, sized to hold a whole bench sweep of dispatch decisions.
pub const RING_CAPACITY: usize = 1024;

struct Slot {
    /// Even: stable (value = 2 * laps). Odd: a writer is mid-publish.
    seq: AtomicU64,
    data: UnsafeCell<DecisionRecord>,
}

// Safety: `data` is only written between a successful odd-CAS and the
// even release store; readers validate the sequence word around a
// volatile copy and discard torn reads.
unsafe impl Sync for Slot {}

pub struct Ring {
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(RING_CAPACITY);
        for _ in 0..RING_CAPACITY {
            slots.push(Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(DecisionRecord::default()),
            });
        }
        Ring {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots,
        }
    }

    /// Total records ever pushed (not capped by capacity).
    #[cfg(test)]
    // ORDERING(SHALOM-O-RING-TICKET): monotonic ticket snapshot; the payload is ordered per slot.
    pub fn total_pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped due to writer contention on a lapped slot.
    // ORDERING(SHALOM-O-TEL-COUNTER): racy stats snapshot by design.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Store one record, returning its global sequence number.
    pub fn push(&self, mut rec: DecisionRecord) -> u64 {
        // ORDERING(SHALOM-O-RING-TICKET): Relaxed fetch_add only claims a unique
        // slot index; the per-slot seqlock below orders the payload itself.
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        rec.seq = ticket;
        let slot = &self.slots[ticket as usize & (RING_CAPACITY - 1)];
        // ORDERING(SHALOM-O-RING-SEQ-WRITER): Relaxed peek is fine — the CAS
        // below re-validates the value before any write happens.
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            // A lapped writer is mid-publish; losing one stale record
            // beats waiting on the hot path.
            // ORDERING(SHALOM-O-TEL-COUNTER): racy drop count, reporting only.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return ticket;
        }
        // ORDERING(SHALOM-O-RING-SEQ-WRITER): Acquire CAS wins the slot and marks
        // it odd before the payload store; failure needs no ordering (we give up).
        if slot
            .seq
            .compare_exchange(seq, seq | 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // ORDERING(SHALOM-O-TEL-COUNTER): racy drop count, reporting only.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return ticket;
        }
        unsafe { std::ptr::write_volatile(slot.data.get(), rec) };
        // ORDERING(SHALOM-O-RING-SEQ-WRITER): Release publishes the even sequence
        // after the payload write; a reader that sees it also sees the payload.
        slot.seq.store((seq | 1).wrapping_add(1), Ordering::Release);
        ticket
    }

    /// Snapshot of the retained records, oldest first. Slots that are
    /// being rewritten while we read are skipped rather than torn.
    pub fn recent(&self) -> Vec<DecisionRecord> {
        // ORDERING(SHALOM-O-RING-TICKET): ticket snapshot only bounds the scan;
        // each slot's seqlock decides whether its payload is readable.
        let head = self.head.load(Ordering::Acquire);
        let len = (head as usize).min(RING_CAPACITY);
        let start = head as usize - len;
        let mut out = Vec::with_capacity(len);
        for ticket in start..head as usize {
            let slot = &self.slots[ticket & (RING_CAPACITY - 1)];
            for _attempt in 0..4 {
                // ORDERING(SHALOM-O-RING-SEQ-READER): Acquire pairs with the
                // writer's Release publish; an odd value means mid-write.
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 & 1 == 1 {
                    continue;
                }
                let rec = unsafe { std::ptr::read_volatile(slot.data.get()) };
                // ORDERING(SHALOM-O-RING-SEQ-READER): the fence orders the volatile
                // payload read *before* the validating re-load — an Acquire load
                // only orders later accesses, so without the fence a torn read
                // could still pass validation. The re-load itself can be Relaxed.
                std::sync::atomic::fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) == s1 {
                    // The slot may hold a newer lap than `ticket`; the
                    // record's own `seq` says which call it describes.
                    out.push(rec);
                    break;
                }
            }
        }
        out.sort_by_key(|r| r.seq);
        out.dedup_by_key(|r| r.seq);
        out
    }

    /// Forget all retained records and counts.
    // ORDERING(SHALOM-O-RING-RESET): Relaxed wipe is only sound between
    // measurement phases, with no concurrent writers or readers.
    pub fn clear(&self) {
        // Not atomic with respect to concurrent writers; callers reset
        // between measurement phases, not during them.
        self.head.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        for slot in &self.slots {
            slot.seq.store(0, Ordering::Relaxed);
            unsafe { std::ptr::write_volatile(slot.data.get(), DecisionRecord::default()) };
        }
    }
}

impl Default for Ring {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(m: usize) -> DecisionRecord {
        DecisionRecord {
            m,
            ..Default::default()
        }
    }

    #[test]
    fn keeps_last_capacity_records_in_order() {
        let ring = Ring::new();
        for i in 0..RING_CAPACITY + 100 {
            ring.push(rec(i));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), RING_CAPACITY);
        assert_eq!(recent.first().unwrap().m, 100);
        assert_eq!(recent.last().unwrap().m, RING_CAPACITY + 99);
        assert!(recent.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(ring.total_pushed() as usize, RING_CAPACITY + 100);
    }

    #[test]
    fn clear_empties() {
        let ring = Ring::new();
        for i in 0..10 {
            ring.push(rec(i));
        }
        ring.clear();
        assert!(ring.recent().is_empty());
        assert_eq!(ring.total_pushed(), 0);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        let ring = std::sync::Arc::new(Ring::new());
        let threads = 8;
        let per = 4096;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let ring = ring.clone();
                scope.spawn(move || {
                    for i in 0..per {
                        // m encodes the writer, n the iteration; a torn
                        // read would mix the two.
                        ring.push(DecisionRecord {
                            m: t + 1,
                            n: i,
                            k: (t + 1) * 1_000_000 + i,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let recent = ring.recent();
        assert!(!recent.is_empty());
        for r in &recent {
            assert_eq!(r.k, r.m * 1_000_000 + r.n, "torn record: {r:?}");
        }
        assert_eq!(ring.total_pushed(), (threads * per) as u64);
    }

    /// Regression test for the seqlock reader fence: readers running
    /// *concurrently* with writers must never surface a torn record.
    /// Before `recent()` gained its `fence(Acquire)` between the
    /// volatile payload read and the validating sequence re-load, a
    /// read could be torn yet still validate (the re-load, being an
    /// Acquire, did not order the *prior* payload read). Run under
    /// ThreadSanitizer in CI to catch any reintroduced race.
    #[test]
    fn concurrent_reads_never_tear() {
        let ring = std::sync::Arc::new(Ring::new());
        let writers = 4;
        let per = 8192;
        std::thread::scope(|scope| {
            for t in 0..writers {
                let ring = ring.clone();
                scope.spawn(move || {
                    for i in 0..per {
                        ring.push(DecisionRecord {
                            m: t + 1,
                            n: i,
                            k: (t + 1) * 1_000_000 + i,
                            ..Default::default()
                        });
                    }
                });
            }
            for _ in 0..2 {
                let ring = ring.clone();
                scope.spawn(move || {
                    while ring.total_pushed() < (writers * per) as u64 {
                        for r in ring.recent() {
                            // Freshly initialized slots legitimately read
                            // as all-zero defaults; anything else must
                            // satisfy the writer's invariant.
                            if r.m != 0 {
                                assert_eq!(r.k, r.m * 1_000_000 + r.n, "torn record: {r:?}");
                            }
                        }
                    }
                });
            }
        });
    }
}

//! The last [`RING_CAPACITY`] [`DecisionRecord`]s, in one locked buffer
//! per counter shard.
//!
//! A push numbers its record with one `Relaxed` `fetch_add` ticket, then
//! `try_lock`s the buffer of its thread's shard (the round-robin striping
//! the counters use). That lock is contended only while a snapshot copies
//! the shard, or when more than [`SHARD_COUNT`] recording threads share
//! it; a contended push is dropped and counted instead of waited for, so
//! a GEMM call never blocks on the sink. Every buffer is allocated at its
//! full capacity up front, so a push never allocates: the record sink
//! reserves `SHARD_COUNT * RING_CAPACITY * size_of::<DecisionRecord>()`
//! bytes (1.25 MiB at the 80-byte record), paged in as the buffers fill.
//! A snapshot locks one shard at a time and merges the buffers by `seq`.

use super::counters::{shard_index, SHARD_COUNT};
use super::record::DecisionRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// Number of recent records retained, sized to hold a whole bench sweep
/// of dispatch decisions. Each shard keeps its newest this many, so the
/// merged window is the newest this many overall.
pub const RING_CAPACITY: usize = 1024;

/// One shard's records, oldest first. Padded so two shards' lock words
/// never share a cache line.
#[repr(align(128))]
struct Buffer(Mutex<VecDeque<DecisionRecord>>);

impl Buffer {
    /// Takes the lock even if a holder panicked: records are `Copy` and
    /// pushed whole, so a poisoned buffer is still coherent.
    fn lock(&self) -> MutexGuard<'_, VecDeque<DecisionRecord>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub struct Ring {
    head: AtomicU64,
    dropped: AtomicU64,
    shards: Vec<Buffer>,
}

impl Ring {
    pub fn new() -> Self {
        Ring {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shards: (0..SHARD_COUNT)
                .map(|_| Buffer(Mutex::new(VecDeque::with_capacity(RING_CAPACITY))))
                .collect(),
        }
    }

    /// Total records ever pushed (not capped by capacity).
    #[cfg(test)]
    // ORDERING(SHALOM-O-RING-TICKET): monotonic ticket snapshot; the shard locks order the records.
    pub fn total_pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped because their shard's lock was held.
    // ORDERING(SHALOM-O-TEL-COUNTER): racy stats snapshot by design.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Store one record, returning its global sequence number.
    pub fn push(&self, mut rec: DecisionRecord) -> u64 {
        // ORDERING(SHALOM-O-RING-TICKET): Relaxed fetch_add only numbers the
        // record; the shard lock below orders the record itself.
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        rec.seq = ticket;
        let mut buf = match self.shards[shard_index()].0.try_lock() {
            Ok(buf) => buf,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                // A snapshot (or a thread sharing the shard) holds the
                // lock; losing one record beats waiting on the hot path.
                // ORDERING(SHALOM-O-TEL-COUNTER): racy drop count, reporting only.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return ticket;
            }
        };
        if buf.len() == RING_CAPACITY {
            buf.pop_front();
        }
        buf.push_back(rec);
        ticket
    }

    /// Snapshot of the newest [`RING_CAPACITY`] records, oldest first.
    pub fn recent(&self) -> Vec<DecisionRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().iter().copied());
        }
        out.sort_unstable_by_key(|r| r.seq);
        out.drain(..out.len().saturating_sub(RING_CAPACITY));
        out
    }

    /// Forget all retained records and counts.
    // ORDERING(SHALOM-O-RING-RESET): Relaxed wipe of the ticket and drop
    // counts is only sound between measurement phases, with no concurrent
    // writers.
    pub fn clear(&self) {
        self.head.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        for shard in &self.shards {
            shard.lock().clear();
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

    /// Readers running *concurrently* with writers must never surface a
    /// torn record. Run under ThreadSanitizer in CI, with no
    /// suppression, to catch any race between a push and a snapshot.
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
                            // Every writer's record (m != 0) must
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

//! Sharded aggregate counters.
//!
//! Each thread hashes to one of [`SHARD_COUNT`] cache-line-padded shards
//! and updates it with relaxed atomics, so concurrent GEMM workers never
//! contend on a shared line; totals are summed at snapshot time.

use super::record::{DecisionRecord, PathTag};
use crate::decision::{BPlan, ShapeClass};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter shards. Power of two, comfortably above the core
/// counts of the paper's test machines.
pub const SHARD_COUNT: usize = 16;

/// One shard of counters, padded to avoid false sharing with its
/// neighbours in the static array.
#[repr(align(128))]
#[derive(Default)]
pub struct Shard {
    /// Decision records submitted through this shard.
    pub calls: AtomicU64,
    /// Calls by [`ShapeClass::index`].
    pub by_class: [AtomicU64; ShapeClass::ALL.len()],
    /// Calls by [`BPlan::index`].
    pub by_plan: [AtomicU64; BPlan::ALL.len()],
    /// Calls by [`PathTag::index`].
    pub by_path: [AtomicU64; 4],
    /// Total sequential-pack nanoseconds.
    pub pack_ns: AtomicU64,
    /// Total dispatch wall nanoseconds (pack + compute).
    pub total_ns: AtomicU64,
    /// Fork-join scopes opened (§6 parallel parents).
    pub fork_joins: AtomicU64,
    /// Nanoseconds of fork-join overhead: parent wall time minus the
    /// slowest worker's compute time.
    pub fork_join_overhead_ns: AtomicU64,
    /// `gemm_batch` API calls.
    pub batch_calls: AtomicU64,
    /// Individual problems inside batch calls.
    pub batch_items: AtomicU64,
    /// High-water mark of per-thread workspace bytes seen by this shard.
    pub workspace_peak: AtomicU64,
    /// Pool dispatches (one per parallel/batch call published to a
    /// fork-join runtime).
    pub dispatches: AtomicU64,
    /// Nanoseconds spent dispatching: publish + worker wake latency,
    /// before the calling thread starts computing. Distinguished from
    /// `fork_join_overhead_ns`, which also contains the join tail.
    pub dispatch_ns: AtomicU64,
    /// Spans the `shalom-trace` lane buffers accepted.
    pub trace_spans_recorded: AtomicU64,
    /// Spans dropped on lane overflow (or by laneless threads) — the
    /// signal that the fixed lane capacity was too small for the run.
    pub trace_spans_dropped: AtomicU64,
}

impl Shard {
    // ORDERING(SHALOM-O-TEL-COUNTER): per-shard Relaxed adds; totals are a racy
    // snapshot by design, no reader infers cross-counter consistency.
    fn observe(&self, rec: &DecisionRecord) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.by_class[rec.class.index()].fetch_add(1, Ordering::Relaxed);
        self.by_plan[rec.plan.index()].fetch_add(1, Ordering::Relaxed);
        self.by_path[rec.path.index()].fetch_add(1, Ordering::Relaxed);
        self.pack_ns.fetch_add(rec.pack_ns, Ordering::Relaxed);
        self.total_ns.fetch_add(rec.total_ns, Ordering::Relaxed);
        self.workspace_peak
            .fetch_max(rec.workspace_bytes as u64, Ordering::Relaxed);
    }

    // ORDERING(SHALOM-O-TEL-COUNTER): Relaxed zeroing; concurrent observers may
    // land on either side of the wipe, which snapshot consumers tolerate.
    fn clear(&self) {
        self.calls.store(0, Ordering::Relaxed);
        for c in &self.by_class {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.by_plan {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.by_path {
            c.store(0, Ordering::Relaxed);
        }
        self.pack_ns.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.fork_joins.store(0, Ordering::Relaxed);
        self.fork_join_overhead_ns.store(0, Ordering::Relaxed);
        self.batch_calls.store(0, Ordering::Relaxed);
        self.batch_items.store(0, Ordering::Relaxed);
        self.workspace_peak.store(0, Ordering::Relaxed);
        self.dispatches.store(0, Ordering::Relaxed);
        self.dispatch_ns.store(0, Ordering::Relaxed);
        self.trace_spans_recorded.store(0, Ordering::Relaxed);
        self.trace_spans_dropped.store(0, Ordering::Relaxed);
    }
}

/// This thread's shard index, below [`SHARD_COUNT`]: threads are striped
/// round-robin on first use. The record ring uses the same index, so a
/// thread's counters and its recent records live in the same shard.
#[inline]
pub fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // ORDERING(SHALOM-O-TEL-SHARD-IDX): Relaxed tick only spreads threads
        // over shards; no data hangs off the index.
        static SHARD_IDX: usize =
            NEXT.fetch_add(1, Ordering::Relaxed) & (SHARD_COUNT - 1);
    }
    SHARD_IDX.with(|i| *i)
}

pub struct ShardedCounters {
    shards: Vec<Shard>,
}

impl ShardedCounters {
    pub fn new() -> Self {
        ShardedCounters {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
        }
    }

    /// This thread's shard.
    #[inline]
    pub fn local(&self) -> &Shard {
        &self.shards[shard_index()]
    }

    /// Fold one decision record into this thread's shard.
    #[inline]
    pub fn observe(&self, rec: &DecisionRecord) {
        self.local().observe(rec);
    }

    /// Count a fork-join scope and its measured overhead.
    #[inline]
    // ORDERING(SHALOM-O-TEL-COUNTER): Relaxed stats adds, reporting only.
    pub fn observe_fork_join(&self, overhead_ns: u64) {
        let shard = self.local();
        shard.fork_joins.fetch_add(1, Ordering::Relaxed);
        shard
            .fork_join_overhead_ns
            .fetch_add(overhead_ns, Ordering::Relaxed);
    }

    /// Count a batch API call with `items` member problems.
    #[inline]
    // ORDERING(SHALOM-O-TEL-COUNTER): Relaxed stats adds, reporting only.
    pub fn observe_batch(&self, items: usize) {
        let shard = self.local();
        shard.batch_calls.fetch_add(1, Ordering::Relaxed);
        shard.batch_items.fetch_add(items as u64, Ordering::Relaxed);
    }

    /// Count one runtime dispatch (publish + wake) of `ns` nanoseconds.
    #[inline]
    // ORDERING(SHALOM-O-TEL-COUNTER): Relaxed stats adds, reporting only.
    pub fn observe_dispatch(&self, ns: u64) {
        let shard = self.local();
        shard.dispatches.fetch_add(1, Ordering::Relaxed);
        shard.dispatch_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Count spans accepted/dropped by the `shalom-trace` lane buffers.
    #[inline]
    // ORDERING(SHALOM-O-TEL-COUNTER): Relaxed stats adds, reporting only.
    pub fn observe_trace_spans(&self, recorded: u64, dropped: u64) {
        let shard = self.local();
        if recorded != 0 {
            shard
                .trace_spans_recorded
                .fetch_add(recorded, Ordering::Relaxed);
        }
        if dropped != 0 {
            shard
                .trace_spans_dropped
                .fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Sum every shard into one plain-integer view.
    // ORDERING(SHALOM-O-TEL-COUNTER): Relaxed sums — the snapshot is racy across
    // shards and counters by design; no ordering edge is inferred from it.
    pub fn totals(&self) -> CounterTotals {
        let mut t = CounterTotals::default();
        for s in &self.shards {
            t.calls += s.calls.load(Ordering::Relaxed);
            for (dst, src) in t.by_class.iter_mut().zip(&s.by_class) {
                *dst += src.load(Ordering::Relaxed);
            }
            for (dst, src) in t.by_plan.iter_mut().zip(&s.by_plan) {
                *dst += src.load(Ordering::Relaxed);
            }
            for (dst, src) in t.by_path.iter_mut().zip(&s.by_path) {
                *dst += src.load(Ordering::Relaxed);
            }
            t.pack_ns += s.pack_ns.load(Ordering::Relaxed);
            t.total_ns += s.total_ns.load(Ordering::Relaxed);
            t.fork_joins += s.fork_joins.load(Ordering::Relaxed);
            t.fork_join_overhead_ns += s.fork_join_overhead_ns.load(Ordering::Relaxed);
            t.batch_calls += s.batch_calls.load(Ordering::Relaxed);
            t.batch_items += s.batch_items.load(Ordering::Relaxed);
            t.workspace_peak_bytes = t
                .workspace_peak_bytes
                .max(s.workspace_peak.load(Ordering::Relaxed));
            t.dispatches += s.dispatches.load(Ordering::Relaxed);
            t.dispatch_ns += s.dispatch_ns.load(Ordering::Relaxed);
            t.trace_spans_recorded += s.trace_spans_recorded.load(Ordering::Relaxed);
            t.trace_spans_dropped += s.trace_spans_dropped.load(Ordering::Relaxed);
        }
        t
    }

    /// Zero every shard.
    pub fn clear(&self) {
        for s in &self.shards {
            s.clear();
        }
    }
}

impl Default for ShardedCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-integer sum of all shards at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterTotals {
    pub calls: u64,
    pub by_class: [u64; ShapeClass::ALL.len()],
    pub by_plan: [u64; BPlan::ALL.len()],
    pub by_path: [u64; 4],
    pub pack_ns: u64,
    pub total_ns: u64,
    pub fork_joins: u64,
    pub fork_join_overhead_ns: u64,
    pub batch_calls: u64,
    pub batch_items: u64,
    pub workspace_peak_bytes: u64,
    pub dispatches: u64,
    pub dispatch_ns: u64,
    pub trace_spans_recorded: u64,
    pub trace_spans_dropped: u64,
}

impl CounterTotals {
    /// JSON object with named keys per class/plan/path.
    pub fn to_json(&self) -> String {
        let named = |names: &[&str], vals: &[u64]| -> String {
            names
                .iter()
                .zip(vals)
                .map(|(n, v)| format!("\"{n}\":{v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let class_names = ShapeClass::ALL.map(ShapeClass::as_str);
        let plan_names = BPlan::ALL.map(BPlan::as_str);
        let path_names = PathTag::ALL.map(PathTag::as_str);
        format!(
            concat!(
                "{{\"calls\":{},\"by_class\":{{{}}},\"by_plan\":{{{}}},",
                "\"by_path\":{{{}}},\"pack_ns\":{},\"total_ns\":{},",
                "\"fork_joins\":{},\"fork_join_overhead_ns\":{},",
                "\"batch_calls\":{},\"batch_items\":{},",
                "\"workspace_peak_bytes\":{},",
                "\"dispatches\":{},\"dispatch_ns\":{},",
                "\"trace_spans_recorded\":{},\"trace_spans_dropped\":{}}}"
            ),
            self.calls,
            named(&class_names, &self.by_class),
            named(&plan_names, &self.by_plan),
            named(&path_names, &self.by_path),
            self.pack_ns,
            self.total_ns,
            self.fork_joins,
            self.fork_join_overhead_ns,
            self.batch_calls,
            self.batch_items,
            self.workspace_peak_bytes,
            self.dispatches,
            self.dispatch_ns,
            self.trace_spans_recorded,
            self.trace_spans_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_sums_across_threads() {
        let counters = std::sync::Arc::new(ShardedCounters::new());
        let threads = 8;
        let per = 1000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let counters = counters.clone();
                scope.spawn(move || {
                    for i in 0..per {
                        counters.observe(&DecisionRecord {
                            class: ShapeClass::Irregular,
                            plan: BPlan::Fused,
                            path: PathTag::ParallelWorker,
                            pack_ns: 2,
                            total_ns: 5,
                            workspace_bytes: i,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let t = counters.totals();
        let n = (threads * per) as u64;
        assert_eq!(t.calls, n);
        assert_eq!(t.by_class[ShapeClass::Irregular.index()], n);
        assert_eq!(t.by_plan[BPlan::Fused.index()], n);
        assert_eq!(t.by_path[PathTag::ParallelWorker.index()], n);
        assert_eq!(t.pack_ns, 2 * n);
        assert_eq!(t.total_ns, 5 * n);
        assert_eq!(t.workspace_peak_bytes, (per - 1) as u64);
    }

    #[test]
    fn fork_join_and_batch_counters() {
        let counters = ShardedCounters::new();
        counters.observe_fork_join(123);
        counters.observe_fork_join(77);
        counters.observe_batch(32);
        counters.observe_batch(8);
        counters.observe_dispatch(40);
        counters.observe_dispatch(2);
        let t = counters.totals();
        assert_eq!(t.fork_joins, 2);
        assert_eq!(t.fork_join_overhead_ns, 200);
        assert_eq!(t.batch_calls, 2);
        assert_eq!(t.batch_items, 40);
        assert_eq!(t.dispatches, 2);
        assert_eq!(t.dispatch_ns, 42);
        counters.clear();
        assert_eq!(counters.totals(), CounterTotals::default());
    }

    #[test]
    fn trace_span_counters() {
        let counters = ShardedCounters::new();
        counters.observe_trace_spans(3, 0);
        counters.observe_trace_spans(1, 2);
        counters.observe_trace_spans(0, 0); // no-op, keeps shards quiet
        let t = counters.totals();
        assert_eq!(t.trace_spans_recorded, 4);
        assert_eq!(t.trace_spans_dropped, 2);
        let j = t.to_json();
        for needle in ["\"trace_spans_recorded\":4", "\"trace_spans_dropped\":2"] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
        counters.clear();
        assert_eq!(counters.totals(), CounterTotals::default());
    }

    #[test]
    fn totals_json_names_every_bucket() {
        let counters = ShardedCounters::new();
        counters.observe(&DecisionRecord::default());
        let j = counters.totals().to_json();
        for needle in [
            "\"calls\":1",
            "\"small\":1",
            "\"irregular\":0",
            "\"no-pack\":1",
            "\"sequential-pack\":0",
            "\"serial\":1",
            "\"workspace_peak_bytes\":0",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
    }
}

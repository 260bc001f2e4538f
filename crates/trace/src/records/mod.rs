//! The decision-record sink: one [`DecisionRecord`] per dispatch
//! (shape class, packing plan, tile, thread grid, plan source, pack and
//! total nanoseconds) fanned out to thread-sharded counters, per-class
//! latency histograms and a ring of recent records, plus the
//! aggregate counters the fork-join, dispatch and batch layers feed
//! directly. (The service counts its own traffic, per instance, in
//! `shalom-service`'s `stats`.)
//!
//! Nothing here checks the capture state word: callers gate on
//! [`crate::enabled`]`(`[`crate::Sink::Records`]`)` (or on a region
//! token's [`crate::SpanToken::records`]) first. When the sink is on,
//! the hot path touches sharded atomics and one `try_lock` of its own
//! shard's record buffer: it never waits (a contended push is dropped and
//! counted), allocates nothing (the buffers are sized in [`init`]) and
//! makes no syscall.

mod counters;
mod hist;
mod record;
mod ring;
mod snapshot;

pub use counters::{CounterTotals, SHARD_COUNT};
pub use hist::{Histogram, HIST_BUCKETS};
pub use record::{DecisionRecord, PathTag};
pub use ring::RING_CAPACITY;
pub use snapshot::TelemetrySnapshot;

use counters::ShardedCounters;
use hist::ClassHistograms;
use ring::Ring;
use std::cell::Cell;
use std::sync::OnceLock;

struct Global {
    counters: ShardedCounters,
    hists: ClassHistograms,
    ring: Ring,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        counters: ShardedCounters::new(),
        hists: ClassHistograms::new(),
        ring: Ring::new(),
    })
}

/// Allocates the sink outside any measured region (called by
/// [`crate::enable`]), the ring's full-capacity shard buffers included.
pub(crate) fn init() {
    let _ = global();
}

thread_local! {
    /// Dispatch-layer tag the *next* serial record on this thread gets.
    static PATH: Cell<PathTag> = const { Cell::new(PathTag::Serial) };
    /// Nanoseconds of sequential packing accumulated on this thread
    /// since the current call started (see `take_pack_ns`).
    static PACK_NS: Cell<u64> = const { Cell::new(0) };
    /// Nanoseconds of plan resolution accumulated on this thread since
    /// the current call started (see `take_plan_ns`).
    static PLAN_NS: Cell<u64> = const { Cell::new(0) };
}

/// Set this thread's dispatch-path tag, returning the previous value.
/// Worker closures tag themselves `ParallelWorker` / `Batch` so their
/// serial-driver records are attributable; restore the returned value
/// when the scope ends (caller threads outlive the call).
pub fn set_path(path: PathTag) -> PathTag {
    PATH.with(|p| p.replace(path))
}

/// This thread's current dispatch-path tag.
pub fn current_path() -> PathTag {
    PATH.with(|p| p.get())
}

/// Add `ns` to this thread's sequential-pack span accumulator.
#[inline]
pub fn add_pack_ns(ns: u64) {
    PACK_NS.with(|c| c.set(c.get() + ns));
}

/// Drain this thread's sequential-pack span accumulator. The serial
/// driver calls this at dispatch end so nested pack spans attribute to
/// exactly one record.
#[inline]
pub fn take_pack_ns() -> u64 {
    PACK_NS.with(|c| c.replace(0))
}

/// Add `ns` to this thread's plan-resolution accumulator.
#[inline]
pub fn add_plan_ns(ns: u64) {
    PLAN_NS.with(|c| c.set(c.get() + ns));
}

/// Drain this thread's plan-resolution accumulator; the serial driver
/// pairs it with [`take_pack_ns`].
#[inline]
pub fn take_plan_ns() -> u64 {
    PLAN_NS.with(|c| c.replace(0))
}

/// Submit one decision record: counters, histogram, and the recent ring.
/// `rec.seq` is assigned here. Callers check [`crate::enabled`] first;
/// records submitted while disabled are still accepted (tests use this).
pub fn record(mut rec: DecisionRecord) {
    let g = global();
    if rec.path == PathTag::Serial {
        rec.path = current_path();
    }
    g.counters.observe(&rec);
    g.hists.observe(rec.class, rec.total_ns);
    g.ring.push(rec);
}

/// Count one §6 fork-join scope with its measured overhead
/// (parent wall time minus slowest worker).
pub fn record_fork_join(overhead_ns: u64) {
    global().counters.observe_fork_join(overhead_ns);
}

/// Count one batch API call of `items` member problems.
pub fn record_batch(items: usize) {
    global().counters.observe_batch(items);
}

/// Count one fork-join runtime dispatch: the publish + worker-wake
/// latency (`ns`) paid before the calling thread starts computing (the
/// persistent pool's condvar publish).
pub fn record_dispatch(ns: u64) {
    global().counters.observe_dispatch(ns);
}

/// Count spans accepted (`recorded`) and lost (`dropped`) by the span
/// lane buffers, so lane sizing shows up in the same snapshot as
/// everything else.
#[inline]
pub(crate) fn record_trace_spans(recorded: u64, dropped: u64) {
    global().counters.observe_trace_spans(recorded, dropped);
}

/// Capture a point-in-time [`TelemetrySnapshot`].
pub fn record_snapshot() -> TelemetrySnapshot {
    let g = global();
    TelemetrySnapshot {
        totals: g.counters.totals(),
        histograms: g.hists.snapshot(),
        recent: g.ring.recent(),
        dropped_records: g.ring.dropped(),
        perf: crate::perf::sample(),
    }
}

/// Zero all counters, histograms and the ring (the records half of
/// [`crate::reset`]).
pub(crate) fn reset() {
    let g = global();
    g.counters.clear();
    g.hists.clear();
    g.ring.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{BPlan, ShapeClass};
    use crate::tests::state_lock;

    #[test]
    fn record_flows_to_all_views() {
        let _l = state_lock();
        reset();
        record(DecisionRecord {
            m: 64,
            n: 50176,
            k: 64,
            class: ShapeClass::Irregular,
            plan: BPlan::FusedLookahead,
            total_ns: 5_000,
            workspace_bytes: 1 << 16,
            ..Default::default()
        });
        let snap = record_snapshot();
        assert_eq!(snap.totals.calls, 1);
        assert_eq!(snap.totals.by_class[ShapeClass::Irregular.index()], 1);
        assert_eq!(snap.totals.workspace_peak_bytes, 1 << 16);
        assert_eq!(snap.histograms[ShapeClass::Irregular.index()].count(), 1);
        assert_eq!(snap.recent.len(), 1);
        assert_eq!(snap.recent[0].n, 50176);
        reset();
        assert_eq!(record_snapshot().totals.calls, 0);
        assert!(record_snapshot().recent.is_empty());
    }

    #[test]
    fn path_tag_inheritance() {
        let _l = state_lock();
        reset();
        let prev = set_path(PathTag::Batch);
        assert_eq!(prev, PathTag::Serial);
        // Serial-tagged records inherit the thread's path...
        record(DecisionRecord::default());
        // ...explicit tags are kept.
        record(DecisionRecord {
            path: PathTag::Parallel,
            ..Default::default()
        });
        set_path(prev);
        assert_eq!(current_path(), PathTag::Serial);
        let snap = record_snapshot();
        assert_eq!(snap.totals.by_path[PathTag::Batch.index()], 1);
        assert_eq!(snap.totals.by_path[PathTag::Parallel.index()], 1);
        reset();
    }

    #[test]
    fn pack_span_accumulator_drains() {
        add_pack_ns(40);
        add_pack_ns(2);
        assert_eq!(take_pack_ns(), 42);
        assert_eq!(take_pack_ns(), 0);
        add_plan_ns(7);
        assert_eq!(take_plan_ns(), 7);
        assert_eq!(take_plan_ns(), 0);
    }

    #[test]
    fn trace_span_records() {
        let _l = state_lock();
        reset();
        record_trace_spans(10, 0);
        record_trace_spans(0, 3);
        let snap = record_snapshot();
        assert_eq!(snap.totals.trace_spans_recorded, 10);
        assert_eq!(snap.totals.trace_spans_dropped, 3);
        let text = snap.summary();
        assert!(
            text.contains("trace spans: 10 recorded / 3 dropped"),
            "{text}"
        );
        reset();
        assert!(!record_snapshot().summary().contains("trace spans"));
    }

    #[test]
    fn fork_join_and_batch_records() {
        let _l = state_lock();
        reset();
        record_fork_join(300);
        record_batch(16);
        record_dispatch(55);
        let t = record_snapshot().totals;
        assert_eq!(t.fork_joins, 1);
        assert_eq!(t.fork_join_overhead_ns, 300);
        assert_eq!(t.batch_calls, 1);
        assert_eq!(t.batch_items, 16);
        assert_eq!(t.dispatches, 1);
        assert_eq!(t.dispatch_ns, 55);
        reset();
    }
}

//! # shalom-trace
//!
//! The one capture layer of the LibShalom dispatch pipeline, with two
//! sinks behind one state word:
//!
//! * **decision records** ([`Sink::Records`]) — *per-call aggregates*:
//!   one [`DecisionRecord`] per dispatch (shape class, packing plan,
//!   tile, thread grid, plan source, pack/plan/total nanoseconds) into
//!   sharded counters, per-class latency histograms and a ring of
//!   recent records that never waits ([`record_snapshot`]); optional Linux
//!   `perf_event` hardware counters behind the `perf-hooks` feature;
//! * **spans** ([`Sink::Spans`]) — a *timeline*: one [`SpanRecord`] per
//!   phase instance (plan lookup, pack-A, pack-B, per-block compute,
//!   queue/barrier waits, worker parks, batch items), bucketed into
//!   per-thread lanes so a pooled GEMM call can be replayed worker by
//!   worker ([`span_snapshot`]). The paper's Fig 13 time breakdown and
//!   §6 imbalance analysis fall out of [`TraceSnapshot::report`];
//!   `chrome://tracing` / Perfetto get the raw timeline via
//!   [`chrome_trace_json`].
//!
//! The crate also carries the dispatch-decision vocabulary every layer
//! shares ([`decision`]: shape class, packing regime, edge schedule,
//! plan source), the workspace's one JSON reader/writer ([`json`]) and
//! the one span clock ([`now_ns`]), and has no dependencies.
//!
//! ## Cost model
//!
//! Both sinks are **off by default at runtime**. Off, a site is one
//! relaxed load of the state word and a branch; the core crate reads the
//! word once per plan-handle build and once per run, and with both sinks
//! off runs a driver instantiation with no sites in it. Switched on, a
//! region ([`span_start`]) serves both sinks from the same two clock
//! reads (`cntvct_el0` / `rdtsc`): the span is one 32-byte write into a
//! pre-allocated per-thread buffer, and the elapsed time [`span_end`]
//! returns feeds the record-side aggregates.
//! No locks, no allocation, no syscalls on either path. Lane buffers
//! are fixed capacity ([`SPANS_PER_LANE`]); overflow *drops* spans and
//! counts the drops rather than growing or blocking.
//!
//! ## Usage
//!
//! ```
//! use shalom_trace::{DecisionRecord, Sink};
//! shalom_trace::enable(Sink::Both);
//! // ... run GEMMs through an instrumented crate, or record directly:
//! shalom_trace::record(DecisionRecord {
//!     m: 64, n: 64, k: 64,
//!     op_a: b'N', op_b: b'N',
//!     ..Default::default()
//! });
//! let snap = shalom_trace::record_snapshot();
//! assert_eq!(snap.totals.calls, 1);
//! println!("{}", snap.to_json());
//! shalom_trace::disable(Sink::Both);
//! ```
//!
//! ## Concurrency protocol
//!
//! Each OS thread claims one lane (index from a monotonic counter) and
//! is that lane's only writer, ever. The writer publishes a record by
//! filling `buf[len]` and then storing `len + 1` with `Release`;
//! [`span_snapshot`] reads `len` with `Acquire` and then the first `len`
//! records — the classic single-producer publish. Threads beyond
//! [`MAX_LANES`] record nothing and count their spans as dropped. The
//! record ring keeps one mutex-guarded buffer per counter shard; a push
//! only `try_lock`s its own shard and drops the record if that fails
//! (see `records/ring.rs`).
//!
//! shalom-analysis: deny(panic)

pub mod chrome;
mod clock;
pub mod decision;
pub mod json;
pub mod perf;
mod records;
mod snapshot;

pub use chrome::chrome_trace_json;
pub use clock::now_ns;
pub use decision::{BPlan, EdgeSchedule, PlanSource, ShapeClass};
pub use perf::PerfSample;
pub use records::{
    add_pack_ns, add_plan_ns, current_path, record, record_batch, record_dispatch,
    record_fork_join, record_snapshot, set_path, take_pack_ns, take_plan_ns, CounterTotals,
    DecisionRecord, Histogram, PathTag, TelemetrySnapshot, HIST_BUCKETS, RING_CAPACITY,
    SHARD_COUNT,
};
pub use snapshot::{LaneSnapshot, LaneStat, PhaseStat, TraceReport, TraceSnapshot};

use std::cell::Cell;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum number of traced threads; later threads drop their spans.
pub const MAX_LANES: usize = 32;

/// Fixed capacity of one per-thread lane (32 B per record).
pub const SPANS_PER_LANE: usize = 4096;

/// Phase of one span. The taxonomy covers every instrumented site in
/// the core crate; `as_str` names are the lane labels in exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// One serial GEMM dispatch (`gemm_serial`), end to end.
    Serial = 0,
    /// Plan-cache lookup (hit, miss + recompute, or profile override).
    PlanLookup = 1,
    /// Sequential packing of the A operand.
    PackA = 2,
    /// Sequential packing of a B panel.
    PackB = 3,
    /// One macro-block compute sweep (packed-panel × A-block kernels).
    Compute = 4,
    /// One pool task executed by a worker (a §6 tile or a batch chunk).
    Task = 5,
    /// One §6 parallel GEMM call, end to end (caller's view).
    Parallel = 6,
    /// One `gemm_batch` call, end to end.
    Batch = 7,
    /// One member problem inside a batch.
    BatchItem = 8,
    /// Pool publish + wake: from call-slot claim to workers notified.
    Dispatch = 9,
    /// Caller waiting for the pool's single call slot to free up.
    QueueWait = 10,
    /// Caller waiting at the join barrier for workers to finish.
    Barrier = 11,
    /// Worker parked on the condvar waiting for work.
    Park = 12,
    /// One service request admitted into the batching queue (submit-side
    /// lock + bucket push; `aux` is the request's shape key).
    Enqueue = 13,
    /// Time a flushed bucket's oldest request sat waiting for batch
    /// formation (recorded retroactively by the scheduler via
    /// [`span_record`]; `aux` is the batch occupancy).
    Linger = 14,
    /// One scheduler flush: bucket extraction through `gemm_batch`
    /// completion (`aux` is the batch occupancy).
    BatchFlush = 15,
}

// Codes are the `repr(u8)` discriminants a span stores; labels are the
// lane labels in exports.
decision::vocabulary!(Phase,
    Serial = 0 => "serial",
    PlanLookup = 1 => "plan_lookup",
    PackA = 2 => "pack_a",
    PackB = 3 => "pack_b",
    Compute = 4 => "compute",
    Task = 5 => "task",
    Parallel = 6 => "parallel",
    Batch = 7 => "batch",
    BatchItem = 8 => "batch_item",
    Dispatch = 9 => "dispatch",
    QueueWait = 10 => "queue_wait",
    Barrier = 11 => "barrier",
    Park = 12 => "park",
    Enqueue = 13 => "enqueue",
    Linger = 14 => "linger",
    BatchFlush = 15 => "batch_flush");

impl Phase {
    /// Whether this phase is idle waiting (counted against utilization)
    /// rather than work. A bucket's linger is queueing latency, not
    /// work, so it counts as waiting too.
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            Phase::QueueWait | Phase::Barrier | Phase::Park | Phase::Linger
        )
    }

    /// Whether a region of this phase also feeds a record-side aggregate
    /// (`total_ns`, `plan_ns`, `pack_ns`, slowest worker, dispatch
    /// latency): such a region is live when *either* sink is capturing,
    /// every other phase only with the span sink.
    pub fn feeds_records(self) -> bool {
        matches!(
            self,
            Phase::Serial
                | Phase::PlanLookup
                | Phase::PackA
                | Phase::PackB
                | Phase::Task
                | Phase::Parallel
                | Phase::Dispatch
        )
    }

    /// Whether `aux` on spans of this phase is a [`shape_key`].
    pub fn carries_shape(self) -> bool {
        matches!(
            self,
            Phase::Serial
                | Phase::PlanLookup
                | Phase::Compute
                | Phase::Parallel
                | Phase::BatchItem
                | Phase::Enqueue
        )
    }
}

/// Packs a GEMM shape into one `u64` aux word: 21 bits per dimension
/// (values clamp at `2^21 - 1 = 2097151`, far above the paper's sizes).
#[inline]
pub fn shape_key(m: usize, n: usize, k: usize) -> u64 {
    const MASK: u64 = (1 << 21) - 1;
    let clamp = |v: usize| (v as u64).min(MASK);
    (clamp(m) << 42) | (clamp(n) << 21) | clamp(k)
}

/// Inverse of [`shape_key`] (exact for unclamped dimensions).
pub fn shape_from_key(key: u64) -> (usize, usize, usize) {
    const MASK: u64 = (1 << 21) - 1;
    (
        ((key >> 42) & MASK) as usize,
        ((key >> 21) & MASK) as usize,
        (key & MASK) as usize,
    )
}

/// One closed span: 32 bytes, plain data, safe to bulk-copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Start, [`now_ns`] units (never 0 for real spans).
    pub t0_ns: u64,
    /// End, same clock; `>= t0_ns`.
    pub t1_ns: u64,
    /// Phase-dependent payload: a [`shape_key`] where
    /// [`Phase::carries_shape`], a task index for `Task`, an item count
    /// for `Batch`, 0 otherwise.
    pub aux: u64,
    /// [`Phase::code`] (`SpanRecord::phase` decodes).
    pub phase: u8,
    /// [`PlanSource::code`] of the plan the span resolved or ran; 0
    /// (no source) for most phases.
    pub src: u8,
    /// Nesting depth at start on the recording thread (0 = top level).
    pub depth: u8,
}

impl SpanRecord {
    /// Span length in nanoseconds.
    #[inline]
    pub fn duration_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }

    /// Decoded phase; an unknown code reads as `Serial` rather than
    /// failing (records are never trusted input).
    #[inline]
    pub fn phase(&self) -> Phase {
        Phase::from_code(self.phase).unwrap_or(Phase::Serial)
    }

    /// Decoded plan source; `None` for spans that carry none.
    #[inline]
    pub fn plan_source(&self) -> Option<PlanSource> {
        PlanSource::from_code(self.src)
    }
}

/// One per-thread span buffer. Single-writer: only the owning thread
/// touches `buf` and stores `len`; readers go through `span_snapshot`.
struct Lane {
    len: AtomicUsize,
    dropped: AtomicU64,
    buf: UnsafeCell<Box<[SpanRecord]>>,
}

// SAFETY: `buf` is written only by the lane's unique owner thread
// (lane indices come from a monotonic counter and are cached in TLS,
// never reused), and only at index `len`; every read in `span_snapshot`
// covers indices `< len` loaded with `Acquire`, which pairs with the
// owner's `Release` store after the write. `len`/`dropped` are atomics.
unsafe impl Sync for Lane {}

struct Lanes {
    lanes: Vec<Lane>,
}

static LANES: OnceLock<Lanes> = OnceLock::new();

fn lanes() -> &'static Lanes {
    LANES.get_or_init(|| Lanes {
        lanes: (0..MAX_LANES)
            .map(|_| Lane {
                len: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                buf: UnsafeCell::new(
                    vec![SpanRecord::default(); SPANS_PER_LANE].into_boxed_slice(),
                ),
            })
            .collect(),
    })
}

/// Which capture sink(s) a runtime switch refers to. The discriminants
/// are the sink's bits in the state word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Sink {
    /// Per-call decision records, counters and histograms.
    Records = 1,
    /// Per-thread span timelines.
    Spans = 2,
    /// Both sinks.
    Both = 3,
}

/// Bits 0-1: user enable per [`Sink`]. Bits 2..: pause count (scaled by
/// [`PAUSE_UNIT`]). Capture happens only on values `1..=3`, so the
/// disabled check of any site — either sink, paused or not — is one
/// load and one compare.
static STATE: AtomicU32 = AtomicU32::new(0);

const PAUSE_UNIT: u32 = 4;

/// Monotonic lane allocator; never reset, so a lane has one owner for
/// the process lifetime.
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

/// Spans dropped by threads that arrived after all lanes were claimed.
static UNASSIGNED_DROPPED: AtomicU64 = AtomicU64::new(0);

const LANE_UNASSIGNED: usize = usize::MAX;
const LANE_NONE: usize = usize::MAX - 1;

thread_local! {
    /// This thread's lane index; `LANE_UNASSIGNED` until first span,
    /// `LANE_NONE` when the process ran out of lanes.
    static LANE_IDX: Cell<usize> = const { Cell::new(LANE_UNASSIGNED) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u8> = const { Cell::new(0) };
}

/// Turn `sink` on. The record sink, the lane arena (4 MB, spans only)
/// and the span clock are initialized here, outside any measured
/// region, so the capture paths never allocate or calibrate. Gathered
/// data is kept; call [`reset`] for a clean slate.
// ORDERING(SHALOM-O-CAPTURE-STATE): Relaxed bit set — the word only gates
// whether capture happens; records are published by the ring's shard locks
// and the sharded counters, span data via lane `len`.
pub fn enable(sink: Sink) {
    let _ = now_ns();
    records::init();
    if sink as u32 & Sink::Spans as u32 != 0 {
        let _ = lanes();
    }
    STATE.fetch_or(sink as u32, Ordering::Relaxed);
}

/// Turn `sink` off. Gathered data stays readable via [`record_snapshot`]
/// / [`span_snapshot`].
// ORDERING(SHALOM-O-CAPTURE-STATE): Relaxed bit clear; see `enable`.
pub fn disable(sink: Sink) {
    STATE.fetch_and(!(sink as u32), Ordering::Relaxed);
}

/// The sinks capturing right now, as [`Sink`] bits: 0 when nothing is
/// enabled or capture is paused. One relaxed load and a compare — the
/// entire disabled-path cost of a capture site.
#[inline]
// ORDERING(SHALOM-O-CAPTURE-STATE): one Relaxed load on the hot path — a
// stale view only records or skips one extra call or span.
fn active() -> u32 {
    let st = STATE.load(Ordering::Relaxed);
    if st > Sink::Both as u32 {
        0
    } else {
        st
    }
}

/// Whether `sink` is capturing (enabled and not paused); for
/// [`Sink::Both`], whether either is — the one-load test of whether
/// capture is on at all.
#[inline]
pub fn enabled(sink: Sink) -> bool {
    active() & sink as u32 != 0
}

/// Suspend both sinks while the guard lives, without toggling the user
/// enable bits. Used by the autotuner so its probe GEMMs pollute
/// neither the records nor the timeline; nests freely.
// ORDERING(SHALOM-O-CAPTURE-STATE): Relaxed nesting count; same-thread RAII
// pairs the add/sub, cross-thread skew only mistimes capture of a record.
pub fn pause_guard() -> PauseGuard {
    STATE.fetch_add(PAUSE_UNIT, Ordering::Relaxed);
    PauseGuard { _priv: () }
}

/// RAII token from [`pause_guard`].
pub struct PauseGuard {
    _priv: (),
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        // ORDERING(SHALOM-O-CAPTURE-STATE): pairs with `pause_guard`'s add.
        STATE.fetch_sub(PAUSE_UNIT, Ordering::Relaxed);
    }
}

/// Clears both sinks: zeroes the counters, histograms and record ring,
/// empties every lane and zeroes the drop counters. Does not change the
/// enabled state or `perf` counters (diff samples instead). Lane
/// *ownership* is kept (threads keep their lanes). Callers must be
/// quiescent — no GEMM in flight; a concurrent writer could republish
/// over the wipe.
pub fn reset() {
    records::reset();
    if let Some(ls) = LANES.get() {
        for lane in &ls.lanes {
            // ORDERING(SHALOM-O-TRACE-RESET): Relaxed wipe valid only under
            // external quiescence; no concurrent writer exists by contract.
            lane.len.store(0, Ordering::Relaxed);
            lane.dropped.store(0, Ordering::Relaxed);
        }
    }
    // ORDERING(SHALOM-O-TRACE-RESET): same quiescence argument.
    UNASSIGNED_DROPPED.store(0, Ordering::Relaxed);
}

/// This thread's lane index, claiming one on first use.
#[inline]
fn lane_index() -> usize {
    LANE_IDX.with(|c| {
        let v = c.get();
        if v != LANE_UNASSIGNED {
            return v;
        }
        // ORDERING(SHALOM-O-TRACE-LANE-IDX): Relaxed monotonic tick; the
        // index is cached in TLS and no data hangs off the counter itself.
        let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        let v = if id < MAX_LANES { id } else { LANE_NONE };
        c.set(v);
        v
    })
}

/// Open-span token from [`span_start`]; close it with [`span_end`] or
/// [`span_end_src`]. `t0 == 0` marks the inert token (capture was off).
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    t0: u64,
    aux: u64,
    phase: u8,
    depth: u8,
    /// [`Sink`] bits that were capturing at the start.
    sinks: u8,
}

impl SpanToken {
    /// Token that records nothing when closed; what [`span_start`]
    /// returns while capture is off, and a useful initializer for
    /// lazily-started spans.
    #[inline]
    pub const fn inert() -> SpanToken {
        SpanToken {
            t0: 0,
            aux: 0,
            phase: 0,
            depth: 0,
            sinks: 0,
        }
    }

    /// Whether closing this token is a no-op.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.t0 == 0
    }

    /// Whether the record sink was capturing when this region started:
    /// the caller feeds the elapsed time [`span_end`] returns into its
    /// per-call aggregates only then.
    #[inline]
    pub fn records(&self) -> bool {
        self.sinks & Sink::Records as u8 != 0
    }
}

/// Starts a region of `phase` with payload `aux` if a sink that wants
/// it is capturing — the span sink, or for phases that
/// [feed a record aggregate](Phase::feeds_records) either sink — and
/// returns the inert token otherwise. One pair of clock reads serves
/// both sinks: closing the token writes the span (span sink) and returns
/// the elapsed nanoseconds, which the caller adds to its record-side
/// aggregate when [`SpanToken::records`] says that sink was on. The
/// token is `Copy` and must be closed on the same thread it was opened
/// on (depths are per-thread).
#[inline]
pub fn span_start(phase: Phase, aux: u64) -> SpanToken {
    let want = if phase.feeds_records() {
        Sink::Both
    } else {
        Sink::Spans
    };
    let on = active() & want as u32;
    if on == 0 {
        return SpanToken::inert();
    }
    begin_span(phase, aux, on as u8)
}

// ALLOC-FREE
#[inline(never)]
fn begin_span(phase: Phase, aux: u64, sinks: u8) -> SpanToken {
    let depth = if sinks & Sink::Spans as u8 != 0 {
        DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        })
    } else {
        0
    };
    SpanToken {
        t0: now_ns().max(1),
        aux,
        phase: phase as u8,
        depth,
        sinks,
    }
}

/// Closes a span and returns its length in nanoseconds (0 for the inert
/// token). Records even if capture was disabled after the start, so
/// enable/disable races never leave half-open nesting.
#[inline]
pub fn span_end(tok: SpanToken) -> u64 {
    close_span(tok, 0)
}

/// [`span_end`], stamping the plan's [`PlanSource`] on the record.
#[inline]
pub fn span_end_src(tok: SpanToken, source: PlanSource) -> u64 {
    close_span(tok, source.code())
}

#[inline]
fn close_span(tok: SpanToken, src_code: u8) -> u64 {
    if tok.t0 == 0 {
        return 0;
    }
    finish_span(tok, src_code)
}

// ALLOC-FREE
#[inline(never)]
fn finish_span(tok: SpanToken, src_code: u8) -> u64 {
    let t1 = now_ns().max(tok.t0);
    if tok.sinks & Sink::Spans as u8 != 0 {
        DEPTH.with(|d| d.set(tok.depth));
        push_record(SpanRecord {
            t0_ns: tok.t0,
            t1_ns: t1,
            aux: tok.aux,
            phase: tok.phase,
            src: src_code,
            depth: tok.depth,
        });
    }
    t1 - tok.t0
}

/// Records a span whose endpoints the caller already measured (both in
/// [`now_ns`] units). The token API cannot express phases that start on
/// one thread and end on another — a bucket's linger starts at the
/// oldest enqueue on a submitter thread and ends when the scheduler
/// flushes it — so the scheduler stamps those retroactively here. The
/// record lands in the *calling* thread's lane at its current nesting
/// depth; a `t0_ns` of 0 (the inert marker) is clamped to 1.
#[inline]
pub fn span_record(phase: Phase, t0_ns: u64, t1_ns: u64, aux: u64) {
    if !enabled(Sink::Spans) {
        return;
    }
    record_closed(phase, t0_ns, t1_ns, aux);
}

// ALLOC-FREE
#[inline(never)]
fn record_closed(phase: Phase, t0_ns: u64, t1_ns: u64, aux: u64) {
    let t0 = t0_ns.max(1);
    push_record(SpanRecord {
        t0_ns: t0,
        t1_ns: t1_ns.max(t0),
        aux,
        phase: phase as u8,
        src: 0,
        depth: DEPTH.with(|d| d.get()),
    });
}

// ALLOC-FREE
#[inline]
fn push_record(rec: SpanRecord) {
    let idx = lane_index();
    if idx >= MAX_LANES {
        // ORDERING(SHALOM-O-TRACE-DROP): Relaxed loss counter, stats only.
        UNASSIGNED_DROPPED.fetch_add(1, Ordering::Relaxed);
        records::record_trace_spans(0, 1);
        return;
    }
    let Some(lane) = lanes().lanes.get(idx) else {
        return;
    };
    // ORDERING(SHALOM-O-TRACE-PUBLISH): owner-only Relaxed read of its own
    // lane length; the Release store below publishes the record to readers.
    let len = lane.len.load(Ordering::Relaxed);
    if len >= SPANS_PER_LANE {
        // ORDERING(SHALOM-O-TRACE-DROP): Relaxed loss counter, stats only.
        lane.dropped.fetch_add(1, Ordering::Relaxed);
        records::record_trace_spans(0, 1);
        return;
    }
    // SAFETY: this thread is the lane's unique owner (index from the
    // monotonic claim, cached in TLS), `len < SPANS_PER_LANE` was just
    // checked, and no reader touches index `len` until the Release
    // store below makes it visible.
    unsafe {
        (*lane.buf.get()).as_mut_ptr().add(len).write(rec);
    }
    // ORDERING(SHALOM-O-TRACE-PUBLISH): Release publish of the filled slot;
    // pairs with the Acquire length load in `span_snapshot`.
    lane.len.store(len + 1, Ordering::Release);
    records::record_trace_spans(1, 0);
}

/// Copies every non-empty lane out into an owned [`TraceSnapshot`].
/// Safe to call while writers are active: each lane is read up to its
/// `Acquire`-loaded length, so a span recorded concurrently is either
/// fully visible or not included.
pub fn span_snapshot() -> TraceSnapshot {
    let mut out = Vec::new();
    if let Some(ls) = LANES.get() {
        for (i, lane) in ls.lanes.iter().enumerate() {
            // ORDERING(SHALOM-O-TRACE-PUBLISH): Acquire pairs with the owner's
            // Release length store; records below `len` are fully written.
            let len = lane.len.load(Ordering::Acquire).min(SPANS_PER_LANE);
            // ORDERING(SHALOM-O-TRACE-DROP): Relaxed loss counter, stats only.
            let dropped = lane.dropped.load(Ordering::Relaxed);
            if len == 0 && dropped == 0 {
                continue;
            }
            // SAFETY: the Acquire load above synchronizes with the owner's
            // Release publish of each slot; indices `0..len` are initialized
            // and never rewritten (the buffer is append-only until `reset`,
            // which requires quiescence).
            let spans = unsafe { std::slice::from_raw_parts((*lane.buf.get()).as_ptr(), len) };
            out.push(LaneSnapshot {
                lane: i,
                spans: spans.to_vec(),
                dropped,
            });
        }
    }
    TraceSnapshot {
        lanes: out,
        // ORDERING(SHALOM-O-TRACE-DROP): Relaxed loss counter, stats only.
        dropped_unassigned: UNASSIGNED_DROPPED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The state word, the record sink and the lane arena are
    // process-global; every unit test of this crate that touches them
    // serializes on this one lock.
    pub(crate) fn state_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    #[test]
    fn enable_disable_pause() {
        let _l = state_lock();
        disable(Sink::Both);
        assert!(!enabled(Sink::Records) && !enabled(Sink::Spans));
        assert!(!enabled(Sink::Both));
        enable(Sink::Records);
        assert!(enabled(Sink::Records) && enabled(Sink::Both));
        assert!(!enabled(Sink::Spans));
        enable(Sink::Spans);
        assert!(enabled(Sink::Both));
        {
            // One pause silences both sinks; pauses nest.
            let _g1 = pause_guard();
            assert!(!enabled(Sink::Both));
            let _g2 = pause_guard();
            assert!(!enabled(Sink::Records) && !enabled(Sink::Spans));
        }
        assert!(enabled(Sink::Both));
        disable(Sink::Records);
        assert!(enabled(Sink::Spans) && !enabled(Sink::Records) && enabled(Sink::Both));
        disable(Sink::Spans);
        // Pausing while disabled stays disabled after the guard drops.
        {
            let _g = pause_guard();
            assert!(!enabled(Sink::Records) && !enabled(Sink::Spans));
        }
        assert!(!enabled(Sink::Records) && !enabled(Sink::Spans) && !enabled(Sink::Both));
    }

    #[test]
    fn region_serves_each_sink_from_one_token() {
        let _l = state_lock();
        disable(Sink::Both);
        reset();
        assert!(span_start(Phase::Serial, 0).is_inert());
        // Records only: a phase that feeds an aggregate gets a live
        // token (elapsed time returned, no span, no nesting depth
        // consumed); a spans-only phase stays inert.
        enable(Sink::Records);
        let tok = span_start(Phase::Serial, 0);
        assert!(!tok.is_inert() && tok.records());
        assert!(span_start(Phase::Compute, 0).is_inert());
        let _ = span_end(tok);
        assert_eq!(span_snapshot().total_spans(), 0);
        // Both: the same call also writes the span.
        enable(Sink::Spans);
        let tok = span_start(Phase::PackB, 0);
        assert!(tok.records());
        let ns = span_end(tok);
        disable(Sink::Both);
        let snap = span_snapshot();
        assert_eq!(snap.total_spans(), 1);
        assert_eq!(snap.lanes[0].spans[0].duration_ns(), ns);
        assert_eq!(snap.lanes[0].spans[0].depth, 0);
        // Spans only: the token says not to feed record aggregates.
        enable(Sink::Spans);
        let tok = span_start(Phase::PackA, 0);
        assert!(!tok.is_inert() && !tok.records());
        span_end(tok);
        disable(Sink::Spans);
        // Paused: both kinds of start are inert.
        enable(Sink::Both);
        {
            let _p = pause_guard();
            assert!(span_start(Phase::Serial, 0).is_inert());
            assert!(span_start(Phase::Compute, 0).is_inert());
        }
        disable(Sink::Both);
        reset();
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = state_lock();
        disable(Sink::Spans);
        reset();
        let tok = span_start(Phase::Serial, shape_key(8, 8, 8));
        assert!(tok.is_inert());
        span_end(tok);
        assert_eq!(span_snapshot().total_spans(), 0);
    }

    #[test]
    fn records_and_nests() {
        let _l = state_lock();
        enable(Sink::Spans);
        reset();
        let outer = span_start(Phase::Serial, shape_key(4, 5, 6));
        let inner = span_start(Phase::PackA, 0);
        span_end(inner);
        span_end_src(outer, PlanSource::Profile);
        disable(Sink::Spans);
        let snap = span_snapshot();
        assert_eq!(snap.total_spans(), 2);
        let lane = &snap.lanes[0];
        // Buffer order is close order: inner first.
        assert_eq!(lane.spans[0].phase(), Phase::PackA);
        assert_eq!(lane.spans[0].depth, 1);
        assert_eq!(lane.spans[1].phase(), Phase::Serial);
        assert_eq!(lane.spans[1].depth, 0);
        assert_eq!(lane.spans[1].plan_source(), Some(PlanSource::Profile));
        assert_eq!(lane.spans[0].plan_source(), None);
        assert_eq!(shape_from_key(lane.spans[1].aux), (4, 5, 6));
        assert!(lane.spans[1].t0_ns <= lane.spans[0].t0_ns);
        assert!(lane.spans[1].t1_ns >= lane.spans[0].t1_ns);
        reset();
    }

    #[test]
    fn overflow_drops_and_counts() {
        let _l = state_lock();
        enable(Sink::Spans);
        reset();
        let extra = 37;
        for _ in 0..SPANS_PER_LANE + extra {
            let tok = span_start(Phase::Compute, 0);
            span_end(tok);
        }
        disable(Sink::Spans);
        let snap = span_snapshot();
        let lane = snap
            .lanes
            .iter()
            .find(|l| l.spans.len() == SPANS_PER_LANE)
            .expect("full lane");
        assert_eq!(lane.dropped, extra as u64);
        assert_eq!(snap.total_dropped(), extra as u64);
        reset();
        assert_eq!(span_snapshot().total_spans(), 0);
        assert_eq!(span_snapshot().total_dropped(), 0);
    }

    #[test]
    fn depth_restores_after_drop() {
        let _l = state_lock();
        enable(Sink::Spans);
        reset();
        // Fill the lane, then check nesting depth still tracks through
        // dropped spans.
        for _ in 0..SPANS_PER_LANE {
            span_end(span_start(Phase::Compute, 0));
        }
        let outer = span_start(Phase::Serial, 0);
        let inner = span_start(Phase::PackB, 0);
        assert_eq!(inner.depth, 1);
        span_end(inner);
        span_end(outer);
        let after = span_start(Phase::Serial, 0);
        assert_eq!(after.depth, 0);
        span_end(after);
        disable(Sink::Spans);
        reset();
    }

    #[test]
    fn shape_key_round_trips_and_clamps() {
        assert_eq!(shape_from_key(shape_key(1, 2, 3)), (1, 2, 3));
        assert_eq!(shape_from_key(shape_key(64, 50176, 512)), (64, 50176, 512));
        let max = (1usize << 21) - 1;
        assert_eq!(shape_from_key(shape_key(usize::MAX, 0, 0)).0, max);
    }

    #[test]
    fn phase_codes_round_trip() {
        let decoded = |phase: u8| {
            SpanRecord {
                phase,
                ..SpanRecord::default()
            }
            .phase()
        };
        for p in Phase::ALL {
            assert_eq!((p.code(), decoded(p as u8)), (p as u8, p));
            assert_eq!(Phase::ALL[p.index()], p);
            assert!(!p.as_str().is_empty());
        }
        assert_eq!(decoded(200), Phase::Serial);
        assert!(Phase::Park.is_wait() && !Phase::Compute.is_wait());
    }

    #[test]
    fn span_record_backdates() {
        let _l = state_lock();
        enable(Sink::Spans);
        reset();
        let t0 = now_ns();
        let t1 = t0 + 1234;
        span_record(Phase::Linger, t0, t1, 9);
        // Reversed endpoints clamp to a zero-length span, never panic.
        span_record(Phase::BatchFlush, t1, t0, 3);
        disable(Sink::Spans);
        span_record(Phase::Linger, t0, t1, 9); // off: dropped silently
        let snap = span_snapshot();
        assert_eq!(snap.total_spans(), 2);
        let lane = &snap.lanes[0];
        assert_eq!(lane.spans[0].phase(), Phase::Linger);
        assert_eq!(lane.spans[0].duration_ns(), 1234);
        assert_eq!(lane.spans[0].aux, 9);
        assert_eq!(lane.spans[1].phase(), Phase::BatchFlush);
        assert_eq!(lane.spans[1].duration_ns(), 0);
        reset();
    }

    #[test]
    fn end_records_even_after_disable() {
        let _l = state_lock();
        enable(Sink::Spans);
        reset();
        let tok = span_start(Phase::Batch, 7);
        disable(Sink::Spans);
        span_end(tok);
        let snap = span_snapshot();
        assert_eq!(snap.total_spans(), 1);
        assert_eq!(snap.lanes[0].spans[0].aux, 7);
        reset();
    }
}

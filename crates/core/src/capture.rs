//! The capture layer's one door into this crate. Capture is compiled
//! into every build and stays off until a sink is switched on at
//! runtime. (Which sinks a phase feeds is `shalom-trace`'s
//! `Phase::feeds_records`.)
//!
//! This module re-exports the [`shalom_trace`] API — the two runtime
//! switches ([`enable`]`(`[`Sink::Records`]`)`,
//! [`enable`]`(`[`Sink::Spans`]`)`), [`record_snapshot`],
//! [`span_snapshot`], Chrome-trace export — so users need no separate
//! dependency, and hosts the glue that turns the driver's decisions into
//! [`DecisionRecord`]s and spans.
//!
//! Every instrumented region in `driver.rs`, `plan.rs`, `pool.rs`,
//! `parallel.rs`, `batch.rs` and `autotune.rs` is one begin/end pair on
//! the `pub(crate)` functions below. One pair yields the span *and*
//! feeds the per-call aggregates (`plan_ns`, `pack_ns`, dispatch
//! latency, fork-join overhead, slowest worker) from the same two clock
//! reads.
//!
//! The off path is free by construction, not by `#[cfg]`. An entry point
//! reads the state word once (`on`): `GemmPlan::new` where a handle is
//! built, `gemm_parallel` and `gemm_batch*` where one runs. With both
//! sinks off the call runs the instantiation of the serial walk, the §6
//! tile job or the batch item loop whose `const CAPTURE: bool` is
//! `false`: it holds no capture code at all. With a sink on it takes a
//! `#[cold]` call into the `CAPTURE = true` instance, whose sites are
//! runtime-gated and write the records and spans below. The pool's
//! per-fork-join sites (dispatch, queue wait, barrier, park) keep a
//! runtime gate of their own.

pub use shalom_trace::*;

use crate::config::classify;
use crate::plan::GemmPlan;
use shalom_kernels::FamilyElem;
use std::sync::atomic::{AtomicU64, Ordering};

// The plain begin/end pair is `shalom-trace`'s own: `begin(phase, aux)
// -> Span` opens a region (`Span::inert()` while capture is off), `end`
// closes one that feeds no aggregate — phases that do
// (`Phase::feeds_records`) close with their own `*_end` below — `shape`
// packs the payload of shape-carrying phases, and `pause` keeps the
// autotuner's probe GEMMs out of both sinks. Everything else is used
// through the glob above, so nothing here shadows a public re-export.
pub(crate) use shalom_trace::{
    pause_guard as pause, shape_key as shape, span_end as end, span_start as begin,
    SpanToken as Span,
};

/// Whether either sink is capturing: an entry point's one `Relaxed` load
/// of the state word (`SHALOM-O-CAPTURE-STATE`), which picks the
/// instantiation it runs.
#[inline]
pub(crate) fn on() -> bool {
    enabled(Sink::Both)
}

/// Closes a region, stamped with `source` if it resolved or ran a plan;
/// the elapsed time if the record sink wants it.
#[inline]
fn close(tok: Span, source: Option<PlanSource>) -> Option<u64> {
    let records = tok.records();
    let ns = match source {
        Some(source) => span_end_src(tok, source),
        None => end(tok),
    };
    records.then_some(ns)
}

/// Closes a `PackA`/`PackB` region into the call's `pack_ns`.
#[inline]
pub(crate) fn pack_end(tok: Span) {
    if let Some(ns) = close(tok, None) {
        add_pack_ns(ns);
    }
}

/// Closes a `PlanLookup` region, stamped with the outcome, into the
/// call's `plan_ns`.
#[inline]
pub(crate) fn plan_end(tok: Span, source: PlanSource) {
    if let Some(ns) = close(tok, Some(source)) {
        add_plan_ns(ns);
    }
}

/// Closes a `Dispatch` region (pool publish + wake) into the
/// dispatch-latency counter.
#[inline]
pub(crate) fn dispatch_end(tok: Span) {
    if let Some(ns) = close(tok, None) {
        record_dispatch(ns);
    }
}

/// An open `Serial` or `Parallel` region. The [`DecisionRecord`] it
/// closes into echoes the plan handle the call ran, so the end sites
/// pass the handle again and nothing is copied here.
pub(crate) struct Call {
    tok: Span,
    /// Plan-resolution time this thread spent since its last call:
    /// the `GemmPlan::new` that built the handle this call runs (zero
    /// for every later run of a held handle).
    plan_ns: u64,
    /// Slowest worker tile so far (threaded calls only).
    slowest_ns: AtomicU64,
}

impl Call {
    /// Opens the `Serial` region of a `gemm_serial` call or the
    /// `Parallel` region of a `gemm_parallel` call.
    #[inline]
    pub(crate) fn begin<T: FamilyElem>(phase: Phase, plan: &GemmPlan<T>) -> Self {
        let tok = begin(phase, shape(plan.m, plan.n, plan.k));
        let mut plan_ns = 0;
        if tok.records() {
            // Drain pack time carried over from aborted calls.
            let _ = take_pack_ns();
            plan_ns = take_plan_ns();
        }
        Call {
            tok,
            plan_ns,
            slowest_ns: AtomicU64::new(0),
        }
    }

    /// `Copy` handle a threaded call's tile closure captures.
    pub(crate) fn workers(&self) -> Workers<'_> {
        Workers(&self.slowest_ns)
    }

    /// Closes the region stamped with the plan's source; when the
    /// record sink wants it, the record with the fields every path
    /// reports the same way filled in from the handle.
    fn finish<T: FamilyElem>(&self, plan: &GemmPlan<T>) -> Option<DecisionRecord> {
        let total_ns = close(self.tok, Some(plan.source))?;
        let elem_bytes = core::mem::size_of::<T>();
        Some(DecisionRecord {
            m: plan.m,
            n: plan.n,
            k: plan.k,
            op_a: plan.op_a.letter() as u8,
            op_b: plan.op_b.letter() as u8,
            elem_bits: (elem_bytes * 8) as u8,
            class: classify(plan.m, plan.n, plan.k, elem_bytes, &plan.cfg.cache),
            plan: plan.b_plan,
            edge: plan.edge,
            plan_source: plan.source,
            plan_ns: self.plan_ns,
            mr: plan.ks.mr as u8,
            nr: plan.ks.nr as u8,
            total_ns,
            ..DecisionRecord::default() // seq is assigned at submission
        })
    }
}

/// Closes a `Serial` region with the executed plan's source and
/// submits the call's [`DecisionRecord`].
pub(crate) fn serial_end<T: FamilyElem>(call: Call, plan: &GemmPlan<T>, workspace_bytes: usize) {
    let Some(base) = call.finish(plan) else {
        return;
    };
    record(DecisionRecord {
        path: PathTag::Serial, // thread tag applied on submit
        tm: 1,
        tn: 1,
        threads: 1,
        workspace_bytes,
        pack_ns: take_pack_ns(),
        ..base
    });
}

/// Worker-side handle onto an open threaded [`Call`].
#[derive(Clone, Copy)]
pub(crate) struct Workers<'a>(&'a AtomicU64);

/// One worker tile or batch member, open: its region plus the
/// dispatch-path tag its serial record carries.
pub(crate) struct Tagged {
    tok: Span,
    _path: PathScope,
}

impl Workers<'_> {
    /// Opens the `Task` region of tile `task` and tags the thread so
    /// the tile's serial record reads `ParallelWorker`.
    pub(crate) fn begin(self, task: usize) -> Tagged {
        Tagged {
            _path: PathScope::enter(PathTag::ParallelWorker),
            tok: begin(Phase::Task, task as u64),
        }
    }

    /// Closes the tile's region into the call's slowest-worker time.
    pub(crate) fn end(self, worker: Tagged) {
        if let Some(ns) = close(worker.tok, None) {
            // Relaxed: a statistic, read after the join.
            self.0.fetch_max(ns, Ordering::Relaxed);
        }
    }
}

/// Closes a `Parallel` region with the plan's source, counts the
/// fork-join with its overhead (parent wall time minus slowest
/// worker) and submits the parent [`DecisionRecord`]: the §4 regime
/// of the *full* problem shape (each worker reports its sub-block's
/// own) and the §6 grid.
pub(crate) fn parallel_end<T: FamilyElem>(call: Call, plan: &GemmPlan<T>) {
    let Some(base) = call.finish(plan) else {
        return;
    };
    let slowest_ns = call.slowest_ns.load(Ordering::Relaxed);
    record_fork_join(base.total_ns.saturating_sub(slowest_ns));
    record(DecisionRecord {
        path: PathTag::Parallel,
        tm: plan.tm as u16,
        tn: plan.tn as u16,
        threads: plan.threads as u16,
        // workspace_bytes and pack_ns stay 0 (per-worker; reported by
        // the worker records).
        ..base
    });
}

/// Counts one batch call of `items` problems and opens its `Batch`
/// span; close it with [`end`].
pub(crate) fn batch_begin(items: usize) -> Span {
    if items > 0 && enabled(Sink::Records) {
        record_batch(items);
    }
    begin(Phase::Batch, items as u64)
}

/// Opens the `BatchItem` span of one member and tags the thread so
/// its serial record reads `Batch`.
#[inline]
pub(crate) fn batch_item_begin(m: usize, n: usize, k: usize) -> Tagged {
    Tagged {
        _path: PathScope::enter(PathTag::Batch),
        tok: begin(Phase::BatchItem, shape(m, n, k)),
    }
}

/// Closes a member's span and restores the thread's path tag.
#[inline]
pub(crate) fn batch_item_end(item: Tagged) {
    end(item.tok);
}

/// RAII dispatch-path tag for the serial records a worker or batch
/// member emits. Restores the previous tag on drop — also on unwind —
/// because these can run on the caller's thread, which outlives the
/// call.
struct PathScope {
    prev: PathTag,
}

impl PathScope {
    #[inline]
    fn enter(path: PathTag) -> Self {
        PathScope {
            prev: set_path(path),
        }
    }
}

impl Drop for PathScope {
    fn drop(&mut self) {
        set_path(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_scope_restores() {
        let base = set_path(PathTag::Serial);
        {
            let _s = PathScope::enter(PathTag::Batch);
            assert_eq!(current_path(), PathTag::Batch);
            {
                let _inner = PathScope::enter(PathTag::ParallelWorker);
                assert_eq!(current_path(), PathTag::ParallelWorker);
            }
            assert_eq!(current_path(), PathTag::Batch);
        }
        assert_eq!(current_path(), PathTag::Serial);
        set_path(base);
    }

    #[test]
    fn pack_region_noop_when_disabled() {
        // Runtime-disabled: the token is inert and no ns accumulate.
        disable(Sink::Both);
        let tok = begin(Phase::PackB, 0);
        assert!(tok.is_inert());
        pack_end(tok);
        assert_eq!(take_pack_ns(), 0);
    }
}

//! Integration tests for the span tracer: capture must never perturb
//! numerics, and a pooled run's Chrome export must carry the per-worker
//! pack/compute/barrier structure the perf-report pipeline relies on.
//!
//! Tracer state is process-global, so every test serializes on one
//! mutex and resets the lanes before acting.

use shalom_core::capture::{self, Phase, Sink};
use shalom_core::{gemm_batch, gemm_with, BatchItem, GemmConfig, Op, PackingPolicy, PlanSource};
use shalom_matrix::Matrix;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn state_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs one f64 GEMM and returns C's raw bits.
fn gemm_bits(cfg: &GemmConfig, m: usize, n: usize, k: usize) -> Vec<u64> {
    let a = Matrix::<f64>::random(m, k, 11);
    let b = Matrix::<f64>::random(k, n, 22);
    let mut c = Matrix::<f64>::random(m, n, 33);
    gemm_with(
        cfg,
        Op::NoTrans,
        Op::NoTrans,
        1.5,
        a.as_ref(),
        b.as_ref(),
        0.5,
        c.as_mut(),
    );
    c.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs a small uniform batch and returns every C's raw bits.
fn batch_bits(cfg: &GemmConfig) -> Vec<u64> {
    let count = 12;
    let aa: Vec<Matrix<f64>> = (0..count)
        .map(|i| Matrix::random(13, 13, 100 + i))
        .collect();
    let bb: Vec<Matrix<f64>> = (0..count)
        .map(|i| Matrix::random(13, 13, 200 + i))
        .collect();
    let mut cc: Vec<Matrix<f64>> = (0..count)
        .map(|i| Matrix::random(13, 13, 300 + i))
        .collect();
    let mut items: Vec<BatchItem<'_, f64>> = aa
        .iter()
        .zip(&bb)
        .zip(cc.iter_mut())
        .map(|((a, b), c)| BatchItem {
            a: a.as_ref(),
            b: b.as_ref(),
            c: c.as_mut(),
        })
        .collect();
    gemm_batch(cfg, Op::NoTrans, Op::NoTrans, 2.0, &mut items);
    drop(items);
    cc.iter()
        .flat_map(|c| c.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn tracing_does_not_perturb_results() {
    let _g = state_lock();
    // Serial, pooled-parallel and batched paths, each computed with
    // capture off and capture on: identical bits in every case.
    let serial = GemmConfig::with_threads(1);
    let pooled = GemmConfig::with_threads(4);
    capture::disable(Sink::Spans);
    capture::reset();
    let serial_off = gemm_bits(&serial, 48, 48, 48);
    let pooled_off = gemm_bits(&pooled, 96, 256, 64);
    let batch_off = batch_bits(&pooled);
    capture::reset();
    capture::enable(Sink::Spans);
    let serial_on = gemm_bits(&serial, 48, 48, 48);
    let pooled_on = gemm_bits(&pooled, 96, 256, 64);
    let batch_on = batch_bits(&pooled);
    capture::disable(Sink::Spans);
    assert!(
        capture::span_snapshot().total_spans() > 0,
        "capture recorded spans"
    );
    capture::reset();
    assert_eq!(serial_off, serial_on, "serial bits changed under capture");
    assert_eq!(pooled_off, pooled_on, "pooled bits changed under capture");
    assert_eq!(batch_off, batch_on, "batched bits changed under capture");
}

#[test]
fn pooled_chrome_export_shows_worker_structure() {
    let _g = state_lock();
    let cfg = GemmConfig {
        packing: PackingPolicy::AlwaysSequential,
        ..GemmConfig::with_threads(4)
    };
    // Untraced call first so pool spin-up stays off the timeline.
    let _ = gemm_bits(&cfg, 96, 512, 128);
    capture::reset();
    capture::enable(Sink::Spans);
    let _ = gemm_bits(&cfg, 96, 512, 128);
    capture::disable(Sink::Spans);
    let snap = capture::span_snapshot();
    capture::reset();

    // At least two lanes saw work, and the pack/compute/barrier phases
    // all appear somewhere in the snapshot.
    let busy_lanes = snap
        .lanes
        .iter()
        .filter(|l| l.spans.iter().any(|s| !s.phase().is_wait()))
        .count();
    assert!(busy_lanes >= 2, "want >= 2 busy lanes, got {busy_lanes}");
    for phase in [Phase::PackB, Phase::Compute, Phase::Barrier] {
        assert!(
            snap.lanes
                .iter()
                .any(|l| l.spans.iter().any(|s| s.phase() == phase)),
            "phase {} missing from pooled trace",
            phase.as_str()
        );
    }

    // The Chrome export parses, declares one thread-name track per
    // lane, and carries complete events for the worker phases.
    let text = capture::chrome_trace_json(&snap);
    let doc = capture::json::parse(&text).expect("chrome export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let thread_names = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("thread_name"))
        .count();
    assert_eq!(thread_names, snap.lanes.len());
    for phase in ["pack_b", "compute", "barrier"] {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("X")
                    && e.get("name").and_then(|v| v.as_str()) == Some(phase)
            }),
            "no complete event named {phase}"
        );
    }
}

#[test]
fn one_region_feeds_both_sinks() {
    let _g = state_lock();
    // A serial call with both sinks on: the record's aggregates are the
    // span durations — the same two clock reads, not a second pair. The
    // record's `plan_ns` is the lookup that built the handle the call ran.
    let cfg = GemmConfig::with_threads(1);
    capture::reset();
    capture::enable(Sink::Both);
    let _ = gemm_bits(&cfg, 40, 40, 40);
    capture::disable(Sink::Both);
    let recs = capture::record_snapshot().recent;
    let snap = capture::span_snapshot();
    capture::reset();

    assert_eq!(recs.len(), 1, "one serial call, one record");
    let rec = recs[0];
    let spans: Vec<_> = snap.lanes.iter().flat_map(|l| l.spans.iter()).collect();
    let of = |phase: Phase| -> Vec<_> { spans.iter().filter(|s| s.phase() == phase).collect() };
    let (serial, lookup) = (of(Phase::Serial), of(Phase::PlanLookup));
    assert_eq!((serial.len(), lookup.len()), (1, 1));
    assert_eq!(serial[0].duration_ns(), rec.total_ns);
    assert_eq!(lookup[0].duration_ns(), rec.plan_ns);
    // Ordering and plan-source stamping: the handle is resolved first,
    // then run — the lookup closes before the serial span opens, both at
    // the top level — and both carry the source the record reports.
    assert_eq!((serial[0].depth, lookup[0].depth), (0, 0));
    assert!(lookup[0].t1_ns <= serial[0].t0_ns);
    assert_eq!(rec.plan_source, PlanSource::Computed);
    assert_eq!(serial[0].plan_source(), Some(PlanSource::Computed));
    assert_eq!(lookup[0].plan_source(), Some(PlanSource::Computed));
}

#[test]
fn autotune_pause_covers_both_sinks() {
    let _g = state_lock();
    capture::reset();
    capture::enable(Sink::Both);
    let serial_spans = || {
        capture::span_snapshot()
            .lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .filter(|s| s.phase() == Phase::Serial)
            .count()
    };
    // The search runs many probe GEMMs; none may reach either sink.
    let _ = shalom_core::autotune::<f64>(
        &GemmConfig::with_threads(1),
        Op::NoTrans,
        Op::NoTrans,
        24,
        24,
        24,
        std::time::Duration::from_millis(20),
    );
    assert_eq!(capture::record_snapshot().totals.calls, 0);
    assert_eq!(serial_spans(), 0, "probe GEMMs leaked into the timeline");
    // The guard is gone with the search: a normal call reaches both.
    let _ = gemm_bits(&GemmConfig::with_threads(1), 24, 24, 24);
    capture::disable(Sink::Both);
    assert_eq!(capture::record_snapshot().totals.calls, 1);
    assert_eq!(serial_spans(), 1);
    capture::reset();
}

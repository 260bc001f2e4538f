//! Multi-threaded tracer stress: many writers recording nested spans
//! while a reader snapshots concurrently. Asserts per-lane spans are
//! well-nested and lanes never mix threads. This test is also the CI
//! ThreadSanitizer target for the lane publish protocol.

use shalom_trace as trace;
use std::sync::atomic::{AtomicBool, Ordering};

// Both tests drive the process-global tracer; serialize them.
fn state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}

/// Checks the spans of one lane form a properly-nested forest: sorted
/// by start (parents first), every span either contains or is disjoint
/// from every later one, and recorded depths match the nesting.
fn assert_well_nested(spans: &[trace::SpanRecord], lane: usize) {
    let mut order: Vec<&trace::SpanRecord> = spans.iter().collect();
    // Parents first: earlier start, then later end, then (for spans the
    // coarse clock stamped identically) shallower depth.
    order.sort_by(|a, b| {
        a.t0_ns
            .cmp(&b.t0_ns)
            .then(b.t1_ns.cmp(&a.t1_ns))
            .then(a.depth.cmp(&b.depth))
    });
    let mut stack: Vec<&trace::SpanRecord> = Vec::new();
    for s in order {
        assert!(s.t1_ns >= s.t0_ns, "lane {lane}: span ends before start");
        while let Some(top) = stack.last() {
            if top.t1_ns <= s.t0_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(top) = stack.last() {
            assert!(
                top.t0_ns <= s.t0_ns && s.t1_ns <= top.t1_ns,
                "lane {lane}: span [{},{}] straddles enclosing [{},{}]",
                s.t0_ns,
                s.t1_ns,
                top.t0_ns,
                top.t1_ns
            );
        }
        assert_eq!(
            s.depth as usize,
            stack.len(),
            "lane {lane}: depth tag disagrees with reconstructed nesting"
        );
        stack.push(s);
    }
}

#[test]
fn concurrent_writers_stay_well_nested() {
    let _l = state_lock();
    trace::enable(trace::Sink::Spans);
    trace::reset();
    let writers = 8;
    let rounds = 120;
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for w in 0..writers {
            scope.spawn(move || {
                for r in 0..rounds {
                    let outer =
                        trace::span_start(trace::Phase::Serial, trace::shape_key(w + 1, r + 1, 8));
                    let lookup = trace::span_start(trace::Phase::PlanLookup, 0);
                    trace::span_end_src(lookup, trace::PlanSource::Profile);
                    let pack = trace::span_start(trace::Phase::PackB, 0);
                    let compute = trace::span_start(trace::Phase::Compute, 0);
                    trace::span_end(compute);
                    trace::span_end(pack);
                    trace::span_end_src(outer, trace::PlanSource::Computed);
                    std::hint::spin_loop();
                }
            });
        }
        // Concurrent reader: snapshots must parse cleanly mid-run (the
        // Acquire/Release pairing TSan validates).
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let snap = trace::span_snapshot();
                for lane in &snap.lanes {
                    for s in &lane.spans {
                        assert!(s.t1_ns >= s.t0_ns);
                        assert!(s.t0_ns > 0, "published span with zero start");
                    }
                }
                std::thread::yield_now();
            }
        });
        // Give the reader a real overlap window with the writers, then
        // flag it down so the scope can join everyone.
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
    });

    trace::disable(trace::Sink::Spans);
    let snap = trace::span_snapshot();
    // 4 spans per round per writer, unless a lane overflowed (drops are
    // accounted, not lost silently).
    let expected = writers * rounds * 4;
    let recorded = snap.total_spans();
    let dropped = snap.total_dropped() as usize;
    assert_eq!(
        recorded + dropped,
        expected,
        "recorded {recorded} + dropped {dropped} != issued {expected}"
    );
    for lane in &snap.lanes {
        assert_well_nested(&lane.spans, lane.lane);
        // One writer per lane: every serial span on a lane carries the
        // same writer id in its shape key.
        let writer_ids: std::collections::HashSet<usize> = lane
            .spans
            .iter()
            .filter(|s| s.phase() == trace::Phase::Serial)
            .map(|s| trace::shape_from_key(s.aux).0)
            .collect();
        assert!(
            writer_ids.len() <= 1,
            "lane {} mixes writers {writer_ids:?}",
            lane.lane
        );
    }
    trace::reset();
}

#[test]
fn chrome_export_of_stress_trace_parses() {
    let _l = state_lock();
    trace::enable(trace::Sink::Spans);
    trace::reset();
    std::thread::scope(|scope| {
        for w in 0..4 {
            scope.spawn(move || {
                for _ in 0..16 {
                    let t = trace::span_start(trace::Phase::Task, w);
                    let c = trace::span_start(trace::Phase::Compute, 0);
                    trace::span_end(c);
                    trace::span_end(t);
                }
            });
        }
    });
    trace::disable(trace::Sink::Spans);
    let snap = trace::span_snapshot();
    let text = trace::chrome_trace_json(&snap);
    let doc = trace::json::parse(&text).expect("export parses");
    let events = doc
        .get("traceEvents")
        .and_then(trace::json::JsonValue::as_arr)
        .expect("traceEvents");
    assert!(events.len() >= snap.total_spans());
    trace::reset();
}

//! Capture overhead microbenchmark: times the two calls that bracket the
//! library's regimes — a warm 5x5x5 FP64 NN GEMM (the CP2K home regime,
//! where fixed per-call cost is everything) and a warm 64x64x64 FP64 NN
//! GEMM (a handful of spans amortized over ~524k flops) — with capture
//! off, with each sink on, and with both on, and reports ns/call. All
//! four rows come from one build: capture is compiled in and switched at
//! runtime.
//!
//! It then times the path where recording threads run concurrently: a
//! pooled `gemm_batch_beta` of 4096 distinct 5x5x5 FP64 items (the
//! benchmark's `batch_cp2k` shape) at one and two threads, with the
//! sink off and with records on, in ns/item. Every records-on row also
//! reports the records the ring dropped over its timed calls.
//!
//! Acceptance bar: on 64x64x64 every capture-on row stays within 5% of
//! off, and no batch row drops a record. (The off row's own cost is the
//! benchmark's `tiny_warm` workload, compared against the parent commit.)
//!
//! ```text
//! cargo run --release -p shalom-bench --bin capture_overhead
//! ```
//!
//! `--reps N` controls the number of timed batches (default 5; the
//! median batch is reported).

use shalom_bench::{BenchArgs, Report};
use shalom_core::{gemm_batch_beta, gemm_with, BatchItem, GemmConfig, Op};
use shalom_matrix::Matrix;
use shalom_trace::Sink;
use std::time::Instant;

/// Calls per timed round: with spans on, a round (at most 3 spans per
/// call) must fit the 4096-span lane.
const CALLS_PER_ROUND: usize = 1_000;

/// Items per pooled batch call, each with its own A, B and C.
const BATCH_ITEMS: usize = 4096;

/// Batch calls per timed repetition (~80k items).
const BATCHES_PER_REP: usize = 20;

/// Median of `samples`.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|x, y| x.total_cmp(y));
    samples[samples.len() / 2]
}

/// Median ns/call over `reps` batches of `rounds` timed rounds of warm
/// `s`-cubed FP64 GEMMs.
fn time_batches(cfg: &GemmConfig, s: usize, rounds: usize, reps: usize) -> f64 {
    let a = Matrix::<f64>::random(s, s, 1);
    let b = Matrix::<f64>::random(s, s, 2);
    let mut c = Matrix::<f64>::zeros(s, s);
    let mut call = || {
        gemm_with(
            cfg,
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        )
    };
    // Untimed warmup: page in operands, settle the dispatch caches.
    for _ in 0..CALLS_PER_ROUND / 10 {
        call();
    }
    median(
        (0..reps.max(1))
            .map(|_| {
                let mut ns = 0u128;
                for _ in 0..rounds {
                    // With spans on, a round must not inherit a full lane:
                    // drops would make the row artificially cheap.
                    if shalom_trace::enabled(Sink::Spans) {
                        shalom_trace::reset();
                    }
                    let t0 = Instant::now();
                    for _ in 0..CALLS_PER_ROUND {
                        call();
                    }
                    ns += t0.elapsed().as_nanos();
                }
                ns as f64 / (rounds * CALLS_PER_ROUND) as f64
            })
            .collect(),
    )
}

/// Median ns/item over `reps` repetitions of [`BATCHES_PER_REP`] pooled
/// batches of [`BATCH_ITEMS`] distinct 5x5x5 FP64 items at `threads`.
fn time_pooled_batch(threads: usize, reps: usize) -> f64 {
    let cfg = GemmConfig::with_threads(threads);
    let a: Vec<_> = (0..BATCH_ITEMS)
        .map(|i| Matrix::<f64>::random(5, 5, 2 * i as u64 + 1))
        .collect();
    let b: Vec<_> = (0..BATCH_ITEMS)
        .map(|i| Matrix::<f64>::random(5, 5, 2 * i as u64 + 2))
        .collect();
    let mut c: Vec<_> = (0..BATCH_ITEMS)
        .map(|_| Matrix::<f64>::zeros(5, 5))
        .collect();
    let mut items: Vec<_> = a
        .iter()
        .zip(&b)
        .zip(&mut c)
        .map(|((a, b), c)| BatchItem {
            a: a.as_ref(),
            b: b.as_ref(),
            c: c.as_mut(),
        })
        .collect();
    let mut batch = || gemm_batch_beta(&cfg, Op::NoTrans, Op::NoTrans, 1.0, 0.0, &mut items);
    // Untimed warmup: wake the pool, page in the operands.
    for _ in 0..2 {
        batch();
    }
    median(
        (0..reps.max(1))
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..BATCHES_PER_REP {
                    batch();
                }
                t0.elapsed().as_nanos() as f64 / (BATCHES_PER_REP * BATCH_ITEMS) as f64
            })
            .collect(),
    )
}

/// Runs `timed` with `sink` on from a clean slate and returns its
/// result with the records the ring dropped meanwhile.
fn with_sink(sink: Sink, timed: impl FnOnce() -> f64) -> (f64, u64) {
    shalom_trace::reset();
    shalom_trace::enable(sink);
    let ns = timed();
    shalom_trace::disable(sink);
    let dropped = shalom_trace::record_snapshot().dropped_records;
    shalom_trace::reset();
    (ns, dropped)
}

fn main() {
    let args = BenchArgs::parse();
    let cfg = GemmConfig::with_threads(1);

    let mut r = Report::new(
        "capture_overhead",
        "FP64 NN cost per call (warm, 1 thread) and per pooled batch item",
    );
    r.columns(&["call", "sinks", "ns/op", "vs off", "dropped"]);
    // (size, rounds per batch): ~20k tiny calls or 1k 64-cubed calls.
    for (s, rounds) in [(5usize, 20usize), (64, 1)] {
        let shape = format!("{s}x{s}x{s}");
        let off_ns = time_batches(&cfg, s, rounds, args.reps);
        r.row(&[&shape, "off", &format!("{off_ns:.1}"), "1.000x", "-"]);
        for (label, sink) in [
            ("records on", Sink::Records),
            ("spans on", Sink::Spans),
            ("both on", Sink::Both),
        ] {
            let (on_ns, dropped) = with_sink(sink, || time_batches(&cfg, s, rounds, args.reps));
            let ratio = on_ns / off_ns;
            // A spans-on round resets the sink, so only the records-only
            // row has a whole count.
            let dropped = match sink {
                Sink::Records => dropped.to_string(),
                _ => "-".to_string(),
            };
            r.row(&[
                &shape,
                label,
                &format!("{on_ns:.1}"),
                &format!("{ratio:.3}x"),
                &dropped,
            ]);
            if s == 64 && ratio > 1.05 {
                eprintln!(
                    "capture_overhead: WARNING {shape} {label} = {ratio:.3}x exceeds the 1.05x budget"
                );
            }
        }
    }
    for threads in [1usize, 2] {
        let call = format!("batch {BATCH_ITEMS}x 5x5x5 T={threads}");
        let off_ns = time_pooled_batch(threads, args.reps);
        r.row(&[&call, "off", &format!("{off_ns:.1}"), "1.000x", "-"]);
        let (on_ns, dropped) = with_sink(Sink::Records, || time_pooled_batch(threads, args.reps));
        r.row(&[
            &call,
            "records on",
            &format!("{on_ns:.1}"),
            &format!("{:.3}x", on_ns / off_ns),
            &dropped.to_string(),
        ]);
        if dropped != 0 {
            eprintln!("capture_overhead: WARNING {call} dropped {dropped} records");
        }
    }
    r.note("ns/op: ns per call for the single calls, ns per item for the batch rows");
    r.note("dropped: records the ring dropped over the row's timed calls");
    r.note("acceptance: on 64x64x64 every capture-on row <= 1.05x off; no batch row drops");
    r.emit(&args.out);
}

//! Capture overhead microbenchmark: times the two calls that bracket the
//! library's regimes — a warm 5x5x5 FP64 NN GEMM (the CP2K home regime,
//! where fixed per-call cost is everything) and a warm 64x64x64 FP64 NN
//! GEMM (a handful of spans amortized over ~524k flops) — with capture
//! off, with each sink on, and with both on, and reports ns/call. All
//! four rows come from one build: capture is compiled in and switched at
//! runtime.
//!
//! Acceptance bar: on 64x64x64 every capture-on row stays within 5% of
//! off. (The off row's own cost is the benchmark's `tiny_warm` workload,
//! compared against the parent commit.)
//!
//! ```text
//! cargo run --release -p shalom-bench --bin capture_overhead
//! ```
//!
//! `--reps N` controls the number of timed batches (default 5; the
//! median batch is reported).

use shalom_bench::{BenchArgs, Report};
use shalom_core::{gemm_with, GemmConfig, Op};
use shalom_matrix::Matrix;
use shalom_trace::Sink;
use std::time::Instant;

/// Calls per timed round: with spans on, a round (at most 3 spans per
/// call) must fit the 4096-span lane.
const CALLS_PER_ROUND: usize = 1_000;

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
    let mut per_call: Vec<f64> = (0..reps.max(1))
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
        .collect();
    per_call.sort_by(|x, y| x.total_cmp(y));
    per_call[per_call.len() / 2]
}

fn main() {
    let args = BenchArgs::parse();
    let cfg = GemmConfig::with_threads(1);

    let mut r = Report::new("capture_overhead", "FP64 NN cost per call (warm, 1 thread)");
    r.columns(&["shape", "sinks", "ns/call", "vs off"]);
    // (size, rounds per batch): ~20k tiny calls or 1k 64-cubed calls.
    for (s, rounds) in [(5usize, 20usize), (64, 1)] {
        let shape = format!("{s}x{s}x{s}");
        let off_ns = time_batches(&cfg, s, rounds, args.reps);
        r.row(&[&shape, "off", &format!("{off_ns:.1}"), "1.000x"]);
        for (label, sink) in [
            ("records on", Sink::Records),
            ("spans on", Sink::Spans),
            ("both on", Sink::Both),
        ] {
            shalom_trace::reset();
            shalom_trace::enable(sink);
            let on_ns = time_batches(&cfg, s, rounds, args.reps);
            shalom_trace::disable(sink);
            shalom_trace::reset();
            let ratio = on_ns / off_ns;
            r.row(&[
                &shape,
                label,
                &format!("{on_ns:.1}"),
                &format!("{ratio:.3}x"),
            ]);
            if s == 64 && ratio > 1.05 {
                eprintln!(
                    "capture_overhead: WARNING {shape} {label} = {ratio:.3}x exceeds the 1.05x budget"
                );
            }
        }
    }
    r.note("acceptance: on 64x64x64 every capture-on row <= 1.05x off");
    r.emit(&args.out);
}

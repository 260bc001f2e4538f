//! Telemetry acceptance demo: runs the paper's two poster-child shapes —
//! a small NN GEMM (64x64x64) and a tall-and-skinny irregular NN GEMM
//! (64x50176x64, the VGG conv1.2-style N) — under capture and prints the
//! JSON snapshot, showing that the dispatch layer took *different*
//! decisions (shape class, packing plan, thread grid) for the two.
//!
//! ```text
//! cargo run --release -p shalom-bench --features capture --bin telemetry_snapshot
//! ```
//!
//! Accepts `--out DIR` (also writes `telemetry_snapshot.telemetry.json`
//! there), `--threads N` for the irregular shape's grid, and `--full`
//! (no-op: the shapes are already paper-scale).

use shalom_bench::BenchArgs;
use shalom_core::{gemm_with, GemmConfig, Op};
use shalom_matrix::Matrix;

fn main() {
    let mut args = BenchArgs::parse();
    if !cfg!(feature = "capture") {
        eprintln!(
            "telemetry_snapshot needs the `capture` cargo feature:\n  \
             cargo run --release -p shalom-bench --features capture --bin telemetry_snapshot"
        );
        std::process::exit(2);
    }
    args.telemetry = true; // this binary IS the telemetry demo
    shalom_bench::telemetry::begin(&args);

    // Shape 1: small (B fits L1 -> no-pack, serial).
    let small = (64usize, 64usize, 64usize);
    // Shape 2: irregular tall-and-skinny (lookahead pack, Tm x Tn grid).
    let irregular = (64usize, 50176usize, 64usize);
    let threads = args.threads.unwrap_or(4).max(1);

    for (label, (m, n, k), t) in [("small", small, 1usize), ("irregular", irregular, threads)] {
        let a = Matrix::<f32>::random(m, k, 1);
        let b = Matrix::<f32>::random(k, n, 2);
        let mut c = Matrix::<f32>::zeros(m, n);
        let cfg = GemmConfig::with_threads(t);
        gemm_with(
            &cfg,
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        println!("ran {label}: {m}x{n}x{k}, {t} thread(s)");
    }

    // Print the full snapshot JSON to stdout (the demo artifact), then
    // let the shared helper persist it and print the summary line.
    let snap = shalom_trace::record_snapshot();
    println!("{}", snap.to_json());
    for r in &snap.recent {
        println!(
            "decision: {}x{}x{} class={} plan={} ({}) path={} grid={}x{} ws={}B",
            r.m,
            r.n,
            r.k,
            r.class.as_str(),
            r.plan.as_str(),
            r.plan_source.as_str(),
            r.path.as_str(),
            r.tm,
            r.tn,
            r.workspace_bytes
        );
    }
    shalom_bench::telemetry::finish(&args, "telemetry_snapshot");
}

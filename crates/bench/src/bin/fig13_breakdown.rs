//! Figure 13: breakdown of the optimization techniques on
//! single-threaded irregular NT GEMM (M = 20..100 step 20,
//! N = 50176, K = 576 — the VGG conv1.2 shape with varying M).
//!
//! Three *real code* configurations, all measured:
//!
//! * **baseline** — OpenBLAS-class Goto (sequential packing, batched
//!   edge schedule, zero-padded slivers);
//! * **+edge-case optimization** — the LibShalom driver with the
//!   pipelined edge kernels but packing still sequential
//!   (`PackingPolicy::AlwaysSequential`);
//! * **+packing optimization** — full LibShalom (the pack fused into the
//!   first row-block's kernel sweep, `t = 0`; the paper's `t = 1`
//!   look-ahead is not built, see EXPERIMENTS.md).
//!
//! Reported as speedup over the baseline, matching the paper's bars.

use shalom_baselines::GotoGemm;
use shalom_bench::{measure, BenchArgs, CacheState, Report};
use shalom_core::{gemm_with, EdgeSchedule, GemmConfig, PackingPolicy};
use shalom_matrix::{Matrix, Op};
use shalom_workloads::GemmShape;

fn time_shalom(cfg: &GemmConfig, shape: GemmShape, reps: usize) -> f64 {
    let a = Matrix::<f32>::random(shape.m, shape.k, 0xA);
    let b = Matrix::<f32>::random(shape.n, shape.k, 0xB); // stored N x K (NT)
    let mut c = Matrix::<f32>::zeros(shape.m, shape.n);
    let stats = shalom_bench::time_gemm(
        reps,
        1,
        || {},
        || {
            gemm_with(
                cfg,
                Op::NoTrans,
                Op::Trans,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
            );
            std::hint::black_box(c.as_slice().first());
        },
    );
    stats.geomean
}

fn main() {
    let args = BenchArgs::parse();
    let (n, k) = if args.full {
        (50176, 576)
    } else {
        (12544, 576)
    };
    let reps = args.reps.min(3);
    let baseline = GotoGemm::openblas_class();

    let edge_only = GemmConfig {
        packing: PackingPolicy::AlwaysSequential,
        edge: EdgeSchedule::Pipelined,
        ..GemmConfig::with_threads(1)
    };
    let full_opt = GemmConfig {
        packing: PackingPolicy::Auto,
        edge: EdgeSchedule::Pipelined,
        ..GemmConfig::with_threads(1)
    };

    let mut r = Report::new(
        "fig13_breakdown",
        &format!(
            "optimization breakdown, NT mode, N={n} K={k}, 1 thread (speedup vs OpenBLAS-class)"
        ),
    );
    r.columns(&["M", "baseline", "+edge-case opt", "+packing opt"]);
    for m in (20..=100).step_by(20) {
        let shape = GemmShape::new(m, n, k);
        let t_base = measure::<f32>(
            &baseline,
            1,
            Op::NoTrans,
            Op::Trans,
            shape,
            reps,
            CacheState::Warm,
        )
        .geomean;
        let t_edge = time_shalom(&edge_only, shape, reps);
        let t_full = time_shalom(&full_opt, shape, reps);
        r.row_values(&m.to_string(), &[1.0, t_base / t_edge, t_base / t_full]);
    }
    r.note("paper shape: packing optimization contributes the larger share; combined 1.25x (Phytium) to 1.6x (KP920) at M=20");
    r.emit(&args.out);
}

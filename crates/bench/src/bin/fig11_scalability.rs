//! Figure 11: scalability on the VGG irregular GEMM
//! (64 x 50176 x 576), speedup over single-threaded OpenBLAS as the
//! thread count grows, on all three platforms.
//!
//! Regenerated from the analytic model (the paper's maxima: 49x on
//! Phytium 2000+, 82x on KP920 — superlinear vs the OpenBLAS *baseline*
//! because LibShalom is already faster at one thread — and 35x on
//! ThunderX2). A measured host section exercises the real fork-join path
//! (on one physical core, overhead only).

use shalom_baselines::{GotoGemm, ShalomGemm};
use shalom_bench::{measure, BenchArgs, CacheState, Report};
use shalom_matrix::Op;
use shalom_perfmodel::{predict, MachineModel, Precision, StrategyModel};
use shalom_workloads::{vgg_layers, GemmShape};

fn main() {
    let args = BenchArgs::parse();
    let shape = vgg_layers()[0]; // 64 x 50176 x 576
    let strategies = StrategyModel::parallel_roster();
    for machine in MachineModel::paper_platforms() {
        let mut r = Report::new(
            &format!(
                "fig11_projection_{}",
                machine.name.to_lowercase().replace([' ', '+'], "_")
            ),
            &format!(
                "scalability projection on {} — speedup vs 1-thread OpenBLAS-class, VGG 64x50176x576",
                machine.name
            ),
        );
        let mut cols = vec!["threads".to_string()];
        cols.extend(strategies.iter().map(|s| s.name.to_string()));
        r.columns(&cols);
        let base = predict(
            &machine,
            &StrategyModel::openblas_class(),
            Precision::F32,
            shape.m,
            shape.n,
            shape.k,
            1,
        )
        .seconds;
        let mut t = 1;
        while t <= machine.cores {
            let vals: Vec<f64> = strategies
                .iter()
                .map(|s| {
                    base / predict(&machine, s, Precision::F32, shape.m, shape.n, shape.k, t)
                        .seconds
                })
                .collect();
            r.row_values(&t.to_string(), &vals);
            t *= 2;
        }
        r.note("paper maxima: 49x (Phytium 2000+), 82x (KP920), 35x (ThunderX2); LibShalom scales best");
        r.emit(&args.out);
    }

    // Measured host section: the real fork-join path under a thread sweep
    // (a host with a few cores shows overhead past its core count, not
    // the paper's speedup — recorded for honesty, see EXPERIMENTS.md).
    let scaled = if args.full {
        shape
    } else {
        GemmShape::new(64, 4096, 576)
    };
    let mut r = Report::new(
        "fig11_measured_host",
        &format!(
            "measured host thread sweep, LibShalom vs OpenBLAS-class, {}x{}x{} NT",
            scaled.m, scaled.n, scaled.k
        ),
    );
    r.columns(&["threads", "LibShalom", "OpenBLAS-class"]);
    let goto = GotoGemm::openblas_class();
    for t in [1usize, 2, 4] {
        let sh = measure::<f32>(
            &ShalomGemm,
            t,
            Op::NoTrans,
            Op::Trans,
            scaled,
            args.reps.min(3),
            CacheState::Warm,
        )
        .gflops(scaled.flops());
        let ob = measure::<f32>(
            &goto,
            t,
            Op::NoTrans,
            Op::Trans,
            scaled,
            args.reps.min(3),
            CacheState::Warm,
        )
        .gflops(scaled.flops());
        r.row_values(&t.to_string(), &[sh, ob]);
    }
    r.note("speedup is bounded by the host's core count; past it, expect flat-to-declining GFLOPS (fork-join overhead only)");
    r.emit(&args.out);
}

//! Figure 9: parallelized irregular-shaped GEMM on Phytium 2000+
//! (NT mode, K = 5000, all 64 cores; eight panels sweeping N for fixed
//! small M and vice versa).
//!
//! The host has a few cores, so the 64-core figure is regenerated
//! from the analytic execution model (the documented hardware
//! substitution), followed by a *measured* single-core section on scaled
//! sizes that exercises the real parallel code path and checks the
//! serial ordering of the same strategies.

use shalom_baselines::irregular_gemm_contenders;
use shalom_bench::{measure_gflops, BenchArgs, CacheState, Report};
use shalom_matrix::Op;
use shalom_perfmodel::{predict, MachineModel, Precision, StrategyModel};
use shalom_workloads::GemmShape;

fn main() {
    let args = BenchArgs::parse();
    shalom_bench::telemetry::begin(&args);
    projection(&args);
    measured(&args);
    shalom_bench::telemetry::finish(&args, "fig9_irregular_parallel");
}

/// The paper figure: model-projected GFLOPS on 64-core Phytium 2000+.
fn projection(args: &BenchArgs) {
    let machine = MachineModel::phytium2000();
    let strategies = StrategyModel::parallel_roster();
    let k = 5000;
    let wides: Vec<usize> = (1..=5).map(|i| i * 2048).collect();
    for (panel, fixed_is_m) in [("fixed_M", true), ("fixed_N", false)] {
        for &fixed in &[32usize, 64, 128, 256] {
            let mut r = Report::new(
                &format!("fig9_projection_{panel}{fixed}"),
                &format!(
                    "irregular NT GEMM projection, Phytium 2000+ 64 cores, K={k}, {} = {fixed}",
                    if fixed_is_m { "M" } else { "N" }
                ),
            );
            let mut cols = vec![if fixed_is_m { "N" } else { "M" }.to_string()];
            cols.extend(strategies.iter().map(|s| s.name.to_string()));
            r.columns(&cols);
            for &wide in &wides {
                let (m, n) = if fixed_is_m {
                    (fixed, wide)
                } else {
                    (wide, fixed)
                };
                let vals: Vec<f64> = strategies
                    .iter()
                    .map(|s| predict(&machine, s, Precision::F32, m, n, k, machine.cores).gflops)
                    .collect();
                r.row_values(&wide.to_string(), &vals);
            }
            r.note("analytic projection (see DESIGN.md substitutions); paper: LibShalom avg 1.8x over BLIS, up to 2.6x at M=32");
            r.emit(&args.out);
        }
    }
}

/// Measured section: real code, scaled sizes, host core(s).
fn measured(args: &BenchArgs) {
    let libs = irregular_gemm_contenders::<f32>();
    let threads = args.threads.unwrap_or(1).max(1);
    let (k, wides, smalls): (usize, Vec<usize>, Vec<usize>) = if args.full {
        (
            5000,
            (1..=5).map(|i| i * 2048).collect(),
            vec![32, 64, 128, 256],
        )
    } else {
        (1000, vec![1024, 2048, 3072], vec![32, 128])
    };
    for &m in &smalls {
        let mut r = Report::new(
            &format!("fig9_measured_m{m}"),
            &format!("irregular NT GEMM measured on host, K={k}, M={m}, {threads} thread(s)"),
        );
        let mut cols = vec!["N".to_string()];
        cols.extend(libs.iter().map(|l| l.name().to_string()));
        r.columns(&cols);
        for &n in &wides {
            let shape = GemmShape::new(m, n, k);
            let vals: Vec<f64> = libs
                .iter()
                .map(|l| {
                    measure_gflops::<f32>(
                        l.as_ref(),
                        threads,
                        Op::NoTrans,
                        Op::Trans,
                        shape,
                        args.reps.min(3),
                        CacheState::Warm,
                    )
                })
                .collect();
            r.row_values(&n.to_string(), &vals);
        }
        r.emit(&args.out);
    }
}

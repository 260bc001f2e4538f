//! Figure 15: FP32 irregular GEMM kernels from the VGG16 network
//! (conv1.2–conv5.2), all cores, four contenders.
//!
//! The multi-core figure is regenerated from the analytic model for the
//! three paper platforms; a measured host section runs the real code on
//! the same five kernels (scaled N by default) single-threaded.

use shalom_baselines::irregular_gemm_contenders;
use shalom_bench::{measure_gflops, BenchArgs, CacheState, Report};
use shalom_matrix::Op;
use shalom_perfmodel::{predict, MachineModel, Precision, StrategyModel};
use shalom_workloads::{vgg_layers, GemmShape};

fn main() {
    let args = BenchArgs::parse();
    shalom_bench::telemetry::begin(&args);
    let strategies = StrategyModel::parallel_roster();
    for machine in MachineModel::paper_platforms() {
        let mut r = Report::new(
            &format!(
                "fig15_projection_{}",
                machine.name.to_lowercase().replace([' ', '+'], "_")
            ),
            &format!(
                "VGG conv kernels projection on {} ({} cores, GFLOPS)",
                machine.name, machine.cores
            ),
        );
        let mut cols = vec!["layer".to_string()];
        cols.extend(strategies.iter().map(|s| s.name.to_string()));
        r.columns(&cols);
        for shape in vgg_layers() {
            let vals: Vec<f64> = strategies
                .iter()
                .map(|s| {
                    predict(
                        &machine,
                        s,
                        Precision::F32,
                        shape.m,
                        shape.n,
                        shape.k,
                        machine.cores,
                    )
                    .gflops
                })
                .collect();
            r.row_values(shape.label, &vals);
        }
        r.note("paper shape: LibShalom best on every layer; up to 1.6x on conv1.2/conv5.2");
        r.emit(&args.out);
    }

    // Measured host section.
    let libs = irregular_gemm_contenders::<f32>();
    let mut r = Report::new(
        "fig15_measured_host",
        "VGG conv kernels measured on host (GFLOPS, 1 thread, NT mode)",
    );
    let mut cols = vec!["layer".to_string()];
    cols.extend(libs.iter().map(|l| l.name().to_string()));
    r.columns(&cols);
    for shape in vgg_layers() {
        let scaled = if args.full {
            shape
        } else {
            GemmShape {
                label: shape.label,
                m: shape.m,
                n: (shape.n / 8).max(64),
                k: shape.k,
            }
        };
        let vals: Vec<f64> = libs
            .iter()
            .map(|l| {
                measure_gflops::<f32>(
                    l.as_ref(),
                    1,
                    Op::NoTrans,
                    Op::Trans,
                    scaled,
                    args.reps.min(3),
                    CacheState::Warm,
                )
            })
            .collect();
        r.row_values(scaled.label, &vals);
    }
    r.note("N scaled by 1/8 unless --full; serial run");
    r.emit(&args.out);
    shalom_bench::telemetry::finish(&args, "fig15_vgg");
}

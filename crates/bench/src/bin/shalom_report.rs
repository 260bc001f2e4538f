//! `shalom-report`: runs the standard shape suites under the span
//! tracer and writes the versioned machine-readable perf report
//! (`BENCH_report.json`) plus a Chrome-trace export of a 4-thread
//! pooled GEMM (`<out>/pooled_trace.json`, loadable at
//! `ui.perfetto.dev` or `chrome://tracing`).
//!
//! For every shape the binary measures warm GFLOPS *untraced*, then
//! re-runs the shape with tracing enabled and derives its per-phase
//! time shares from the span snapshot — the Fig 13 breakdown from live
//! traces, stored per shape class so future runs have a comparable
//! trajectory. Before writing, the document is parsed back and
//! re-serialized; any mismatch exits nonzero, so a CI smoke run of this
//! binary doubles as the schema round-trip check.
//!
//! ```text
//! cargo run --release -p shalom-bench --features capture --bin shalom-report -- --reps 3
//! ```
//!
//! `--full` adds the VGG suite (paper-scale shapes, minutes of runtime);
//! the default set is container-scaled.

use shalom_baselines::GemmImpl;
use shalom_bench::perf_report::{
    ClassReport, PerfReport, PhaseShare, PoolReport, ShapeResult, PERF_REPORT_VERSION,
};
use shalom_bench::{measure_gflops, BenchArgs, CacheState};
use shalom_core::capture::{self, Phase, Sink};
use shalom_core::{gemm_with, GemmConfig, Isa, IsaPolicy, PackingPolicy};
use shalom_matrix::{MatMut, MatRef, Matrix, Op};
use shalom_workloads::{cp2k_kernels, irregular_grid, small_square_sizes, GemmShape};

/// Traced calls per shape: enough spans to average out clock
/// granularity, far below the lane capacity.
const TRACED_CALLS: usize = 16;

/// LibShalom with a pinned ISA policy, adapted to the benchmark trait —
/// the per-substrate sweeps force each supported level in turn.
struct PinnedGemm(IsaPolicy);

impl<T: shalom_core::GemmElem> GemmImpl<T> for PinnedGemm {
    fn name(&self) -> &'static str {
        "LibShalom"
    }

    fn supports_parallel(&self) -> bool {
        true
    }

    fn gemm(
        &self,
        threads: usize,
        op_a: Op,
        op_b: Op,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        let cfg = GemmConfig {
            isa: self.0,
            ..GemmConfig::with_threads(threads)
        };
        gemm_with(&cfg, op_a, op_b, alpha, a, b, beta, c);
    }
}

/// The ISA levels this host can actually execute, narrowest first. A
/// forced level that would silently degrade (`requested_isa() != level`)
/// is excluded so a class labeled `avx512` never holds sse2 numbers.
fn supported_isa_levels() -> Vec<Isa> {
    let mut levels = vec![shalom_core::base_isa()];
    for isa in [Isa::Avx2W256, Isa::Avx512W512] {
        let cfg = GemmConfig {
            isa: IsaPolicy::Force(isa),
            ..GemmConfig::with_threads(1)
        };
        if cfg.requested_isa() == isa {
            levels.push(isa);
        }
    }
    levels
}

fn main() {
    let args = BenchArgs::parse();
    let host = shalom_core::host_isa();
    eprintln!(
        "shalom-report: host dispatches wide kernels as {:?} ({})",
        host,
        host.label()
    );
    let mut classes = Vec::new();
    for (name, shapes) in shape_classes(args.full) {
        eprintln!("shalom-report: class {name} ({} shapes)", shapes.len());
        let shapes = shapes
            .iter()
            .map(|&s| measure_shape::<f32>(s, args.reps, IsaPolicy::Auto, host.label()))
            .collect();
        classes.push(ClassReport {
            class: name.to_string(),
            shapes,
        });
    }
    // FP64 CP2K kernels are their own class (the paper's §8.6 suite).
    let cp2k: Vec<GemmShape> = cp2k_kernels().into_iter().take(4).collect();
    eprintln!("shalom-report: class cp2k_f64 ({} shapes)", cp2k.len());
    classes.push(ClassReport {
        class: "cp2k_f64".to_string(),
        shapes: cp2k
            .iter()
            .map(|&s| measure_shape::<f64>(s, args.reps, IsaPolicy::Auto, host.label()))
            .collect(),
    });

    // Per-ISA substrate sweep: the same f32 squares (>= 64^3) forced onto
    // every level this host supports, one class per level, so the report
    // shows what the runtime dispatch is worth on this machine.
    let squares = [
        GemmShape::new(64, 64, 64),
        GemmShape::new(96, 96, 96),
        GemmShape::new(128, 128, 128),
    ];
    for isa in supported_isa_levels() {
        let label = isa.label();
        eprintln!(
            "shalom-report: class isa_{label} ({} shapes)",
            squares.len()
        );
        let shapes: Vec<ShapeResult> = squares
            .iter()
            .map(|&s| measure_shape::<f32>(s, args.reps, IsaPolicy::Force(isa), label))
            .collect();
        for s in &shapes {
            eprintln!(
                "  {}x{}x{} [{}]: {:.2} GFLOPS",
                s.m, s.n, s.k, s.isa, s.gflops
            );
        }
        classes.push(ClassReport {
            class: format!("isa_{label}"),
            shapes,
        });
    }

    let pool = pooled_probe(&args);

    let report = PerfReport {
        version: PERF_REPORT_VERSION,
        threads: 1,
        host_isa: host.label().to_string(),
        pool: Some(pool),
        classes,
    };
    let text = report.to_json();

    // Self-validation: the document must parse back and re-serialize to
    // the identical bytes. This is the CI schema check.
    match PerfReport::from_json(&text) {
        Ok(back) if back.to_json() == text => {}
        Ok(_) => {
            eprintln!("shalom-report: round-trip produced different bytes");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("shalom-report: generated document failed to parse: {e}");
            std::process::exit(1);
        }
    }

    let path = "BENCH_report.json";
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("shalom-report: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path} ({} bytes)", text.len());
}

/// The f32 shape suites. `--full` adds the VGG layers (paper scale).
fn shape_classes(full: bool) -> Vec<(&'static str, Vec<GemmShape>)> {
    let small: Vec<GemmShape> = small_square_sizes()
        .into_iter()
        .filter(|s| s.m % 32 == 0 || s.m == 8)
        .collect();
    let irregular = irregular_grid(&[32, 128], &[1024], 256, true);
    let mut v = vec![("small_square", small), ("irregular", irregular)];
    if full {
        v.push(("vgg", shalom_workloads::vgg_layers()));
    }
    v
}

/// Warm GFLOPS (untraced) plus traced phase shares for one shape, run
/// under `policy` and labeled with the substrate's `isa` name.
fn measure_shape<T: shalom_core::GemmElem>(
    shape: GemmShape,
    reps: usize,
    policy: IsaPolicy,
    isa_label: &str,
) -> ShapeResult {
    let gflops = measure_gflops::<T>(
        &PinnedGemm(policy),
        1,
        Op::NoTrans,
        Op::NoTrans,
        shape,
        reps,
        CacheState::Warm,
    );

    let cfg = GemmConfig {
        isa: policy,
        ..GemmConfig::with_threads(1)
    };
    let a = Matrix::<T>::random(shape.m, shape.k, 0xA);
    let b = Matrix::<T>::random(shape.k, shape.n, 0xB);
    let mut c = Matrix::<T>::zeros(shape.m, shape.n);
    capture::reset();
    capture::enable(Sink::Spans);
    for _ in 0..TRACED_CALLS {
        gemm_with(
            &cfg,
            Op::NoTrans,
            Op::NoTrans,
            T::from_f64(1.0),
            a.as_ref(),
            b.as_ref(),
            T::ZERO,
            c.as_mut(),
        );
    }
    capture::disable(Sink::Spans);
    let rep = capture::span_snapshot().report();

    ShapeResult {
        m: shape.m as u64,
        n: shape.n as u64,
        k: shape.k as u64,
        isa: isa_label.to_string(),
        gflops,
        phase_shares: phase_shares(&rep),
    }
}

/// Nonzero phase shares, descending.
fn phase_shares(rep: &capture::TraceReport) -> Vec<PhaseShare> {
    let mut shares: Vec<PhaseShare> = Phase::ALL
        .iter()
        .filter_map(|&p| {
            let share = rep.phase_share(p);
            (share > 0.0).then(|| PhaseShare {
                phase: p.as_str().to_string(),
                share,
            })
        })
        .collect();
    shares.sort_by(|x, y| y.share.total_cmp(&x.share));
    shares
}

/// Traces a 4-thread pooled irregular GEMM (sequential packing, so the
/// per-worker pack-B spans always appear), prints the aggregate report,
/// writes the Chrome-trace export, and returns the pool statistics.
fn pooled_probe(args: &BenchArgs) -> PoolReport {
    let threads = 4;
    let cfg = GemmConfig {
        packing: PackingPolicy::AlwaysSequential,
        ..GemmConfig::with_threads(threads)
    };
    let shape = GemmShape::new(96, 768, 256);
    let a = Matrix::<f32>::random(shape.m, shape.k, 0xA);
    let b = Matrix::<f32>::random(shape.k, shape.n, 0xB);
    let mut c = Matrix::<f32>::zeros(shape.m, shape.n);
    // One untraced call spins the pool up so worker creation is not on
    // the traced timeline.
    let mut once = |cfg: &GemmConfig| {
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
    once(&cfg);
    capture::reset();
    capture::enable(Sink::Spans);
    for _ in 0..8 {
        once(&cfg);
    }
    capture::disable(Sink::Spans);
    let snap = capture::span_snapshot();
    let rep = snap.report();
    print!("{}", rep.render());

    let chrome = capture::chrome_trace_json(&snap);
    let _ = std::fs::create_dir_all(&args.out);
    let path = format!("{}/pooled_trace.json", args.out);
    match std::fs::write(&path, &chrome) {
        Ok(()) => println!("wrote {path} (load at ui.perfetto.dev)"),
        Err(e) => eprintln!("shalom-report: cannot write {path}: {e}"),
    }

    PoolReport {
        threads: threads as u64,
        utilization: rep.utilization,
        imbalance: rep.imbalance,
        queue_wait_ns: rep.wait_ns(Phase::QueueWait),
        barrier_ns: rep.wait_ns(Phase::Barrier),
    }
}

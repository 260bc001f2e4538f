//! The six direct-call workloads: which cells each is made of, how its
//! end-to-end metrics are taken from the cells, and which per-layer
//! metrics its traced run measures. The two service workloads are in
//! `service.rs`.

use crate::cell::{repeat, run_rounds, timer_ns, CallSink, Cell, FnWork, Mode, Work, MIN_SAMPLES};
use crate::gemm::{
    cold_cell, fnv, ops_label, random_matrix, warm_cell, warm_cells, Elem, Ring, Shape, NN, NT, TN,
};
use crate::host::{peak_rss_mib, ring_bytes};
use crate::metrics::{A_BIG, A_TINY, COLD_OVER_WARM, CONV_LAYERS, CP2K, MT_CELLS, TILE_WASTE};
use crate::report::{end_to_end_values, fill_per_layer, CellRow, WorkloadResult};
use crate::rng::Rng;
use crate::span::{Recorder, NONE};
use crate::stats::{geomean, geomean_summary, Summary};
use crate::{kernel_probes, Ctx};
use shalom_baselines::{BlasfeoGemm, GemmImpl, GotoGemm, LibxsmmGemm, NaiveGemm};
use shalom_core::{
    describe_plan, gemm_batch_beta, gemm_with, partition_threads, plan_cache_clear,
    plan_cache_stats, prewarm, BatchItem, GemmConfig, Op,
};
use shalom_kernels::selected_wide_family;
use shalom_matrix::{im2col, ConvShape, MatMut, MatRef, Matrix};
use shalom_nn::{conv2d_direct, Conv2d};
use shalom_trace::now_ns;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Spans a traced run may keep (about 2.5 MiB, allocated once).
pub const SPAN_CAPACITY: usize = 1 << 16;
/// Items in one `batch_cp2k` batch.
const BATCH_ITEMS: usize = 4096;

/// The cells of a run, by name and thread count.
struct Lookup<'a>(&'a [Cell]);

impl Lookup<'_> {
    fn cell(&self, name: &str, threads: usize) -> &Cell {
        self.0
            .iter()
            .find(|c| c.name == name && c.threads == threads)
            .unwrap_or_else(|| panic!("no cell {name} at {threads} threads"))
    }

    /// ns per call.
    fn ns(&self, name: &str, threads: usize) -> f64 {
        self.cell(name, threads).samples().undisturbed_time()
    }

    /// Work per ns: GFLOPS, or GB/s for a bandwidth probe.
    fn rate(&self, name: &str, threads: usize) -> f64 {
        self.cell(name, threads).work_per_call / self.ns(name, threads)
    }
}

/// What a workload's traced run adds to the cells' own numbers.
#[derive(Default)]
struct Extra {
    per_layer: Vec<(String, f64)>,
    notes: Vec<String>,
}

/// A direct-call workload: how to build its cells (called once per
/// set-up repetition) and what its traced run reports per layer.
struct Direct<'a> {
    name: &'a str,
    /// Thread count of the cells the end-to-end metrics are taken from.
    headline: usize,
    build: &'a dyn Fn() -> Vec<Cell>,
    layers: &'a dyn Fn(&Lookup<'_>, &mut Recorder) -> Extra,
}

/// Set-up is repeated at least three times, and a set-up of a few
/// milliseconds until a quarter second has gone into it (25 times at
/// most): the shorter it is, the more repetitions its median needs.
pub fn more_setups(done: usize, started: Instant) -> bool {
    done < 3 || (done < 25 && started.elapsed() < Duration::from_millis(250))
}

fn run_direct(ctx: &Ctx, w: Direct<'_>) -> WorkloadResult {
    // Set-up, several times over, so that its median is a steady number:
    // allocation, operand generation, and one first call per cell (plan
    // computation after `plan_cache_clear`, workspace growth, pool wake).
    let mut cells: Vec<Cell> = Vec::new();
    let mut setups = Vec::new();
    let started = Instant::now();
    while more_setups(setups.len(), started) {
        drop(std::mem::take(&mut cells));
        plan_cache_clear();
        let t0 = Instant::now();
        cells = (w.build)();
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut rec = ctx.trace.then(|| Recorder::with_capacity(SPAN_CAPACITY));
    let plans_before = plan_cache_stats();
    let rounds = run_rounds(
        &mut cells,
        Duration::from_secs_f64(ctx.seconds),
        rec.as_mut(),
    );
    let plans_after = plan_cache_stats();

    let t_verify = Instant::now();
    let mut result = WorkloadResult {
        workload: w.name.to_string(),
        ..Default::default()
    };
    for c in cells.iter_mut().filter(|c| c.probe.is_none()) {
        result.attempted += c.timed_calls();
        if let Err(e) = c.verify() {
            // Every call of a cell whose output is wrong counts as failed.
            result.failed += c.timed_calls();
            result.errors.push(e);
        }
    }
    result.correct = result.errors.is_empty();
    let verify_s = t_verify.elapsed().as_secs_f64();

    let headline: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.probe.is_none() && c.threads == w.headline)
        .collect();
    let rates = |mode: Mode| -> Vec<Summary> {
        headline
            .iter()
            .filter(|c| c.mode == mode)
            .map(|c| c.rate())
            .collect()
    };
    let nn = geomean_summary(&rates(Mode::Nn));
    // A workload with no transposed cell reports its NN cells again, so
    // that every workload reports every metric.
    let tr = Some(rates(Mode::Tr))
        .filter(|v| !v.is_empty())
        .map_or(nn, |v| geomean_summary(&v));
    let times: Vec<Summary> = headline.iter().map(|c| c.ns().map(|ns| ns / 1e3)).collect();
    let all: Vec<Summary> = headline.iter().map(|c| c.rate()).collect();
    let (setup, op_us, all, rss) = (
        Summary::of(&mut setups),
        geomean_summary(&times),
        geomean_summary(&all),
        peak_rss_mib(),
    );
    result.end_to_end = end_to_end_values([
        (setup.median, setup),
        (nn.undisturbed_rate(), nn),
        (tr.undisturbed_rate(), tr),
        (op_us.undisturbed_time(), op_us),
        // Direct calls run back to back in every sample: saturation is
        // the rate over all the cells.
        (all.undisturbed_rate(), all),
        (rss, Summary::point(rss)),
    ]);

    let samples_min = cells.iter().map(|c| c.samples().n).min().unwrap_or(0);
    // The rule is about the workload's own cells; in a traced run their
    // samples are split between the two kinds of round.
    result.too_few_samples = cells
        .iter()
        .filter(|c| c.probe.is_none())
        .any(|c| c.ns().n + c.ns_traced().n < MIN_SAMPLES);
    result.disturbed = rounds.host_drift > 1.15;
    result.notes.push(format!(
        "{} set-ups, {} rounds in {:.2} s, host_drift {:.3}, fewest samples {}, verify {:.3} s",
        setup.n, rounds.rounds, rounds.elapsed_s, rounds.host_drift, samples_min, verify_s
    ));

    if let Some(mut rec) = rec {
        let mut extra = (w.layers)(&Lookup(&cells), &mut rec);
        let (hits, misses) = (
            plans_after.hits - plans_before.hits,
            plans_after.misses - plans_before.misses,
        );
        // Time per call with every call bracketed by clock reads, over
        // the time without, on the cells `gflops_nn` is taken from.
        let overhead = geomean(
            headline
                .iter()
                .filter(|c| c.mode == Mode::Nn)
                .map(|c| c.ns_traced().undisturbed_time() / c.ns().undisturbed_time()),
        );
        extra.per_layer.extend([
            ("plans.hits".to_string(), hits as f64),
            ("plans.misses".to_string(), misses as f64),
            (
                "plans.hit_ratio".to_string(),
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("harness.trace_overhead".to_string(), overhead),
            ("harness.timer_ns".to_string(), timer_ns()),
            ("harness.host_drift".to_string(), rounds.host_drift),
            ("harness.samples_min".to_string(), samples_min as f64),
            ("harness.verify_s".to_string(), verify_s),
        ]);
        result.per_layer = fill_per_layer(extra.per_layer);
        result.notes.extend(extra.notes);
        result.notes.extend(rec.write(&ctx.out_dir, w.name));
    }
    result.cells = cells
        .iter()
        .map(|c| CellRow {
            name: c.name.clone(),
            threads: c.threads,
            calls_per_sample: c.calls,
            ns: c.samples(),
            rate: c.work_per_call / c.samples().undisturbed_time(),
            probe: c.probe.is_some(),
        })
        .collect();
    result
}

/// A probe cell timing `gemm` of a baseline implementation on `shape`.
fn baseline_cell<T: Elem>(
    seed: u64,
    name: &str,
    imp: impl GemmImpl<T> + 'static,
    shape: Shape,
    ops: (Op, Op),
) -> Cell {
    let mut rng = Rng::new(seed, fnv(name));
    let ((ar, ac), (br, bc)) = shape.stored(ops);
    let a = random_matrix::<T>(&mut rng, ar, ac);
    let b = random_matrix::<T>(&mut rng, br, bc);
    let mut c = Matrix::<T>::zeros(shape.m, shape.n);
    let work = FnWork(move || {
        imp.gemm(
            1,
            ops.0,
            ops.1,
            T::ONE,
            a.as_ref(),
            b.as_ref(),
            T::ZERO,
            c.as_mut(),
        )
    });
    Cell::new(
        name,
        "baselines.gemm",
        Mode::Nn,
        1,
        shape.flops(),
        Box::new(work),
    )
    .probe("probe.baselines")
    .rewarmed()
}

// ---------------------------------------------------------------- tiny_warm

const CP2K_SHAPES: [Shape; 5] = [
    Shape::new(5, 5, 5),
    Shape::new(13, 5, 13),
    Shape::new(13, 13, 13),
    Shape::new(23, 23, 23),
    Shape::new(26, 26, 13),
];

pub fn tiny_warm(ctx: &Ctx) -> WorkloadResult {
    let cfg = GemmConfig::with_threads(1);
    let build = || {
        let mut cells: Vec<Cell> = CP2K_SHAPES
            .iter()
            .map(|&s| warm_cell::<f64>(ctx.seed, s, NN))
            .collect();
        for s in [8, 16, 24, 32] {
            for ops in [NN, NT] {
                cells.push(warm_cell::<f32>(ctx.seed, Shape::square(s), ops));
            }
        }
        if ctx.trace {
            // A 1x1x1 call is dispatch and nothing else.
            cells.push(warm_cell::<f32>(ctx.seed, Shape::square(1), NN).probe("probe.api"));
            cells.push(warm_cell::<f64>(ctx.seed, Shape::square(1), NN).probe("probe.api"));
            let lookup = FnWork(move || {
                black_box(describe_plan::<f32>(
                    &cfg,
                    Op::NoTrans,
                    Op::NoTrans,
                    64,
                    64,
                    64,
                ));
            });
            cells.push(
                Cell::new(
                    "plans.lookup_warm",
                    "plans.describe_plan",
                    Mode::Nn,
                    1,
                    0.0,
                    Box::new(lookup),
                )
                .probe("probe.plans"),
            );
            cells.push(baseline_cell::<f64>(
                ctx.seed,
                "libxsmm.5x5x5_f64_nn",
                LibxsmmGemm::new(),
                Shape::square(5),
                NN,
            ));
            cells.push(baseline_cell::<f32>(
                ctx.seed,
                "blasfeo.8x8x8_f32_nn",
                BlasfeoGemm::new(),
                Shape::square(8),
                NN,
            ));
        }
        cells
    };
    let layers = |cells: &Lookup<'_>, rec: &mut Recorder| {
        let mut x = Extra::default();
        let floor = [cells.ns("1x1x1_f32_nn", 1), cells.ns("1x1x1_f64_nn", 1)];
        x.per_layer.push(("api.floor_ns_f32".into(), floor[0]));
        x.per_layer.push(("api.floor_ns_f64".into(), floor[1]));
        for a in A_TINY {
            let call = cells.ns(a, 1);
            let floor = if a.contains("f64") {
                floor[1]
            } else {
                floor[0]
            };
            x.per_layer.push((format!("api.call_ns.{a}"), call));
            x.per_layer
                .push((format!("api.overhead_share.{a}"), floor / call));
        }
        x.per_layer.push((
            "plans.lookup_warm_ns".into(),
            cells.ns("plans.lookup_warm", 1),
        ));
        x.per_layer
            .push(("plans.lookup_miss_ns".into(), lookup_miss_ns(&cfg, rec)));
        x.per_layer.push((
            "baselines.libxsmm_ratio.5x5x5_f64_nn".into(),
            cells.ns("libxsmm.5x5x5_f64_nn", 1) / cells.ns("5x5x5_f64_nn", 1),
        ));
        x.per_layer.push((
            "baselines.blasfeo_ratio.8x8x8_f32_nn".into(),
            cells.ns("blasfeo.8x8x8_f32_nn", 1) / cells.ns("8x8x8_f32_nn", 1),
        ));
        x
    };
    run_direct(
        ctx,
        Direct {
            name: "tiny_warm",
            headline: 1,
            build: &build,
            layers: &layers,
        },
    )
}

/// A lookup that finds nothing and computes the plan: after
/// `plan_cache_clear`, 64 shapes no cell uses, each looked up once; the
/// median over 32 such sweeps. Done after the timed rounds, because an
/// emptied cache would cost every cell a miss.
fn lookup_miss_ns(cfg: &GemmConfig, rec: &mut Recorder) -> f64 {
    let mut sweeps = Vec::new();
    for sweep in 0..32 {
        plan_cache_clear();
        let t0 = now_ns();
        for i in 0..64usize {
            black_box(describe_plan::<f32>(
                cfg,
                Op::NoTrans,
                Op::NoTrans,
                3 + i,
                7 + i,
                11 + i,
            ));
        }
        let t1 = now_ns();
        let parent = rec.push(NONE, sweep, "probe.plans", t0, t1);
        rec.push(parent, sweep, "plans.describe_plan_x64", t0, t1);
        sweeps.push((t1 - t0) as f64 / 64.0);
    }
    Summary::of(&mut sweeps).median
}

// --------------------------------------------------------------- small_cold

pub fn small_cold(ctx: &Ctx) -> WorkloadResult {
    let bytes = ring_bytes(&ctx.cache);
    let build = || {
        let ring32 = Ring::<f32>::new(&mut Rng::new(ctx.seed, 32), bytes);
        let ring64 = Ring::<f64>::new(&mut Rng::new(ctx.seed, 64), bytes);
        let mut cells = Vec::new();
        for s in [8, 24, 48, 72, 96, 120] {
            for ops in [NN, NT] {
                cells.push(cold_cell(ctx.seed, &ring32, Shape::square(s), ops));
            }
        }
        cells.push(cold_cell(ctx.seed, &ring64, Shape::square(23), NN));
        if ctx.trace {
            for s in COLD_OVER_WARM {
                let name = format!("warm.{s}");
                cells.extend(
                    warm_cells::<f32>(ctx.seed, Shape::square(s), NN, &[1], &name)
                        .into_iter()
                        .map(|c| c.probe("probe.warm")),
                );
            }
        }
        cells
    };
    let layers = |cells: &Lookup<'_>, _: &mut Recorder| {
        let mut x = Extra::default();
        for s in COLD_OVER_WARM {
            let cold = cells.ns(&Shape::square(s).cell_name::<f32>(NN), 1);
            let warm = cells.ns(&format!("warm.{s}"), 1);
            x.per_layer
                .push((format!("driver.cold_over_warm.{s}"), cold / warm));
        }
        x
    };
    let mut r = run_direct(
        ctx,
        Direct {
            name: "small_cold",
            headline: 1,
            build: &build,
            layers: &layers,
        },
    );
    r.notes.push(format!(
        "operand ring {} MiB per element type (detected L2 {} KiB, 4 x L2 = {} MiB)",
        bytes >> 20,
        ctx.cache.l2 >> 10,
        (4 * ctx.cache.l2) >> 20
    ));
    r
}

// ------------------------------------------------------------- irregular_1t

/// Padded over useful flops when an `m x n` output is walked in whole
/// `mr x nr` tiles (a partial tile is zero-padded and computed in full).
pub fn tile_waste(m: usize, n: usize, mr: usize, nr: usize) -> f64 {
    (m.div_ceil(mr) * mr * n.div_ceil(nr) * nr) as f64 / (m * n) as f64
}

fn shape_of(cell: &str) -> Shape {
    let dims: Vec<usize> = cell
        .split('_')
        .next()
        .unwrap_or("")
        .split('x')
        .filter_map(|d| d.parse().ok())
        .collect();
    Shape::new(dims[0], dims[1], dims[2])
}

pub fn irregular_1t(ctx: &Ctx) -> WorkloadResult {
    let build = || {
        let mut cells = Vec::new();
        for (m, n) in [(32, 1024), (1024, 32), (128, 1024), (1024, 128)] {
            for ops in [NN, NT, TN] {
                cells.push(warm_cell::<f32>(ctx.seed, Shape::new(m, n, 256), ops));
            }
        }
        for s in [64, 96, 128] {
            for ops in [NN, NT] {
                cells.push(warm_cell::<f32>(ctx.seed, Shape::square(s), ops));
            }
        }
        if ctx.trace {
            cells.extend(kernel_probes::cells(ctx.seed));
            cells.push(baseline_cell::<f32>(
                ctx.seed,
                "goto.64x64x64_f32_nn",
                GotoGemm::openblas_class(),
                Shape::square(64),
                NN,
            ));
            cells.push(baseline_cell::<f32>(
                ctx.seed,
                "goto.32x1024x256_f32_nt",
                GotoGemm::openblas_class(),
                Shape::new(32, 1024, 256),
                NT,
            ));
            cells.push(baseline_cell::<f32>(
                ctx.seed,
                "naive.64x64x64_f32_nn",
                NaiveGemm,
                Shape::square(64),
                NN,
            ));
        }
        cells
    };
    let layers = |cells: &Lookup<'_>, _: &mut Recorder| {
        let mut x = Extra::default();
        for name in kernel_probes::NAMES {
            x.per_layer.push((
                format!("kernels.{name}"),
                cells.rate(&format!("kernels.{name}"), 1),
            ));
        }
        let peak = cells.rate("kernels.family_peak_gflops_f32", 1);
        for a in A_BIG {
            x.per_layer
                .push((format!("api.call_ns.{a}"), cells.ns(a, 1)));
            x.per_layer.push((
                format!("driver.pct_of_peak.{a}"),
                100.0 * cells.rate(a, 1) / peak,
            ));
        }
        // The tile the NN path pads to: the dispatched wide family's, or
        // the 128-bit 7x12 where there is none.
        let (mr, nr) = selected_wide_family().map_or((7, 12), |f| (f.k_f32.mr, f.k_f32.nr));
        for a in TILE_WASTE {
            let s = shape_of(a);
            x.per_layer.push((
                format!("driver.tile_waste.{a}"),
                tile_waste(s.m, s.n, mr, nr),
            ));
        }
        x.notes.push(format!(
            "driver.tile_waste.* are computed from the {mr}x{nr} f32 tile, not measured"
        ));
        let rate = |n: &str| cells.rate(n, 1);
        x.per_layer.extend([
            (
                "driver.twin_ratio".to_string(),
                rate("32x1024x256_f32_nn") / rate("1024x32x256_f32_nn"),
            ),
            (
                "driver.nt_over_nn.64x64x64".to_string(),
                rate("64x64x64_f32_nt") / rate("64x64x64_f32_nn"),
            ),
            (
                "driver.nt_over_nn.32x1024x256".to_string(),
                rate("32x1024x256_f32_nt") / rate("32x1024x256_f32_nn"),
            ),
            (
                "baselines.goto_ratio.64x64x64_f32_nn".to_string(),
                rate("64x64x64_f32_nn") / rate("goto.64x64x64_f32_nn"),
            ),
            (
                "baselines.goto_ratio.32x1024x256_f32_nt".to_string(),
                rate("32x1024x256_f32_nt") / rate("goto.32x1024x256_f32_nt"),
            ),
            (
                "baselines.naive_ratio.64x64x64_f32_nn".to_string(),
                rate("64x64x64_f32_nn") / rate("naive.64x64x64_f32_nn"),
            ),
        ]);
        x
    };
    run_direct(
        ctx,
        Direct {
            name: "irregular_1t",
            headline: 1,
            build: &build,
            layers: &layers,
        },
    )
}

// ------------------------------------------------------------- irregular_mt

/// `[T, 1]`, or `[1]` on a one-core host where the two coincide.
fn thread_counts(t: usize) -> Vec<usize> {
    if t > 1 {
        vec![t, 1]
    } else {
        vec![1]
    }
}

pub fn irregular_mt(ctx: &Ctx) -> WorkloadResult {
    let t = ctx.threads;
    // The VGG conv GEMMs with N cut to an eighth.
    let vgg = [
        Shape::new(64, 6272, 576),
        Shape::new(128, 1568, 1152),
        Shape::new(256, 392, 2304),
        Shape::new(512, 98, 4608),
        Shape::new(512, 25, 4608),
    ];
    let prewarm_ms = RefCell::new(None);
    let build = || {
        let t0 = Instant::now();
        prewarm(t, 8 << 20);
        // Only the first call spawns the pool's threads.
        prewarm_ms
            .borrow_mut()
            .get_or_insert(t0.elapsed().as_secs_f64() * 1e3);
        let mut cells = Vec::new();
        for (i, &s) in vgg.iter().enumerate() {
            cells.extend(warm_cells::<f32>(
                ctx.seed,
                s,
                NN,
                &thread_counts(t),
                MT_CELLS[i],
            ));
        }
        for (m, n) in [(32, 4096), (4096, 32)] {
            for ops in [NN, NT] {
                let name = format!("{m}x{n}x512_{}", ops_label(ops));
                cells.extend(warm_cells::<f32>(
                    ctx.seed,
                    Shape::new(m, n, 512),
                    ops,
                    &thread_counts(t),
                    &name,
                ));
            }
        }
        if ctx.trace {
            cells.push(fork_join_cell(t));
            let partition = FnWork(move || {
                black_box(partition_threads(
                    black_box(t),
                    black_box(64),
                    black_box(6272),
                ));
            });
            cells.push(
                Cell::new(
                    "parallel.partition",
                    "parallel.partition_threads",
                    Mode::Nn,
                    1,
                    0.0,
                    Box::new(partition),
                )
                .probe("probe.pool"),
            );
        }
        cells
    };
    let layers = |cells: &Lookup<'_>, _: &mut Recorder| {
        let mut x = Extra::default();
        x.per_layer.extend([
            (
                "pool.fork_join_us".to_string(),
                cells.ns("pool.fork_join", t) / 1e3,
            ),
            (
                "pool.prewarm_ms".to_string(),
                prewarm_ms.borrow().unwrap_or(0.0),
            ),
            (
                "parallel.partition_ns".to_string(),
                cells.ns("parallel.partition", 1),
            ),
        ]);
        for c in MT_CELLS {
            let eff = cells.ns(c, 1) / (t as f64 * cells.ns(c, t));
            x.per_layer.push((format!("parallel.par_eff.{c}"), eff));
        }
        x
    };
    run_direct(
        ctx,
        Direct {
            name: "irregular_mt",
            headline: t,
            build: &build,
            layers: &layers,
        },
    )
}

/// A `t`-thread batch of `t` 1x1x1 items: a fork and a join around no work.
fn fork_join_cell(t: usize) -> Cell {
    let cfg = GemmConfig::with_threads(t);
    let ab = vec![1.0f32; 2 * t];
    let mut c = vec![0.0f32; t];
    let work = FnWork(move || {
        let mut items: Vec<BatchItem<'_, f32>> = c
            .chunks_mut(1)
            .enumerate()
            .map(|(i, c)| BatchItem {
                a: MatRef::from_slice(&ab[2 * i..2 * i + 1], 1, 1, 1),
                b: MatRef::from_slice(&ab[2 * i + 1..2 * i + 2], 1, 1, 1),
                c: MatMut::from_slice(c, 1, 1, 1),
            })
            .collect();
        gemm_batch_beta(&cfg, Op::NoTrans, Op::NoTrans, 1.0, 0.0, &mut items);
    });
    Cell::new(
        "pool.fork_join",
        "batch.gemm_batch",
        Mode::Nn,
        t,
        0.0,
        Box::new(work),
    )
    .probe("probe.pool")
}

// --------------------------------------------------------------- batch_cp2k

/// The 4096 items of one shape. A and B of every item are distinct
/// slices of a read-only arena shared by all shapes; each shape has its
/// own C arena.
struct BatchState {
    // Declared first so it is dropped before the arenas it points into.
    items: Vec<BatchItem<'static, f64>>,
    shape: Shape,
    _ab: Rc<Vec<f64>>,
    _c: Vec<f64>,
}

impl BatchState {
    fn new(ab: &Rc<Vec<f64>>, shape: Shape) -> Self {
        let Shape { m, n, k } = shape;
        let mut c = vec![0.0f64; BATCH_ITEMS * m * n];
        // Touch every page now, not inside the first timed batch.
        c.fill(1.0);
        let stride = m * k + k * n;
        assert!(
            ab.len() >= BATCH_ITEMS * stride,
            "arena too small for {shape:?}"
        );
        let (ab_ptr, c_ptr) = (ab.as_ptr(), c.as_mut_ptr());
        let items = (0..BATCH_ITEMS)
            .map(|i| {
                // SAFETY: every view lies inside its arena (asserted above
                // for A/B; `c` was sized for BATCH_ITEMS tiles) and the C
                // tiles are disjoint. The `'static` lifetime is private to
                // this struct: the arenas are heap buffers that are never
                // resized, `_ab` and `_c` keep them alive as long as
                // `items`, which is declared first and so dropped first,
                // and `_c` is never touched except through `items`.
                unsafe {
                    BatchItem {
                        a: MatRef::from_raw_parts(ab_ptr.add(i * stride), m, k, k),
                        b: MatRef::from_raw_parts(ab_ptr.add(i * stride + m * k), k, n, n),
                        c: MatMut::from_raw_parts(c_ptr.add(i * m * n), m, n, n),
                    }
                }
            })
            .collect();
        BatchState {
            items,
            shape,
            _ab: Rc::clone(ab),
            _c: c,
        }
    }
}

/// One `gemm_batch_beta` call over the shape's items at `threads`.
struct BatchWork {
    state: Rc<RefCell<BatchState>>,
    cfg: GemmConfig,
    check: Rng,
}

impl Work for BatchWork {
    fn run(&mut self, calls: u32, sink: Option<&mut CallSink<'_>>) {
        let mut state = self.state.borrow_mut();
        repeat(calls, sink, || {
            gemm_batch_beta(
                &self.cfg,
                Op::NoTrans,
                Op::NoTrans,
                1.0,
                0.0,
                &mut state.items,
            )
        });
    }

    /// Bitwise against a direct `gemm_with` on the same operands, for
    /// the first, the last and 62 seeded items of one fresh batch.
    fn verify(&mut self) -> Result<(), String> {
        let mut state = self.state.borrow_mut();
        gemm_batch_beta(
            &self.cfg,
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            0.0,
            &mut state.items,
        );
        let Shape { m, n, .. } = state.shape;
        let serial = GemmConfig::with_threads(1);
        let picks: Vec<usize> = [0, BATCH_ITEMS - 1]
            .into_iter()
            .chain((0..62).map(|_| self.check.below(BATCH_ITEMS)))
            .collect();
        for i in picks {
            let it = &state.items[i];
            let mut want = Matrix::<f64>::zeros(m, n);
            gemm_with(
                &serial,
                Op::NoTrans,
                Op::NoTrans,
                1.0,
                it.a,
                it.b,
                0.0,
                want.as_mut(),
            );
            let same =
                (0..m).all(|r| (0..n).all(|s| it.c.at(r, s).to_bits() == want.at(r, s).to_bits()));
            if !same {
                return Err(format!("item {i} differs bitwise from a direct gemm_with"));
            }
        }
        Ok(())
    }
}

/// The same items, one direct `gemm_with` each: what the batch amortises.
struct SingleCalls {
    state: Rc<RefCell<BatchState>>,
    cfg: GemmConfig,
}

impl Work for SingleCalls {
    fn run(&mut self, calls: u32, sink: Option<&mut CallSink<'_>>) {
        let mut state = self.state.borrow_mut();
        let Shape { m, n, .. } = state.shape;
        repeat(calls, sink, || {
            for it in state.items.iter_mut() {
                let c = it.c.submatrix_mut(0, 0, m, n);
                gemm_with(&self.cfg, Op::NoTrans, Op::NoTrans, 1.0, it.a, it.b, 0.0, c);
            }
        });
    }
}

pub fn batch_cp2k(ctx: &Ctx) -> WorkloadResult {
    let t = ctx.threads;
    let build = || {
        prewarm(t, 1 << 20);
        let widest = CP2K_SHAPES
            .iter()
            .map(|s| s.m * s.k + s.k * s.n)
            .max()
            .unwrap_or(0);
        let ab = Rc::new(Rng::new(ctx.seed, 0xba7c).fill_f64(BATCH_ITEMS * widest));
        let mut cells = Vec::new();
        for (&shape, label) in CP2K_SHAPES.iter().zip(CP2K) {
            let state = Rc::new(RefCell::new(BatchState::new(&ab, shape)));
            for threads in thread_counts(t) {
                let work = BatchWork {
                    state: Rc::clone(&state),
                    cfg: GemmConfig::with_threads(threads),
                    check: Rng::new(ctx.seed, fnv(label) ^ threads as u64),
                };
                cells.push(Cell::new(
                    label,
                    "batch.gemm_batch",
                    Mode::Nn,
                    threads,
                    BATCH_ITEMS as f64 * shape.flops(),
                    Box::new(work),
                ));
            }
            if ctx.trace {
                let work = SingleCalls {
                    state,
                    cfg: GemmConfig::with_threads(1),
                };
                cells.push(
                    Cell::new(
                        format!("single.{label}"),
                        "api.gemm_with_x4096",
                        Mode::Nn,
                        1,
                        BATCH_ITEMS as f64 * shape.flops(),
                        Box::new(work),
                    )
                    .probe("probe.batch"),
                );
            }
        }
        cells
    };
    let layers = |cells: &Lookup<'_>, _: &mut Recorder| {
        let mut x = Extra::default();
        for s in CP2K {
            let (serial, pooled) = (cells.ns(s, 1), cells.ns(s, t));
            x.per_layer.extend([
                (format!("batch.item_ns.{s}"), serial / BATCH_ITEMS as f64),
                (
                    format!("batch.amortization.{s}"),
                    cells.ns(&format!("single.{s}"), 1) / serial,
                ),
                (format!("batch.par_eff.{s}"), serial / (t as f64 * pooled)),
            ]);
        }
        x
    };
    run_direct(
        ctx,
        Direct {
            name: "batch_cp2k",
            headline: t,
            build: &build,
            layers: &layers,
        },
    )
}

// ----------------------------------------------------------------- conv_vgg

/// `(c_in, c_out, h = w)`: VGG channel counts at an eighth of the area.
const CONV: [(usize, usize, usize); 5] = [
    (64, 64, 80),
    (128, 128, 40),
    (256, 256, 20),
    (512, 512, 10),
    (512, 512, 5),
];

fn conv_shape((c_in, c_out, hw): (usize, usize, usize)) -> ConvShape {
    ConvShape {
        c_in,
        c_out,
        h: hw,
        w: hw,
        kh: 3,
        kw: 3,
        pad: 1,
    }
}

struct ConvWork {
    layer: Conv2d<f32>,
    shape: ConvShape,
    weights: Matrix<f32>,
    input: Matrix<f32>,
    out: Matrix<f32>,
    check: Rng,
}

impl Work for ConvWork {
    fn run(&mut self, calls: u32, sink: Option<&mut CallSink<'_>>) {
        // The previous output is freed as the next one is stored, as in
        // a caller that keeps only the latest activation.
        repeat(calls, sink, || self.out = self.layer.forward(&self.input));
    }

    /// `conv2d_direct` on the whole layer would cost more than the run;
    /// it is run on eight output channels (the first two, the last two
    /// and four seeded ones), each over every pixel.
    fn verify(&mut self) -> Result<(), String> {
        let (m, n, k) = self.shape.gemm_dims();
        let channels: Vec<usize> = [0, 1, m - 2, m - 1]
            .into_iter()
            .chain((0..4).map(|_| self.check.below(m)))
            .collect();
        let filters = Matrix::from_fn(channels.len(), k, |r, s| self.weights.at(channels[r], s));
        let sub = ConvShape {
            c_out: channels.len(),
            ..self.shape
        };
        let want = conv2d_direct(&sub, &self.input, &filters);
        let tol = shalom_matrix::gemm_tolerance::<f32>(k, 1.0);
        for (r, &ch) in channels.iter().enumerate() {
            for px in 0..n {
                let (got, want) = (self.out.at(ch, px) as f64, want.at(r, px) as f64);
                let off = (got - want).abs();
                if off.is_nan() || off > tol {
                    return Err(format!(
                        "channel {ch} pixel {px}: {got:e}, conv2d_direct {want:e}"
                    ));
                }
            }
        }
        Ok(())
    }
}

pub fn conv_vgg(ctx: &Ctx) -> WorkloadResult {
    let cfg = GemmConfig::with_threads(1);
    let build = || {
        let mut cells = Vec::new();
        for (&dims, label) in CONV.iter().zip(CONV_LAYERS) {
            let shape = conv_shape(dims);
            let (m, n, k) = shape.gemm_dims();
            let mut rng = Rng::new(ctx.seed, fnv(label));
            let weights = random_matrix::<f32>(&mut rng, m, k);
            let input = random_matrix::<f32>(&mut rng, shape.c_in, shape.h * shape.w);
            if ctx.trace {
                let (s, x) = (shape, input.clone());
                let lower = FnWork(move || {
                    black_box(im2col(&s, &x));
                });
                cells.push(
                    Cell::new(
                        format!("im2col.{label}"),
                        "matrix.im2col",
                        Mode::Nn,
                        1,
                        0.0,
                        Box::new(lower),
                    )
                    .probe("probe.nn"),
                );
                let (w, lowered) = (weights.clone(), im2col(&shape, &input));
                let mut out = Matrix::<f32>::zeros(m, n);
                let gemm = FnWork(move || {
                    gemm_with(
                        &cfg,
                        Op::NoTrans,
                        Op::NoTrans,
                        1.0,
                        w.as_ref(),
                        lowered.as_ref(),
                        0.0,
                        out.as_mut(),
                    )
                });
                cells.push(
                    Cell::new(
                        format!("gemm.{label}"),
                        "api.gemm_with",
                        Mode::Nn,
                        1,
                        Shape::new(m, n, k).flops(),
                        Box::new(gemm),
                    )
                    .probe("probe.nn"),
                );
            }
            let work = ConvWork {
                layer: Conv2d::new(shape, weights.clone(), cfg),
                shape,
                weights,
                input,
                out: Matrix::zeros(1, 1),
                check: Rng::new(ctx.seed, fnv(label) ^ 1),
            };
            cells.push(Cell::new(
                label,
                "nn.forward",
                Mode::Nn,
                1,
                Shape::new(m, n, k).flops(),
                Box::new(work),
            ));
        }
        cells
    };
    let layers = |cells: &Lookup<'_>, _: &mut Recorder| {
        let mut x = Extra::default();
        let (mut forward, mut lower, mut gemm) = (0.0, 0.0, 0.0);
        for l in CONV_LAYERS {
            let f = cells.ns(l, 1);
            let i = cells.ns(&format!("im2col.{l}"), 1);
            x.per_layer.push((format!("nn.forward_ms.{l}"), f / 1e6));
            x.per_layer.push((format!("nn.im2col_share.{l}"), i / f));
            forward += f;
            lower += i;
            gemm += cells.ns(&format!("gemm.{l}"), 1);
        }
        // Time-weighted over the layers; the residual is what a forward
        // costs beyond its two parts: allocation and zeroing.
        x.per_layer.push(("nn.gemm_share".into(), gemm / forward));
        x.per_layer
            .push(("nn.residual_share".into(), 1.0 - (lower + gemm) / forward));
        x
    };
    let mut r = run_direct(
        ctx,
        Direct {
            name: "conv_vgg",
            headline: 1,
            build: &build,
            layers: &layers,
        },
    );
    let forward_ms: f64 = r
        .cells
        .iter()
        .filter(|c| !c.probe)
        .map(|c| c.ns.median / 1e6)
        .sum();
    r.notes.push(format!(
        "forward_ms (sum of the five layers' medians) {forward_ms:.4}"
    ));
    r
}

pub fn run_by_name(name: &str, ctx: &Ctx) -> Option<WorkloadResult> {
    Some(match name {
        "tiny_warm" => tiny_warm(ctx),
        "small_cold" => small_cold(ctx),
        "irregular_1t" => irregular_1t(ctx),
        "irregular_mt" => irregular_mt(ctx),
        "batch_cp2k" => batch_cp2k(ctx),
        "conv_vgg" => conv_vgg(ctx),
        "service_mix" => crate::service::service_mix(ctx),
        "service_uniform" => crate::service::service_uniform(ctx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_waste_arithmetic() {
        // 32 rows on a 15-row tile pad to 45; 1024 columns fill 16 exactly.
        assert_eq!(tile_waste(32, 1024, 15, 16), 45.0 / 32.0);
        assert_eq!(tile_waste(1024, 32, 15, 16), 1035.0 / 1024.0);
        assert_eq!(tile_waste(128, 128, 15, 16), 135.0 / 128.0);
        assert_eq!(tile_waste(30, 32, 15, 16), 1.0);
        assert_eq!(tile_waste(7, 13, 7, 12), 24.0 / 13.0);
    }

    #[test]
    fn anchor_names_parse_back_to_shapes() {
        assert_eq!(shape_of("32x1024x256_f32_nn"), Shape::new(32, 1024, 256));
        assert_eq!(shape_of("128x128x128_f32_nn"), Shape::square(128));
        assert_eq!(thread_counts(1), [1]);
        assert_eq!(thread_counts(2), [2, 1]);
    }
}

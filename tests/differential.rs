//! One differential test over everything the one driver can be asked to
//! do: every executable ISA level x {NN, NT, TN, TT} x {f32, f64} x the
//! four packing policies x both edge schedules x a tiny-cache config that
//! forces several `jj/ii/kk` blocks, on shapes at the tile boundaries of
//! *every* registered kernel set plus the repo benchmark's own cells, with
//! the three `(alpha, beta)` classes, oversized leading dimensions and a
//! NaN, a +Inf, a +Inf/−Inf pair or a row of subnormals planted in A.
//!
//! Two kinds of assertion: within `gemm_tolerance(k, 1.0)` of `reference`
//! (the benchmark's factor) everywhere, and **bitwise** where the library
//! promises it — pooled == serial (every mode on the wide sets, NN on the
//! 128-bit one), `gemm_batch_beta` == direct `gemm_with`, an installed
//! override that encodes the computed plan == the computed plan, a held
//! `GemmPlan` handle's `run` == `gemm_with` (before and after the override
//! table changes under it, and from four threads at once), capture on ==
//! off (direct calls, uniform and ragged batches), `Auto` == `Force` of
//! the requested set at every shape and mode, and on the wide sets every
//! mode == the NN call on explicitly transposed operands.
//! Plus the handle's bookkeeping contract: how many override-table reads
//! each entry point makes — none at all while nothing is installed. This
//! is the fast slice that rides in tier-1; the per-crate suites and the
//! shadow harness go deeper on each axis.

use libshalom::core::{
    gemm_batch_beta, install_tuned, plan_cache_clear, plan_cache_stats, IsaPolicy, PlanSource,
};
use libshalom::kernels::{kernels_for, registered_families};
use libshalom::matrix::{assert_close, gemm_tolerance, ConvShape, Matrix};
use libshalom::nn::{conv2d_direct, Conv2d};
use libshalom::service::{GemmRequest, Service, ServiceConfig};
use libshalom::simd::base_isa;
use libshalom::{
    gemm_with, BatchItem, CacheParams, EdgeSchedule, GemmConfig, GemmElem, GemmPlan, Op,
    PackingPolicy,
};
use std::sync::RwLock;

/// The override table and its counters are process-wide, and an override
/// — unlike the memo this lock was written for — may change the bits of
/// the call it serves (another blocking is another summation order). So
/// the tests that install, clear or count own the table, and every test
/// that compares two runs, or would add reads to a count, shares it.
static PLAN_CACHE: RwLock<()> = RwLock::new(());

fn share_plan_cache() -> std::sync::RwLockReadGuard<'static, ()> {
    PLAN_CACHE.read().unwrap_or_else(|e| e.into_inner())
}

fn own_plan_cache() -> std::sync::RwLockWriteGuard<'static, ()> {
    PLAN_CACHE.write().unwrap_or_else(|e| e.into_inner())
}

const OPS: [(Op, Op); 4] = [
    (Op::NoTrans, Op::NoTrans),
    (Op::NoTrans, Op::Trans),
    (Op::Trans, Op::NoTrans),
    (Op::Trans, Op::Trans),
];
const PACKINGS: [PackingPolicy; 4] = [
    PackingPolicy::Auto,
    PackingPolicy::AlwaysFused,
    PackingPolicy::AlwaysSequential,
    PackingPolicy::Never,
];
const EDGES: [EdgeSchedule; 2] = [EdgeSchedule::Pipelined, EdgeSchedule::Batched];
const ALPHA_BETAS: [(f64, f64); 3] = [(1.0, 0.0), (1.0, 1.0), (-1.5, 0.5)];

/// Several `jj/ii/kk` blocks on anything bigger than a few tiles.
const TINY_CACHE: CacheParams = CacheParams {
    l1: 256,
    l2: 4 * 1024,
    l3: 64 * 1024,
};

/// `Force` of every registered family, then `Auto`.
fn levels() -> Vec<IsaPolicy> {
    registered_families()
        .map(|f| IsaPolicy::Force(f.isa))
        .chain([IsaPolicy::Auto])
        .collect()
}

/// Every registered `(mr, nr)`, both element types.
fn tiles() -> Vec<(usize, usize)> {
    let mut t: Vec<_> = registered_families()
        .flat_map(|f| [(f.k_f32.mr, f.k_f32.nr), (f.k_f64.mr, f.k_f64.nr)])
        .collect();
    t.sort_unstable();
    t.dedup();
    t
}

/// Shapes at 0 and +-1 around `mr`, `nr`, `2mr+3`, `2nr+5` of every
/// registered tile (paired, not crossed), with depths around the lane
/// counts.
fn tile_lattice() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![(0, 5, 3), (5, 0, 3), (5, 5, 0)];
    for (mr, nr) in tiles() {
        shapes.extend([
            (mr - 1, nr + 1, 7),
            (mr, nr, 17),
            (mr + 1, nr - 1, 15),
            (2 * mr + 3, 2 * nr + 5, 33),
            (2 * mr + 2, 2 * nr + 4, 9),
            (2 * mr + 4, 2 * nr + 6, 1),
            (mr, 2 * nr + 5, 3),
            (2 * mr + 3, nr, 5),
        ]);
    }
    shapes.sort_unstable();
    shapes.dedup();
    shapes
}

/// The benchmark's small cells: the CP2K five, the squares up to 64, the
/// `service_mix` shape and `conv_vgg`'s N = 25 / N = 100 at a shallow K.
const BENCH_SMALL: [(usize, usize, usize); 12] = [
    (5, 5, 5),
    (13, 5, 13),
    (13, 13, 13),
    (23, 23, 23),
    (26, 26, 13),
    (8, 8, 8),
    (16, 16, 16),
    (24, 24, 24),
    (32, 32, 32),
    (16, 49, 18),
    (64, 25, 72),
    (64, 100, 72),
];

/// The paper's irregular shapes with one side thinner than a wide register
/// tile (two of them `service_mix` buckets), a column and a row: what
/// `Auto` moved to the wide set when the size rule went.
const THIN: [(usize, usize, usize); 6] = [
    (14, 1024, 64),
    (1024, 12, 64),
    (32, 13, 36),
    (8, 196, 9),
    (64, 1, 72),
    (1, 64, 64),
];

/// The benchmark's large f32 cells, checked on sampled entries.
const BENCH_LARGE: [(usize, usize, usize); 5] = [
    (64, 64, 64),
    (96, 96, 96),
    (128, 128, 128),
    (32, 1024, 256),
    (1024, 32, 256),
];

/// Deterministic axis rotation: every call picks the next pseudo-random
/// entry, so the axes that are not crossed explicitly still meet every
/// value of every other axis many times over a sweep.
struct Rot(u64);

impl Rot {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.next() as usize % xs.len()]
    }
}

/// Uniform in [-1, 1) like the benchmark's operands, oversized `ld`.
fn operand<T: GemmElem>(rows: usize, cols: usize, pad: usize, seed: u64) -> Matrix<T> {
    let mut r = Rot(seed);
    let mut m = Matrix::<T>::zeros_with_ld(rows, cols, cols + pad);
    for i in 0..rows {
        for j in 0..cols {
            m.set(
                i,
                j,
                T::from_f64(r.next() as f64 / (1u64 << 30) as f64 - 1.0),
            );
        }
    }
    m
}

/// A special value planted in op(A)'s row `m / 2`.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Plant {
    None,
    Nan,
    PosInf,
    /// +Inf and −Inf in the same row, meeting equal op(B) rows: NaN.
    InfPair,
    /// The whole row subnormal in `T`: every product in it is too.
    Subnormal,
}

const PLANTS: [Plant; 5] = [
    Plant::None,
    Plant::Nan,
    Plant::PosInf,
    Plant::InfPair,
    Plant::Subnormal,
];

struct Case {
    cfg: GemmConfig,
    ops: (Op, Op),
    shape: (usize, usize, usize),
    alpha_beta: (f64, f64),
    /// Leading-dimension padding of A, B and C.
    pads: (usize, usize, usize),
    plant: Plant,
    /// Check this many sampled entries instead of all of C.
    sample: Option<usize>,
}

/// Runs the case through `gemm_with` and checks C against the f64 oracle
/// (same accumulation as `reference::gemm`, evaluated per checked entry).
fn check<T: GemmElem>(case: &Case) {
    let (m, n, k) = case.shape;
    let (op_a, op_b) = case.ops;
    let (alpha, beta) = (
        T::from_f64(case.alpha_beta.0),
        T::from_f64(case.alpha_beta.1),
    );
    let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
    let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
    let mut a = operand::<T>(ar, ac, case.pads.0, 11);
    let mut b = operand::<T>(br, bc, case.pads.1, 12);
    let c0 = operand::<T>(m, n, case.pads.2, 13);
    let plant_row = (case.plant != Plant::None && m > 0 && k > 0).then_some(m / 2);
    if let Some(r) = plant_row {
        let mut plant_a = |p: usize, v: f64| match op_a {
            Op::NoTrans => a.set(r, p, T::from_f64(v)),
            Op::Trans => a.set(p, r, T::from_f64(v)),
        };
        let (p, q) = (k / 3, (k / 3 + 1) % k);
        match case.plant {
            Plant::None => {}
            Plant::Nan => plant_a(p, f64::NAN),
            Plant::PosInf => plant_a(p, f64::INFINITY),
            Plant::InfPair => {
                plant_a(p, f64::INFINITY);
                plant_a(q, f64::NEG_INFINITY);
                // op(B)'s row q := row p, so the two infinities meet with
                // the same sign of B in every column: +Inf + −Inf.
                for j in 0..n {
                    match op_b {
                        Op::NoTrans => b.set(q, j, b.at(p, j)),
                        Op::Trans => b.set(j, q, b.at(j, p)),
                    }
                }
            }
            Plant::Subnormal => {
                // Small multiples of an eighth of `T`'s least normal value:
                // exact subnormals of either sign.
                let least_normal = if std::mem::size_of::<T>() == 4 {
                    f64::from(f32::MIN_POSITIVE)
                } else {
                    f64::MIN_POSITIVE
                };
                for p in 0..k {
                    plant_a(p, least_normal / 8.0 * [1.0, -2.0, 3.0][p % 3]);
                }
            }
        }
    }
    let mut c = c0.clone();
    gemm_with(
        &case.cfg,
        op_a,
        op_b,
        alpha,
        a.as_ref(),
        b.as_ref(),
        beta,
        c.as_mut(),
    );
    let ctx = || {
        format!(
            "{:?} {:?}/{:?} {:?}{:?} {m}x{n}x{k} alpha/beta {:?} pads {:?} cache l1 {}",
            case.cfg.isa,
            case.cfg.packing,
            case.cfg.edge,
            op_a,
            op_b,
            case.alpha_beta,
            case.pads,
            case.cfg.cache.l1,
        )
    };
    let tol = gemm_tolerance::<T>(k, 1.0);
    let check_entry = |i: usize, j: usize| {
        let got = c.at(i, j).to_f64();
        let mut acc = 0.0f64;
        for p in 0..k {
            let av = if op_a == Op::NoTrans {
                a.at(i, p)
            } else {
                a.at(p, i)
            };
            let bv = if op_b == Op::NoTrans {
                b.at(p, j)
            } else {
                b.at(j, p)
            };
            acc += av.to_f64() * bv.to_f64();
        }
        let old = if case.alpha_beta.1 == 0.0 {
            0.0
        } else {
            c0.at(i, j).to_f64()
        };
        let want = case.alpha_beta.0 * acc + case.alpha_beta.1 * old;
        let subnormal_row = plant_row == Some(i) && case.plant == Plant::Subnormal;
        if plant_row == Some(i) && !subnormal_row {
            // The planted row is non-finite, and NaN wherever the oracle
            // says so: always for a NaN, and for the pair when k >= 2.
            assert!(
                !want.is_finite() && (want.is_nan() || case.plant == Plant::PosInf || k < 2),
                "{}: oracle C[{i},{j}] = {want} for {:?}",
                ctx(),
                case.plant
            );
            let same = if want.is_nan() {
                got.is_nan()
            } else {
                got == want
            };
            assert!(
                same,
                "{}: C[{i},{j}] = {got} launders the planted {:?} (oracle {want})",
                ctx(),
                case.plant
            );
            return;
        }
        assert!(
            (got - want).abs() <= tol,
            "{}: C[{i},{j}] = {got}, reference {want}, tol {tol}",
            ctx()
        );
        // Subnormal operands are arithmetic, not zeros: with no `beta * C`
        // term the row is its subnormal-scale products, and a flush to
        // zero shows.
        if subnormal_row && case.alpha_beta.1 == 0.0 {
            assert!(
                got != 0.0 || want == 0.0,
                "{}: C[{i},{j}] = 0 flushes the subnormal row (oracle {want})",
                ctx()
            );
        }
    };
    match case.sample {
        None => (0..m).for_each(|i| (0..n).for_each(|j| check_entry(i, j))),
        Some(count) => {
            // The four corners, then seeded interior entries.
            for (i, j) in [(0, 0), (0, n - 1), (m - 1, 0), (m - 1, n - 1)] {
                check_entry(i, j);
            }
            let mut r = Rot((m * 31 + n) as u64);
            for _ in 0..count {
                check_entry(r.next() as usize % m, r.next() as usize % n);
            }
        }
    }
    // The leading-dimension padding of C is never written.
    for i in 0..m {
        for pad in n..c.ld() {
            assert!(
                c.as_slice()[i * c.ld() + pad].to_f64() == 0.0,
                "{}: wrote C's ld padding at [{i},{pad}]",
                ctx()
            );
        }
    }
}

fn at(isa: IsaPolicy, cache: CacheParams) -> GemmConfig {
    GemmConfig {
        isa,
        cache,
        ..GemmConfig::with_threads(1)
    }
}

#[test]
fn every_level_mode_and_regime_matches_reference() {
    let _shared = share_plan_cache();
    let detected = CacheParams::detect();
    let mut rot = Rot(18);
    // The regime cross, explicit: level x ops x dtype x packing x edge on
    // one shape of two-and-a-bit tiles of the widest set, tiny cache. The
    // plant walks a Latin square over (ops, packing, edge), so every level
    // meets every plant in all four modes and both edge schedules.
    for isa in levels() {
        for (oi, ops) in OPS.into_iter().enumerate() {
            for (pi, packing) in PACKINGS.into_iter().enumerate() {
                for (ei, edge) in EDGES.into_iter().enumerate() {
                    let case = Case {
                        cfg: GemmConfig {
                            packing,
                            edge,
                            ..at(isa, TINY_CACHE)
                        },
                        ops,
                        shape: (33, 37, 40),
                        alpha_beta: rot.pick(&ALPHA_BETAS),
                        pads: (rot.pick(&[0, 3]), rot.pick(&[0, 5]), rot.pick(&[0, 2])),
                        plant: PLANTS[(oi + pi + ei) % PLANTS.len()],
                        sample: None,
                    };
                    check::<f32>(&case);
                    check::<f64>(&case);
                }
            }
        }
    }
    // The shape sweep: level x ops x dtype on every tile-boundary shape and
    // every small benchmark cell, the other axes rotating.
    let shapes: Vec<_> = tile_lattice().into_iter().chain(BENCH_SMALL).collect();
    for &shape in &shapes {
        for isa in levels() {
            for ops in OPS {
                let case = Case {
                    cfg: GemmConfig {
                        packing: rot.pick(&PACKINGS),
                        edge: rot.pick(&EDGES),
                        ..at(isa, rot.pick(&[detected, TINY_CACHE]))
                    },
                    ops,
                    shape,
                    alpha_beta: rot.pick(&ALPHA_BETAS),
                    pads: (rot.pick(&[0, 3]), rot.pick(&[0, 5]), rot.pick(&[0, 2])),
                    plant: rot.pick(&PLANTS),
                    sample: None,
                };
                check::<f32>(&case);
                check::<f64>(&case);
            }
        }
    }
    // The benchmark's large f32 cells in the modes it times them, at its
    // own configuration (detected caches, defaults). The squares run at
    // every level; the two 16-MFLOP irregular cells at the 128-bit level
    // and at `Auto` (which, above one tile, *is* the widest level) to keep
    // this slice to a few seconds unoptimized.
    for shape in BENCH_LARGE {
        let all = levels();
        let ends = [all[0], IsaPolicy::Auto];
        let at_levels = if shape.0 * shape.1 * shape.2 > 1 << 22 {
            &ends[..]
        } else {
            &all[..]
        };
        for &isa in at_levels {
            for ops in &OPS[..3] {
                check::<f32>(&Case {
                    cfg: at(isa, detected),
                    ops: *ops,
                    shape,
                    alpha_beta: (1.0, 0.0),
                    pads: (0, 0, 0),
                    plant: Plant::None,
                    sample: Some(400),
                });
            }
        }
    }
}

/// `gemm_with` into a fresh copy of `c0`, returning the result's bits.
fn run_bits<T: GemmElem>(
    cfg: &GemmConfig,
    (op_a, op_b): (Op, Op),
    a: &Matrix<T>,
    b: &Matrix<T>,
    c0: &Matrix<T>,
) -> Vec<u64> {
    let mut c = c0.clone();
    gemm_with(
        cfg,
        op_a,
        op_b,
        T::from_f64(-1.5),
        a.as_ref(),
        b.as_ref(),
        T::from_f64(0.5),
        c.as_mut(),
    );
    c.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
}

fn operands<T: GemmElem>(
    (op_a, op_b): (Op, Op),
    (m, n, k): (usize, usize, usize),
) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
    let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
    (
        operand(ar, ac, 1, 21),
        operand(br, bc, 2, 22),
        operand(m, n, 3, 23),
    )
}

#[test]
fn pooled_is_bitwise_serial_at_every_level() {
    let _shared = share_plan_cache();
    // The §6 partition never shows in the bits. On the wide sets that is
    // the rounding contract, and it covers every mode: a transposed
    // operand is packed, then every element is the same fused chain. On
    // the 128-bit set it holds for NN by seam alignment; its NT/TT panels
    // round their first `min(7, m)` rows as inner products, and which rows
    // those are moves with the row partition, so only NN is promised.
    fn one<T: GemmElem>(
        isa: IsaPolicy,
        ops: (Op, Op),
        cache: CacheParams,
        shape: (usize, usize, usize),
    ) {
        let (a, b, c0) = operands::<T>(ops, shape);
        let serial = run_bits(&at(isa, cache), ops, &a, &b, &c0);
        for threads in [2, 3, 5] {
            let cfg = GemmConfig {
                threads,
                ..at(isa, cache)
            };
            assert!(
                run_bits(&cfg, ops, &a, &b, &c0) == serial,
                "{isa:?} {ops:?} {shape:?} at {threads} threads diverged from serial (l1 {})",
                cache.l1
            );
        }
    }
    let shapes: Vec<_> = tile_lattice()
        .into_iter()
        .filter(|&(m, n, k)| m * n * k > 0)
        .step_by(3)
        .chain([
            (512, 25, 40),
            (33, 65, 7),
            (64, 64, 64),
            (17, 200, 70),
            (23, 23, 23),
        ])
        .collect();
    for isa in levels() {
        let wide = at(isa, TINY_CACHE).requested_isa() != base_isa();
        let modes = if wide { &OPS[..] } else { &OPS[..1] };
        for &shape in &shapes {
            for cache in [CacheParams::detect(), TINY_CACHE] {
                for &ops in modes {
                    one::<f32>(isa, ops, cache, shape);
                    one::<f64>(isa, ops, cache, shape);
                }
            }
        }
    }
    // Thin shapes under `Auto`: a worker's sub-block is thinner still and
    // must stay on the parent's set.
    let wide = GemmConfig::default().requested_isa() != base_isa();
    for shape in THIN {
        for &ops in if wide { &OPS[..] } else { &OPS[..1] } {
            one::<f32>(IsaPolicy::Auto, ops, CacheParams::detect(), shape);
            one::<f64>(IsaPolicy::Auto, ops, CacheParams::detect(), shape);
        }
    }
}

/// `op(x)` as a matrix of its own: `x` itself, or its explicit transpose.
fn applied<T: GemmElem>(op: Op, x: &Matrix<T>) -> Matrix<T> {
    match op {
        Op::NoTrans => x.clone(),
        Op::Trans => x.transposed(),
    }
}

#[test]
fn every_mode_is_bitwise_nn_on_transposed_operands_at_the_wide_sets() {
    let _shared = share_plan_cache();
    // A wide set packs a transposed operand and then runs the NN kernels
    // on it, so transposing is invisible in the bits: every element is one
    // fused chain over `k` plus the write-back epilogue, whatever the mode,
    // the packing regime or the edge schedule.
    fn one<T: GemmElem>(cfg: &GemmConfig, ops: (Op, Op), shape: (usize, usize, usize)) {
        let nn = (Op::NoTrans, Op::NoTrans);
        let (a, b, c0) = operands::<T>(ops, shape);
        assert!(
            run_bits(cfg, ops, &a, &b, &c0)
                == run_bits(cfg, nn, &applied(ops.0, &a), &applied(ops.1, &b), &c0),
            "{:?} {:?}/{:?} {ops:?} {shape:?}",
            cfg.isa,
            cfg.packing,
            cfg.edge
        );
    }
    let wide_levels: Vec<_> = levels()
        .into_iter()
        .filter(|&isa| at(isa, TINY_CACHE).requested_isa() != base_isa())
        .collect();
    let shapes: Vec<_> = tile_lattice()
        .into_iter()
        .filter(|&(m, n, k)| m * n * k > 0)
        .chain(BENCH_SMALL)
        .chain(THIN)
        .collect();
    let mut rot = Rot(23);
    for &isa in &wide_levels {
        for packing in PACKINGS {
            for edge in EDGES {
                for &shape in &shapes {
                    let cfg = GemmConfig {
                        packing,
                        edge,
                        ..at(isa, rot.pick(&[CacheParams::detect(), TINY_CACHE]))
                    };
                    for &ops in &OPS[1..] {
                        if rot.pick(&[true, false]) {
                            one::<f32>(&cfg, ops, shape);
                        } else {
                            one::<f64>(&cfg, ops, shape);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn batch_is_bitwise_direct_at_every_level() {
    let _shared = share_plan_cache();
    // Exactly what `batch_cp2k` verifies: `gemm_batch_beta` at T threads
    // against a direct one-thread `gemm_with` per item.
    fn one<T: GemmElem>(isa: IsaPolicy, ops: (Op, Op), shape: (usize, usize, usize)) {
        let (a, b, c0) = operands::<T>(ops, shape);
        let direct = run_bits(&at(isa, CacheParams::detect()), ops, &a, &b, &c0);
        for threads in [1, 2, 4] {
            let cfg = GemmConfig {
                threads,
                ..at(isa, CacheParams::detect())
            };
            let mut outs = vec![c0.clone(); 6];
            let mut items: Vec<_> = outs
                .iter_mut()
                .map(|c| BatchItem {
                    a: a.as_ref(),
                    b: b.as_ref(),
                    c: c.as_mut(),
                })
                .collect();
            gemm_batch_beta(
                &cfg,
                ops.0,
                ops.1,
                T::from_f64(-1.5),
                T::from_f64(0.5),
                &mut items,
            );
            for out in &outs {
                let bits: Vec<u64> = out
                    .as_slice()
                    .iter()
                    .map(|x| x.to_f64().to_bits())
                    .collect();
                assert!(
                    bits == direct,
                    "{isa:?} {ops:?} {shape:?} batch at {threads} threads"
                );
            }
        }
    }
    for isa in levels() {
        for shape in BENCH_SMALL {
            for ops in &OPS[..2] {
                one::<f32>(isa, *ops, shape);
                one::<f64>(isa, *ops, shape);
            }
        }
    }
    for shape in THIN {
        for ops in &OPS[..2] {
            one::<f32>(IsaPolicy::Auto, *ops, shape);
            one::<f64>(IsaPolicy::Auto, *ops, shape);
        }
    }
    // The chunk mapping. A pooled batch of `n` items claims contiguous
    // chunks of `max(1, n / (8 T))`, so the lengths straddle its first two
    // grain steps (`16 T`, `24 T`), sit around `T`, and include the 4096
    // items `batch_cp2k` runs; uniform and ragged, at `T` in {2, 3}. With
    // beta = 0.5 a skipped or doubled item changes its bits.
    const RAGGED: [(usize, usize, usize); 4] = [(5, 5, 5), (13, 5, 13), (1, 9, 4), (8, 3, 6)];
    let nn = (Op::NoTrans, Op::NoTrans);
    for isa in levels() {
        let serial = at(isa, CacheParams::detect());
        let problems: Vec<_> = RAGGED
            .iter()
            .map(|&shape| {
                let (a, b, c0) = operands::<f64>(nn, shape);
                let direct = run_bits(&serial, nn, &a, &b, &c0);
                (a, b, c0, direct)
            })
            .collect();
        for t in [2, 3] {
            let cfg = GemmConfig {
                threads: t,
                ..serial
            };
            let steps = [16 * t - 1, 16 * t, 16 * t + 1, 24 * t - 1, 24 * t];
            for n in [1, t - 1, t, t + 1, 4096].into_iter().chain(steps) {
                for ragged in [false, true] {
                    let pick = |i: usize| if ragged { i % RAGGED.len() } else { 0 };
                    let mut outs: Vec<_> = (0..n).map(|i| problems[pick(i)].2.clone()).collect();
                    let mut items: Vec<_> = outs
                        .iter_mut()
                        .enumerate()
                        .map(|(i, c)| BatchItem {
                            a: problems[pick(i)].0.as_ref(),
                            b: problems[pick(i)].1.as_ref(),
                            c: c.as_mut(),
                        })
                        .collect();
                    gemm_batch_beta(&cfg, nn.0, nn.1, -1.5, 0.5, &mut items);
                    drop(items);
                    for (i, out) in outs.iter().enumerate() {
                        let bits: Vec<u64> = out.as_slice().iter().map(|x| x.to_bits()).collect();
                        assert!(
                            bits == problems[pick(i)].3,
                            "{isa:?} item {i} of {n} (ragged {ragged}) at {t} threads"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn auto_is_bitwise_force_of_the_requested_set() {
    let _shared = share_plan_cache();
    // `Auto` dispatches the requested set at every shape in every mode:
    // no size rule is left, so `Force(requested_isa())` is the oracle, a
    // handle says so, and on a host without a wide set both are the base.
    fn one<T: GemmElem>(ops: (Op, Op), shape: (usize, usize, usize)) {
        let (m, n, k) = shape;
        let auto = at(IsaPolicy::Auto, CacheParams::detect());
        let want = auto.requested_isa();
        let forced = at(IsaPolicy::Force(want), CacheParams::detect());
        for cfg in [&auto, &forced] {
            assert_eq!(
                GemmPlan::<T>::new(cfg, ops.0, ops.1, m, n, k).isa(),
                want,
                "{:?} {ops:?} {shape:?}",
                cfg.isa
            );
        }
        let (a, b, c0) = operands::<T>(ops, shape);
        assert!(
            run_bits(&auto, ops, &a, &b, &c0) == run_bits(&forced, ops, &a, &b, &c0),
            "Auto != Force({want:?}) on {ops:?} {shape:?}"
        );
    }
    let shapes = tile_lattice()
        .into_iter()
        .filter(|&(m, n, k)| m * n * k > 0)
        .chain(BENCH_SMALL)
        .chain(THIN);
    for shape in shapes {
        for ops in OPS {
            one::<f32>(ops, shape);
            one::<f64>(ops, shape);
        }
    }
}

#[test]
fn an_override_encoding_the_computed_plan_is_bitwise_the_computed_plan() {
    let _own = own_plan_cache();
    // An override may change strategy, never results; one that encodes
    // the very plan its signature computes changes nothing at all: at
    // every level, in every mode, serial and threaded, the served plan
    // decodes to the computed one and executes the same arithmetic.
    // (Nothing is remembered between calls, so there is no other "same
    // plan as last time" left to test.)
    fn one<T: GemmElem>(cfg: &GemmConfig, ops: (Op, Op), shape: (usize, usize, usize)) {
        let (m, n, k) = shape;
        let (a, b, c0) = operands::<T>(ops, shape);
        let ctx = format!("{:?} {ops:?} {shape:?} x{}", cfg.isa, cfg.threads);
        let describe = || GemmPlan::<T>::new(cfg, ops.0, ops.1, m, n, k).describe();
        let computed = describe();
        assert!(
            computed.source == PlanSource::Computed,
            "{ctx}: {computed:?}"
        );
        let bare = run_bits(cfg, ops, &a, &b, &c0);
        let installed = install_tuned::<T>(cfg, cfg, ops.0, ops.1, m, n, k);
        assert!(
            installed.source == PlanSource::Profile,
            "{ctx}: not installed"
        );
        let served = describe();
        assert!(
            served.source == PlanSource::Profile && served.plan == computed.plan,
            "{ctx}: served {served:?}, computed {computed:?}"
        );
        let overridden = run_bits(cfg, ops, &a, &b, &c0);
        plan_cache_clear();
        assert!(describe() == computed, "{ctx}: override outlived the clear");
        assert!(bare == overridden, "{ctx}: bits moved under the override");
    }
    plan_cache_clear();
    for isa in levels() {
        for shape in [(23, 23, 23), (16, 49, 18), (33, 37, 40), (17, 200, 70)] {
            for ops in OPS {
                for threads in [1, 3] {
                    let cfg = GemmConfig {
                        threads,
                        ..at(isa, TINY_CACHE)
                    };
                    one::<f32>(&cfg, ops, shape);
                    one::<f64>(&cfg, ops, shape);
                }
            }
        }
    }
}

/// The handle's `run` into a fresh copy of `c0`, as bits.
fn handle_bits<T: GemmElem>(
    plan: &GemmPlan<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c0: &Matrix<T>,
) -> Vec<u64> {
    let mut c = c0.clone();
    plan.run(
        T::from_f64(-1.5),
        a.as_ref(),
        b.as_ref(),
        T::from_f64(0.5),
        c.as_mut(),
    );
    c.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
}

#[test]
fn handle_run_is_bitwise_gemm_with_and_a_snapshot() {
    let _own = own_plan_cache();
    // `GemmPlan::new(..).run(..)` is `gemm_with`, at every level, in every
    // mode, serial and threaded — and a held handle is a snapshot:
    // installing a *different* plan for its signature, or clearing the
    // table again, changes neither that it runs nor what it computes.
    fn one<T: GemmElem>(cfg: &GemmConfig, ops: (Op, Op), shape: (usize, usize, usize)) {
        let (a, b, c0) = operands::<T>(ops, shape);
        let (m, n, k) = shape;
        let plan = GemmPlan::<T>::new(cfg, ops.0, ops.1, m, n, k);
        let ctx = format!("{:?} {ops:?} {shape:?} x{}", cfg.isa, cfg.threads);
        let first = handle_bits(&plan, &a, &b, &c0);
        assert!(
            first == run_bits(cfg, ops, &a, &b, &c0),
            "{ctx}: run != gemm_with"
        );
        // A tuned plan with another blocking, edge schedule and packing
        // regime: new handles get it, the held one does not.
        let tuned = GemmConfig {
            cache: TINY_CACHE,
            edge: EdgeSchedule::Batched,
            packing: PackingPolicy::AlwaysSequential,
            ..*cfg
        };
        let before = plan.describe();
        let installed = install_tuned::<T>(cfg, &tuned, ops.0, ops.1, m, n, k);
        let rebuilt = GemmPlan::<T>::new(cfg, ops.0, ops.1, m, n, k).describe();
        assert!(
            rebuilt.source == installed.source,
            "{ctx}: override not served"
        );
        assert!(
            rebuilt.plan.edge == installed.plan.edge,
            "{ctx}: override not served"
        );
        assert!(
            plan.describe() == before,
            "{ctx}: override reached a held handle"
        );
        assert!(
            handle_bits(&plan, &a, &b, &c0) == first,
            "{ctx}: after install"
        );
        plan_cache_clear();
        assert!(
            handle_bits(&plan, &a, &b, &c0) == first,
            "{ctx}: after clear"
        );
    }
    plan_cache_clear();
    let mut shapes = tile_lattice();
    shapes.retain(|&(m, n, k)| m * n * k > 0);
    let shapes: Vec<_> = shapes
        .into_iter()
        .step_by(3)
        .chain(BENCH_SMALL)
        .chain([(17, 200, 70), (64, 2048, 8)])
        .collect();
    let mut rot = Rot(21);
    for isa in levels() {
        for &shape in &shapes {
            for ops in OPS {
                let cfg = GemmConfig {
                    threads: rot.pick(&[1, 1, 3]),
                    ..at(isa, CacheParams::detect())
                };
                if rot.pick(&[true, false]) {
                    one::<f32>(&cfg, ops, shape);
                } else {
                    one::<f64>(&cfg, ops, shape);
                }
            }
        }
    }
}

#[test]
fn one_handle_from_four_threads_is_bitwise_serial() {
    let _shared = share_plan_cache();
    // A handle is shared data: four callers running it at once, each into
    // its own C, all get the serial bits — with a serial handle and with a
    // threaded one (whose callers queue for the pool).
    let nn = (Op::NoTrans, Op::NoTrans);
    let shape = (33, 130, 40);
    let (a, b, c0) = operands::<f32>(nn, shape);
    let serial = run_bits(&at(IsaPolicy::Auto, TINY_CACHE), nn, &a, &b, &c0);
    for threads in [1, 3] {
        let cfg = GemmConfig {
            threads,
            ..at(IsaPolicy::Auto, TINY_CACHE)
        };
        let plan = GemmPlan::<f32>::new(&cfg, nn.0, nn.1, shape.0, shape.1, shape.2);
        let outs: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| handle_bits(&plan, &a, &b, &c0)))
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller panicked"))
                .collect()
        });
        for (i, out) in outs.iter().enumerate() {
            assert!(
                *out == serial,
                "caller {i} of a {threads}-thread handle diverged"
            );
        }
    }
}

/// The tile width `nr` of the kernel set `cfg` dispatches `T` to.
fn tile_width<T: GemmElem>(cfg: &GemmConfig) -> usize {
    kernels_for::<T>(GemmPlan::<T>::new(cfg, Op::NoTrans, Op::NoTrans, 1, 1, 1).isa()).nr
}

#[test]
fn blocked_conv_forward_is_bitwise_across_threads_and_the_batch_path() {
    let _shared = share_plan_cache();
    // A layer whose plan fills and multiplies several L2 column blocks:
    // `forward` at two threads (the columns split once, each worker
    // blocking its own) is bitwise `forward` at one, which is bitwise
    // `forward_batch` (one whole-matrix GEMM), and both are within
    // tolerance of the direct convolution.
    fn one<T: GemmElem>(isa: IsaPolicy, join: bool) {
        // N = 13 * 14 = 182: three or more blocks of any tile width up to
        // 48, and leftover columns: a tail block when half of L2 holds
        // one tile width of the lowered matrix, joined to the last block
        // when it also holds the leftover.
        let shape = ConvShape {
            c_in: 3,
            c_out: 7,
            h: 13,
            w: 14,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let (m, n, k) = shape.gemm_dims();
        let at_threads = |threads| GemmConfig {
            isa,
            ..GemmConfig::with_threads(threads)
        };
        let nr = tile_width::<T>(&at_threads(1));
        assert!(n / nr >= 3 && n % nr != 0, "nr {nr}");
        let extra = if join { n % nr } else { 0 };
        let weights = Matrix::<T>::random(m, k, 9);
        let layer = |threads| {
            let mut cfg = at_threads(threads);
            cfg.cache.l2 = 2 * k * std::mem::size_of::<T>() * (nr + extra);
            Conv2d::new(shape, weights.clone(), cfg)
        };
        let input = Matrix::<T>::random(shape.c_in, shape.h * shape.w, 8);
        let serial = layer(1).forward(&input);
        let case = format!(
            "{isa:?}, tail joined {join}, {} bits",
            8 * std::mem::size_of::<T>()
        );
        assert!(
            layer(2).forward(&input).as_slice() == serial.as_slice(),
            "forward at 2 threads differs from 1 thread: {case}"
        );
        let whole = layer(1).forward_batch(std::slice::from_ref(&input));
        assert!(
            serial.as_slice() == whole[0].as_slice(),
            "blocked forward differs from the whole-matrix GEMM: {case}"
        );
        let want = conv2d_direct(&shape, &input, &weights);
        assert_close(serial.as_ref(), want.as_ref(), gemm_tolerance::<T>(k, 4.0));
    }
    for isa in [IsaPolicy::Auto, IsaPolicy::Force(base_isa())] {
        for join in [false, true] {
            one::<f32>(isa, join);
            one::<f64>(isa, join);
        }
    }
}

#[test]
#[should_panic(expected = "incompatible")]
fn handle_run_with_mismatched_views_panics() {
    let plan = GemmPlan::<f32>::new(&GemmConfig::default(), Op::NoTrans, Op::NoTrans, 3, 6, 4);
    let a = Matrix::<f32>::zeros(3, 4);
    let b = Matrix::<f32>::zeros(5, 6); // the plan says 4 x 6
    let mut c = Matrix::<f32>::zeros(3, 6);
    plan.run(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
}

#[test]
fn each_entry_point_makes_the_planned_number_of_lookups() {
    let _own = own_plan_cache();
    plan_cache_clear();
    let reads = || {
        let st = plan_cache_stats();
        st.hits + st.misses
    };
    let nn = (Op::NoTrans, Op::NoTrans);
    let serial = GemmConfig::with_threads(1);
    let two = GemmConfig::with_threads(2);
    let (a64, b64, c64) = operands::<f64>(nn, (13, 13, 13));
    let (a32, b32, c32) = operands::<f32>(nn, (64, 2048, 64));
    let batch = |cfg: &GemmConfig, shapes: &[(usize, usize, usize)]| {
        let mut mats: Vec<_> = shapes.iter().map(|&s| operands::<f64>(nn, s)).collect();
        let mut items: Vec<_> = mats
            .iter_mut()
            .map(|(a, b, c)| BatchItem {
                a: a.as_ref(),
                b: b.as_ref(),
                c: c.as_mut(),
            })
            .collect();
        gemm_batch_beta(cfg, nn.0, nn.1, 1.0, 0.0, &mut items);
    };
    let conv = ConvShape {
        c_in: 3,
        c_out: 8,
        h: 9,
        w: 9,
        kh: 3,
        kw: 3,
        pad: 1,
    };
    let image = Matrix::<f32>::random(conv.c_in, conv.h * conv.w, 6);
    let held = GemmPlan::<f64>::new(&serial, nn.0, nn.1, 13, 13, 13);
    let layer = Conv2d::<f32>::random(conv, two, 5);
    // An L2 whose half holds the lowered 27-deep matrix of one tile
    // width: `forward` runs blocks of `nr` columns and a tail block
    // (81 pixels is no multiple of a tile width), all under one handle.
    let nr = tile_width::<f32>(&two);
    assert_ne!(81 % nr, 0);
    let blocked = GemmConfig {
        cache: CacheParams {
            l2: 2 * 27 * 4 * nr,
            ..two.cache
        },
        ..two
    };
    let blocked_layer = Conv2d::<f32>::random(conv, blocked, 5);
    let service = Service::start(ServiceConfig::default());
    // Each entry point, with the table reads it makes when the table has
    // something in it: one per handle built, none per tile, per item of a
    // uniform batch, per run of a held handle or per image of a layer.
    let ragged = [(13, 13, 13), (5, 5, 5), (23, 23, 23), (13, 5, 13)];
    let entry_points: [(&str, u64, &dyn Fn()); 11] = [
        ("serial gemm_with", 1, &|| {
            drop(run_bits(&serial, nn, &a64, &b64, &c64))
        }),
        ("threaded gemm_with", 1, &|| {
            drop(run_bits(&two, nn, &a32, &b32, &c32))
        }),
        ("uniform batch, serial", 1, &|| {
            batch(&serial, &[(13, 13, 13); 64])
        }),
        ("uniform batch, pooled", 1, &|| {
            batch(&two, &[(13, 13, 13); 64])
        }),
        ("ragged batch", ragged.len() as u64, &|| {
            batch(&two, &ragged)
        }),
        ("held handle", 0, &|| {
            drop(handle_bits(&held, &a64, &b64, &c64))
        }),
        ("Conv2d::new", 1, &|| {
            drop(Conv2d::<f32>::random(conv, two, 5))
        }),
        ("Conv2d::forward", 0, &|| drop(layer.forward(&image))),
        ("blocked Conv2d::new", 1, &|| {
            drop(Conv2d::<f32>::random(conv, blocked, 5))
        }),
        ("blocked Conv2d::forward", 0, &|| {
            drop(blocked_layer.forward(&image))
        }),
        ("service request", 1, &|| {
            let mut c = c64.clone();
            let req = GemmRequest::new(
                serial,
                nn.0,
                nn.1,
                1.0,
                a64.as_ref(),
                b64.as_ref(),
                0.0,
                c.as_mut(),
            );
            service.submit_wait(req, None).expect("request failed");
        }),
    ];
    // Nothing installed: no entry point reads the table (or builds a key,
    // or takes its lock — the read is where all three happen).
    for (name, _, call) in entry_points {
        let before = reads();
        call();
        assert_eq!(reads() - before, 0, "{name} read an empty table");
    }
    // One override no call here matches: every handle built is one read.
    let elsewhere = install_tuned::<f32>(&serial, &serial, nn.0, nn.1, 3, 1000, 3);
    assert_eq!(elsewhere.source, PlanSource::Profile);
    let hits = plan_cache_stats().hits;
    for (name, want, call) in entry_points {
        let before = reads();
        call();
        assert_eq!(reads() - before, want, "{name}");
    }
    assert_eq!(
        plan_cache_stats().hits,
        hits,
        "no call matched the override"
    );
    service.shutdown();
    plan_cache_clear();
}

/// `gemm_batch_beta` over one item per shape, every C as bits.
fn batch_bits(cfg: &GemmConfig, ops: (Op, Op), shapes: &[(usize, usize, usize)]) -> Vec<u64> {
    let problems: Vec<_> = shapes.iter().map(|&s| operands::<f32>(ops, s)).collect();
    let mut outs: Vec<Matrix<f32>> = problems.iter().map(|p| p.2.clone()).collect();
    let mut items: Vec<_> = problems
        .iter()
        .zip(&mut outs)
        .map(|((a, b, _), c)| BatchItem {
            a: a.as_ref(),
            b: b.as_ref(),
            c: c.as_mut(),
        })
        .collect();
    gemm_batch_beta(cfg, ops.0, ops.1, -1.5, 0.5, &mut items);
    drop(items);
    outs.iter()
        .flat_map(|c| c.as_slice().iter().map(|x| x.to_bits() as u64))
        .collect()
}

#[test]
fn capture_on_is_bitwise_off() {
    let _shared = share_plan_cache();
    use libshalom::capture::{self, Sink};
    // Capture picks its instantiation once per call and once per batch:
    // a direct call (serial and threaded), a uniform batch (one shared
    // handle) and a ragged one (a handle per item) each run the capturing
    // instance and the capture-free one to the same bits.
    let ragged = [
        (5, 5, 5),
        (13, 5, 13),
        (1, 9, 4),
        (26, 26, 13),
        (23, 23, 23),
    ];
    for isa in levels() {
        for ops in OPS {
            for threads in [1, 3] {
                let cfg = GemmConfig {
                    threads,
                    ..at(isa, TINY_CACHE)
                };
                let (a, b, c0) = operands::<f32>(ops, (33, 70, 40));
                let runs: [(&str, &dyn Fn() -> Vec<u64>); 3] = [
                    ("call", &|| run_bits(&cfg, ops, &a, &b, &c0)),
                    ("uniform batch", &|| {
                        batch_bits(&cfg, ops, &[(13, 5, 13); 6])
                    }),
                    ("ragged batch", &|| batch_bits(&cfg, ops, &ragged)),
                ];
                for (what, run) in runs {
                    capture::disable(Sink::Both);
                    let off = run();
                    capture::enable(Sink::Both);
                    let on = run();
                    capture::disable(Sink::Both);
                    assert!(on == off, "{what}: {isa:?} {ops:?} at {threads} threads");
                }
            }
        }
    }
}

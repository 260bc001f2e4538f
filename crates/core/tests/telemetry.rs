//! Integration tests for the capture layer's record sink: every dispatch
//! path must emit a decision record whose tags match the plan the driver
//! actually executed, and capture must never perturb numerics.
//!
//! Capture state is process-global, so every test here serializes on
//! one mutex and resets the sinks before acting.
#![recursion_limit = "256"]

use proptest::prelude::*;
use shalom_core::capture::{self, DecisionRecord, PathTag, Sink};
use shalom_core::{
    gemm_batch, gemm_with, BPlan, BatchItem, CacheParams, GemmConfig, GemmElem, IsaPolicy, Op,
    PackingPolicy, PlanSource, ResolvedPlan, ShapeClass,
};
use shalom_matrix::Matrix;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn state_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Fixed cache geometry so plan resolution doesn't depend on the host:
/// 32 KiB L1, 2 MiB LLC (the paper's Kunpeng 920 per-core figures). The
/// ISA is left to `Auto` — the §4 packing regimes apply at every vector
/// width, so these records describe the path production runs.
fn fixed_config() -> GemmConfig {
    GemmConfig {
        cache: CacheParams {
            l1: 32 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 0,
        },
        threads: 1,
        ..GemmConfig::default()
    }
}

/// Runs one f32 GEMM under capture and returns the records it emitted.
fn trace_gemm(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> Vec<DecisionRecord> {
    trace_gemm_of::<f32>(cfg, op_a, op_b, m, n, k)
}

/// [`trace_gemm`] at either precision.
fn trace_gemm_of<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> Vec<DecisionRecord> {
    let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
    let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
    let a = Matrix::<T>::random(ar, ac, 1);
    let b = Matrix::<T>::random(br, bc, 2);
    let mut c = Matrix::<T>::zeros(m, n);
    capture::reset();
    capture::enable(Sink::Records);
    gemm_with(
        cfg,
        op_a,
        op_b,
        T::ONE,
        a.as_ref(),
        b.as_ref(),
        T::ZERO,
        c.as_mut(),
    );
    capture::disable(Sink::Records);
    capture::record_snapshot().recent
}

/// The single record a serial call must produce, with shape echoed back.
fn sole_record(recs: &[DecisionRecord], m: usize, n: usize, k: usize) -> DecisionRecord {
    assert_eq!(recs.len(), 1, "serial call must emit exactly one record");
    let r = recs[0];
    assert_eq!((r.m, r.n, r.k), (m, n, k));
    r
}

#[test]
fn nn_no_pack_path() {
    let _g = state_lock();
    // 64x64x64 f32: size(B) = 16 KiB <= L1 -> read B in place (§4.1).
    let recs = trace_gemm(&fixed_config(), Op::NoTrans, Op::NoTrans, 64, 64, 64);
    let r = sole_record(&recs, 64, 64, 64);
    assert_eq!(r.plan, BPlan::Direct);
    assert_eq!(r.class, ShapeClass::Small);
    assert_eq!(r.path, PathTag::Serial);
    assert_eq!((r.tm, r.tn), (1, 1));
    assert_eq!(r.pack_ns, 0, "no-pack path must record no pack span");
    assert_eq!((r.op_a, r.op_b), (b'N', b'N'));
}

#[test]
fn nn_fused_path() {
    let _g = state_lock();
    // 200x200x200: size(B) = 160 KiB > L1, shape small -> fused t=0 pack.
    let recs = trace_gemm(&fixed_config(), Op::NoTrans, Op::NoTrans, 200, 200, 200);
    let r = sole_record(&recs, 200, 200, 200);
    assert_eq!(r.plan, BPlan::Fused);
    assert_eq!(r.class, ShapeClass::Small);
    assert!(r.workspace_bytes > 0, "fused pack needs a Bc workspace");
}

#[test]
fn nn_lookahead_path() {
    let _g = state_lock();
    // 64x2048x64: B too big for L1 and N/M = 32 >= 8 with N >= 1024 ->
    // irregular -> fused pack with t=1 lookahead (§4.2).
    let recs = trace_gemm(&fixed_config(), Op::NoTrans, Op::NoTrans, 64, 2048, 64);
    let r = sole_record(&recs, 64, 2048, 64);
    assert_eq!(r.plan, BPlan::FusedLookahead);
    assert_eq!(r.class, ShapeClass::Irregular);
}

#[test]
fn nt_path_packs_b() {
    let _g = state_lock();
    // NT always restructures B (§4.3). On the 128-bit set `Auto` fuses the
    // pack into Algorithm 3's inner-product panel: the transpose hides
    // inside the first row-block's kernel sweep and there is no separable
    // pack span to time. A wide set has no such panel: it transpose-packs,
    // which is a timed `PackB` span, and the record says so.
    let base = GemmConfig {
        isa: IsaPolicy::Force(shalom_simd::base_isa()),
        ..fixed_config()
    };
    let recs = trace_gemm(&base, Op::NoTrans, Op::Trans, 64, 64, 64);
    let r = sole_record(&recs, 64, 64, 64);
    assert_eq!(r.plan, BPlan::Fused);
    assert_eq!((r.op_a, r.op_b), (b'N', b'T'));
    assert_eq!(r.pack_ns, 0, "fused NT pack is not a separable span");
    if shalom_kernels::selected_wide_family().is_some() {
        let recs = trace_gemm(&fixed_config(), Op::NoTrans, Op::Trans, 64, 64, 64);
        let r = sole_record(&recs, 64, 64, 64);
        assert_eq!(r.plan, BPlan::Sequential);
        assert_eq!((r.mr, r.nr), dispatched_f32_tile());
        assert!(r.pack_ns > 0, "a wide NT call must time its transpose-pack");
    }

    // The ablation policy downgrades the 128-bit set to the same
    // sequential phase.
    let cfg = GemmConfig {
        packing: PackingPolicy::AlwaysSequential,
        ..base
    };
    let recs = trace_gemm(&cfg, Op::NoTrans, Op::Trans, 64, 64, 64);
    let r = sole_record(&recs, 64, 64, 64);
    assert_eq!(r.plan, BPlan::Sequential);
    assert!(r.pack_ns > 0, "sequential NT must time the transpose-pack");
}

#[test]
fn tn_path_packs_a() {
    let _g = state_lock();
    // TN: B-side plan follows the NN rules (here: no-pack), but A must be
    // transpose-packed, which shows up as a nonzero pack span.
    let recs = trace_gemm(&fixed_config(), Op::Trans, Op::NoTrans, 64, 64, 64);
    let r = sole_record(&recs, 64, 64, 64);
    assert_eq!(r.plan, BPlan::Direct);
    assert_eq!((r.op_a, r.op_b), (b'T', b'N'));
    assert!(r.pack_ns > 0, "TN must spend time transpose-packing A");
}

/// The tile an `Auto` f32 call dispatches on this host, at every shape in
/// every mode.
fn dispatched_f32_tile() -> (u8, u8) {
    shalom_kernels::selected_wide_family().map_or((7, 12), |f| (f.k_f32.mr as u8, f.k_f32.nr as u8))
}

#[test]
fn auto_sub_tile_calls_record_the_requested_set() {
    let _g = state_lock();
    // Below one wide register tile every mode still dispatches the host's
    // widest set (masked partial vectors, a transpose-packed `Bᵀ`), and a
    // `describe_plan` of the signature reports the regime the driver ran —
    // computed, and served from an override that stores NT `Direct`.
    let cfg = GemmConfig::with_threads(1);
    let (nn, nt) = ((Op::NoTrans, Op::NoTrans), (Op::NoTrans, Op::Trans));
    let recs = trace_gemm_of::<f64>(&cfg, nn.0, nn.1, 5, 5, 5);
    let r = sole_record(&recs, 5, 5, 5);
    let f64_tile = shalom_kernels::selected_wide_family()
        .map_or((7, 6), |f| (f.k_f64.mr as u8, f.k_f64.nr as u8));
    assert_eq!((r.mr, r.nr), f64_tile, "5x5x5 f64 NN");
    let recs = trace_gemm(&cfg, nn.0, nn.1, 8, 196, 9);
    let r = sole_record(&recs, 8, 196, 9);
    assert_eq!((r.mr, r.nr), dispatched_f32_tile(), "8x196x9 f32 NN");
    let recs = trace_gemm(&cfg, nt.0, nt.1, 8, 8, 8);
    let r = sole_record(&recs, 8, 8, 8);
    assert_eq!((r.mr, r.nr), dispatched_f32_tile(), "8x8x8 f32 NT");
    let wide = shalom_kernels::selected_wide_family().is_some();
    let regime = if wide {
        BPlan::Sequential
    } else {
        BPlan::Fused
    };
    assert_eq!(r.plan, regime, "8x8x8 f32 NT regime");
    assert_eq!(r.pack_ns > 0, wide, "8x8x8 f32 NT pack span");
    let describe = || shalom_core::describe_plan::<f32>(&cfg, nt.0, nt.1, 8, 8, 8);
    let described = describe();
    assert_eq!(described.plan.b_plan, r.plan, "describe_plan == executed");

    // NT `Direct` is not a regime `nt_block` has: it transpose-packs B
    // whatever the plan says. An override storing it runs, records and
    // describes the sequential transpose-pack.
    let key = shalom_core::request_plan_key::<f32>(&cfg, nt.0, nt.1, 8, 8, 8);
    let stored = ResolvedPlan {
        b_plan: BPlan::Direct,
        ..described.plan
    };
    let path = std::env::temp_dir().join(format!(
        "shalom_telemetry_nt_direct_{}.json",
        std::process::id()
    ));
    let text =
        shalom_core::plan::profile::to_json(&[(key, stored)], shalom_core::host_isa().label());
    std::fs::write(&path, text).unwrap();
    shalom_core::plan_cache_clear();
    assert_eq!(shalom_core::load_profile(&path), Ok(1));
    let recs = trace_gemm(&cfg, nt.0, nt.1, 8, 8, 8);
    let r = sole_record(&recs, 8, 8, 8);
    let described = describe();
    shalom_core::plan_cache_clear();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        (r.plan_source, described.source),
        (PlanSource::Profile, PlanSource::Profile)
    );
    assert_eq!(
        r.plan,
        BPlan::Sequential,
        "stored NT Direct runs the transpose-pack"
    );
    assert!(r.pack_ns > 0, "and times it");
    assert_eq!(described.plan.b_plan, r.plan, "describe_plan == executed");
}

#[test]
fn auto_t_modes_run_the_dispatched_tile_with_pack_and_compute_spans() {
    let _g = state_lock();
    // The paper's contributions are on the path production runs: an
    // `Auto` call of 32x1024x256 in a T mode dispatches the host's widest
    // kernel set (not the 128-bit fallback), under a §4 regime, and the
    // one driver emits its Pack/Compute spans at that width.
    let cfg = GemmConfig::with_threads(1);
    let spans_of = |op_a, op_b| {
        capture::enable(Sink::Spans);
        let recs = trace_gemm(&cfg, op_a, op_b, 32, 1024, 256);
        capture::disable(Sink::Spans);
        let snap = capture::span_snapshot();
        let has = move |phase| {
            snap.lanes
                .iter()
                .any(|l| l.spans.iter().any(|s| s.phase() == phase))
        };
        (sole_record(&recs, 32, 1024, 256), has)
    };
    // `trace_gemm` resets both sinks first, so enable spans around it.
    let (r, has) = spans_of(Op::NoTrans, Op::Trans);
    assert_eq!((r.mr, r.nr), dispatched_f32_tile());
    if shalom_kernels::selected_wide_family().is_some() {
        // A wide set transpose-packs each B panel inside a `PackB` span.
        assert_eq!(r.plan, BPlan::Sequential);
        assert!(r.pack_ns > 0);
        assert!(has(capture::Phase::PackB));
    } else {
        assert_eq!(r.plan, BPlan::Fused, "Algorithm 3 at its own width");
    }
    assert!(has(capture::Phase::Compute));
    // TN adds the separable transpose-pack of A.
    let (r, has) = spans_of(Op::Trans, Op::NoTrans);
    assert_eq!((r.mr, r.nr), dispatched_f32_tile());
    assert_ne!(r.plan, BPlan::Sequential);
    assert!(r.pack_ns > 0);
    assert!(has(capture::Phase::PackA) && has(capture::Phase::Compute));
}

#[test]
fn parallel_path_reports_grid() {
    let _g = state_lock();
    let cfg = GemmConfig {
        threads: 4,
        ..fixed_config()
    };
    let (m, n, k) = (256, 1024, 64);
    let recs = trace_gemm(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
    let parent: Vec<_> = recs
        .iter()
        .filter(|r| r.path == PathTag::Parallel)
        .collect();
    assert_eq!(parent.len(), 1, "one parent record per parallel call");
    let p = parent[0];
    assert_eq!((p.m, p.n, p.k), (m, n, k));
    assert_eq!(p.tm as usize * p.tn as usize, 4);
    assert_eq!(p.threads, 4);
    let workers = recs
        .iter()
        .filter(|r| r.path == PathTag::ParallelWorker)
        .count();
    assert_eq!(workers, 4, "each worker emits its sub-block record");
    // The hand-off never changes set: parent and every worker report the
    // tile the whole problem dispatched.
    assert!(recs.iter().all(|r| (r.mr, r.nr) == dispatched_f32_tile()));

    let snap = capture::record_snapshot();
    assert_eq!(snap.totals.fork_joins, 1);
    // One plan resolution for the whole call — the parent's handle; every
    // tile runs the plan the parent derived for it and resolves nothing.
    assert!(recs
        .iter()
        .filter(|r| r.path == PathTag::ParallelWorker)
        .all(|r| r.plan_ns == 0 && r.plan_source == p.plan_source));
}

#[test]
fn batch_path_counts_items() {
    let _g = state_lock();
    let a = Matrix::<f32>::random(16, 16, 7);
    let b = Matrix::<f32>::random(16, 16, 8);
    let mut cs: Vec<Matrix<f32>> = (0..6).map(|_| Matrix::zeros(16, 16)).collect();
    capture::reset();
    capture::enable(Sink::Records);
    {
        let mut items: Vec<BatchItem<'_, f32>> = cs
            .iter_mut()
            .map(|c| BatchItem {
                a: a.as_ref(),
                b: b.as_ref(),
                c: c.as_mut(),
            })
            .collect();
        gemm_batch(
            &fixed_config(),
            Op::NoTrans,
            Op::NoTrans,
            1.0f32,
            &mut items,
        );
    }
    capture::disable(Sink::Records);
    let snap = capture::record_snapshot();
    assert_eq!(snap.totals.batch_calls, 1);
    assert_eq!(snap.totals.batch_items, 6);
    assert!(
        snap.recent.iter().all(|r| r.path == PathTag::Batch),
        "batch sub-GEMMs must be tagged with the batch path"
    );
}

#[test]
fn plan_source_shows_up_in_records() {
    let _g = state_lock();
    shalom_core::plan_cache_clear();
    let cfg = fixed_config();
    let (m, n, k) = (51, 49, 47);
    let source = || {
        let recs = trace_gemm(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
        sole_record(&recs, m, n, k).plan_source
    };

    // Every call computes its plan — the second as much as the first.
    assert_eq!(source(), PlanSource::Computed);
    assert_eq!(source(), PlanSource::Computed);

    // An installed autotune override reports as Profile, until cleared.
    shalom_core::install_tuned::<f32>(&cfg, &cfg, Op::NoTrans, Op::NoTrans, m, n, k);
    assert_eq!(source(), PlanSource::Profile);
    shalom_core::plan_cache_clear();
    assert_eq!(source(), PlanSource::Computed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Observation must not perturb computation: C with capture enabled
    // is bitwise identical to C with capture disabled, across ops,
    // shapes, and thread counts.
    #[test]
    fn capture_is_bitwise_invisible(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..32,
        opa in 0u8..2,
        opb in 0u8..2,
        threads in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let _g = state_lock();
        let op_a = if opa == 0 { Op::NoTrans } else { Op::Trans };
        let op_b = if opb == 0 { Op::NoTrans } else { Op::Trans };
        let cfg = GemmConfig { threads, ..fixed_config() };
        let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
        let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
        let a = Matrix::<f32>::random(ar, ac, seed);
        let b = Matrix::<f32>::random(br, bc, seed + 1);
        let c0 = Matrix::<f32>::random(m, n, seed + 2);

        let mut c_off = c0.clone();
        capture::reset();
        capture::disable(Sink::Records);
        gemm_with(&cfg, op_a, op_b, 1.5, a.as_ref(), b.as_ref(), 0.5, c_off.as_mut());

        let mut c_on = c0.clone();
        capture::enable(Sink::Records);
        gemm_with(&cfg, op_a, op_b, 1.5, a.as_ref(), b.as_ref(), 0.5, c_on.as_mut());
        capture::disable(Sink::Records);

        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(
                    c_off.as_ref().at(i, j).to_bits(),
                    c_on.as_ref().at(i, j).to_bits(),
                    "telemetry changed C[{}][{}]", i, j
                );
            }
        }
    }
}

//! Integration tests for plan overrides: autotune installs and
//! persistent profiles may change how a GEMM is blocked and packed, never
//! what it computes — and one that encodes the computed plan changes
//! nothing at all.
//!
//! The override table is process-global, so every test here serializes
//! on one mutex and clears the table before acting.

use shalom_core::{
    autotune, describe_plan, gemm_with, install_tuned, load_profile, plan_cache_clear,
    plan_cache_stats, save_profile, CacheParams, GemmConfig, GemmElem, Op, PlanSource,
    ProfileError,
};
use shalom_matrix::{assert_close, gemm_tolerance, reference, Matrix};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn state_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Fixed cache geometry so plan resolution doesn't depend on the host.
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

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("shalom_plan_{}_{}.json", std::process::id(), tag))
}

/// Runs one GEMM under `cfg` and returns the raw output slice.
fn run_gemm<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> Vec<T> {
    let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
    let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
    let a = Matrix::<T>::random(ar, ac, 11);
    let b = Matrix::<T>::random(br, bc, 22);
    let mut c = Matrix::<T>::random(m, n, 33);
    gemm_with(
        cfg,
        op_a,
        op_b,
        T::from_f64(1.25),
        a.as_ref(),
        b.as_ref(),
        T::from_f64(0.5),
        c.as_mut(),
    );
    c.as_slice().to_vec()
}

/// Shapes spanning the dispatch space: degenerate, exact-tile, edge
/// remainders in both M and N, tall/wide, and an irregular wide case.
const SHAPES: [(usize, usize, usize); 6] = [
    (1, 1, 1),
    (7, 12, 4),
    (8, 13, 5),
    (5, 40, 40),
    (64, 64, 64),
    (16, 300, 33),
];

#[test]
fn an_override_of_the_computed_plan_never_changes_results() {
    let _g = state_lock();
    let cfg = fixed_config();
    fn one<T: GemmElem + PartialEq + std::fmt::Debug>(
        cfg: &GemmConfig,
        (op_a, op_b): (Op, Op),
        (m, n, k): (usize, usize, usize),
    ) {
        // Computed twice, then served from an override of the same plan:
        // all three agree to the last bit.
        plan_cache_clear();
        let first = run_gemm::<T>(cfg, op_a, op_b, m, n, k);
        let again = run_gemm::<T>(cfg, op_a, op_b, m, n, k);
        install_tuned::<T>(cfg, cfg, op_a, op_b, m, n, k);
        let served = run_gemm::<T>(cfg, op_a, op_b, m, n, k);
        assert_eq!(first, again, "{op_a:?}{op_b:?} {m}x{n}x{k} recomputed");
        assert_eq!(first, served, "{op_a:?}{op_b:?} {m}x{n}x{k} override");
    }
    for ops in [
        (Op::NoTrans, Op::NoTrans),
        (Op::NoTrans, Op::Trans),
        (Op::Trans, Op::NoTrans),
    ] {
        for shape in SHAPES {
            one::<f32>(&cfg, ops, shape);
            one::<f64>(&cfg, ops, shape);
        }
    }
    plan_cache_clear();
}

#[test]
fn plan_source_transitions() {
    let _g = state_lock();
    let cfg = fixed_config();
    plan_cache_clear();
    let before = plan_cache_stats();
    let describe = |m| describe_plan::<f32>(&cfg, Op::NoTrans, Op::NoTrans, m, 37, 41);

    // Nothing installed: every handle is computed — nothing is remembered
    // from the first to the second — and the table is not even read.
    let d1 = describe(31);
    let d2 = describe(31);
    assert_eq!(d1.source, PlanSource::Computed);
    assert_eq!(d1, d2);
    assert_eq!(plan_cache_stats(), before);

    // An installed override serves its own key and no other.
    let installed = install_tuned::<f32>(&cfg, &cfg, Op::NoTrans, Op::NoTrans, 31, 37, 41);
    assert_eq!(installed.source, PlanSource::Profile);
    let d3 = describe(31);
    assert_eq!(d3.source, PlanSource::Profile);
    assert_eq!(d3.plan, d1.plan, "same config -> same resolved plan");
    assert_eq!(describe(32).source, PlanSource::Computed);
    let st = plan_cache_stats();
    assert_eq!(
        (st.hits - before.hits, st.misses - before.misses, st.entries),
        (1, 1, 1)
    );

    // Cleared: computed again.
    plan_cache_clear();
    assert_eq!(describe(31), d1);
    assert_eq!(plan_cache_stats().entries, 0);
}

#[test]
fn profile_round_trip_through_disk() {
    let _g = state_lock();
    let cfg = fixed_config();
    let path = tmp_path("roundtrip");
    plan_cache_clear();

    // Autotune (tiny budget) and install the winner for two signatures.
    let report = autotune::<f32>(
        &cfg,
        Op::NoTrans,
        Op::NoTrans,
        8,
        8,
        8,
        Duration::from_millis(40),
    );
    report.install::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 8, 8, 8);
    install_tuned::<f64>(&cfg, &cfg, Op::NoTrans, Op::Trans, 24, 16, 12);

    let before32 = describe_plan::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 8, 8, 8);
    let before64 = describe_plan::<f64>(&cfg, Op::NoTrans, Op::Trans, 24, 16, 12);
    assert_eq!(before32.source, PlanSource::Profile);
    assert_eq!(before64.source, PlanSource::Profile);

    let saved = save_profile(&path).expect("save");
    assert!(saved >= 2, "saved {saved}");

    // A cleared table (standing in for a fresh process) reloads the same
    // resolved plans.
    plan_cache_clear();
    assert_eq!(plan_cache_stats().entries, 0);
    let loaded = load_profile(&path).expect("load");
    assert_eq!(loaded, saved);
    let after32 = describe_plan::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 8, 8, 8);
    let after64 = describe_plan::<f64>(&cfg, Op::NoTrans, Op::Trans, 24, 16, 12);
    assert_eq!(after32.source, PlanSource::Profile);
    assert_eq!(after32.plan, before32.plan);
    assert_eq!(after64.source, PlanSource::Profile);
    assert_eq!(after64.plan, before64.plan);

    let _ = std::fs::remove_file(&path);
    plan_cache_clear();
}

#[test]
fn bad_profiles_rejected_without_panic() {
    let _g = state_lock();
    let path = tmp_path("bad");
    // Two overrides are resident throughout; every rejection below must
    // leave both exactly as they are.
    let cfg = fixed_config();
    plan_cache_clear();
    install_tuned::<f32>(&cfg, &cfg, Op::NoTrans, Op::NoTrans, 9, 10, 11);
    install_tuned::<f64>(&cfg, &cfg, Op::Trans, Op::NoTrans, 12, 13, 14);

    // Missing file -> Io.
    let missing = tmp_path("never_written");
    assert!(matches!(load_profile(&missing), Err(ProfileError::Io(_))));

    // Future format version -> Version with the found value echoed.
    std::fs::write(&path, "{\"version\":999,\"entries\":[]}").unwrap();
    match load_profile(&path) {
        Err(ProfileError::Version { found, expected }) => {
            assert_eq!(found, 999);
            assert_eq!(u64::from(expected), u64::from(shalom_core::PROFILE_VERSION));
        }
        other => panic!("want Version error, got {other:?}"),
    }

    // v1 files predate the ISA header; they are refused as a version
    // mismatch rather than guessed at.
    std::fs::write(&path, "{\"version\":1,\"entries\":[]}").unwrap();
    assert!(matches!(
        load_profile(&path),
        Err(ProfileError::Version { found: 1, .. })
    ));

    let host = shalom_core::host_isa().label();

    // Corrupt documents -> Parse, never a panic. The v2 doc missing its
    // ISA header is corrupt, not a silent pass.
    let headerless = format!(
        "{{\"version\":{},\"entries\":[]}}",
        shalom_core::PROFILE_VERSION
    );
    for corrupt in ["", "not json", "{\"entries\":[]}", &headerless, "[1,2,3]"] {
        std::fs::write(&path, corrupt).unwrap();
        assert!(
            matches!(load_profile(&path), Err(ProfileError::Parse(_))),
            "corrupt doc {corrupt:?} must be a Parse error"
        );
    }

    // A profile tuned under a different ISA level -> IsaMismatch, with
    // both labels echoed for the error message.
    let other = if host == "scalar" { "avx512" } else { "scalar" };
    std::fs::write(
        &path,
        format!(
            "{{\"version\":{},\"isa\":\"{other}\",\"entries\":[\n]}}",
            shalom_core::PROFILE_VERSION
        ),
    )
    .unwrap();
    match load_profile(&path) {
        Err(ProfileError::IsaMismatch { found, host: h }) => {
            assert_eq!(found, other);
            assert_eq!(h, host);
        }
        got => panic!("want IsaMismatch, got {got:?}"),
    }

    // Well-formed JSON with out-of-range plan parameters -> Invalid:
    // a profile may change strategy but never smuggle in a kc of 0.
    let entry =
        "{\"elem_bits\":32,\"isa\":1,\"op_a\":\"N\",\"op_b\":\"N\",\"m\":8,\"n\":8,\"k\":8,\
                 \"threads\":1,\"config_fp\":7,\"class\":0,\"b_plan\":0,\"edge\":0,\
                 \"kc\":0,\"mc\":8,\"nc\":12,\"tm\":1,\"tn\":1,\"workspace_bytes\":0}";
    std::fs::write(
        &path,
        format!(
            "{{\"version\":{},\"isa\":\"{host}\",\"entries\":[\n{entry}]}}",
            shalom_core::PROFILE_VERSION
        ),
    )
    .unwrap();
    assert!(matches!(load_profile(&path), Err(ProfileError::Invalid(_))));

    assert_eq!(
        plan_cache_stats().entries,
        2,
        "a rejected file touched the table"
    );
    let d = describe_plan::<f32>(&cfg, Op::NoTrans, Op::NoTrans, 9, 10, 11);
    assert_eq!(d.source, PlanSource::Profile);
    let d = describe_plan::<f64>(&cfg, Op::Trans, Op::NoTrans, 12, 13, 14);
    assert_eq!(d.source, PlanSource::Profile);

    let _ = std::fs::remove_file(&path);
    plan_cache_clear();
}

#[test]
fn a_full_table_refuses_instead_of_dropping_overrides() {
    let _g = state_lock();
    let cfg = fixed_config();
    let path = tmp_path("full");
    let bound = shalom_core::plan::MAX_OVERRIDES;
    let install = |m| install_tuned::<f32>(&cfg, &cfg, Op::NoTrans, Op::NoTrans, m, 8, 8);
    let source = |m| describe_plan::<f32>(&cfg, Op::NoTrans, Op::NoTrans, m, 8, 8).source;
    plan_cache_clear();
    for m in 1..=bound {
        assert_eq!(install(m).source, PlanSource::Profile, "override {m}");
    }
    assert_eq!(plan_cache_stats().entries, bound);

    // One more: refused, said so, nothing displaced. Re-installing a
    // resident key is not growth and still lands.
    assert_eq!(install(bound + 1).source, PlanSource::Computed);
    assert_eq!(source(bound + 1), PlanSource::Computed);
    assert_eq!(install(bound).source, PlanSource::Profile);
    assert_eq!(plan_cache_stats().entries, bound);
    assert!((1..=bound).all(|m| source(m) == PlanSource::Profile));

    // The same bound on ingest: a file that does not fit beside what is
    // resident is refused whole and the resident override stays.
    assert_eq!(save_profile(&path).expect("save"), bound);
    plan_cache_clear();
    assert_eq!(install(bound + 1).source, PlanSource::Profile);
    match load_profile(&path) {
        Err(ProfileError::Invalid(why)) => assert!(why.contains("do not fit"), "{why}"),
        got => panic!("want Invalid, got {got:?}"),
    }
    assert_eq!(plan_cache_stats().entries, 1);
    assert_eq!(source(bound + 1), PlanSource::Profile);
    assert_eq!(source(1), PlanSource::Computed);

    // It fits an empty table exactly.
    plan_cache_clear();
    assert_eq!(load_profile(&path).expect("load"), bound);
    assert_eq!(plan_cache_stats().entries, bound);

    let _ = std::fs::remove_file(&path);
    plan_cache_clear();
}

#[test]
fn perturbed_profile_changes_plan_not_results() {
    let _g = state_lock();
    let base = fixed_config();
    // A tuned config with a different blocking derivation and edge
    // schedule: the installed plan may differ from the analytic one,
    // but the GEMM must still be numerically correct.
    let tuned = GemmConfig {
        cache: CacheParams {
            l1: 16 * 1024,
            l2: 256 * 1024,
            l3: 0,
        },
        edge: shalom_core::EdgeSchedule::Batched,
        ..base
    };
    plan_cache_clear();
    let (m, n, k) = (40, 52, 36);
    install_tuned::<f64>(&base, &tuned, Op::NoTrans, Op::NoTrans, m, n, k);
    let d = describe_plan::<f64>(&base, Op::NoTrans, Op::NoTrans, m, n, k);
    assert_eq!(d.source, PlanSource::Profile);

    let a = Matrix::<f64>::random(m, k, 1);
    let b = Matrix::<f64>::random(k, n, 2);
    let mut c = Matrix::<f64>::zeros(m, n);
    let mut want = Matrix::<f64>::zeros(m, n);
    reference::gemm(
        Op::NoTrans,
        Op::NoTrans,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        want.as_mut(),
    );
    gemm_with(
        &base,
        Op::NoTrans,
        Op::NoTrans,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        c.as_mut(),
    );
    assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f64>(k, 2.0));
    plan_cache_clear();
}

#[test]
fn parallel_and_batch_paths_serve_overrides_bitwise() {
    let _g = state_lock();
    // A batch under a threaded config looks its override up under the
    // `threads = 1` key, the threaded call under `threads = t`;
    // `install_tuned` installs under both, and serving the computed plan
    // from either must not change the result.
    let cfg = GemmConfig {
        threads: 2,
        ..fixed_config()
    };
    let (nn, t) = ((Op::NoTrans, Op::NoTrans), Op::NoTrans);
    plan_cache_clear();
    let bare = run_gemm::<f32>(&cfg, nn.0, nn.1, 96, 96, 96);

    // Uniform batch: one shared plan, same numbers either way.
    let a: Vec<Matrix<f32>> = (0..6).map(|i| Matrix::random(8, 8, 100 + i)).collect();
    let b: Vec<Matrix<f32>> = (0..6).map(|i| Matrix::random(8, 8, 200 + i)).collect();
    let run_batch = || {
        let mut c: Vec<Matrix<f32>> = (0..6).map(|_| Matrix::zeros(8, 8)).collect();
        let mut items: Vec<shalom_core::BatchItem<f32>> = a
            .iter()
            .zip(&b)
            .zip(c.iter_mut())
            .map(|((a, b), c)| shalom_core::BatchItem {
                a: a.as_ref(),
                b: b.as_ref(),
                c: c.as_mut(),
            })
            .collect();
        shalom_core::gemm_batch_beta(&cfg, t, t, 1.0f32, 0.0, &mut items);
        c.iter()
            .flat_map(|m| m.as_slice().to_vec())
            .collect::<Vec<f32>>()
    };
    let batch_bare = run_batch();

    install_tuned::<f32>(&cfg, &cfg, nn.0, nn.1, 96, 96, 96);
    install_tuned::<f32>(&cfg, &cfg, nn.0, nn.1, 8, 8, 8);
    let hits = plan_cache_stats().hits;
    assert_eq!(run_gemm::<f32>(&cfg, nn.0, nn.1, 96, 96, 96), bare);
    assert_eq!(run_batch(), batch_bare);
    assert_eq!(plan_cache_stats().hits - hits, 2, "both were served");
    plan_cache_clear();
}

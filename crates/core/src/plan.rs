//! Plan-cache integration: memoized dispatch plans and persistent
//! autotune profiles (IAAT-style, §10 of the paper's future work).
//!
//! Every GEMM entry point — serial, pooled, and batched — resolves its
//! dispatch plan (§4 packing regime, §5.5 blocking, §6 thread grid,
//! edge schedule) through this module. The first call for a signature
//! computes the plan and memoizes it in a process-global
//! [`shalom_plans::PlanCache`]; warm calls are a sharded read-lock table
//! hit. Autotune results and on-disk profiles install *override*
//! entries that outrank computed plans and survive invalidation.
//!
//! Environment knobs (also see the README "Plan cache & profiles"
//! section):
//!
//! * `SHALOM_PROFILE=<path>` — load a profile into the cache on first
//!   use; a bad file is reported to stderr and ignored, never fatal.
//! * `SHALOM_NO_PLAN_CACHE=<anything but 0>` — bypass the cache (every
//!   call recomputes its plan; profile overrides do not apply). Tests
//!   and benches can flip the same switch in-process with
//!   [`set_plan_cache_enabled`].
//!
//! Determinism: plan resolution is a pure function of the signature and
//! configuration fingerprint, so a cached plan is bit-identical to the
//! recomputed one and numerical results do not depend on cache state.
//! A *profile* plan may legitimately differ (that is its purpose); it
//! is range-validated on ingest so it can change blocking and packing
//! strategy but never correctness.
//!
//! shalom-analysis: deny(panic)
//!
//! Plan lookup runs on every GEMM call; all fallible paths return through `GemmError` or fall back to recomputing the plan.

use crate::api::GemmElem;
use crate::cache::BlockSizes;
use crate::capture;
use crate::config::{classify, EdgeSchedule, GemmConfig, ShapeClass};
use crate::driver::{resolve_nn_plan, resolve_nt_plan, BPlan};
use crate::parallel::partition_threads;
use crate::sync::{AtomicBool, Ordering};
use shalom_kernels::{family_for, kernels_for, FamilyElem};
use shalom_matrix::Op;
use shalom_plans::{profile, CacheStats, PlanCache, PlanKey, ProfileError, ResolvedPlan, Source};
use shalom_simd::caps::{self, Isa};
use std::path::Path;
use std::sync::OnceLock;

/// Where the plan used by a call came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanSource {
    /// Resolved from scratch this call (cache miss or cache disabled).
    #[default]
    Computed,
    /// Served from the plan cache (a prior call computed it).
    Cached,
    /// Served from an installed override (autotune / loaded profile).
    Profile,
}

impl PlanSource {
    /// Stable lowercase label (reports, telemetry).
    pub fn as_str(self) -> &'static str {
        match self {
            PlanSource::Computed => "computed",
            PlanSource::Cached => "cached",
            PlanSource::Profile => "profile",
        }
    }
}

/// The decoded plan the serial driver executes: §4 B-plan, edge
/// schedule, and §5.5 blocking. Plain `Copy` data — a batch resolves it
/// once and shares it across worker threads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SerialPlan {
    pub(crate) b_plan: BPlan,
    pub(crate) edge: EdgeSchedule,
    pub(crate) bs: BlockSizes,
    /// Effective ISA the call dispatches to: names the kernel set
    /// (`shalom_kernels::kernels_for`) the driver runs over.
    pub(crate) isa: Isa,
    /// Where the plan came from; read only by the capture layer.
    #[allow(dead_code)]
    pub(crate) source: PlanSource,
}

/// A resolved plan plus its provenance — the public, introspectable
/// face of one cache lookup (powers the round-trip tests and the
/// `plan_overhead` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDescription {
    /// Where the plan came from on this lookup.
    pub source: PlanSource,
    /// The encoded plan itself.
    pub plan: ResolvedPlan,
}

fn enabled_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        AtomicBool::new(!std::env::var("SHALOM_NO_PLAN_CACHE").is_ok_and(|v| v != "0"))
    })
}

/// Whether plan-cache lookups are active (the `SHALOM_NO_PLAN_CACHE`
/// env knob, possibly overridden by [`set_plan_cache_enabled`]).
// ORDERING(SHALOM-O-PLAN-FLAG): Relaxed on/off hint — a stale read only makes
// one call recompute its plan instead of hitting the cache.
pub fn plan_cache_enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Enables or disables the plan cache process-wide, overriding the
/// `SHALOM_NO_PLAN_CACHE` environment default. While disabled, every
/// call recomputes its plan and profile overrides do not apply — the
/// switch the bitwise-identity tests and the `plan_overhead` bench flip.
// ORDERING(SHALOM-O-PLAN-FLAG): Relaxed toggle; no cached data is published
// through the flag itself (the cache's own locks order entry contents).
pub fn set_plan_cache_enabled(enabled: bool) {
    enabled_flag().store(enabled, Ordering::Relaxed);
}

fn global_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        let cache = PlanCache::with_default_capacity();
        if let Ok(path) = std::env::var("SHALOM_PROFILE") {
            if !path.is_empty() {
                match profile::load(Path::new(&path), caps::best_isa().label()) {
                    Ok(entries) => {
                        for (key, plan) in entries {
                            cache.install(key, plan);
                        }
                    }
                    Err(e) => {
                        // Degrade to "no overrides", never take the
                        // process down over a stale profile file.
                        eprintln!("shalom: ignoring SHALOM_PROFILE {path:?}: {e}");
                    }
                }
            }
        }
        cache
    })
}

fn op_byte(op: Op) -> u8 {
    match op {
        Op::NoTrans => b'N',
        Op::Trans => b'T',
    }
}

fn class_code(class: ShapeClass) -> u8 {
    match class {
        ShapeClass::Small => 0,
        ShapeClass::Irregular => 1,
        ShapeClass::Regular => 2,
    }
}

fn bplan_code(plan: BPlan) -> u8 {
    match plan {
        BPlan::Direct => 0,
        BPlan::Fused => 1,
        BPlan::FusedLookahead => 2,
        BPlan::Sequential => 3,
    }
}

fn decode_bplan(code: u8) -> BPlan {
    match code {
        0 => BPlan::Direct,
        1 => BPlan::Fused,
        2 => BPlan::FusedLookahead,
        _ => BPlan::Sequential,
    }
}

fn edge_code(edge: EdgeSchedule) -> u8 {
    match edge {
        EdgeSchedule::Pipelined => 0,
        EdgeSchedule::Batched => 1,
    }
}

fn decode_edge(code: u8) -> EdgeSchedule {
    if code == 1 {
        EdgeSchedule::Batched
    } else {
        EdgeSchedule::Pipelined
    }
}

/// The ISA level — equivalently, the kernel set — this call dispatches
/// to: a pure function of the configuration and the shape, computed
/// identically wherever a plan is keyed, resolved, or decoded, and the
/// same for every `(op_a, op_b)` (the one driver runs every mode at every
/// width):
///
/// * the requested level must be wide and its kernel family registered
///   (the runtime probe passed on this host);
/// * under [`IsaPolicy::Auto`], the problem must fill at least one full
///   register tile of the family's element type (smaller shapes keep the
///   128-bit set, whose finer tile wastes less of a sub-tile problem). A
///   `Force`d executable level skips this size rule, and the parallel
///   path relies on forcing to give every worker's sub-block the set the
///   whole problem resolved to.
///
/// Everything else resolves to the compile-time base, so the key an
/// AVX-512 host computes for a sub-tile problem equals the key a NEON
/// host computes — and a wide host's big-shape keys can never collide
/// with either.
///
/// [`IsaPolicy::Auto`]: crate::config::IsaPolicy::Auto
pub(crate) fn effective_isa<T: FamilyElem>(cfg: &GemmConfig, m: usize, n: usize) -> Isa {
    let req = cfg.requested_isa();
    if req.is_wide() {
        if let Some(fam) = family_for(req) {
            let ks = T::kernels(fam);
            let forced = matches!(cfg.isa, crate::config::IsaPolicy::Force(_));
            if forced || (m >= ks.mr && n >= ks.nr) {
                return req;
            }
        }
    }
    caps::base_isa()
}

/// The ISA-aware plan-cache key a *serial* dispatch of this signature
/// resolves under — the bucketing key for coalescing independent
/// requests into one `gemm_batch` call (`shalom-service`). The §7.4
/// batch discipline runs every member problem single-threaded, so the
/// key is computed for `threads == 1`; requests with equal keys resolve
/// to the same dispatch plan and can legally share a batch. This reuses
/// the private keying logic verbatim: there is deliberately no second
/// shape key anywhere in the system.
pub fn request_plan_key<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> PlanKey {
    key_for::<T>(cfg, op_a, op_b, m, n, k, 1)
}

fn key_for<T: FamilyElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> PlanKey {
    PlanKey {
        elem_bits: (core::mem::size_of::<T>() * 8) as u8,
        isa: effective_isa::<T>(cfg, m, n).code(),
        op_a: op_byte(op_a),
        op_b: op_byte(op_b),
        m: m as u64,
        n: n as u64,
        k: k as u64,
        threads: threads.max(1).min(u32::MAX as usize) as u32,
        config_fp: cfg.fingerprint(),
    }
}

/// Resolves the full dispatch plan from scratch — the §4/§5.5/§6 logic
/// the cache memoizes. Pure: equal inputs always produce equal plans.
/// One resolution for every kernel set: the set only supplies the tile
/// the blocking and the workspace are measured in.
fn compute_resolved<T: FamilyElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> ResolvedPlan {
    let elem_bytes = core::mem::size_of::<T>();
    let ks = kernels_for::<T>(effective_isa::<T>(cfg, m, n));
    let b_plan = match op_b {
        Op::NoTrans => resolve_nn_plan(cfg, m, n, k, elem_bytes),
        Op::Trans => resolve_nt_plan(cfg),
    };
    let bs = BlockSizes::derive(&cfg.cache, elem_bytes, ks.mr, ks.nr, ks.lanes);
    let (tm, tn) = if threads > 1 {
        partition_threads(threads, m, n)
    } else {
        (1, 1)
    };
    // The serial driver's workspace demand for this signature (informational
    // in the encoded plan; the driver re-derives it from the actual block):
    // the double-buffered `Bc` panel plus the T-mode A block.
    let kc_eff = bs.kc.min(k.max(1));
    let mc_eff = bs.mc.min(m.max(1).div_ceil(ks.mr) * ks.mr);
    let at_elems = if op_a == Op::Trans {
        mc_eff * kc_eff
    } else {
        0
    };
    ResolvedPlan {
        class: class_code(classify(m, n, k, elem_bytes, &cfg.cache)),
        b_plan: bplan_code(b_plan),
        edge: edge_code(cfg.edge),
        kc: bs.kc as u32,
        mc: bs.mc as u32,
        nc: bs.nc as u32,
        tm: tm.min(u16::MAX as usize) as u16,
        tn: tn.min(u16::MAX as usize) as u16,
        workspace_bytes: ((2 * kc_eff * ks.nr + at_elems) * elem_bytes) as u64,
    }
}

/// The cache-consulting lookup every entry point funnels through:
/// returns the encoded plan and where it came from, memoizing computed
/// plans. With the cache disabled this is a plain recompute. Being the
/// single funnel, this is also the capture region that times plan
/// resolution — hit and miss alike — into the span timeline and the
/// call's `plan_ns`, stamped with the outcome.
fn lookup<T: FamilyElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> (ResolvedPlan, PlanSource) {
    let tok = capture::begin(capture::Phase::PlanLookup, capture::shape(m, n, k));
    let res = lookup_impl::<T>(cfg, op_a, op_b, m, n, k, threads);
    capture::plan_end(tok, res.1);
    res
}

fn lookup_impl<T: FamilyElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> (ResolvedPlan, PlanSource) {
    if !plan_cache_enabled() {
        return (
            compute_resolved::<T>(cfg, op_a, op_b, m, n, k, threads),
            PlanSource::Computed,
        );
    }
    let key = key_for::<T>(cfg, op_a, op_b, m, n, k, threads);
    let cache = global_cache();
    if let Some((plan, stored)) = cache.get(&key) {
        capture::note_plan_lookup(true);
        let source = match stored {
            Source::Profile => PlanSource::Profile,
            Source::Computed => PlanSource::Cached,
        };
        return (plan, source);
    }
    capture::note_plan_lookup(false);
    let plan = compute_resolved::<T>(cfg, op_a, op_b, m, n, k, threads);
    capture::note_plan_evictions(cache.insert_computed(key, plan));
    (plan, PlanSource::Computed)
}

fn decode(plan: &ResolvedPlan, source: PlanSource, isa: Isa) -> SerialPlan {
    SerialPlan {
        b_plan: decode_bplan(plan.b_plan),
        edge: decode_edge(plan.edge),
        // `.max(1)` is defense in depth on top of profile validation: a
        // zero blocking factor would hang the driver's kk/ii/jj loops.
        bs: BlockSizes {
            nc: (plan.nc as usize).max(1),
            mc: (plan.mc as usize).max(1),
            kc: (plan.kc as usize).max(1),
        },
        isa,
        source,
    }
}

/// The serial driver's plan for one call (threads = 1 key). Warm path:
/// one shard read-lock hit. The effective ISA is recomputed, not stored:
/// it is a pure function of the same inputs as the key, so a cached (or
/// profile-installed) plan can only ever be served at the width it was
/// keyed under.
pub(crate) fn serial_plan<T: FamilyElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> SerialPlan {
    let (plan, source) = lookup::<T>(cfg, op_a, op_b, m, n, k, 1);
    decode(&plan, source, effective_isa::<T>(cfg, m, n))
}

/// The parallel parent's §6 thread grid for the full problem, cached
/// under the full-signature key (threads = t). Falls back to the
/// analytic partition if a (profile-supplied) grid does not factor `t`.
pub(crate) fn parallel_grid<T: FamilyElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    t: usize,
) -> (usize, usize, PlanSource) {
    let (plan, source) = lookup::<T>(cfg, op_a, op_b, m, n, k, t);
    let (tm, tn) = (plan.tm as usize, plan.tn as usize);
    if tm * tn == t {
        (tm, tn, source)
    } else {
        let (tm, tn) = partition_threads(t, m, n);
        (tm, tn, source)
    }
}

/// Resolves (through the cache) and describes the plan the library
/// would use for this call: the §4 packing regime, §5.5 blocking, §6
/// thread grid, and whether it was computed, cached, or profile-served.
pub fn describe_plan<T: crate::GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> PlanDescription {
    let threads = cfg.resolved_threads().max(1);
    let (plan, source) = lookup::<T>(cfg, op_a, op_b, m, n, k, threads);
    PlanDescription { source, plan }
}

/// Installs the plan a *tuned* configuration resolves to as a profile
/// override for the signature keyed by the *base* configuration — the
/// bridge from [`crate::autotune`] to the cache: tune once, then every
/// call the application makes with its ordinary `base` config executes
/// the tuned packing/blocking decision.
///
/// The thread grid is computed for `base.resolved_threads()` (the count
/// the application will actually call with).
pub fn install_tuned<T: crate::GemmElem>(
    base: &GemmConfig,
    tuned: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> PlanDescription {
    let threads = base.resolved_threads().max(1);
    // The ISA policy follows `base` (like the thread count): a tuned
    // blocking decision must install at the vector width the application
    // will actually dispatch to, or the override key would never match.
    let eff = GemmConfig {
        threads: base.threads,
        isa: base.isa,
        ..*tuned
    };
    let plan = compute_resolved::<T>(&eff, op_a, op_b, m, n, k, threads);
    let key = key_for::<T>(base, op_a, op_b, m, n, k, threads);
    capture::note_plan_evictions(global_cache().install(key, plan));
    // Serial calls inside the pooled/batched paths look the signature up
    // under a threads = 1 key; install the override there too so a
    // tuned single-threaded signature applies wherever it executes.
    if threads > 1 {
        let serial_plan = compute_resolved::<T>(&eff, op_a, op_b, m, n, k, 1);
        let serial_key = key_for::<T>(base, op_a, op_b, m, n, k, 1);
        capture::note_plan_evictions(global_cache().install(serial_key, serial_plan));
    }
    PlanDescription {
        source: PlanSource::Profile,
        plan,
    }
}

/// Loads a profile file and installs every entry as an override.
/// Returns how many entries were installed. Total: malformed files,
/// version mismatches, profiles saved under a different ISA than this
/// host dispatches ([`ProfileError::IsaMismatch`]), and out-of-range
/// plans are rejected as [`ProfileError`]s (never a panic) without
/// touching the cache.
pub fn load_profile(path: impl AsRef<Path>) -> Result<usize, ProfileError> {
    let entries = profile::load(path.as_ref(), caps::best_isa().label())?;
    let cache = global_cache();
    let n = entries.len();
    for (key, plan) in entries {
        capture::note_plan_evictions(cache.install(key, plan));
    }
    Ok(n)
}

/// Persists every installed override (autotune installs and previously
/// loaded profiles) to a versioned profile file a fresh process can
/// [`load_profile`] — on a host whose dispatch probe selects the same
/// ISA; any other host rejects the file instead of applying plans tuned
/// for the wrong vector width. Returns how many entries were written.
pub fn save_profile(path: impl AsRef<Path>) -> Result<usize, ProfileError> {
    let entries = global_cache().profile_entries();
    profile::save(path.as_ref(), &entries, caps::best_isa().label())?;
    Ok(entries.len())
}

/// Drops every cache entry, computed and profile alike.
pub fn plan_cache_clear() {
    global_cache().clear();
}

/// Invalidation hook for configuration or cache-hierarchy changes:
/// drops memoized computed plans (they encode decisions that may no
/// longer hold) while keeping explicitly installed profile overrides.
pub fn plan_cache_invalidate() {
    global_cache().invalidate_computed();
}

/// Aggregate plan-cache statistics (always on, independent of the
/// `capture` feature): hits, misses, evictions, installs, residency.
pub fn plan_cache_stats() -> CacheStats {
    global_cache().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IsaPolicy;
    use shalom_kernels::registered_families;

    fn cfg() -> GemmConfig {
        GemmConfig {
            cache: crate::cache::CacheParams {
                l1: 32 * 1024,
                l2: 2 * 1024 * 1024,
                l3: 0,
            },
            ..GemmConfig::with_threads(1)
        }
    }

    /// `cfg()` forced to one kernel set.
    fn cfg_at(isa: Isa) -> GemmConfig {
        GemmConfig {
            isa: IsaPolicy::Force(isa),
            ..cfg()
        }
    }

    const N: Op = Op::NoTrans;
    const T: Op = Op::Trans;

    #[test]
    fn compute_resolved_is_deterministic_and_valid() {
        for (m, n, k) in [(1, 1, 1), (7, 12, 4), (64, 64, 64), (16, 2048, 64)] {
            for op_b in [N, T] {
                let a = compute_resolved::<f32>(&cfg(), N, op_b, m, n, k, 4);
                let b = compute_resolved::<f32>(&cfg(), N, op_b, m, n, k, 4);
                assert_eq!(a, b);
                a.validate().unwrap();
                assert_eq!(a.tm as usize * a.tn as usize, 4);
            }
        }
    }

    #[test]
    fn encoded_plan_decodes_to_driver_resolution_at_every_set() {
        // The encoded b_plan/edge/blocking round-trip to exactly what
        // the driver would resolve from scratch — the bitwise-identity
        // guarantee in miniature — and the workspace is one formula.
        for fam in registered_families() {
            let c = cfg_at(fam.isa);
            let ks = &fam.k_f64;
            for (m, n, k) in [(8, 8, 8), (5, 40, 40), (16, 2048, 64), (150, 170, 130)] {
                for (op_a, op_b) in [(N, N), (N, T), (T, N), (T, T)] {
                    let rp = compute_resolved::<f64>(&c, op_a, op_b, m, n, k, 1);
                    rp.validate().unwrap();
                    let sp = decode(&rp, PlanSource::Computed, fam.isa);
                    let want = match op_b {
                        Op::NoTrans => resolve_nn_plan(&c, m, n, k, 8),
                        Op::Trans => resolve_nt_plan(&c),
                    };
                    assert_eq!(sp.b_plan, want);
                    assert_eq!(sp.edge, c.edge);
                    let bs = BlockSizes::derive(&c.cache, 8, ks.mr, ks.nr, ks.lanes);
                    assert_eq!(sp.bs, bs);
                    assert_eq!((rp.tm, rp.tn), (1, 1));
                    let kc_eff = bs.kc.min(k);
                    let at_elems = if op_a == T {
                        bs.mc.min(m.div_ceil(ks.mr) * ks.mr) * kc_eff
                    } else {
                        0
                    };
                    assert_eq!(
                        rp.workspace_bytes,
                        ((2 * kc_eff * ks.nr + at_elems) * 8) as u64
                    );
                }
            }
        }
    }

    #[test]
    fn effective_isa_is_shape_gated_only() {
        let auto = cfg();
        // Sub-tile shapes keep the 128-bit set.
        assert!(!effective_isa::<f32>(&auto, 1, 1).is_wide());
        // Forcing the base pins the base no matter the shape.
        assert_eq!(
            effective_isa::<f32>(&cfg_at(caps::base_isa()), 640, 640),
            caps::base_isa()
        );
        // Whatever it resolves to has a registered family.
        for (m, n) in [(1, 1), (8, 8), (640, 640)] {
            assert!(family_for(effective_isa::<f64>(&auto, m, n)).is_some());
        }
        if let Some(fam) = shalom_kernels::selected_wide_family() {
            // At exactly one full tile the wide family takes over, per
            // element type's own tile — whatever the ops (the key carries
            // them separately).
            assert_eq!(
                effective_isa::<f32>(&auto, fam.k_f32.mr, fam.k_f32.nr),
                fam.isa
            );
            assert_eq!(
                effective_isa::<f64>(&auto, fam.k_f64.mr, fam.k_f64.nr),
                fam.isa
            );
            assert!(!effective_isa::<f32>(&auto, fam.k_f32.mr - 1, fam.k_f32.nr).is_wide());
            for (op_a, op_b) in [(N, T), (T, N), (T, T)] {
                assert_eq!(
                    key_for::<f32>(&auto, op_a, op_b, 640, 640, 64, 1).isa,
                    fam.isa.code()
                );
            }
            // Forcing an executable wide level skips the size rule: the
            // parallel path pins workers this way to keep threaded
            // results bitwise equal to serial ones.
            assert_eq!(effective_isa::<f32>(&cfg_at(fam.isa), 1, 1), fam.isa);
        }
    }

    #[test]
    fn wide_plan_encodes_family_blocking_and_keys_never_collide() {
        let auto = cfg();
        let based = cfg_at(caps::base_isa());
        let k_auto = key_for::<f32>(&auto, N, N, 64, 64, 64, 1);
        let k_base = key_for::<f32>(&based, N, N, 64, 64, 64, 1);
        // The policies already fingerprint apart; on a wide host the keys
        // additionally differ in the effective-ISA field itself.
        assert_ne!(k_auto, k_base);
        assert_eq!(k_base.isa, caps::base_isa().code());
        assert!(k_auto.validate().is_ok() && k_base.validate().is_ok());
        if let Some(fam) = shalom_kernels::selected_wide_family() {
            assert_eq!(k_auto.isa, fam.isa.code());
            let rp = compute_resolved::<f32>(&auto, N, N, 64, 64, 64, 1);
            rp.validate().unwrap();
            // Same §4 decision as the 128-bit pin, blocking in the
            // family's register tile.
            assert_eq!(rp.b_plan, bplan_code(resolve_nn_plan(&auto, 64, 64, 64, 4)));
            let ks = &fam.k_f32;
            let bs = BlockSizes::derive(&auto.cache, 4, ks.mr, ks.nr, ks.lanes);
            assert_eq!(
                (rp.kc as usize, rp.mc as usize, rp.nc as usize),
                (bs.kc, bs.mc, bs.nc)
            );
        }
    }

    #[test]
    fn key_distinguishes_every_signature_axis() {
        let base = key_for::<f32>(&cfg(), N, N, 8, 9, 10, 2);
        let variants = [
            key_for::<f64>(&cfg(), N, N, 8, 9, 10, 2),
            key_for::<f32>(&cfg(), T, N, 8, 9, 10, 2),
            key_for::<f32>(&cfg(), N, T, 8, 9, 10, 2),
            key_for::<f32>(&cfg(), N, N, 9, 9, 10, 2),
            key_for::<f32>(&cfg(), N, N, 8, 10, 10, 2),
            key_for::<f32>(&cfg(), N, N, 8, 9, 11, 2),
            key_for::<f32>(&cfg(), N, N, 8, 9, 10, 3),
            key_for::<f32>(
                &GemmConfig {
                    edge: EdgeSchedule::Batched,
                    ..cfg()
                },
                N,
                N,
                8,
                9,
                10,
                2,
            ),
        ];
        for v in variants {
            assert_ne!(base, v);
        }
        assert!(base.validate().is_ok());
    }
}

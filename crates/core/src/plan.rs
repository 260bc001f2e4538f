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
use shalom_kernels::{family_for, FamilyElem, Vector, MR, NR_VECS};
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
    /// Effective ISA the call dispatches to: a wide level routes the
    /// driver to the runtime-registered kernel family, anything else runs
    /// the 128-bit substrate.
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

/// The ISA level this call actually dispatches to — a pure function of
/// the configuration, ops and shape, computed identically wherever a
/// plan is keyed, resolved, or decoded:
///
/// * the requested level must be wide and its kernel family registered
///   (the runtime probe passed on this host);
/// * the wide families implement the NN mode — T modes stay on the
///   128-bit substrate's transpose-packing driver;
/// * under [`IsaPolicy::Auto`], the problem must fill at least one full
///   register tile of the family's element type (smaller shapes are the
///   128-bit edge machinery's home turf). A `Force`d executable level
///   skips this size gate: the family driver stages sub-tile edges
///   itself, and the parallel path relies on forcing to give every
///   worker's sub-block the exact route the whole problem resolved to —
///   that is what keeps threaded results bitwise equal to serial ones.
///
/// Everything else resolves to the compile-time base, so the key an
/// AVX-512 host computes for a sub-tile problem equals the key a NEON
/// host computes — and a wide host's big-shape keys can never collide
/// with either.
pub(crate) fn effective_isa<V: Vector>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
) -> Isa {
    let req = cfg.requested_isa();
    if req.is_wide() && op_a == Op::NoTrans && op_b == Op::NoTrans {
        if let Some(fam) = family_for(req) {
            let ks = <V::Elem as FamilyElem>::kernels(fam);
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
    key_for::<T::Vec>(cfg, op_a, op_b, m, n, k, 1)
}

fn key_for<V: Vector>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> PlanKey {
    PlanKey {
        elem_bits: (core::mem::size_of::<V::Elem>() * 8) as u8,
        isa: effective_isa::<V>(cfg, op_a, op_b, m, n).code(),
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
fn compute_resolved<V: Vector>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> ResolvedPlan {
    let elem_bytes = core::mem::size_of::<V::Elem>();
    // Wide-family route (serial only: the parallel parent key carries the
    // §6 grid, and each worker re-resolves its own sub-block serially).
    // The family packs B per panel, so the encoded B plan is Sequential;
    // blocking derives from the family's register tile, and the workspace
    // is one packed panel plus the edge staging tiles.
    let isa = effective_isa::<V>(cfg, op_a, op_b, m, n);
    if threads == 1 && isa.is_wide() {
        if let Some(fam) = family_for(isa) {
            let ks = <V::Elem as FamilyElem>::kernels(fam);
            let bs = BlockSizes::derive(&cfg.cache, elem_bytes, ks.nr);
            let kc_eff = bs.kc.min(k.max(1));
            return ResolvedPlan {
                class: class_code(classify(m, n, k, elem_bytes, &cfg.cache)),
                b_plan: bplan_code(BPlan::Sequential),
                edge: edge_code(cfg.edge),
                kc: bs.kc as u32,
                mc: bs.mc as u32,
                nc: bs.nc as u32,
                tm: 1,
                tn: 1,
                workspace_bytes: ((kc_eff * ks.nr + ks.mr * kc_eff + ks.mr * ks.nr) * elem_bytes)
                    as u64,
            };
        }
    }
    let nr = NR_VECS * V::LANES;
    let b_plan = match op_b {
        Op::NoTrans => resolve_nn_plan(cfg, m, n, k, elem_bytes),
        Op::Trans => resolve_nt_plan(cfg),
    };
    let bs = BlockSizes::derive(&cfg.cache, elem_bytes, nr);
    let (tm, tn) = if threads > 1 {
        partition_threads(threads, m, n)
    } else {
        (1, 1)
    };
    // The serial driver's workspace demand for this signature (informational
    // in the encoded plan; the driver re-derives it from the actual block).
    let kc_eff = bs.kc.min(k.max(1));
    let mc_eff = bs.mc.min(m.max(1).div_ceil(MR) * MR);
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
        workspace_bytes: ((2 * kc_eff * nr + at_elems) * elem_bytes) as u64,
    }
}

/// The cache-consulting lookup every entry point funnels through:
/// returns the encoded plan and where it came from, memoizing computed
/// plans. With the cache disabled this is a plain recompute. Being the
/// single funnel, this is also the capture region that times plan
/// resolution — hit and miss alike — into the span timeline and the
/// call's `plan_ns`, stamped with the outcome.
fn lookup<V: Vector>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> (ResolvedPlan, PlanSource) {
    let tok = capture::begin(capture::Phase::PlanLookup, capture::shape(m, n, k));
    let res = lookup_impl::<V>(cfg, op_a, op_b, m, n, k, threads);
    capture::plan_end(tok, res.1);
    res
}

fn lookup_impl<V: Vector>(
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
            compute_resolved::<V>(cfg, op_a, op_b, m, n, k, threads),
            PlanSource::Computed,
        );
    }
    let key = key_for::<V>(cfg, op_a, op_b, m, n, k, threads);
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
    let plan = compute_resolved::<V>(cfg, op_a, op_b, m, n, k, threads);
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
pub(crate) fn serial_plan<V: Vector>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> SerialPlan {
    let (plan, source) = lookup::<V>(cfg, op_a, op_b, m, n, k, 1);
    decode(&plan, source, effective_isa::<V>(cfg, op_a, op_b, m, n))
}

/// The parallel parent's §6 thread grid for the full problem, cached
/// under the full-signature key (threads = t). Falls back to the
/// analytic partition if a (profile-supplied) grid does not factor `t`.
pub(crate) fn parallel_grid<V: Vector>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    t: usize,
) -> (usize, usize, PlanSource) {
    let (plan, source) = lookup::<V>(cfg, op_a, op_b, m, n, k, t);
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
    let (plan, source) = lookup::<T::Vec>(cfg, op_a, op_b, m, n, k, threads);
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
    let plan = compute_resolved::<T::Vec>(&eff, op_a, op_b, m, n, k, threads);
    let key = key_for::<T::Vec>(base, op_a, op_b, m, n, k, threads);
    capture::note_plan_evictions(global_cache().install(key, plan));
    // Serial calls inside the pooled/batched paths look the signature up
    // under a threads = 1 key; install the override there too so a
    // tuned single-threaded signature applies wherever it executes.
    if threads > 1 {
        let serial_plan = compute_resolved::<T::Vec>(&eff, op_a, op_b, m, n, k, 1);
        let serial_key = key_for::<T::Vec>(base, op_a, op_b, m, n, k, 1);
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
    use shalom_simd::{F32x4, F64x2};

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

    /// `cfg()` pinned to the 128-bit substrate, for tests that assert the
    /// classic §4/§5.5 resolution regardless of what this host probes.
    fn cfg_base() -> GemmConfig {
        GemmConfig {
            isa: IsaPolicy::Force(caps::base_isa()),
            ..cfg()
        }
    }

    #[test]
    fn compute_resolved_is_deterministic_and_valid() {
        for (m, n, k) in [(1, 1, 1), (7, 12, 4), (64, 64, 64), (16, 2048, 64)] {
            for op_b in [Op::NoTrans, Op::Trans] {
                let a = compute_resolved::<F32x4>(&cfg(), Op::NoTrans, op_b, m, n, k, 4);
                let b = compute_resolved::<F32x4>(&cfg(), Op::NoTrans, op_b, m, n, k, 4);
                assert_eq!(a, b);
                a.validate().unwrap();
                assert_eq!(a.tm as usize * a.tn as usize, 4);
            }
        }
    }

    #[test]
    fn encoded_plan_decodes_to_driver_resolution() {
        // The encoded b_plan/edge/blocking round-trip to exactly what
        // the driver would resolve from scratch — the bitwise-identity
        // guarantee in miniature. Pinned to the 128-bit substrate so the
        // expectation holds on wide hosts too (the wide branch has its
        // own test below).
        let c = cfg_base();
        for (m, n, k) in [(8, 8, 8), (5, 40, 40), (16, 2048, 64), (150, 170, 130)] {
            let rp = compute_resolved::<F64x2>(&c, Op::NoTrans, Op::NoTrans, m, n, k, 1);
            let sp = decode(&rp, PlanSource::Computed, caps::base_isa());
            assert_eq!(sp.b_plan, resolve_nn_plan(&c, m, n, k, 8));
            assert_eq!(sp.edge, c.edge);
            assert_eq!(sp.bs, BlockSizes::derive(&c.cache, 8, 6));
        }
    }

    #[test]
    fn effective_isa_is_shape_and_op_gated() {
        let auto = cfg();
        // T modes never go wide: the families implement the NN driver.
        assert!(!effective_isa::<F32x4>(&auto, Op::Trans, Op::NoTrans, 640, 640).is_wide());
        assert!(!effective_isa::<F32x4>(&auto, Op::NoTrans, Op::Trans, 640, 640).is_wide());
        // Sub-tile shapes stay on the 128-bit edge machinery.
        assert!(!effective_isa::<F32x4>(&auto, Op::NoTrans, Op::NoTrans, 1, 1).is_wide());
        // Forcing the base pins the base no matter the shape.
        assert_eq!(
            effective_isa::<F32x4>(&cfg_base(), Op::NoTrans, Op::NoTrans, 640, 640),
            caps::base_isa()
        );
        if let Some(fam) = shalom_kernels::selected_wide_family() {
            // At exactly one full tile the wide family takes over, per
            // element type's own tile.
            assert_eq!(
                effective_isa::<F32x4>(&auto, Op::NoTrans, Op::NoTrans, fam.k_f32.mr, fam.k_f32.nr),
                fam.isa
            );
            assert_eq!(
                effective_isa::<F64x2>(&auto, Op::NoTrans, Op::NoTrans, fam.k_f64.mr, fam.k_f64.nr),
                fam.isa
            );
            assert!(!effective_isa::<F32x4>(
                &auto,
                Op::NoTrans,
                Op::NoTrans,
                fam.k_f32.mr - 1,
                fam.k_f32.nr
            )
            .is_wide());
            // Forcing an executable wide level skips the size gate: the
            // family stages sub-tile edges itself, and the parallel path
            // pins workers this way to keep threaded results bitwise
            // equal to serial ones.
            let forced = GemmConfig {
                isa: crate::config::IsaPolicy::Force(fam.isa),
                ..cfg()
            };
            assert_eq!(
                effective_isa::<F32x4>(&forced, Op::NoTrans, Op::NoTrans, 1, 1),
                fam.isa
            );
        }
    }

    #[test]
    fn wide_plan_encodes_family_blocking_and_keys_never_collide() {
        let auto = cfg();
        let based = cfg_base();
        let k_auto = key_for::<F32x4>(&auto, Op::NoTrans, Op::NoTrans, 64, 64, 64, 1);
        let k_base = key_for::<F32x4>(&based, Op::NoTrans, Op::NoTrans, 64, 64, 64, 1);
        // The policies already fingerprint apart; on a wide host the keys
        // additionally differ in the effective-ISA field itself.
        assert_ne!(k_auto, k_base);
        assert_eq!(k_base.isa, caps::base_isa().code());
        assert!(k_auto.validate().is_ok() && k_base.validate().is_ok());
        if let Some(fam) = shalom_kernels::selected_wide_family() {
            assert_eq!(k_auto.isa, fam.isa.code());
            let rp = compute_resolved::<F32x4>(&auto, Op::NoTrans, Op::NoTrans, 64, 64, 64, 1);
            rp.validate().unwrap();
            // Family route: per-panel sequential pack, serial grid, and
            // blocking derived from the family's register tile.
            assert_eq!(rp.b_plan, bplan_code(BPlan::Sequential));
            assert_eq!((rp.tm, rp.tn), (1, 1));
            let bs = BlockSizes::derive(&auto.cache, 4, fam.k_f32.nr);
            assert_eq!(
                (rp.kc as usize, rp.mc as usize, rp.nc as usize),
                (bs.kc, bs.mc, bs.nc)
            );
            // Same signature, 128-bit pin: a different plan under a
            // different key — the two can coexist in one cache.
            let rp_base =
                compute_resolved::<F32x4>(&based, Op::NoTrans, Op::NoTrans, 64, 64, 64, 1);
            assert_eq!(
                rp_base.b_plan,
                bplan_code(resolve_nn_plan(&based, 64, 64, 64, 4))
            );
        }
    }

    #[test]
    fn key_distinguishes_every_signature_axis() {
        let base = key_for::<F32x4>(&cfg(), Op::NoTrans, Op::NoTrans, 8, 9, 10, 2);
        let variants = [
            key_for::<F64x2>(&cfg(), Op::NoTrans, Op::NoTrans, 8, 9, 10, 2),
            key_for::<F32x4>(&cfg(), Op::Trans, Op::NoTrans, 8, 9, 10, 2),
            key_for::<F32x4>(&cfg(), Op::NoTrans, Op::Trans, 8, 9, 10, 2),
            key_for::<F32x4>(&cfg(), Op::NoTrans, Op::NoTrans, 9, 9, 10, 2),
            key_for::<F32x4>(&cfg(), Op::NoTrans, Op::NoTrans, 8, 10, 10, 2),
            key_for::<F32x4>(&cfg(), Op::NoTrans, Op::NoTrans, 8, 9, 11, 2),
            key_for::<F32x4>(&cfg(), Op::NoTrans, Op::NoTrans, 8, 9, 10, 3),
            key_for::<F32x4>(
                &GemmConfig {
                    edge: EdgeSchedule::Batched,
                    ..cfg()
                },
                Op::NoTrans,
                Op::NoTrans,
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

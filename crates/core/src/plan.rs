//! The plan layer: one executable handle per call ([`GemmPlan`]),
//! computed from the call's signature unless an autotune result or a
//! persistent profile (IAAT-style, §10 of the paper's future work)
//! overrides it.
//!
//! Every GEMM entry point — serial, pooled, batched, `nn::Conv2d` —
//! builds a [`GemmPlan`] and hands it to the execution layers; nothing
//! below this module decides anything. [`GemmPlan::new`] is the one place
//! a dispatch plan (effective ISA and kernel set, §4 packing regime, §5.5
//! blocking, §6 thread grid, edge schedule, workspace demand) is
//! resolved, and it resolves it by computing it, every call: that is a
//! few comparisons and divisions, cheaper than any table hit (DESIGN
//! §10.4). The one table is the process-global [`PlanCache`] of
//! *overrides* — [`install_tuned`],
//! [`load_profile`], `SHALOM_PROFILE` — consulted only while it is
//! non-empty: a process that installs nothing builds no key and takes no
//! lock.
//!
//! Environment knob (also see the README "Plans & profiles" section):
//! `SHALOM_PROFILE=<path>` loads a profile into the override table on
//! first use; a bad file is reported to stderr and ignored, never fatal.
//!
//! Determinism: plan resolution is a pure function of the signature and
//! the configuration, so numerical results do not depend on when a plan
//! was built. An *override* may legitimately differ from the computed
//! plan (that is its purpose); it is range-validated on ingest so it can
//! change blocking and packing strategy but never correctness, and one
//! that encodes the computed plan runs bitwise the computed plan.
//!
//! shalom-analysis: deny(panic)
//!
//! Plan resolution runs on every GEMM call; all fallible paths return through `GemmError` or fall back to recomputing the plan.

use crate::api::GemmElem;
use crate::cache::BlockSizes;
use crate::capture;
use crate::config::{classify, EdgeSchedule, GemmConfig};
use crate::driver::{resolve_nn_plan, resolve_nt_plan};
use crate::parallel::partition_threads;
use shalom_kernels::family::EdgeFn;
use shalom_kernels::{family_for, kernels_for, FamilyElem, FamilyKernels};
use shalom_matrix::Op;
use shalom_simd::caps::{self, Isa};
use shalom_trace::BPlan;
use std::path::Path;
use std::sync::OnceLock;

mod overrides;
pub mod profile;

pub use overrides::{CacheStats, PlanCache, PlanKey, ResolvedPlan, MAX_OVERRIDES};
pub use profile::{ProfileError, PROFILE_VERSION};
pub use shalom_trace::PlanSource;

/// Everything one GEMM call needs decided, resolved once for a
/// `(config, ops, m, n, k)` signature: the effective ISA and its kernel
/// set, the edge entry, the §4 B-plan, the §5.5 blocking, the §6 thread
/// grid and the workspace demand. The execution layers (`gemm_serial`,
/// `gemm_parallel`, the batch loop) take a handle and decide nothing.
///
/// Build one with [`GemmPlan::new`] (the only constructor that consults
/// the override table — at most one lookup) and execute it with
/// [`GemmPlan::run`] any number of times, from any number of threads:
/// the handle is plain `Copy` data, `Send + Sync`.
///
/// A handle is a **snapshot**. [`install_tuned`], [`load_profile`] and
/// [`plan_cache_clear`] after the build do not alter it: any
/// range-validated plan computes the right product, so only the *choice*
/// a held handle embodies can go stale, never its result. Rebuild the
/// handle to pick up a new override.
///
/// ```
/// use shalom_core::{GemmConfig, GemmPlan, Op};
/// use shalom_matrix::Matrix;
///
/// let plan = GemmPlan::<f32>::new(&GemmConfig::default(), Op::NoTrans, Op::NoTrans, 8, 6, 4);
/// let a = Matrix::<f32>::random(8, 4, 1);
/// let b = Matrix::<f32>::random(4, 6, 2);
/// let mut c = Matrix::<f32>::zeros(8, 6);
/// plan.run(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
/// ```
#[derive(Clone, Copy)]
pub struct GemmPlan<T: FamilyElem> {
    /// The configuration the handle was built for; a threaded call
    /// re-resolves each sub-block's §4 regime under it.
    pub(crate) cfg: GemmConfig,
    pub(crate) op_a: Op,
    pub(crate) op_b: Op,
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) k: usize,
    /// Resolved worker count (`>= 1`) the grid divides the call over.
    pub(crate) threads: usize,
    /// §6 grid, `tm * tn == threads`.
    pub(crate) tm: usize,
    pub(crate) tn: usize,
    isa: Isa,
    /// The kernel set of `isa`; the registry only hands out sets whose
    /// CPU probe passed on this host.
    pub(crate) ks: &'static FamilyKernels<T>,
    pub(crate) edge: EdgeSchedule,
    /// `ks`'s entry for `edge`.
    pub(crate) edge_fn: EdgeFn<T>,
    pub(crate) b_plan: BPlan,
    pub(crate) bs: BlockSizes,
    /// Serial-driver workspace demand in elements: the double-buffered
    /// `Bc` panel, and the transpose-packed A block of the T modes.
    pub(crate) bc_elems: usize,
    pub(crate) at_elems: usize,
    pub(crate) source: PlanSource,
}

/// A resolved plan plus its provenance — the printable face of a
/// [`GemmPlan`] (powers the profile round-trip tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDescription {
    /// Where the plan came from on this lookup.
    pub source: PlanSource,
    /// The plan itself.
    pub plan: ResolvedPlan,
}

/// Loads the profile at `path` into `table`, all of it or none.
fn load_into(table: &PlanCache, path: &Path) -> Result<usize, ProfileError> {
    let entries = profile::load(path, caps::best_isa().label())?;
    if !table.install_all(&entries) {
        return Err(ProfileError::Invalid(format!(
            "{} entries do not fit the override table ({} resident, at most {})",
            entries.len(),
            table.stats().entries,
            MAX_OVERRIDES
        )));
    }
    Ok(entries.len())
}

fn overrides() -> &'static PlanCache {
    static TABLE: OnceLock<PlanCache> = OnceLock::new();
    TABLE.get_or_init(|| {
        let table = PlanCache::default();
        if let Some(path) = std::env::var_os("SHALOM_PROFILE").filter(|p| !p.is_empty()) {
            // Degrade to "no overrides", never take the process down
            // over a stale profile file.
            if let Err(e) = load_into(&table, Path::new(&path)) {
                eprintln!("shalom: ignoring SHALOM_PROFILE {path:?}: {e}");
            }
        }
        table
    })
}

/// The ISA level this call dispatches to and its kernel set: a pure
/// function of the configuration alone — no shape, no mode. Computed once
/// per handle, in [`Signature::of`]: the requested level when it is wide
/// and its kernel family is registered (the runtime probe passed on this
/// host), otherwise the compile-time base. So `Auto` is `Force` of
/// [`GemmConfig::requested_isa`] at every call, and a wide host's keys can
/// never collide with a 128-bit host's.
pub(crate) fn effective_isa<T: FamilyElem>(cfg: &GemmConfig) -> (Isa, &'static FamilyKernels<T>) {
    let req = cfg.requested_isa();
    if let Some(fam) = family_for(req).filter(|_| req.is_wide()) {
        return (req, T::kernels(fam));
    }
    let base = caps::base_isa();
    (base, kernels_for::<T>(base))
}

/// The register tile `(mr, nr)` of the kernel set every handle built
/// under `cfg` dispatches to, for any element type `T`, shape and mode:
/// the set is a function of the configuration alone, resolved the way a
/// handle's signature resolves it. A caller that splits a GEMM into
/// column blocks of a multiple of `nr` keeps every full tile of the whole
/// problem a full tile of its block. Consults no table.
pub fn register_tile<T: FamilyElem>(cfg: &GemmConfig) -> (usize, usize) {
    let ks = Signature::<T>::of(cfg, Op::NoTrans, Op::NoTrans, 0, 0, 0, 1).ks;
    (ks.mr, ks.nr)
}

/// The ISA-aware override key a *serial* dispatch of this signature
/// resolves under — the bucketing key for coalescing independent
/// requests into one `gemm_batch` call (`shalom-service`). The §7.4
/// batch discipline runs every member problem single-threaded, so the
/// key is computed for `threads == 1`; requests with equal keys resolve
/// to the same dispatch plan and can legally share a batch. This is the
/// key a `threads == 1` [`GemmPlan::new`] looks an override up under,
/// built without touching the table: there is deliberately no second
/// shape key anywhere in the system.
pub fn request_plan_key<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> PlanKey {
    Signature::<T>::of(cfg, op_a, op_b, m, n, k, 1).key()
}

/// One call signature with its effective ISA resolved: what a plan is
/// keyed by and computed from. Building one consults no table.
struct Signature<'a, T: FamilyElem> {
    cfg: &'a GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    isa: Isa,
    ks: &'static FamilyKernels<T>,
}

impl<'a, T: FamilyElem> Signature<'a, T> {
    fn of(
        cfg: &'a GemmConfig,
        op_a: Op,
        op_b: Op,
        m: usize,
        n: usize,
        k: usize,
        threads: usize,
    ) -> Self {
        let (isa, ks) = effective_isa::<T>(cfg);
        Signature {
            cfg,
            op_a,
            op_b,
            m,
            n,
            k,
            threads: threads.max(1),
            isa,
            ks,
        }
    }

    fn key(&self) -> PlanKey {
        PlanKey {
            elem_bits: (core::mem::size_of::<T>() * 8) as u8,
            isa: self.isa,
            op_a: self.op_a,
            op_b: self.op_b,
            m: self.m as u64,
            n: self.n as u64,
            k: self.k as u64,
            threads: self.threads.min(u32::MAX as usize) as u32,
            config_fp: self.cfg.fingerprint(),
        }
    }

    /// Assembles the handle from the decisions, deriving what follows
    /// from them: the set's edge entry and the workspace demand.
    fn plan(
        &self,
        b_plan: BPlan,
        edge: EdgeSchedule,
        bs: BlockSizes,
        (tm, tn): (usize, usize),
        source: PlanSource,
    ) -> GemmPlan<T> {
        let (bc_elems, at_elems) = workspace_elems(&bs, self.ks, self.op_a, self.m, self.k);
        GemmPlan {
            cfg: *self.cfg,
            op_a: self.op_a,
            op_b: self.op_b,
            m: self.m,
            n: self.n,
            k: self.k,
            threads: self.threads,
            tm,
            tn,
            isa: self.isa,
            ks: self.ks,
            edge,
            edge_fn: match edge {
                EdgeSchedule::Pipelined => self.ks.edge_pipelined,
                EdgeSchedule::Batched => self.ks.edge_batched,
            },
            b_plan,
            bs,
            bc_elems,
            at_elems,
            source,
        }
    }

    /// Resolves the full dispatch plan from the signature — the
    /// §4/§5.5/§6 logic. Pure: equal signatures always produce equal
    /// plans. One resolution for every kernel set: the set only
    /// supplies the tile the blocking and the workspace are measured in.
    fn compute(&self) -> GemmPlan<T> {
        let ks = self.ks;
        let b_plan = resolve_b_plan(self.cfg, ks, self.op_b, self.n, self.k);
        let elem_bytes = core::mem::size_of::<T>();
        let bs = BlockSizes::derive(&self.cfg.cache, elem_bytes, ks.mr, ks.nr, ks.lanes);
        let grid = partition_threads(self.threads, self.m, self.n);
        self.plan(b_plan, self.cfg.edge, bs, grid, PlanSource::Computed)
    }

    /// Rebuilds the handle from an installed override's stored plan.
    /// The effective ISA is never stored: it is a pure function of the
    /// same inputs as the key, so an entry can only ever be served at the
    /// width it was keyed under.
    fn decode(&self, plan: &ResolvedPlan) -> GemmPlan<T> {
        // `.max(1)` is defense in depth on top of profile validation: a
        // zero blocking factor would hang the driver's kk/ii/jj loops.
        let bs = BlockSizes {
            nc: (plan.nc as usize).max(1),
            mc: (plan.mc as usize).max(1),
            kc: (plan.kc as usize).max(1),
        };
        // A (profile-supplied) grid that does not factor the thread count
        // falls back to the analytic partition.
        let grid = match (plan.tm as usize, plan.tn as usize) {
            (tm, tn) if tm * tn == self.threads => (tm, tn),
            _ => partition_threads(self.threads, self.m, self.n),
        };
        // A stored NT regime the set would not run as stored decodes to
        // the transpose-pack it does run: `Direct` (`nt_block` packs B
        // anyway), and a fused regime on a set without the inner-product
        // panel (a stale or hostile profile entry).
        let b_plan = match plan.b_plan {
            BPlan::Direct if self.op_b == Op::Trans => BPlan::Sequential,
            BPlan::Fused if self.op_b == Op::Trans && self.ks.nt_pack.is_none() => {
                BPlan::Sequential
            }
            stored => stored,
        };
        self.plan(b_plan, plan.edge, bs, grid, PlanSource::Profile)
    }

    /// The resolution every handle is built by: the override under this
    /// signature's key if one is installed, otherwise the computed plan.
    /// While the table is empty — no override anywhere in the process —
    /// it is not consulted: no key, no fingerprint, no lock. Inlined into
    /// both builds of a handle, so each constructs it in place.
    #[inline(always)]
    fn resolve(&self) -> GemmPlan<T> {
        let table = overrides();
        let installed = if table.is_empty() {
            None
        } else {
            table.get(&self.key())
        };
        match installed {
            Some(stored) => self.decode(&stored),
            None => self.compute(),
        }
    }
}

/// The §4 B-handling regime of a problem (or sub-block) with a `k x n` B
/// under `cfg`: the pure resolution a handle makes for the whole problem
/// and a threaded parent repeats per tile.
fn resolve_b_plan<T>(
    cfg: &GemmConfig,
    ks: &FamilyKernels<T>,
    op_b: Op,
    n: usize,
    k: usize,
) -> BPlan {
    match op_b {
        Op::NoTrans => resolve_nn_plan(cfg, n, k, core::mem::size_of::<T>()),
        Op::Trans => resolve_nt_plan(cfg, ks),
    }
}

/// `(Bc, At)` element counts the serial driver needs for an `m`-row,
/// `k`-deep block: the one `kc x nr` packed B panel plus, in the T
/// modes, the transpose-packed `mc x kc` A block. Sized by the *actual*
/// problem, not the cache-blocking ceilings: a 5x5x5 GEMM must not pay
/// for a megabyte of zeroed Bc/Ac.
fn workspace_elems<T>(
    bs: &BlockSizes,
    ks: &FamilyKernels<T>,
    op_a: Op,
    m: usize,
    k: usize,
) -> (usize, usize) {
    let kc_eff = bs.kc.min(k.max(1));
    let mc_eff = bs.mc.min(m.max(1).div_ceil(ks.mr) * ks.mr);
    let at_elems = if op_a == Op::Trans {
        mc_eff * kc_eff
    } else {
        0
    };
    (kc_eff * ks.nr, at_elems)
}

impl<T: FamilyElem> GemmPlan<T> {
    /// Resolves the plan for `C (m x n) = op_a(A) * op_b(B)` of depth `k`
    /// under `cfg`: the installed override for the signature, or else the
    /// computed plan. See the type's docs for the snapshot semantics.
    pub fn new(cfg: &GemmConfig, op_a: Op, op_b: Op, m: usize, n: usize, k: usize) -> Self {
        // The build's one read of the capture state word.
        if capture::on() {
            return Self::new_captured(cfg, op_a, op_b, m, n, k);
        }
        Signature::of(cfg, op_a, op_b, m, n, k, cfg.resolved_threads()).resolve()
    }

    /// [`Self::new`] with a sink on: resolution is one `PlanLookup` region,
    /// timed into the span timeline and the next call's `plan_ns` and
    /// stamped with the outcome. Outlined and cold, so the capture-off
    /// build carries none of it.
    #[cold]
    #[inline(never)]
    fn new_captured(cfg: &GemmConfig, op_a: Op, op_b: Op, m: usize, n: usize, k: usize) -> Self {
        let sig = Signature::of(cfg, op_a, op_b, m, n, k, cfg.resolved_threads());
        let tok = capture::begin(capture::Phase::PlanLookup, capture::shape(m, n, k));
        let plan = sig.resolve();
        capture::plan_end(tok, plan.source);
        plan
    }

    /// The handle for one `rl x cl` tile of this plan's §6 grid, derived
    /// without a lookup: same kernel set, blocking and edge entry by
    /// construction — a sub-block smaller than a wide register tile must
    /// not silently change set, or threaded results would stop being
    /// bitwise equal to serial ones — and the §4 regime re-resolved for
    /// the sub-block by the same pure function the parent's was.
    pub(crate) fn for_block(&self, rl: usize, cl: usize) -> Self {
        let b_plan = resolve_b_plan(&self.cfg, self.ks, self.op_b, cl, self.k);
        let (bc_elems, at_elems) = workspace_elems(&self.bs, self.ks, self.op_a, rl, self.k);
        GemmPlan {
            m: rl,
            n: cl,
            threads: 1,
            tm: 1,
            tn: 1,
            b_plan,
            bc_elems,
            at_elems,
            ..*self
        }
    }

    /// The ISA level — equivalently, the kernel set — the handle
    /// dispatches to.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The plan in its stored (override-table, profile-file) form, with where
    /// it came from when the handle was built.
    pub fn describe(&self) -> PlanDescription {
        let elem_bytes = core::mem::size_of::<T>();
        PlanDescription {
            source: self.source,
            plan: ResolvedPlan {
                class: classify(self.m, self.n, self.k, elem_bytes, &self.cfg.cache),
                b_plan: self.b_plan,
                edge: self.edge,
                kc: self.bs.kc as u32,
                mc: self.bs.mc as u32,
                nc: self.bs.nc as u32,
                tm: self.tm.min(u16::MAX as usize) as u16,
                tn: self.tn.min(u16::MAX as usize) as u16,
                workspace_bytes: ((self.bc_elems + self.at_elems) * elem_bytes) as u64,
            },
        }
    }
}

/// Resolves and describes the plan the library would use for this call:
/// the §4 packing regime, §5.5 blocking, §6 thread grid, and whether it
/// was computed or served from an installed override.
pub fn describe_plan<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
) -> PlanDescription {
    GemmPlan::<T>::new(cfg, op_a, op_b, m, n, k).describe()
}

/// Installs the plan a *tuned* configuration resolves to as an override
/// for the signature keyed by the *base* configuration — the bridge from
/// [`crate::autotune()`] to the table: tune once, then every handle the
/// application builds with its ordinary `base` config carries the tuned
/// packing/blocking decision.
///
/// The thread grid is computed for `base.resolved_threads()` (the count
/// the application will actually call with). The returned `source` is
/// [`PlanSource::Profile`] — or [`PlanSource::Computed`] when the table
/// is full: then nothing was installed, no resident override was
/// displaced, and calls keep computing their plans.
pub fn install_tuned<T: GemmElem>(
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
    let entry = |t: usize| {
        let plan = Signature::<T>::of(&eff, op_a, op_b, m, n, k, t).compute();
        let key = Signature::<T>::of(base, op_a, op_b, m, n, k, t).key();
        (key, plan.describe().plan)
    };
    let (key, plan) = entry(threads);
    // The batched path resolves every member under a threads = 1 key;
    // install the override there too so a tuned signature applies
    // wherever it executes single-threaded.
    let installed = if threads > 1 {
        overrides().install_all(&[entry(1), (key, plan)])
    } else {
        overrides().install_all(&[(key, plan)])
    };
    let source = if installed {
        PlanSource::Profile
    } else {
        PlanSource::Computed
    };
    PlanDescription { source, plan }
}

/// Loads a profile file and installs every entry as an override.
/// Returns how many entries were installed. Total and all-or-nothing:
/// malformed files, version mismatches, profiles saved under a different
/// ISA than this host dispatches ([`ProfileError::IsaMismatch`]),
/// out-of-range plans, and files with more new entries than the table has
/// room for are rejected as [`ProfileError`]s (never a panic) without
/// touching the table.
pub fn load_profile(path: impl AsRef<Path>) -> Result<usize, ProfileError> {
    load_into(overrides(), path.as_ref())
}

/// Persists every installed override (autotune installs and previously
/// loaded profiles) to a versioned profile file a fresh process can
/// [`load_profile`] — on a host whose dispatch probe selects the same
/// ISA; any other host rejects the file instead of applying plans tuned
/// for the wrong vector width. Returns how many entries were written.
pub fn save_profile(path: impl AsRef<Path>) -> Result<usize, ProfileError> {
    let entries = overrides().entries();
    profile::save(path.as_ref(), &entries, caps::best_isa().label())?;
    Ok(entries.len())
}

/// Drops every installed override; every call computes its plan again.
pub fn plan_cache_clear() {
    overrides().clear();
}

/// Override-table statistics (always on, independent of the capture
/// switches): lookups that found an override, lookups that did not, and
/// residency. Calls made while the table is empty look nothing up and
/// count as neither.
pub fn plan_cache_stats() -> CacheStats {
    overrides().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IsaPolicy, PackingPolicy, ShapeClass};
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

    /// The `i`-th of a family of distinct override-table keys.
    pub(super) fn key(i: u64) -> PlanKey {
        PlanKey {
            elem_bits: 32,
            isa: Isa::Sse128,
            op_a: Op::NoTrans,
            op_b: Op::NoTrans,
            m: 8 + i,
            n: 8 + i,
            k: 8 + i,
            threads: 1,
            config_fp: 0x5ca1_ab1e,
        }
    }

    /// An override-table entry that is a function of `i`.
    pub(super) fn plan(i: u64) -> ResolvedPlan {
        ResolvedPlan {
            class: ShapeClass::Small,
            b_plan: BPlan::ALL[i as usize % BPlan::ALL.len()],
            edge: EdgeSchedule::Pipelined,
            kc: 256,
            mc: 84,
            nc: 3072,
            tm: 1,
            tn: 1,
            workspace_bytes: 1024 + i,
        }
    }

    /// The from-scratch plan of a signature, in stored form.
    fn compute_resolved<E: FamilyElem>(
        cfg: &GemmConfig,
        op_a: Op,
        op_b: Op,
        (m, n, k): (usize, usize, usize),
        threads: usize,
    ) -> ResolvedPlan {
        Signature::<E>::of(cfg, op_a, op_b, m, n, k, threads)
            .compute()
            .describe()
            .plan
    }

    fn key_for<E: FamilyElem>(
        cfg: &GemmConfig,
        op_a: Op,
        op_b: Op,
        (m, n, k): (usize, usize, usize),
        threads: usize,
    ) -> PlanKey {
        Signature::<E>::of(cfg, op_a, op_b, m, n, k, threads).key()
    }

    /// Every field a run reads, in comparable form (the kernel set and
    /// the edge entry by address). Leaves out what is provenance, not
    /// execution: the config copy and the source.
    fn executed<E: FamilyElem>(p: &GemmPlan<E>) -> impl PartialEq + core::fmt::Debug {
        (
            (p.op_a, p.op_b, p.m, p.n, p.k),
            (p.threads, p.tm, p.tn),
            (p.isa, p.ks as *const FamilyKernels<E>, p.edge_fn as usize),
            (p.edge, p.b_plan, p.bs, p.bc_elems, p.at_elems),
        )
    }

    #[test]
    fn handle_is_copy_send_and_sync() {
        fn check<X: Copy + Send + Sync>() {}
        check::<GemmPlan<f32>>();
        check::<GemmPlan<f64>>();
    }

    #[test]
    fn compute_resolved_is_deterministic_and_valid() {
        for shape in [(1, 1, 1), (7, 12, 4), (64, 64, 64), (16, 2048, 64)] {
            for op_b in [N, T] {
                let a = compute_resolved::<f32>(&cfg(), N, op_b, shape, 4);
                let b = compute_resolved::<f32>(&cfg(), N, op_b, shape, 4);
                assert_eq!(a, b);
                a.validate().unwrap();
                assert_eq!(a.tm as usize * a.tn as usize, 4);
            }
        }
    }

    #[test]
    fn encoded_plan_decodes_to_the_computed_handle_at_every_set() {
        // Describe then decode is the identity on everything a run reads —
        // an override of the computed plan is the computed plan, in
        // miniature — the decisions are the driver-level resolutions, and
        // the workspace is one formula.
        for fam in registered_families() {
            let c = cfg_at(fam.isa);
            let ks = &fam.k_f64;
            for (m, n, k) in [(8, 8, 8), (5, 40, 40), (16, 2048, 64), (150, 170, 130)] {
                for (op_a, op_b) in [(N, N), (N, T), (T, N), (T, T)] {
                    for threads in [1, 4] {
                        let sig = Signature::<f64>::of(&c, op_a, op_b, m, n, k, threads);
                        let computed = sig.compute();
                        let rp = computed.describe().plan;
                        rp.validate().unwrap();
                        let decoded = sig.decode(&rp);
                        assert_eq!(executed(&decoded), executed(&computed));
                        assert_eq!(decoded.describe().plan, rp);
                        assert_eq!(decoded.source, PlanSource::Profile);

                        assert!(core::ptr::eq(computed.ks, ks));
                        assert_eq!(computed.isa(), fam.isa);
                        let want = match op_b {
                            Op::NoTrans => resolve_nn_plan(&c, n, k, 8),
                            Op::Trans => resolve_nt_plan(&c, ks),
                        };
                        assert_eq!(computed.b_plan, want);
                        // NT/TT: fused only where the set has the panel.
                        if op_b == T {
                            let fused = ks.nt_pack.is_some();
                            assert_eq!(want == BPlan::Fused, fused, "{:?}", fam.isa);
                            assert_eq!(want == BPlan::Sequential, !fused, "{:?}", fam.isa);
                        }
                        assert_eq!(computed.edge, c.edge);
                        assert_eq!(computed.edge_fn as usize, ks.edge_pipelined as usize);
                        let bs = BlockSizes::derive(&c.cache, 8, ks.mr, ks.nr, ks.lanes);
                        assert_eq!(computed.bs, bs);
                        assert_eq!((computed.tm, computed.tn), partition_threads(threads, m, n));
                        let kc_eff = bs.kc.min(k);
                        let at_elems = if op_a == T {
                            bs.mc.min(m.div_ceil(ks.mr) * ks.mr) * kc_eff
                        } else {
                            0
                        };
                        assert_eq!(
                            (computed.bc_elems, computed.at_elems),
                            (kc_eff * ks.nr, at_elems)
                        );
                        assert_eq!(rp.workspace_bytes, ((kc_eff * ks.nr + at_elems) * 8) as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_guards_a_hostile_profile_plan() {
        // Zero blocking factors and a grid that does not factor the thread
        // count (both rejected on ingest; this is the second line) decode
        // to something the driver can run.
        let c = cfg();
        let sig = Signature::<f32>::of(&c, N, N, 64, 64, 64, 4);
        let mut rp = sig.compute().describe().plan;
        (rp.kc, rp.mc, rp.nc, rp.tm, rp.tn) = (0, 0, 0, 3, 5);
        let p = sig.decode(&rp);
        assert_eq!((p.bs.kc, p.bs.mc, p.bs.nc), (1, 1, 1));
        assert_eq!((p.tm, p.tn), partition_threads(4, 64, 64));
        // The workspace follows the blocking that will run, never the
        // profile's own (informational) byte count.
        assert_eq!(p.bc_elems, p.ks.nr);
        // A fused NT regime (a profile saved before the wide sets lost
        // their inner-product panel, or a hostile one) never reaches a
        // missing panel, and NT `Direct` (which `nt_block` transpose-packs
        // anyway): each decodes to the regime the set runs, and the handle
        // describes what it runs, at every registered set, NT and TT, both
        // element types.
        fn nt<E: FamilyElem>(c: &GemmConfig, op_a: Op) {
            let sig = Signature::<E>::of(c, op_a, T, 8, 8, 8, 1);
            let computed = sig.compute();
            for stored in [BPlan::Direct, BPlan::Fused] {
                let mut rp = computed.describe().plan;
                rp.b_plan = stored;
                let p = sig.decode(&rp);
                let runs = match (stored, sig.ks.nt_pack) {
                    (BPlan::Direct, _) | (_, None) => BPlan::Sequential,
                    (fused, Some(_)) => fused,
                };
                assert_eq!(p.b_plan, runs, "{:?} stored {stored:?}", c.isa);
                assert_eq!(p.describe().plan.b_plan, runs);
                if runs == computed.b_plan {
                    assert_eq!(p.describe().plan, computed.describe().plan);
                }
            }
        }
        for fam in registered_families() {
            for op_a in [N, T] {
                nt::<f32>(&cfg_at(fam.isa), op_a);
                nt::<f64>(&cfg_at(fam.isa), op_a);
            }
        }
    }

    #[test]
    fn for_block_equals_a_forced_lookup_of_the_sub_block() {
        // What a worker used to resolve for itself — a fresh plan for its
        // sub-block under the parent's config pinned to the parent's set —
        // is what the parent now derives for it, field for field: at every
        // registered set, in every mode and regime, on sub-block shapes
        // below, at and above every registered tile.
        fn one<E: FamilyElem>(parent_cfg: &GemmConfig, ops: (Op, Op), sub: (usize, usize)) {
            let (m, n, k) = (300, 2100, 70);
            let parent = GemmPlan::<E>::new(parent_cfg, ops.0, ops.1, m, n, k);
            let forced = GemmConfig {
                isa: IsaPolicy::Force(parent.isa()),
                threads: 1,
                ..*parent_cfg
            };
            let want = GemmPlan::<E>::new(&forced, ops.0, ops.1, sub.0, sub.1, k);
            assert_eq!(
                executed(&parent.for_block(sub.0, sub.1)),
                executed(&want),
                "{:?} {ops:?} sub-block {sub:?}",
                parent_cfg.isa
            );
        }
        let mut subs = vec![(1, 1), (3, 1100), (150, 1050), (300, 2100)];
        for fam in registered_families() {
            for ks in [(fam.k_f32.mr, fam.k_f32.nr), (fam.k_f64.mr, fam.k_f64.nr)] {
                subs.extend([(ks.0 - 1, ks.1 + 1), ks, (2 * ks.0 + 3, 2 * ks.1 + 5)]);
            }
        }
        let levels = registered_families()
            .map(|f| IsaPolicy::Force(f.isa))
            .chain([IsaPolicy::Auto]);
        for isa in levels {
            for packing in [
                crate::config::PackingPolicy::Auto,
                crate::config::PackingPolicy::AlwaysFused,
                crate::config::PackingPolicy::AlwaysSequential,
                crate::config::PackingPolicy::Never,
            ] {
                for edge in [EdgeSchedule::Pipelined, EdgeSchedule::Batched] {
                    let c = GemmConfig {
                        isa,
                        packing,
                        edge,
                        threads: 4,
                        ..cfg()
                    };
                    for ops in [(N, N), (N, T), (T, N), (T, T)] {
                        for &sub in &subs {
                            one::<f32>(&c, ops, sub);
                            one::<f64>(&c, ops, sub);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn effective_isa_is_a_function_of_the_configuration() {
        // No shape, mode or packing policy moves the answer: `Auto` is the
        // requested set's own table row wherever that set is wide and
        // registered, `Force` pins what it names, everything else is the
        // base — and a handle says so.
        fn one<E: FamilyElem>(c: &GemmConfig) {
            let req = c.requested_isa();
            let want = match family_for(req).filter(|_| req.is_wide()) {
                Some(fam) => (req, E::kernels(fam)),
                None => (caps::base_isa(), kernels_for::<E>(caps::base_isa())),
            };
            let got = effective_isa::<E>(c);
            assert!(
                got.0 == want.0 && core::ptr::eq(got.1, want.1),
                "{:?}",
                c.isa
            );
            for (m, n) in [(1, 1), (8, 8), (5, 640), (640, 5), (640, 640)] {
                for (op_a, op_b) in [(N, N), (N, T), (T, N), (T, T)] {
                    let p = GemmPlan::<E>::new(c, op_a, op_b, m, n, 9);
                    assert!(p.isa() == want.0 && core::ptr::eq(p.ks, want.1));
                    assert_eq!(register_tile::<E>(c), (p.ks.mr, p.ks.nr));
                    let key = key_for::<E>(c, op_a, op_b, (m, n, 9), 1);
                    assert_eq!(key.isa, want.0);
                }
            }
        }
        let forced = registered_families().map(|f| cfg_at(f.isa));
        for c in forced.chain([cfg()]) {
            for packing in [PackingPolicy::Auto, PackingPolicy::Never] {
                let c = GemmConfig { packing, ..c };
                one::<f32>(&c);
                one::<f64>(&c);
            }
        }
        // `Auto` on a wide host is the widest set; forcing the base pins
        // the base; a forced wide level the host lacks falls to the base.
        if let Some(fam) = shalom_kernels::selected_wide_family() {
            assert_eq!(effective_isa::<f32>(&cfg()).0, fam.isa);
        }
        let base = caps::base_isa();
        assert_eq!(effective_isa::<f32>(&cfg_at(base)).0, base);
        for wide in [Isa::Avx2W256, Isa::Avx512W512] {
            if family_for(wide).is_none() {
                assert_eq!(effective_isa::<f64>(&cfg_at(wide)).0, base);
            }
        }
    }

    #[test]
    fn wide_plan_encodes_family_blocking_and_keys_never_collide() {
        let auto = cfg();
        let based = cfg_at(caps::base_isa());
        let k_auto = key_for::<f32>(&auto, N, N, (64, 64, 64), 1);
        let k_base = key_for::<f32>(&based, N, N, (64, 64, 64), 1);
        // The policies already fingerprint apart; on a wide host the keys
        // additionally differ in the effective-ISA field itself.
        assert_ne!(k_auto, k_base);
        assert_eq!(k_base.isa, caps::base_isa());
        assert!(k_auto.validate().is_ok() && k_base.validate().is_ok());
        // The public key is the serial one, table untouched.
        assert_eq!(request_plan_key::<f32>(&auto, N, N, 64, 64, 64), k_auto);
        if let Some(fam) = shalom_kernels::selected_wide_family() {
            assert_eq!(k_auto.isa, fam.isa);
            let rp = compute_resolved::<f32>(&auto, N, N, (64, 64, 64), 1);
            rp.validate().unwrap();
            // Same §4 decision as the 128-bit pin, blocking in the
            // family's register tile.
            assert_eq!(rp.b_plan, resolve_nn_plan(&auto, 64, 64, 4));
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
        let base = key_for::<f32>(&cfg(), N, N, (8, 9, 10), 2);
        let batched = GemmConfig {
            edge: EdgeSchedule::Batched,
            ..cfg()
        };
        let variants = [
            key_for::<f64>(&cfg(), N, N, (8, 9, 10), 2),
            key_for::<f32>(&cfg(), T, N, (8, 9, 10), 2),
            key_for::<f32>(&cfg(), N, T, (8, 9, 10), 2),
            key_for::<f32>(&cfg(), N, N, (9, 9, 10), 2),
            key_for::<f32>(&cfg(), N, N, (8, 10, 10), 2),
            key_for::<f32>(&cfg(), N, N, (8, 9, 11), 2),
            key_for::<f32>(&cfg(), N, N, (8, 9, 10), 3),
            key_for::<f32>(&batched, N, N, (8, 9, 10), 2),
        ];
        for v in variants {
            assert_ne!(base, v);
        }
        assert!(base.validate().is_ok());
    }
}

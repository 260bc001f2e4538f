//! Runtime configuration: packing policy, edge-kernel schedule, threading,
//! and the workload-shape classifier that drives the §4 packing decision.

use crate::cache::CacheParams;
use shalom_simd::caps::{self, Isa};
// The §5.4 schedule and the §2.1 classes are dispatch decisions every
// layer shares; they are defined once, in `shalom_trace::decision`.
pub use shalom_trace::{EdgeSchedule, ShapeClass};

/// Which vector ISA level the dispatch layer should select for this
/// call's kernels.
///
/// The library probes the host once ([`shalom_simd::caps::detect`]) and
/// by default dispatches to the widest kernel family that probe admits —
/// the fix for the silent scalar/128-bit fallback: a host with AVX2+FMA
/// or AVX-512F runs the 256/512-bit families, not the compile-time
/// substrate. `Force` pins a level for ablations and per-ISA benchmarks;
/// a forced level the host cannot execute degrades to the compile-time
/// base rather than faulting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IsaPolicy {
    /// Dispatch to the widest runtime-probed family (the default).
    #[default]
    Auto,
    /// Pin a specific level (benchmarks, ablations, reproducing a run).
    Force(Isa),
}

impl IsaPolicy {
    /// Stable code for fingerprinting: `Auto` is 255, `Force(isa)` is the
    /// ISA's stable serialization code.
    pub(crate) fn fp_code(self) -> u64 {
        match self {
            IsaPolicy::Auto => 255,
            IsaPolicy::Force(isa) => u64::from(isa.code()),
        }
    }
}

/// How the driver prepares B (and A in T modes) for the micro-kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PackingPolicy {
    /// The paper's runtime decision (§4): skip packing when the operand is
    /// small or cache-friendly, otherwise pack *fused* with computation.
    #[default]
    Auto,
    /// Always pack, fused with computation (forces the §5.3 kernels even
    /// for L1-resident operands).
    AlwaysFused,
    /// Always pack, as a separate sequential phase before computing — the
    /// classical library behaviour (§3.2 first missed opportunity; the
    /// Figure 13 "baseline" packing).
    AlwaysSequential,
    /// Never pack; every micro-kernel reads operands in place. (NT mode
    /// still transposes B rows on the fly at the edge kernels; this policy
    /// exists for ablation, not production.)
    Never,
}

impl PackingPolicy {
    /// Stable lowercase label (CLI values, reports, telemetry).
    pub fn as_str(self) -> &'static str {
        match self {
            PackingPolicy::Auto => "auto",
            PackingPolicy::AlwaysFused => "fused",
            PackingPolicy::AlwaysSequential => "sequential",
            PackingPolicy::Never => "never",
        }
    }
}

/// Classifies a GEMM instance per §2.1: *small* when the two (M, N)
/// dimensions are of similar size and the working set fits the LLC;
/// *irregular* when one of M / N is at least 8x the other (the paper's
/// examples range from 64 vs 3000+ to 16 vs 50000); *regular* otherwise.
pub fn classify(
    m: usize,
    n: usize,
    k: usize,
    elem_bytes: usize,
    cache: &CacheParams,
) -> ShapeClass {
    let lo = m.min(n).max(1);
    let hi = m.max(n);
    if hi >= 8 * lo && hi >= 1024 {
        return ShapeClass::Irregular;
    }
    let working_set = (m * k + k * n + m * n) * elem_bytes;
    if working_set <= cache.llc() {
        ShapeClass::Small
    } else {
        ShapeClass::Regular
    }
}

/// Configuration for a GEMM invocation. [`GemmConfig::default`] gives the
/// paper's LibShalom behaviour on the detected host cache hierarchy,
/// single-threaded; the figure harnesses override fields for ablations.
#[derive(Debug, Clone, Copy)]
pub struct GemmConfig {
    /// Cache geometry used to derive the blocking parameters.
    pub cache: CacheParams,
    /// Worker threads. `1` runs fully serial (no pool); `0` means "all
    /// available cores" (the paper's default for irregular GEMM, §6).
    pub threads: usize,
    /// Edge micro-kernel schedule.
    pub edge: EdgeSchedule,
    /// Packing policy.
    pub packing: PackingPolicy,
    /// Vector-ISA selection policy for the runtime-dispatched kernel
    /// families. See [`GemmConfig::requested_isa`].
    pub isa: IsaPolicy,
}

impl Default for GemmConfig {
    fn default() -> Self {
        Self {
            cache: CacheParams::detect(),
            threads: 1,
            edge: EdgeSchedule::default(),
            packing: PackingPolicy::default(),
            isa: IsaPolicy::default(),
        }
    }
}

impl GemmConfig {
    /// A config with everything default except the thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Resolved worker count (`0` -> available parallelism).
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The ISA level this configuration asks the dispatch layer to use:
    /// the probed [`shalom_simd::caps::best_isa`] under
    /// [`IsaPolicy::Auto`], or the forced level when the host's probe
    /// admits it. A forced level this host cannot execute degrades to
    /// [`shalom_simd::caps::base_isa`] — never to an illegal-instruction
    /// fault. (Whether a particular *call* actually runs wide also
    /// depends on its shape and ops; see the plan layer.)
    pub fn requested_isa(&self) -> Isa {
        match self.isa {
            IsaPolicy::Auto => caps::best_isa(),
            IsaPolicy::Force(isa) => {
                if caps::supported(isa) {
                    isa
                } else {
                    caps::base_isa()
                }
            }
        }
    }

    /// Stable 64-bit fingerprint of every dispatch-relevant knob: cache
    /// geometry, edge schedule, packing policy, and ISA policy. Built on a
    /// word-wise FNV-1a fold (`cache::fnv1a_u64`, not `DefaultHasher`) so
    /// equal configurations fingerprint identically across processes and
    /// toolchain versions — this value keys the plan cache and is
    /// persisted in plan profiles.
    ///
    /// The thread count is deliberately *excluded*: the plan-cache key
    /// carries the resolved thread count as its own field, so a config
    /// with `threads: 0` on an 8-core host shares plans (and profile
    /// entries) with an explicit `threads: 8`. The *effective* ISA is
    /// likewise a separate key field; hashing the policy here makes
    /// `Auto` and `Force(best)` distinct configurations even when they
    /// resolve alike.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::cache::FNV_OFFSET;
        // Format version for the fingerprint itself: bump if the set or
        // order of hashed knobs ever changes, so stale profile entries
        // miss instead of matching a differently-derived key.
        // (2: the ISA policy joined the hashed knob set. 3: the fork-join
        // runtime knob left it. 4: words are folded whole, not by byte.)
        crate::cache::fnv1a_u64(&mut h, 4);
        crate::cache::fnv1a_u64(&mut h, self.cache.fingerprint());
        crate::cache::fnv1a_u64(&mut h, self.edge as u64);
        crate::cache::fnv1a_u64(&mut h, self.packing as u64);
        crate::cache::fnv1a_u64(&mut h, self.isa.fp_code());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> CacheParams {
        CacheParams {
            l1: 32 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 0,
        }
    }

    #[test]
    fn small_square_is_small() {
        assert_eq!(classify(64, 64, 64, 4, &cache()), ShapeClass::Small);
        assert_eq!(classify(8, 8, 8, 8, &cache()), ShapeClass::Small);
    }

    #[test]
    fn tall_skinny_is_irregular() {
        assert_eq!(classify(64, 50176, 576, 4, &cache()), ShapeClass::Irregular);
        assert_eq!(classify(50176, 64, 576, 4, &cache()), ShapeClass::Irregular);
        assert_eq!(
            classify(32, 10000, 5000, 4, &cache()),
            ShapeClass::Irregular
        );
    }

    #[test]
    fn large_square_is_regular() {
        assert_eq!(classify(4096, 4096, 4096, 4, &cache()), ShapeClass::Regular);
    }

    #[test]
    fn similar_dims_never_irregular() {
        // 2048 x 1024: ratio 2 — regular (too big for the 2M LLC).
        assert_eq!(classify(2048, 1024, 1024, 4, &cache()), ShapeClass::Regular);
    }

    #[test]
    fn small_ratio_but_tiny_still_small() {
        // 8 x 120 has ratio 15 but hi < 1024: the small-GEMM machinery
        // (no packing, single thread) is the right treatment.
        assert_eq!(classify(8, 120, 64, 4, &cache()), ShapeClass::Small);
    }

    #[test]
    fn resolved_threads() {
        assert_eq!(GemmConfig::with_threads(3).resolved_threads(), 3);
        assert!(GemmConfig::with_threads(0).resolved_threads() >= 1);
    }

    #[test]
    fn fingerprint_changes_with_every_knob() {
        let base = GemmConfig {
            cache: cache(),
            threads: 1,
            edge: EdgeSchedule::Pipelined,
            packing: PackingPolicy::Auto,
            isa: IsaPolicy::Auto,
        };
        // Equal configs fingerprint equal (and the value is a stable
        // function of the knobs, not of address or process state).
        assert_eq!(base.fingerprint(), { base }.fingerprint());
        // Every knob flip lands on a distinct fingerprint.
        let variants = [
            base,
            GemmConfig {
                edge: EdgeSchedule::Batched,
                ..base
            },
            GemmConfig {
                packing: PackingPolicy::AlwaysFused,
                ..base
            },
            GemmConfig {
                packing: PackingPolicy::AlwaysSequential,
                ..base
            },
            GemmConfig {
                packing: PackingPolicy::Never,
                ..base
            },
            GemmConfig {
                cache: CacheParams {
                    l1: base.cache.l1 * 2,
                    ..base.cache
                },
                ..base
            },
            GemmConfig {
                cache: CacheParams {
                    l2: base.cache.l2 + 4096,
                    ..base.cache
                },
                ..base
            },
            GemmConfig {
                cache: CacheParams {
                    l3: base.cache.l3 + 1,
                    ..base.cache
                },
                ..base
            },
            GemmConfig {
                isa: IsaPolicy::Force(Isa::Sse128),
                ..base
            },
            GemmConfig {
                isa: IsaPolicy::Force(Isa::Avx512W512),
                ..base
            },
        ];
        let fps: std::collections::HashSet<u64> =
            variants.iter().map(GemmConfig::fingerprint).collect();
        assert_eq!(fps.len(), variants.len(), "fingerprint collision: {fps:?}");
        // Thread count is keyed separately by the plan cache, not here.
        assert_eq!(
            base.fingerprint(),
            GemmConfig { threads: 7, ..base }.fingerprint()
        );
    }

    #[test]
    fn requested_isa_resolves_safely() {
        // Auto is the probe's best answer; forcing something this host
        // supports pins it; forcing something it cannot execute degrades
        // to the compile-time base instead of faulting.
        let auto = GemmConfig::default();
        assert_eq!(auto.requested_isa(), caps::best_isa());
        assert!(caps::supported(auto.requested_isa()));
        let base = GemmConfig {
            isa: IsaPolicy::Force(caps::base_isa()),
            ..GemmConfig::default()
        };
        assert_eq!(base.requested_isa(), caps::base_isa());
        // The other architecture's 128-bit level is never supported here,
        // so it must degrade.
        let other = if caps::base_isa() == Isa::Neon128 {
            Isa::Sse128
        } else {
            Isa::Neon128
        };
        let forced = GemmConfig {
            isa: IsaPolicy::Force(other),
            ..GemmConfig::default()
        };
        assert_eq!(forced.requested_isa(), caps::base_isa());
    }
}

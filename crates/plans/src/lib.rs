//! Override table + persistent profile store for the GEMM dispatch layer.
//!
//! The dispatch layer *computes* its plan on every call — that costs less
//! than any table hit (DESIGN §10.4 has the measurement that retired the
//! computed-plan memo this crate used to be). What cannot be recomputed
//! is a decision somebody measured: an autotune result, or a profile
//! tuned in an earlier process. This crate holds those **overrides** in a
//! concurrent lookup table and persists them, IAAT-style, as a versioned
//! file a later process reloads.
//!
//! The crate is deliberately dumb about GEMM itself — it stores opaque,
//! range-validated integers ([`ResolvedPlan`]) keyed by a stable signature
//! ([`PlanKey`]) and knows how to persist them as versioned JSON
//! ([`profile`]). The core crate owns the encoding of its enums into
//! those integers and the decision of when to consult the table.
//!
//! Concurrency model: [`PlanCache`] is one `RwLock<HashMap>`. Lookups
//! take the read lock and proceed in parallel; installs and clears take
//! the write lock. A `Relaxed` occupancy hint, stored under the write
//! lock, lets a caller skip the lookup altogether while nothing is
//! installed (the hint publishes no data — a stale read only costs one
//! call its override, or one probe of an empty table). The table is
//! bounded at [`MAX_OVERRIDES`]; an install past the bound is refused
//! whole rather than evicting what is resident.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
pub mod profile;

pub use cache::{CacheStats, PlanCache, MAX_OVERRIDES};
pub use profile::{ProfileError, PROFILE_VERSION};

/// Stable signature of one GEMM dispatch: everything that influences the
/// resolved plan. Two calls with equal keys are guaranteed (by the core
/// crate's construction of `config_fp`) to resolve to the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Element width in bits (32 for f32, 64 for f64).
    pub elem_bits: u8,
    /// ISA level the plan was resolved for (the core crate's stable
    /// `Isa::code()`: 0 scalar, 1 sse2, 2 neon, 3 avx2, 4 avx512). Plans
    /// made for one vector width never collide with another's.
    pub isa: u8,
    /// Op on A: `b'N'` or `b'T'`.
    pub op_a: u8,
    /// Op on B: `b'N'` or `b'T'`.
    pub op_b: u8,
    /// Rows of C.
    pub m: u64,
    /// Columns of C.
    pub n: u64,
    /// Inner dimension.
    pub k: u64,
    /// Resolved worker count the plan was made for (1 = serial plan).
    pub threads: u32,
    /// Fingerprint of every dispatch-relevant configuration knob
    /// (cache geometry, packing policy, edge schedule, runtime).
    pub config_fp: u64,
}

impl PlanKey {
    /// Rejects keys that could not have been produced by the library
    /// (bad op bytes, zero threads, unknown element width). Used when
    /// ingesting profiles from disk.
    pub fn validate(&self) -> Result<(), String> {
        if self.elem_bits != 32 && self.elem_bits != 64 {
            return Err(format!("elem_bits {} not 32/64", self.elem_bits));
        }
        if self.isa > 4 {
            return Err(format!("isa code {} unknown", self.isa));
        }
        for (label, op) in [("op_a", self.op_a), ("op_b", self.op_b)] {
            if op != b'N' && op != b'T' {
                return Err(format!("{label} byte {op} not 'N'/'T'"));
            }
        }
        if self.threads == 0 {
            return Err("threads 0".to_string());
        }
        Ok(())
    }
}

/// A fully resolved dispatch plan, encoded as range-checked integers so
/// it can round-trip through JSON without this crate depending on the
/// core crate's enums. The `class` / `b_plan` / `edge` discriminants
/// mirror the core crate's `ShapeClass` / `BPlan` / `EdgeSchedule`
/// declaration order and are part of the on-disk profile format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedPlan {
    /// Shape class: 0 small, 1 irregular, 2 regular (§2.1).
    pub class: u8,
    /// B packing plan: 0 direct, 1 fused, 2 fused-lookahead,
    /// 3 sequential (§4).
    pub b_plan: u8,
    /// Edge micro-kernel schedule: 0 pipelined, 1 batched (§5.4).
    pub edge: u8,
    /// Panel depth `kc` (elements).
    pub kc: u32,
    /// Row block `mc` (elements).
    pub mc: u32,
    /// Column block `nc` (elements).
    pub nc: u32,
    /// §6 thread grid rows (1 for serial plans).
    pub tm: u16,
    /// §6 thread grid columns (1 for serial plans).
    pub tn: u16,
    /// Workspace footprint the plan implies, in bytes (informational).
    pub workspace_bytes: u64,
}

impl ResolvedPlan {
    /// Rejects plans whose fields are outside the ranges the dispatch
    /// layer can ever produce, so a corrupt or hand-edited profile can
    /// never smuggle in a zero blocking factor (infinite loop) or an
    /// absurd one (multi-gigabyte packing buffer).
    pub fn validate(&self) -> Result<(), String> {
        if self.class > 2 {
            return Err(format!("class {} out of range", self.class));
        }
        if self.b_plan > 3 {
            return Err(format!("b_plan {} out of range", self.b_plan));
        }
        if self.edge > 1 {
            return Err(format!("edge {} out of range", self.edge));
        }
        if self.kc == 0 || self.kc > 1 << 13 {
            return Err(format!("kc {} out of range", self.kc));
        }
        if self.mc == 0 || self.mc > 1 << 16 {
            return Err(format!("mc {} out of range", self.mc));
        }
        if self.nc == 0 || self.nc > 1 << 20 {
            return Err(format!("nc {} out of range", self.nc));
        }
        if self.tm == 0 || self.tn == 0 {
            return Err("thread grid dimension 0".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn key(i: u64) -> PlanKey {
        PlanKey {
            elem_bits: 32,
            isa: 1,
            op_a: b'N',
            op_b: b'N',
            m: 8 + i,
            n: 8 + i,
            k: 8 + i,
            threads: 1,
            config_fp: 0x5ca1_ab1e,
        }
    }

    pub(crate) fn plan(i: u64) -> ResolvedPlan {
        ResolvedPlan {
            class: 0,
            b_plan: (i % 4) as u8,
            edge: 0,
            kc: 256,
            mc: 84,
            nc: 3072,
            tm: 1,
            tn: 1,
            workspace_bytes: 1024 + i,
        }
    }

    #[test]
    fn key_validation() {
        assert!(key(0).validate().is_ok());
        assert!(PlanKey {
            elem_bits: 16,
            ..key(0)
        }
        .validate()
        .is_err());
        assert!(PlanKey {
            op_a: b'X',
            ..key(0)
        }
        .validate()
        .is_err());
        assert!(PlanKey { op_b: 0, ..key(0) }.validate().is_err());
        assert!(PlanKey {
            threads: 0,
            ..key(0)
        }
        .validate()
        .is_err());
        // Every shipped ISA code is accepted; unknown codes are not.
        for isa in 0..=4u8 {
            assert!(PlanKey { isa, ..key(0) }.validate().is_ok());
        }
        assert!(PlanKey { isa: 5, ..key(0) }.validate().is_err());
    }

    #[test]
    fn keys_differing_only_in_isa_never_collide() {
        // The tentpole guarantee in miniature: a plan resolved under one
        // vector width can never be served for another.
        let base = key(0);
        for isa in 0..=4u8 {
            for other in 0..=4u8 {
                let ka = PlanKey { isa, ..base };
                let kb = PlanKey { isa: other, ..base };
                assert_eq!(ka == kb, isa == other);
            }
        }
    }

    #[test]
    fn plan_validation() {
        assert!(plan(0).validate().is_ok());
        assert!(ResolvedPlan {
            class: 3,
            ..plan(0)
        }
        .validate()
        .is_err());
        assert!(ResolvedPlan {
            b_plan: 4,
            ..plan(0)
        }
        .validate()
        .is_err());
        assert!(ResolvedPlan { edge: 2, ..plan(0) }.validate().is_err());
        assert!(ResolvedPlan { kc: 0, ..plan(0) }.validate().is_err());
        assert!(ResolvedPlan {
            kc: 1 << 14,
            ..plan(0)
        }
        .validate()
        .is_err());
        assert!(ResolvedPlan { mc: 0, ..plan(0) }.validate().is_err());
        assert!(ResolvedPlan {
            nc: 1 << 21,
            ..plan(0)
        }
        .validate()
        .is_err());
        assert!(ResolvedPlan { tm: 0, ..plan(0) }.validate().is_err());
    }
}

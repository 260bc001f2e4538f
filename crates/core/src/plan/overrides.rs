//! The override table: plans installed by autotune or a loaded profile,
//! keyed by the signature they were resolved for.
//!
//! A decision somebody measured — an autotune result, or a profile tuned
//! in an earlier process — cannot be recomputed, so [`PlanCache`] holds
//! it as an override of the computed plan, and `profile` persists it
//! IAAT-style as a versioned file a later process reloads.
//!
//! Concurrency model: [`PlanCache`] is one `RwLock<HashMap>`. Lookups
//! take the read lock and proceed in parallel; installs and clears take
//! the write lock. A `Relaxed` occupancy hint, stored under the write
//! lock, lets a caller skip the lookup altogether while nothing is
//! installed (the hint publishes no data — a stale read only costs one
//! call its override, or one probe of an empty table). The table is
//! bounded at [`MAX_OVERRIDES`]; an install past the bound is refused
//! whole rather than evicting what is resident.
//!
//! shalom-analysis: deny(panic)
//!
//! A lookup is a read-lock + hash probe on the dispatch path, reached only while the table is non-empty; lock poisoning is absorbed (entries are Copy), never unwrapped.

use shalom_matrix::Op;
use shalom_simd::caps::Isa;
use shalom_trace::{BPlan, EdgeSchedule, ShapeClass};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{LockResult, RwLock};

/// Stable signature of one GEMM dispatch: everything that influences the
/// resolved plan. Two calls with equal keys resolve to the same plan
/// (`config_fp` covers every dispatch-relevant configuration knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Element width in bits (32 for f32, 64 for f64).
    pub elem_bits: u8,
    /// ISA level the plan was resolved for: plans made for one vector
    /// width never collide with another's.
    pub isa: Isa,
    /// Op on A.
    pub op_a: Op,
    /// Op on B.
    pub op_b: Op,
    /// Rows of C.
    pub m: u64,
    /// Columns of C.
    pub n: u64,
    /// Inner dimension.
    pub k: u64,
    /// Resolved worker count the plan was made for (1 = serial plan).
    pub threads: u32,
    /// Fingerprint of every dispatch-relevant configuration knob
    /// (cache geometry, packing policy, edge schedule, ISA policy).
    pub config_fp: u64,
}

impl PlanKey {
    /// Rejects keys that could not have been produced by the library
    /// (zero threads, unknown element width). Used when ingesting
    /// profiles from disk.
    pub fn validate(&self) -> Result<(), String> {
        if self.elem_bits != 32 && self.elem_bits != 64 {
            return Err(format!("elem_bits {} not 32/64", self.elem_bits));
        }
        if self.threads == 0 {
            return Err("threads 0".to_string());
        }
        Ok(())
    }
}

/// A fully resolved dispatch plan as the override table stores it and a
/// profile file persists it: the §2.1/§4/§5.4 decisions, the §5.5
/// blocking and the §6 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedPlan {
    /// Shape class (§2.1).
    pub class: ShapeClass,
    /// B packing plan (§4).
    pub b_plan: BPlan,
    /// Edge micro-kernel schedule (§5.4).
    pub edge: EdgeSchedule,
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
    /// Rejects blocking and grid values outside the ranges the dispatch
    /// layer can ever produce, so a corrupt or hand-edited profile can
    /// never smuggle in a zero blocking factor (infinite loop) or an
    /// absurd one (multi-gigabyte packing buffer).
    pub fn validate(&self) -> Result<(), String> {
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

/// Multiply-rotate hasher (FxHash-style) for the override map. Keys are
/// fixed-size integers under the caller's control — not attacker-chosen
/// strings — so SipHash's collision-DoS resistance buys nothing here,
/// while its ~100 ns per 40-byte key would dominate a profile-served
/// lookup on the small-GEMM dispatch path.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn fold_word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

/// [`PlanKey`]'s derived `Hash` writes integers only: a `u8` (and the
/// `u8` discriminant of [`Isa`]) goes through the byte-slice form, the
/// discriminant of [`Op`] through `write_usize`.
impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.fold_word(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold_word(i as u64);
    }
}

type Map = HashMap<PlanKey, ResolvedPlan, BuildHasherDefault<FxHasher>>;

/// Most overrides the table admits (under 1 MiB of entries). An install that
/// would pass it is refused whole: resident overrides are never dropped for room.
pub const MAX_OVERRIDES: usize = 4096;

/// Lookup counters since process start, plus residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an override.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Overrides currently resident.
    pub entries: usize,
}

/// The concurrent override table: one `RwLock<HashMap>` bounded to
/// [`MAX_OVERRIDES`] entries, and a lock-free occupancy hint so callers
/// can skip the lookup — key and all — while nothing is installed.
#[derive(Default)]
pub struct PlanCache {
    map: RwLock<Map>,
    /// `map.len()`, stored under the write lock after every mutation.
    resident: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Takes the guard even if a writer panicked mid-update: entries are
/// `Copy` and inserted whole, so a poisoned map is still coherent.
fn absorb<G>(locked: LockResult<G>) -> G {
    locked.unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl PlanCache {
    /// Whether no override is resident, without taking the lock — the
    /// gate the dispatch path checks before it builds a key.
    // ORDERING(SHALOM-O-PLAN-FLAG): Relaxed occupancy hint. An install that
    // happens-before this load is seen by coherence; a racing one may read
    // stale, which only makes this call compute its plan or probe an empty
    // table. Entry data is ordered by the RwLock, never by the hint.
    pub fn is_empty(&self) -> bool {
        self.resident.load(Ordering::Relaxed) == 0
    }

    /// Looks up the override for `key`. Counts a hit or a miss.
    // ORDERING(SHALOM-O-CACHE-STATS): Relaxed monotonic counters; entry data is
    // ordered by the RwLock, never by these stats.
    // ALLOC-FREE
    pub fn get(&self, key: &PlanKey) -> Option<ResolvedPlan> {
        let found = absorb(self.map.read()).get(key).copied();
        let counter = match found {
            Some(_) => &self.hits,
            None => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Installs every entry as an override, overwriting resident entries
    /// under the same keys — or, if the new keys would take the table past
    /// [`MAX_OVERRIDES`], installs none and returns `false`. Entries
    /// repeating a key within `entries` each count as new.
    pub fn install_all(&self, entries: &[(PlanKey, ResolvedPlan)]) -> bool {
        let mut map = absorb(self.map.write());
        let new = entries
            .iter()
            .filter(|(key, _)| !map.contains_key(key))
            .count();
        if map.len() + new > MAX_OVERRIDES {
            return false;
        }
        map.extend(entries.iter().copied());
        // ORDERING(SHALOM-O-PLAN-FLAG): Relaxed mirror of `map.len()`, stored
        // under the write lock, so in the order of the mutations it counts.
        self.resident.store(map.len(), Ordering::Relaxed);
        true
    }

    /// Drops every override. The lookup counters are preserved.
    pub fn clear(&self) {
        let mut map = absorb(self.map.write());
        map.clear();
        // ORDERING(SHALOM-O-PLAN-FLAG): Relaxed under the write lock, as above.
        self.resident.store(0, Ordering::Relaxed);
    }

    /// Snapshot of every resident override (what `save_profile` persists).
    pub fn entries(&self) -> Vec<(PlanKey, ResolvedPlan)> {
        let map = absorb(self.map.read());
        map.iter().map(|(key, plan)| (*key, *plan)).collect()
    }

    /// Counters plus current residency.
    // ORDERING(SHALOM-O-CACHE-STATS): Relaxed loads — skew between the
    // counters is fine in a reporting snapshot.
    // ORDERING(SHALOM-O-PLAN-FLAG): the residency is the same racy hint.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.resident.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{key, plan};

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
            threads: 0,
            ..key(0)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn keys_differing_only_in_isa_never_collide() {
        // A plan resolved under one vector width can never be served for
        // another.
        let isas = || (0..=4).filter_map(Isa::from_code);
        for isa in isas() {
            for other in isas() {
                let ka = PlanKey { isa, ..key(0) };
                let kb = PlanKey {
                    isa: other,
                    ..key(0)
                };
                assert_eq!(ka == kb, isa == other);
            }
        }
    }

    #[test]
    fn plan_validation() {
        assert!(plan(0).validate().is_ok());
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

    #[test]
    fn empty_then_installed_then_cleared() {
        let c = PlanCache::default();
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
        assert!(c.install_all(&[(key(1), plan(1))]));
        assert!(!c.is_empty());
        assert_eq!(c.get(&key(1)), Some(plan(1)));
        assert!(c.get(&key(2)).is_none());
        // A second install under the key overwrites and does not grow.
        assert!(c.install_all(&[(key(1), plan(2))]));
        assert_eq!(c.get(&key(1)), Some(plan(2)));
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.entries), (2, 2, 1));
        c.clear();
        assert!(c.is_empty() && c.entries().is_empty());
        assert_eq!(c.stats().hits, 2, "clear keeps the counters");
    }

    #[test]
    fn a_full_table_refuses_and_keeps_every_override() {
        let c = PlanCache::default();
        let fill: Vec<_> = (0..MAX_OVERRIDES as u64 - 1)
            .map(|i| (key(i), plan(i)))
            .collect();
        assert!(c.install_all(&fill));
        // Two new keys do not fit in the one free slot: neither lands.
        assert!(!c.install_all(&[(key(10_000), plan(1)), (key(10_001), plan(2))]));
        assert_eq!(c.stats().entries, MAX_OVERRIDES - 1);
        assert!(c.get(&key(10_000)).is_none());
        // One does; then the table is full and only overwrites pass.
        assert!(c.install_all(&[(key(10_000), plan(1))]));
        assert!(!c.install_all(&[(key(10_001), plan(2))]));
        assert!(c.install_all(&[(key(0), plan(3))]));
        assert!(c.install_all(&[(key(1), plan(3)), (key(10_000), plan(3))]));
        assert_eq!(c.stats().entries, MAX_OVERRIDES);
        for (i, _) in &fill[2..] {
            assert!(c.get(i).is_some(), "a refusal dropped {i:?}");
        }
        assert_eq!(c.get(&key(0)), Some(plan(3)));
    }
}

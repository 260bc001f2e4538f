//! The override table: plans installed by autotune or a loaded profile.
//!
//! shalom-analysis: deny(panic)
//!
//! A lookup is a read-lock + hash probe on the dispatch path, reached only while the table is non-empty; lock poisoning is absorbed (entries are Copy), never unwrapped.

use crate::{PlanKey, ResolvedPlan};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{LockResult, RwLock};

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

/// [`PlanKey`]'s derived `Hash` writes integers only; a `u8` goes through the byte-slice form.
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
    use crate::tests::{key, plan};

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

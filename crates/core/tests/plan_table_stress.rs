//! Concurrency stress for the override table: readers gating on the
//! occupancy hint and probing overlapping signatures while other threads
//! install overrides and clear the table, all on the one lock. Run in CI
//! under ThreadSanitizer (see `.github/workflows/ci.yml`); the in-process
//! assertions check that the table stays coherent — no reader sees a torn
//! entry, the counters account for every lookup, and the hint agrees with
//! the map whenever the reader has synchronised with the writer.

use shalom_core::plan::PlanCache;
use shalom_core::{BPlan, EdgeSchedule, Isa, Op, PlanKey, ResolvedPlan, ShapeClass};
use std::thread;

fn key(i: u64) -> PlanKey {
    PlanKey {
        elem_bits: if i.is_multiple_of(2) { 32 } else { 64 },
        isa: Isa::from_code((i % 5) as u8).unwrap(),
        op_a: if i.is_multiple_of(3) {
            Op::Trans
        } else {
            Op::NoTrans
        },
        op_b: if i.is_multiple_of(5) {
            Op::Trans
        } else {
            Op::NoTrans
        },
        m: 1 + i % 97,
        n: 1 + i % 89,
        k: 1 + i % 83,
        threads: 1 + (i % 4) as u32,
        config_fp: 0xfeed_beef ^ (i / 701),
    }
}

/// Every field a function of `i`, and `i` itself in `workspace_bytes`:
/// an entry assembled from two different installs cannot pass
/// `p == plan(p.workspace_bytes)`.
fn plan(i: u64) -> ResolvedPlan {
    ResolvedPlan {
        class: ShapeClass::ALL[(i % 3) as usize],
        b_plan: BPlan::ALL[i as usize % BPlan::ALL.len()],
        edge: EdgeSchedule::ALL[(i % 2) as usize],
        kc: 32 + (i % 480) as u32,
        mc: 7 + (i % 1000) as u32,
        nc: 12 + (i % 4000) as u32,
        tm: 1 + (i % 4) as u16,
        tn: 1 + (i % 2) as u16,
        workspace_bytes: i,
    }
}

const KEYS: u64 = 64;

#[test]
fn concurrent_get_install_and_clear() {
    const READERS: u64 = 6;
    const OPS: u64 = 20_000;

    let cache = PlanCache::default();
    let mut local_lookups = 0u64;

    thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..READERS {
            let cache = &cache;
            handles.push(s.spawn(move || {
                let mut lookups = 0u64;
                for i in 0..OPS {
                    // The dispatch path's discipline: the hint gates the
                    // lookup. A stale answer either way is harmless.
                    if cache.is_empty() {
                        continue;
                    }
                    let slot = (i + t * 13) % (2 * KEYS);
                    lookups += 1;
                    if let Some(p) = cache.get(&key(slot)) {
                        // Installed whole, under this key, by someone.
                        assert_eq!(p, plan(p.workspace_bytes), "torn entry");
                        assert_eq!(p.workspace_bytes % KEYS, slot);
                        p.validate().unwrap();
                    }
                }
                lookups
            }));
        }
        let installer = s.spawn(|| {
            for i in 0..2_000u64 {
                // Singly, and as the all-or-nothing pair a tuned install is.
                assert!(cache.install_all(&[(key(i % KEYS), plan(i))]));
                let j = i + KEYS / 2;
                assert!(cache.install_all(&[(key(j % KEYS), plan(j)), (key(i % KEYS), plan(i))]));
            }
        });
        let clearer = s.spawn(|| {
            for _ in 0..200 {
                cache.clear();
                thread::yield_now();
            }
        });
        for h in handles {
            local_lookups += h.join().unwrap();
        }
        installer.join().unwrap();
        clearer.join().unwrap();
    });

    let st = cache.stats();
    // Every lookup was counted exactly once, as either a hit or a miss.
    assert_eq!(st.hits + st.misses, local_lookups);
    // Quiescent, the hint is the map's size.
    let entries = cache.entries();
    assert_eq!(st.entries, entries.len());
    assert_eq!(cache.is_empty(), entries.is_empty());
    // Whatever survived the churn is a well-formed entry under its key.
    for (k, p) in entries {
        k.validate().unwrap();
        p.validate().unwrap();
        assert_eq!(cache.get(&k), Some(p));
    }
}

#[test]
fn the_hint_is_never_zero_while_a_published_entry_is_resident() {
    // An override installed before a reader's last synchronisation with
    // the installer (here: its spawn) is one the reader must be served:
    // with no clear in flight, the hint never reads 0 and the entry never
    // goes missing, however many installs race the reads.
    let cache = PlanCache::default();
    let resident = KEYS + 7;
    assert!(cache.install_all(&[(key(resident), plan(resident))]));
    thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..20_000 {
                    assert!(!cache.is_empty(), "stale 0 after synchronisation");
                    assert_eq!(cache.get(&key(resident)), Some(plan(resident)));
                }
            });
        }
        s.spawn(|| {
            for i in 0..5_000u64 {
                assert!(cache.install_all(&[(key(i % KEYS), plan(i))]));
            }
        });
    });
    assert_eq!(cache.stats().entries, KEYS as usize + 1);
}

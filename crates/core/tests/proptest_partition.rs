//! Property and edge-case tests for the §6 thread-partitioning rule
//! (`partition_threads`) and the `mr`/`nr`-quantized block splitter it
//! feeds (`quantized_chunk`).
#![recursion_limit = "256"]

use proptest::prelude::*;
use shalom_core::{partition_threads, quantized_chunk};

/// Every chunk of the split, in order.
fn quantized_chunks(len: usize, parts: usize, quantum: usize) -> Vec<(usize, usize)> {
    let chunk = |p| quantized_chunk(len, parts, quantum, p);
    (0..parts).map(chunk).collect()
}

/// The paper's §6.1 worked example: `M = 2048`, `N = 256`, `T = 64`
/// gives `Tn = ceil(sqrt(64*256/2048)) = ceil(sqrt(8)) = 3`, rounded up
/// to the nearest divisor of 64 -> `Tn = 4`, `Tm = 16`.
#[test]
fn paper_worked_example() {
    assert_eq!(partition_threads(64, 2048, 256), (16, 4));
}

/// Prime thread counts only have divisors {1, t}: the grid must collapse
/// to a row or column split, never lose workers.
#[test]
fn prime_thread_counts() {
    for t in [2usize, 3, 5, 7, 11, 13, 17, 19, 23, 31, 61, 127] {
        for &(m, n) in &[(64usize, 50176usize), (50176, 64), (1000, 1000), (7, 7)] {
            let (tm, tn) = partition_threads(t, m, n);
            assert_eq!(tm * tn, t, "t={t} m={m} n={n}");
            assert!(
                (tm == 1 && tn == t) || (tm == t && tn == 1),
                "prime t={t} must split one way: got ({tm}, {tn})"
            );
        }
    }
    // Strongly column-heavy shape with prime t splits along N.
    assert_eq!(partition_threads(7, 64, 50176), (1, 7));
    // Strongly row-heavy shape splits along M.
    assert_eq!(partition_threads(7, 50176, 64), (7, 1));
}

/// Degenerate output dimensions must not panic or divide by zero, and
/// must still produce a full grid.
#[test]
fn degenerate_m_or_n() {
    for t in [1usize, 2, 8, 64] {
        for &(m, n) in &[(0usize, 100usize), (100, 0), (0, 0), (1, 1)] {
            let (tm, tn) = partition_threads(t, m, n);
            assert_eq!(tm * tn, t, "t={t} m={m} n={n}");
        }
    }
    // M = 0 short-circuits to a pure column split.
    assert_eq!(partition_threads(8, 0, 100), (1, 8));
}

/// One thread is always the identity grid.
#[test]
fn single_thread() {
    for &(m, n) in &[(1usize, 1usize), (0, 0), (50176, 64)] {
        assert_eq!(partition_threads(1, m, n), (1, 1));
    }
}

proptest! {
    // Eq. 4 invariant: the grid always uses exactly `t` workers, and
    // `tn` is at least the analytic lower bound's ceiling clamped to a
    // divisor (weaker check: tn divides t and 1 <= tn <= t).
    #[test]
    fn grid_multiplies_to_t(
        t in 1usize..=256,
        m in 1usize..=60_000,
        n in 1usize..=60_000,
    ) {
        let (tm, tn) = partition_threads(t, m, n);
        prop_assert_eq!(tm * tn, t);
        prop_assert!(tn >= 1 && tn <= t);
        prop_assert_eq!(t % tn, 0);
    }

    // Eq. 3 optimality: the chosen `tn` minimizes the CMR denominator
    // `M*Tn + N*(T/Tn)` over *all* divisors of `t` — not merely the
    // nearest divisor above the analytic optimum (ties break toward the
    // larger `tn`, matching the paper's §6.1 worked example).
    #[test]
    fn tn_minimizes_cmr_over_all_divisors(
        t in 2usize..=128,
        m in 1usize..=20_000,
        n in 1usize..=20_000,
    ) {
        let (_, tn) = partition_threads(t, m, n);
        let denom = |d: usize| (m as u128) * (d as u128) + (n as u128) * ((t / d) as u128);
        let chosen = denom(tn);
        for d in 1..=t {
            if t.is_multiple_of(d) {
                // Strictly better divisors must not exist; an equal one
                // may, but only below the chosen tn (ties break up).
                prop_assert!(
                    chosen < denom(d) || tn >= d,
                    "divisor {d} beats chosen tn={tn}: {} <= {chosen} (t={t} m={m} n={n})",
                    denom(d)
                );
            }
        }
    }

    // Chunks cover the range exactly, in order, with every interior
    // boundary on a quantum (`mr` / `nr`) multiple — the §6 guarantee
    // that partitioning creates no new edge cases.
    #[test]
    fn chunks_cover_and_quantize(
        len in 0usize..=100_000,
        parts in 1usize..=64,
        quantum in 1usize..=16,
    ) {
        let chunks = quantized_chunks(len, parts, quantum);
        prop_assert_eq!(chunks.len(), parts);
        let mut pos = 0usize;
        for &(start, clen) in &chunks {
            if clen > 0 {
                prop_assert_eq!(start, pos, "gap or overlap at {start}");
                prop_assert_eq!(start % quantum, 0);
                pos = start + clen;
            }
        }
        prop_assert_eq!(pos, len, "chunks must cover len exactly");
        // Every chunk except the global tail is a quantum multiple.
        let mut seen_tail = false;
        for &(_, clen) in chunks.iter().rev() {
            if clen == 0 {
                continue;
            }
            if !seen_tail {
                seen_tail = true; // the tail may carry the remainder
            } else {
                prop_assert_eq!(clen % quantum, 0);
            }
        }
    }

    // Composing the two: a full §6 partition of an `m x n` output at
    // the real register-tile quanta (mr = 7, nr = 12) assigns every
    // element exactly once.
    #[test]
    fn full_partition_covers_output(
        t in 1usize..=32,
        m in 1usize..=2_000,
        n in 1usize..=2_000,
    ) {
        let (tm, tn) = partition_threads(t, m, n);
        let rows = quantized_chunks(m, tm, 7);
        let cols = quantized_chunks(n, tn, 12);
        let row_total: usize = rows.iter().map(|&(_, l)| l).sum();
        let col_total: usize = cols.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(row_total, m);
        prop_assert_eq!(col_total, n);
        prop_assert_eq!(rows.len() * cols.len(), t);
    }
}

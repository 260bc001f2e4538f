//! Log2-bucketed latency histograms, one per shape class.

use crate::decision::ShapeClass;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: bucket `i` holds samples with
/// `2^i <= ns < 2^(i+1)` (bucket 0 also catches 0 ns). 48 buckets cover
/// spans up to ~78 hours.
pub const HIST_BUCKETS: usize = 48;

fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Atomic histogram bank: one histogram per [`ShapeClass`].
pub struct ClassHistograms {
    buckets: [[AtomicU64; HIST_BUCKETS]; ShapeClass::ALL.len()],
}

impl ClassHistograms {
    pub fn new() -> Self {
        ClassHistograms {
            buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Record one dispatch wall time for `class`.
    #[inline]
    // ORDERING(SHALOM-O-HIST): Relaxed bucket add; snapshots tolerate skew.
    pub fn observe(&self, class: ShapeClass, total_ns: u64) {
        self.buckets[class.index()][bucket_of(total_ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-integer copy, indexed by [`ShapeClass::index`].
    // ORDERING(SHALOM-O-HIST): Relaxed reads — a racy cross-bucket snapshot is
    // the documented contract.
    pub fn snapshot(&self) -> [Histogram; ShapeClass::ALL.len()] {
        std::array::from_fn(|c| Histogram {
            buckets: std::array::from_fn(|b| self.buckets[c][b].load(Ordering::Relaxed)),
        })
    }

    /// Zero every bucket.
    // ORDERING(SHALOM-O-HIST): Relaxed zeroing between measurement phases.
    pub fn clear(&self) {
        for class in &self.buckets {
            for b in class {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

impl Default for ClassHistograms {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot of one class's latency distribution.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `2^i <= ns < 2^(i+1)`.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Histogram {
    /// Total samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Lower bound of the bucket containing the q-quantile (0..=1), in
    /// nanoseconds; `None` when empty. Log2 buckets make this exact to
    /// within a factor of two, which is all a decision trace needs.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << (HIST_BUCKETS - 1))
    }

    /// Sparse JSON object mapping bucket floor (ns) to count.
    pub fn to_json(&self) -> String {
        let body = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, c)| format!("\"{}\":{}", 1u64 << i, c))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn observe_and_quantile() {
        let h = ClassHistograms::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.observe(ShapeClass::Small, ns);
        }
        let snap = h.snapshot();
        let small = &snap[ShapeClass::Small.index()];
        assert_eq!(small.count(), 5);
        assert_eq!(snap[ShapeClass::Regular.index()].count(), 0);
        // Median sample is 400 ns -> bucket floor 256.
        assert_eq!(small.quantile_ns(0.5), Some(256));
        assert_eq!(small.quantile_ns(1.0), Some(65_536));
        assert_eq!(snap[ShapeClass::Regular.index()].quantile_ns(0.5), None);
        let j = small.to_json();
        assert!(j.contains("\"64\":1"), "{j}");
        assert!(j.contains("\"65536\":1"), "{j}");
        h.clear();
        assert_eq!(h.snapshot()[0].count(), 0);
    }
}

//! Order statistics the benchmark reports: medians with quartiles,
//! geometric means over cells, and windowed tail percentiles.

/// Median, quartiles and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of `values` (sorted in place). All zero when empty.
    pub fn of(values: &mut [f64]) -> Self {
        values.sort_unstable_by(f64::total_cmp);
        Summary {
            median: quantile(values, 0.5),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
            n: values.len(),
        }
    }

    /// The number reported for a set of *time* samples: their lower
    /// quartile. On a shared host interference comes in episodes and only
    /// ever adds time, so the fastest quarter is the least disturbed; over
    /// ten runs in a noisy spell it repeated twice as closely as the
    /// median did (see README, "Noise"). A change that slows every call
    /// moves every quantile alike.
    pub fn undisturbed_time(&self) -> f64 {
        self.q1
    }

    /// The same for *rate* samples, where disturbed means lower.
    pub fn undisturbed_rate(&self) -> f64 {
        self.q3
    }

    /// A single reading: no spread.
    pub fn point(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Applies `f` to the three statistics. A decreasing `f` (time to
    /// rate) swaps the quartiles so `q1 <= q3` still holds.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary {
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }

    /// Interquartile range over the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quantile `q` of ascending `sorted`, linearly interpolated between the
/// two nearest ranks. 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile of unsorted values (copied, then sorted).
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    quantile(&v, q)
}

/// Geometric mean; 0 when empty or when any value is not positive.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for v in values {
        if v <= 0.0 {
            return 0.0;
        }
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Geometric mean of per-cell summaries, statistic by statistic; `n` is
/// the smallest cell count (the weakest cell bounds the trust).
pub fn geomean_summary(cells: &[Summary]) -> Summary {
    Summary {
        median: geomean(cells.iter().map(|s| s.median)),
        q1: geomean(cells.iter().map(|s| s.q1)),
        q3: geomean(cells.iter().map(|s| s.q3)),
        n: cells.iter().map(|s| s.n).min().unwrap_or(0),
    }
}

/// The p99 of each whole `window_ns` window of `(time_ns, value)`
/// samples, in window order. Windows with fewer than 100 samples have no
/// p99 worth the name and are skipped, as is the trailing partial window.
pub fn windowed_p99(samples: &[(u64, f64)], window_ns: u64, span_ns: u64) -> Vec<f64> {
    let windows = (span_ns / window_ns.max(1)) as usize;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        if let Some(b) = buckets.get_mut((t / window_ns.max(1)) as usize) {
            b.push(v);
        }
    }
    buckets
        .into_iter()
        .filter(|b| b.len() >= 100)
        .map(|b| quantile_of(&b, 0.99))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_on_known_vectors() {
        let s = Summary::of(&mut [5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        let s = Summary::of(&mut [4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3), (2.5, 1.75, 3.25));
        assert_eq!(Summary::of(&mut []).median, 0.0);
        assert_eq!(Summary::of(&mut [7.0]).q3, 7.0);
        assert!((s.spread() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn map_keeps_quartile_order_for_decreasing_functions() {
        let s = Summary::of(&mut [1.0, 2.0, 4.0]).map(|t| 8.0 / t);
        assert_eq!((s.q1, s.median, s.q3), (8.0 / 3.0, 4.0, 8.0 / 1.5));
    }

    #[test]
    fn geomean_known_values() {
        assert!((geomean([1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([1.0, 0.0]), 0.0);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn windowed_p99_known_vectors() {
        // Two full 1 s windows of 200 samples each and a partial third.
        let mut samples = Vec::new();
        for i in 0..200u64 {
            samples.push((i * 5_000_000, i as f64)); // window 0: 0..199
            samples.push((1_000_000_000 + i * 5_000_000, 1000.0 + i as f64));
        }
        samples.push((2_100_000_000, 9e9));
        let w = windowed_p99(&samples, 1_000_000_000, 2_500_000_000);
        assert_eq!(w.len(), 2);
        assert!((w[0] - 197.01).abs() < 1e-9, "{}", w[0]);
        assert!((w[1] - 1197.01).abs() < 1e-9, "{}", w[1]);
    }
}

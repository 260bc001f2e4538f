//! Seeded input generation: every operand, shuffle and arrival schedule
//! in the benchmark comes from a [`Rng`] built from `--seed`, so the same
//! seed gives the same inputs.

/// SplitMix64: small, fast, and good enough to fill operands.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` so that two users of
    /// the same seed (say operands and a shuffle) do not share values.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[-1, 1)`: centred operands keep dot products small, so
    /// `gemm_tolerance(k, 1.0)` holds at every `K` the workloads use.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn fill_f32(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.signed_unit() as f32).collect()
    }

    pub fn fill_f64(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.signed_unit()).collect()
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Cumulative Poisson arrival times in nanoseconds: `n` arrivals at
/// `rate_per_s`, exponential gaps.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, n: usize) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t -= mean_gap_ns * rng.unit().ln();
            t as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different() {
        let perm = |seed| Rng::new(seed, 7).permutation(1000);
        assert_eq!(perm(1), perm(1));
        assert_ne!(perm(1), perm(2));
        let sched = |seed| poisson_schedule(&mut Rng::new(seed, 9), 5000.0, 1000);
        assert_eq!(sched(1), sched(1));
        assert_ne!(sched(1), sched(2));
        // Streams of one seed are distinct too.
        assert_ne!(Rng::new(1, 1).fill_f32(16), Rng::new(1, 2).fill_f32(16));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(3, 0).permutation(257);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }

    #[test]
    fn schedule_rate_and_operand_range() {
        let s = poisson_schedule(&mut Rng::new(5, 0), 10_000.0, 20_000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let rate = 20_000.0 / (*s.last().unwrap() as f64 / 1e9);
        assert!((rate / 10_000.0 - 1.0).abs() < 0.05, "rate {rate}");
        assert!(Rng::new(5, 1)
            .fill_f64(4096)
            .iter()
            .all(|v| (-1.0..1.0).contains(v)));
    }
}

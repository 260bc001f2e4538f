//! The size grids of the paper's figures.

/// One GEMM problem shape, optionally labelled (VGG layer names etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Label printed in figure output (empty for synthetic sweeps).
    pub label: &'static str,
    /// Rows of C.
    pub m: usize,
    /// Columns of C.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
}

impl GemmShape {
    /// Unlabelled shape.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        Self { label: "", m, n, k }
    }

    /// Flop count (`2*M*N*K`).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Working-set bytes for element size `elem` (A + B + C).
    pub fn bytes(&self, elem: usize) -> usize {
        (self.m * self.k + self.k * self.n + self.m * self.n) * elem
    }
}

/// Figures 7/8: small square GEMMs, `M = N = K` from 8 to 120 step 8 —
/// "the typical matrix sizes seen in applications like SeisSol and
/// Nekbox" (§7.2).
pub fn small_square_sizes() -> Vec<GemmShape> {
    (8..=120)
        .step_by(8)
        .map(|s| GemmShape::new(s, s, s))
        .collect()
}

/// Figure 2a: the motivation sweep, `M = N = K` in powers of two from 8
/// to `max` (4096 in the paper; pass a smaller cap for quick runs).
pub fn motivation_sizes(max: usize) -> Vec<GemmShape> {
    let mut v = Vec::new();
    let mut s = 8;
    while s <= max {
        v.push(GemmShape::new(s, s, s));
        s *= 2;
    }
    v
}

/// Figures 11/15 (§8.6): the five VGG16 convolution GEMMs —
/// `M = {64, 128, 256, 512, 512}`, `N = {50176, 12544, 3136, 784, 196}`,
/// `K = {576, 1152, 2304, 4608, 4608}`.
pub fn vgg_layers() -> Vec<GemmShape> {
    vec![
        GemmShape {
            label: "VGG1.2",
            m: 64,
            n: 50176,
            k: 576,
        },
        GemmShape {
            label: "VGG2.2",
            m: 128,
            n: 12544,
            k: 1152,
        },
        GemmShape {
            label: "VGG3.2",
            m: 256,
            n: 3136,
            k: 2304,
        },
        GemmShape {
            label: "VGG4.2",
            m: 512,
            n: 784,
            k: 4608,
        },
        GemmShape {
            label: "VGG5.2",
            m: 512,
            n: 196,
            k: 4608,
        },
    ]
}

/// Figure 14 (§8.6): the CP2K FP64 kernel sizes, `M x N x K`.
pub fn cp2k_kernels() -> Vec<GemmShape> {
    vec![
        GemmShape {
            label: "5x5x5",
            m: 5,
            n: 5,
            k: 5,
        },
        GemmShape {
            label: "13x5x13",
            m: 13,
            n: 5,
            k: 13,
        },
        GemmShape {
            label: "13x13x13",
            m: 13,
            n: 13,
            k: 13,
        },
        GemmShape {
            label: "23x23x23",
            m: 23,
            n: 23,
            k: 23,
        },
        GemmShape {
            label: "26x26x13",
            m: 26,
            n: 26,
            k: 13,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_square_range_matches_paper() {
        let v = small_square_sizes();
        assert_eq!(v.first().unwrap().m, 8);
        assert_eq!(v.last().unwrap().m, 120);
        assert_eq!(v.len(), 15);
        assert!(v.iter().all(|s| s.m == s.n && s.n == s.k));
    }

    #[test]
    fn motivation_powers_of_two() {
        let v = motivation_sizes(4096);
        assert_eq!(v.len(), 10); // 8..4096
        assert_eq!(v.last().unwrap().m, 4096);
        let v = motivation_sizes(512);
        assert_eq!(v.last().unwrap().m, 512);
    }

    #[test]
    fn vgg_dims_match_paper_table() {
        let v = vgg_layers();
        assert_eq!(
            v[0],
            GemmShape {
                label: "VGG1.2",
                m: 64,
                n: 50176,
                k: 576
            }
        );
        assert_eq!(v[4].n, 196);
        // N >> M on the early layers (the irregular motivation).
        assert!(v[0].n > 100 * v[0].m);
    }

    #[test]
    fn cp2k_range_4_to_32() {
        // §8.6: "matrix sizes involved range between 4 - 32".
        for s in cp2k_kernels() {
            assert!(s.m >= 4 && s.m <= 32);
            assert!(s.n >= 4 && s.n <= 32);
            assert!(s.k >= 4 && s.k <= 32);
        }
    }

    #[test]
    fn flops_and_bytes() {
        let s = GemmShape::new(2, 3, 4);
        assert_eq!(s.flops(), 48.0);
        assert_eq!(s.bytes(4), (8 + 12 + 6) * 4);
    }
}

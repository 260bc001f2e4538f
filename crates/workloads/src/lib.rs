//! Workload generators for the paper's evaluation (§7.2).
//!
//! * [`sweeps`] — the size grids of every figure: small squares
//!   (8–120, Figures 7/8), the motivation sweep (Figure 2), the
//!   irregular `M`/`N` grids with `K = 5000` (Figures 9/10), the VGG16
//!   convolution GEMM shapes (Figures 11/13/15) and the CP2K kernel
//!   sizes (Figure 14).
//! * [`flush`] — the cold-cache tool for Figure 8: a working-set sweep
//!   that evicts the matrices from every cache level between repetitions.
//!
//! Matrices are initialized with uniform random values in `[0, 1)`
//! (§7.2, "like prior work"), via `shalom_matrix::Matrix::random`.

#![deny(missing_docs)]

pub mod flush;
pub mod sweeps;

pub use flush::CacheFlusher;
pub use sweeps::{cp2k_kernels, motivation_sizes, small_square_sizes, vgg_layers, GemmShape};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports() {
        assert!(!vgg_layers().is_empty());
        assert!(!cp2k_kernels().is_empty());
    }
}

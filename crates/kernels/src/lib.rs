//! LibShalom micro-kernels and the analytic register-tile solver.
//!
//! This crate implements §5 of the paper: the three micro-kernel families
//! plus the analytic method that sizes them.
//!
//! * [`tile`] — the register-tile solver (paper Eq. 1–2). Maximizes the
//!   computation-to-memory ratio `CMR = 2·mr·nr / (mr + nr)` subject to the
//!   ARMv8 register-file constraint `mr + nr/j + mr·nr/j ≤ 31`, `nr % j = 0`.
//!   Yields **mr = 7, nr = 12** for FP32 (`j = 4`) and **mr = 7, nr = 6**
//!   for FP64 (`j = 2`) — the tiles every kernel below is built around.
//! * [`main_kernel`] — the outer-product (scalar-vector FMA) kernel of
//!   Algorithm 2, reading A *unpacked* straight from the source matrix
//!   (rows are contiguous in NN mode, so packing A is wasted motion — §4.1),
//!   and B either unpacked (small B) or from the linear buffer `Bc`.
//!   The same body can store B into `Bc` — and copy the next panel —
//!   *while* computing, hiding the packing loads/stores behind the FMA
//!   stream (§4.2, §5.3).
//! * [`nt_pack`] — the inner-product (vector-vector FMA) packing kernel of
//!   Algorithm 3 for the NT mode: computes a 7×3 block of C while
//!   scattering the B rows it loaded into `Bc`'s nr-contiguous layout.
//! * [`edge`] — edge-case kernels for `m < mr` / `n < nr` remainders, in
//!   two schedules: `pipelined` (loads interleaved between FMAs and the
//!   next iteration's operands prefetched — Figure 6b, LibShalom) and
//!   `batched` (loads grouped ahead of the FMA burst — Figure 6a,
//!   OpenBLAS). Both are kept so the Fig. 13 ablation compares real code.
//! * [`pack`] — standalone packing routines (pack-then-compute), used by
//!   the Goto-class baselines and by the TN/TT driver paths.
//!
//! All kernels are generic over the [`Vector`] lane type so one body serves
//! FP32 and FP64, mirroring the paper's "equally applied to other kernel
//! modes and FP64 GEMMs" (§5.1). The trait is `shalom_simd`'s, re-exported
//! here; each vector type implements it once, in that crate.
//!
//! shalom-analysis: deny(panic)

#![deny(missing_docs)]
#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

pub mod edge;
pub mod family;
pub mod main_kernel;
pub mod nt_pack;
pub mod pack;
pub mod tile;

pub use family::{
    family_for, kernels_for, registered_families, selected_wide_family, FamilyElem, FamilyKernels,
    KernelFamily,
};
pub use shalom_simd::Vector;
pub use tile::{cmr, solve_tile, TileConstraints, TileShape};

/// Register-tile rows for both precisions (paper §5.2.3: `mr = 7`).
pub const MR: usize = 7;

/// Register-tile columns for FP32 (`nr = 12`).
pub const NR_F32: usize = 12;

/// Register-tile columns for FP64 (`nr = 6`).
pub const NR_F64: usize = 6;

/// Number of 128-bit vectors per C-tile row (`nr / j = 3` for both types).
pub const NR_VECS: usize = 3;

/// Register tile `nr` for element type `T` (12 for `f32`, 6 for `f64`).
pub fn nr_for<T: shalom_matrix::Scalar>() -> usize {
    NR_VECS * T::LANES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_constants_consistent() {
        assert_eq!(NR_F32, NR_VECS * 4);
        assert_eq!(NR_F64, NR_VECS * 2);
        assert_eq!(nr_for::<f32>(), NR_F32);
        assert_eq!(nr_for::<f64>(), NR_F64);
        // Register budget check: mr + nr/j + mr*nr/j = 7 + 3 + 21 = 31.
        assert_eq!(MR + NR_VECS + MR * NR_VECS, 31);
    }
}

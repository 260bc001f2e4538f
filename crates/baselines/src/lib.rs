//! Reimplementations of the comparison libraries' GEMM *strategies*.
//!
//! The paper evaluates LibShalom against five libraries with ARMv8
//! back-ends (§7.3): OpenBLAS, BLIS and ARMPL (large-GEMM Goto
//! implementations), BLASFEO (small-GEMM, panel-major) and LIBXSMM
//! (small-GEMM, JIT). None of those C/asm libraries is linkable here, and
//! the comparison the paper makes is about *strategies* — always-pack vs
//! conditional-pack, sequential vs fused packing, padded vs dedicated edge
//! handling, shape-blind vs shape-aware parallel partitioning. This crate
//! re-creates each strategy from scratch on the same SIMD substrate as
//! LibShalom, so benchmark deltas measure exactly the algorithmic choices
//! the paper attributes its wins to:
//!
//! | Impl | Stands in for | Strategy reproduced |
//! |---|---|---|
//! | [`NaiveGemm`] | textbook loop | no blocking, no vectorized kernel |
//! | [`GotoGemm::openblas_class`] | OpenBLAS | always-pack A and B (sequential sliver packing), big-tile kernel, batched-schedule edge handling via zero-padded slivers + temp C tile, N-split parallelism |
//! | [`GotoGemm::blis_class`] | BLIS | same Goto skeleton, analytic (cache-model) blocking, 8x12-style tile, square-grid parallelism |
//! | [`GotoGemm::armpl_class`] | ARMPL | Goto skeleton, conservative 8x8 tile and fixed blocking, N-split parallelism |
//! | [`BlasfeoGemm`] | BLASFEO | eager whole-matrix conversion to panel-major, L2-resident design point, 8x8 padded micro-kernel, **no** multithreading (§7.4) |
//! | [`LibxsmmGemm`] | LIBXSMM | per-(M,N,K) specialized kernel plan behind a code cache, designed for (MNK)^(1/3) <= 64, degrades outside that envelope |
//!
//! Every implementation is validated against the naive reference in its
//! tests; the `fig*` bins and the repo benchmark time them side by side
//! with LibShalom, at 128 bits whatever width the host dispatches.

#![deny(missing_docs)]
#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

pub mod blasfeo;
pub mod goto;
pub mod libxsmm;
pub mod naive;

pub use blasfeo::BlasfeoGemm;
pub use goto::GotoGemm;
pub use libxsmm::LibxsmmGemm;
pub use naive::NaiveGemm;

use shalom_core::GemmElem;
use shalom_matrix::{MatMut, MatRef, Op};

/// A GEMM implementation under benchmark.
pub trait GemmImpl<T: GemmElem>: Sync {
    /// Display name used in figure output (e.g. `"OpenBLAS-class"`).
    fn name(&self) -> &'static str;

    /// Whether the implementation supports multi-threaded execution
    /// (BLASFEO does not — it is excluded from the parallel figures, as
    /// in the paper §7.4).
    fn supports_parallel(&self) -> bool {
        false
    }

    /// `C = alpha * op(A) * op(B) + beta * C` with `threads` workers
    /// (`1` = serial; ignored when unsupported).
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        threads: usize,
        op_a: Op,
        op_b: Op,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    );
}

/// LibShalom itself, adapted to the benchmark trait.
pub struct ShalomGemm;

impl<T: GemmElem> GemmImpl<T> for ShalomGemm {
    fn name(&self) -> &'static str {
        "LibShalom"
    }

    fn supports_parallel(&self) -> bool {
        true
    }

    fn gemm(
        &self,
        threads: usize,
        op_a: Op,
        op_b: Op,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        let cfg = shalom_core::GemmConfig::with_threads(threads);
        shalom_core::gemm_with(&cfg, op_a, op_b, alpha, a, b, beta, c);
    }
}

/// All single-threaded contenders for the small-GEMM figures (7, 8, 14),
/// in the paper's plotting order.
pub fn small_gemm_contenders<T: GemmElem>() -> Vec<Box<dyn GemmImpl<T>>> {
    vec![
        Box::new(GotoGemm::blis_class()),
        Box::new(GotoGemm::openblas_class()),
        Box::new(GotoGemm::armpl_class()),
        Box::new(LibxsmmGemm::new()),
        Box::new(BlasfeoGemm::new()),
        Box::new(ShalomGemm),
    ]
}

/// Contenders for the parallel irregular-GEMM figures (9, 10, 15): the
/// small-matrix libraries are excluded, as in the paper (§7.4, §8.2).
pub fn irregular_gemm_contenders<T: GemmElem>() -> Vec<Box<dyn GemmImpl<T>>> {
    vec![
        Box::new(GotoGemm::openblas_class()),
        Box::new(GotoGemm::armpl_class()),
        Box::new(GotoGemm::blis_class()),
        Box::new(ShalomGemm),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contender_rosters_match_paper() {
        let small = small_gemm_contenders::<f32>();
        assert_eq!(small.len(), 6);
        assert_eq!(small.last().unwrap().name(), "LibShalom");
        let irr = irregular_gemm_contenders::<f32>();
        assert_eq!(irr.len(), 4);
        assert!(
            irr.iter().all(|g| g.supports_parallel()),
            "all parallel-figure contenders must support threads"
        );
        assert!(!small
            .iter()
            .any(|g| g.name() == "BLASFEO-class" && g.supports_parallel()));
    }
}

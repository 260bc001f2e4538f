//! The analytic register-tile solver (paper §5.2, Equations 1 and 2).
//!
//! The micro-kernel holds an `mr x nr` tile of C entirely in vector
//! registers, plus `mr` registers for a column of A, `nr/j` for a row of B,
//! and one reserved for prefetching (following [Wang et al., ICPP'15], as
//! the paper does). Feasibility (Eq. 1):
//!
//! ```text
//! mr + nr/j + mr*nr/j <= 32 - 1       and       nr % j == 0
//! ```
//!
//! The objective (Eq. 2) is the computation-to-memory ratio of one
//! micro-kernel iteration group:
//!
//! ```text
//! CMR = 2*mr*nr / (mr + nr)
//! ```
//!
//! The paper solves the continuous relaxation with Lagrange multipliers and
//! rounds; we simply enumerate the (tiny) feasible integer space, which is
//! exact. For the ARMv8 AdvSIMD parameters this yields `(7, 12)` for FP32
//! and `(7, 6)` for FP64 — the kernels in this crate. The solver is kept
//! parametric in register count and vector width so the §5.5 portability
//! claim (SVE with 128–2048-bit vectors, x86 with more/wider registers) is
//! directly testable.
//!
//! shalom-analysis: deny(panic)

/// Hardware constraints for the tile solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConstraints {
    /// Number of architectural vector registers (32 on ARMv8 AdvSIMD).
    pub vector_registers: usize,
    /// Registers reserved for purposes other than the C tile / A column /
    /// B row — the paper reserves 1 for prefetching.
    pub reserved_registers: usize,
    /// Elements per vector register (the paper's `j`).
    pub lanes: usize,
}

impl TileConstraints {
    /// ARMv8 AdvSIMD constraints for an element with `lanes` lanes per
    /// 128-bit register (4 for FP32, 2 for FP64).
    pub fn armv8(lanes: usize) -> Self {
        Self {
            vector_registers: 32,
            reserved_registers: 1,
            lanes,
        }
    }

    /// SVE-style constraints: 32 registers of `bits` width (a multiple of
    /// 128 between 128 and 2048 — §5.5), for an element of `elem_bits`.
    ///
    /// # Panics
    /// If `bits` is not a multiple of 128 in `128..=2048`, or `elem_bits`
    /// does not divide `bits`.
    pub fn sve(bits: usize, elem_bits: usize) -> Self {
        // PANIC-OK: documented `# Panics` contract on a config-time
        // constructor, never on the per-call GEMM path.
        assert!(
            (128..=2048).contains(&bits) && bits.is_multiple_of(128),
            "SVE vector length must be a multiple of 128 in 128..=2048, got {bits}"
        );
        // PANIC-OK: same documented config-time contract as above.
        assert!(
            bits.is_multiple_of(elem_bits),
            "element width must divide vector width"
        );
        Self {
            vector_registers: 32,
            reserved_registers: 1,
            lanes: bits / elem_bits,
        }
    }

    /// Register budget available to the kernel tile.
    pub fn budget(&self) -> usize {
        self.vector_registers - self.reserved_registers
    }

    /// True if an `(mr, nr)` tile fits the register file (Eq. 1).
    ///
    /// Spelled out, with `j = self.lanes`, the tile is feasible iff
    ///
    /// ```text
    /// nr % j == 0   and   mr + nr/j + mr*(nr/j) <= budget()
    /// ```
    ///
    /// where the left-hand side counts vector registers: `mr` for the
    /// broadcast column of A, `nr/j` for one row of B, and `mr * nr/j`
    /// for the resident C tile. On ARMv8 AdvSIMD, `budget()` is
    /// `32 - 1 = 31` (one register reserved for prefetching), so the
    /// constraint is exactly `mr + nr/j + mr*nr/j <= 31`. The paper's
    /// FP32 tile `(7, 12)` at `j = 4` uses `7 + 3 + 21 = 31`, saturating
    /// the file; `(8, 12)` would need `8 + 3 + 24 = 35` and is rejected.
    pub fn feasible(&self, mr: usize, nr: usize) -> bool {
        mr >= 1
            && nr >= self.lanes
            && nr.is_multiple_of(self.lanes)
            && mr + nr / self.lanes + mr * (nr / self.lanes) <= self.budget()
    }
}

/// A register tile `(mr, nr)` with its objective value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileShape {
    /// Rows of the C register tile.
    pub mr: usize,
    /// Columns of the C register tile.
    pub nr: usize,
    /// The achieved computation-to-memory ratio (Eq. 2).
    pub cmr: f64,
}

impl TileShape {
    /// Vector registers used by this tile under `c` — the left-hand side
    /// of Eq. 1, `mr + nr/j + mr*(nr/j)`: `mr` A-column registers,
    /// `nr/j` B-row registers and `mr * nr/j` C-accumulator registers.
    /// A tile is feasible exactly when this does not exceed
    /// [`TileConstraints::budget`] (31 on ARMv8) and `nr % j == 0`.
    pub fn registers_used(&self, c: &TileConstraints) -> usize {
        self.mr + self.nr / c.lanes + self.mr * (self.nr / c.lanes)
    }
}

/// The CMR objective of Eq. 2 for a candidate tile.
pub fn cmr(mr: usize, nr: usize) -> f64 {
    2.0 * (mr * nr) as f64 / (mr + nr) as f64
}

/// Solves Eq. 1–2: the feasible integer `(mr, nr)` maximizing CMR.
///
/// Ties are broken toward larger `mr` then larger `nr` (a bigger tile
/// amortizes loop overhead), though no tie occurs for the ARMv8 inputs.
///
/// # Panics
/// If no tile is feasible (budget too small to hold even a `1 x j` tile).
pub fn solve_tile(c: &TileConstraints) -> TileShape {
    let mut best: Option<TileShape> = None;
    // mr can never exceed the budget; nr/j likewise.
    for mr in 1..=c.budget() {
        for nrv in 1..=c.budget() {
            let nr = nrv * c.lanes;
            if !c.feasible(mr, nr) {
                continue;
            }
            let cand = TileShape {
                mr,
                nr,
                cmr: cmr(mr, nr),
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    cand.cmr > b.cmr + 1e-12
                        || ((cand.cmr - b.cmr).abs() <= 1e-12 && (cand.mr, cand.nr) > (b.mr, b.nr))
                }
            };
            if better {
                best = Some(cand);
            }
        }
    }
    // PANIC-OK: solve-time invariant — every budget >= C(1,1) registers
    // admits the 1x1 tile, so the candidate set is never empty; documented
    // as a `# Panics` contract for degenerate constraint sets.
    best.expect("register budget too small for any tile")
}

/// §5.5 solver table, 256-bit SVE over a 32-register file: FP32 tile rows
/// (`j = 8`).
pub const WIDE_MR_F32: usize = 9;
/// §5.5 solver table: FP32 tile columns at `j = 8`.
pub const WIDE_NR_F32: usize = 16;
/// §5.5 solver table: FP64 tile rows (`j = 4`).
pub const WIDE_MR_F64: usize = 7;
/// §5.5 solver table: FP64 tile columns at `j = 4`.
pub const WIDE_NR_F64: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armv8_fp32_gives_paper_tile() {
        let t = solve_tile(&TileConstraints::armv8(4));
        assert_eq!((t.mr, t.nr), (7, 12));
        // Uses exactly the full budget: 7 + 3 + 21 = 31.
        assert_eq!(t.registers_used(&TileConstraints::armv8(4)), 31);
    }

    #[test]
    fn armv8_fp64_gives_paper_tile() {
        let t = solve_tile(&TileConstraints::armv8(2));
        assert_eq!((t.mr, t.nr), (7, 6));
        assert_eq!(t.registers_used(&TileConstraints::armv8(2)), 31);
    }

    #[test]
    fn cmr_values_match_hand_calculation() {
        assert!((cmr(7, 12) - 168.0 / 19.0).abs() < 1e-12);
        assert!((cmr(7, 6) - 84.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn solution_is_globally_optimal_by_exhaustion() {
        let c = TileConstraints::armv8(4);
        let t = solve_tile(&c);
        for mr in 1..64 {
            for nr in (4..256).step_by(4) {
                if c.feasible(mr, nr) {
                    assert!(
                        cmr(mr, nr) <= t.cmr + 1e-12,
                        "({mr},{nr}) beats solver: {} > {}",
                        cmr(mr, nr),
                        t.cmr
                    );
                }
            }
        }
    }

    #[test]
    fn feasibility_boundary() {
        let c = TileConstraints::armv8(4);
        assert!(c.feasible(7, 12));
        // One more row of C overflows the register file.
        assert!(!c.feasible(8, 12));
        // nr must be a multiple of j.
        assert!(!c.feasible(7, 10));
    }

    #[test]
    fn over_budget_tiles_are_rejected() {
        // Regression: `feasible` must agree with `registers_used` — any
        // tile whose Eq. 1 LHS exceeds the 31-register budget is
        // infeasible, and every j-aligned tile within budget is feasible.
        for &lanes in &[4usize, 2] {
            let c = TileConstraints::armv8(lanes);
            assert_eq!(c.budget(), 31);
            for mr in 1..=40 {
                for nrv in 1..=40 {
                    let nr = nrv * lanes;
                    let used = TileShape { mr, nr, cmr: 0.0 }.registers_used(&c);
                    assert_eq!(
                        c.feasible(mr, nr),
                        used <= 31,
                        "({mr},{nr}) j={lanes}: used={used}"
                    );
                }
            }
            // Spot checks at the boundary: the paper's tile saturates the
            // file; adding one row or one vector column overflows it.
            let (mr, nr) = (7, 3 * lanes);
            assert!(c.feasible(mr, nr));
            assert!(!c.feasible(mr + 1, nr));
            assert!(!c.feasible(mr, nr + lanes));
        }
    }

    #[test]
    fn sve_wider_vectors_shift_the_tile() {
        // 256-bit SVE, FP32: j = 8. The C tile column count must be a
        // multiple of 8; the solver still saturates the register file.
        let c = TileConstraints::sve(256, 32);
        assert_eq!(c.lanes, 8);
        let t = solve_tile(&c);
        assert!(c.feasible(t.mr, t.nr));
        assert_eq!(t.nr % 8, 0);
        // A wider vector raises the achievable CMR (more flops per load).
        assert!(t.cmr > solve_tile(&TileConstraints::armv8(4)).cmr);
    }

    #[test]
    #[should_panic(expected = "multiple of 128")]
    fn sve_rejects_bad_width() {
        let _ = TileConstraints::sve(192, 32);
    }

    #[test]
    fn x86_avx512_style_budget() {
        // §5.5: porting to x86 means changing Eq. 1's constants. 32
        // registers of 512 bits, FP64: j = 8.
        let c = TileConstraints {
            vector_registers: 32,
            reserved_registers: 1,
            lanes: 8,
        };
        let t = solve_tile(&c);
        assert!(c.feasible(t.mr, t.nr));
        assert!(t.cmr >= cmr(7, 8));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn impossible_budget_panics() {
        let c = TileConstraints {
            vector_registers: 2,
            reserved_registers: 2,
            lanes: 4,
        };
        let _ = solve_tile(&c);
    }

    #[test]
    fn section_5_5_table_rows_match_solver() {
        // "A revised mr and nr computed according to the available number
        // and length of vector registers": 256-bit SVE, 32 registers.
        let t32 = solve_tile(&TileConstraints::sve(256, 32));
        let t64 = solve_tile(&TileConstraints::sve(256, 64));
        assert_eq!((t32.mr, t32.nr), (WIDE_MR_F32, WIDE_NR_F32));
        assert_eq!((t64.mr, t64.nr), (WIDE_MR_F64, WIDE_NR_F64));
        // Register accounting at j = 8: 9 + 2 + 18 = 29 <= 31.
        const { assert!(WIDE_MR_F32 + 2 + WIDE_MR_F32 * 2 <= 31) };
    }
}

//! The contract registry: one [`KernelContract`] per micro-kernel entry
//! point in `crates/kernels`, plus the cross-checks that tie the declared
//! footprints back to the §5.2 tile solver and the §4 packing plan.
//!
//! The registry is the single source of truth three consumers share:
//!
//! * the shadow-memory harness sizes and checks its buffers from the
//!   declared spans ([`crate::harness`]);
//! * the unsafe-hygiene lint resolves `SHALOM-…` tags in `// SAFETY:`
//!   comments against [`known_tags`] ([`crate::lint`]);
//! * the `audit` binary prints the byte-interval table and runs the
//!   solver/packing cross-checks below.

use crate::contract::{KernelContract, KernelParams, OperandFootprint};
use shalom_kernels::tile::{solve_tile, TileConstraints, TileShape};
use shalom_kernels::{MR, NR_F32, NR_F64, NR_VECS};

/// Identifies one audited micro-kernel entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// `tile_kernel` — the full-tile body behind every kernel set's
    /// `kernel` and `kernel_pack` slots (`main_kernel` /
    /// `main_kernel_shape` are its no-pack instantiation).
    MainKernel,
    /// `edge_kernel_pipelined` — §5.4 Figure 6b schedule.
    EdgePipelined,
    /// `edge_kernel_batched` — §5.4 Figure 6a schedule.
    EdgeBatched,
    /// `nt_pack_kernel` — Algorithm 3 inner-product scatter-pack.
    NtPackKernel,
    /// `nt_pack_panel` — full-panel driver over `nt_pack_kernel`.
    NtPackPanel,
    /// `pack_copy` — strided block copy.
    PackCopy,
    /// `pack_transpose_tiled` — strided block transpose (every kernel
    /// set's `pack_transpose` entry; `pack::pack_transpose` is the
    /// 128-bit set's).
    PackTranspose,
    /// `pack_a_slivers_goto` — Goto sliver-major A pack.
    PackASliversGoto,
    /// `pack_b_slivers_goto` — Goto sliver-major B pack.
    PackBSliversGoto,
}

/// Contract tags for the dispatch layer in `crates/core`. These name
/// *composite* obligations (the driver upholds the kernel contracts it
/// invokes) rather than a single footprint function, so they carry no
/// [`KernelContract`]; the lint accepts them in `// SAFETY:` comments.
pub const DRIVER_TAGS: &[&str] = &[
    // Blocked-loop dispatch in driver.rs/batch.rs/api.rs: every kernel
    // call stays inside the operand views handed to `gemm_*`.
    "SHALOM-D-DRIVER",
    // Send/Sync pointer wrappers in parallel.rs: disjoint row/column
    // partitions make cross-thread writes race-free.
    "SHALOM-D-SEND",
    // C-ABI entry points in capi.rs: caller-declared LAPACK-style
    // dimensions are validated before any pointer is formed.
    "SHALOM-D-FFI",
    // Raw-parts view construction from validated dimensions.
    "SHALOM-D-VIEW",
    // Persistent-pool job publication in pool.rs: the lifetime-erased
    // job pointer is dereferenced only while the publisher blocks in
    // `publish`, which waits for every active worker before returning;
    // each task index is claimed once, so batch.rs's chunks (disjoint
    // item ranges) are reborrowed by one claimant each.
    "SHALOM-D-POOL",
    // Plan layer and override table (core/plan.rs, core/plan/): stored
    // plans are range-validated on every decode path, so a stale or
    // profile-loaded entry can change strategy but never form an
    // out-of-contract kernel call.
    "SHALOM-D-PLAN",
    // The `Vector` implementations in crates/simd: load/store bounds are
    // inherited from the calling kernel's contract; wide intrinsics run
    // only after the caps probe admits their ISA; SSE2/NEON are part of
    // the x86_64/aarch64 baselines.
    "SHALOM-V-SIMD",
];

/// Contract tags declared in `bounds.spec` and anchored by kernel
/// functions for the `bounds` static pass, but carrying no runtime
/// [`KernelContract`]: internal helpers the shadow harness never wraps.
pub const SPEC_ONLY_TAGS: &[&str] = &[
    // `writeback_row`: one C row of `nvecs` vectors, exercised through
    // every enclosing kernel's `c` operand.
    "SHALOM-K-WB",
];

// Every footprint function below is a thin wrapper over the shared
// symbolic spec (`crates/contracts/bounds.spec`, evaluated by
// [`crate::symspec`]). The shapes are *declared* once in the spec; the
// `bounds` static pass proves the kernels stay inside them symbolically
// and these wrappers evaluate the very same shapes numerically for the
// shadow-memory harness. Edit the spec, not these functions.

fn main_footprint(p: &KernelParams) -> Vec<OperandFootprint> {
    crate::symspec::footprint("SHALOM-K-MAIN", p)
}

fn edge_footprint(p: &KernelParams) -> Vec<OperandFootprint> {
    crate::symspec::footprint("SHALOM-K-EDGE", p)
}

fn nt_kernel_footprint(p: &KernelParams) -> Vec<OperandFootprint> {
    crate::symspec::footprint("SHALOM-K-NT", p)
}

fn nt_panel_footprint(p: &KernelParams) -> Vec<OperandFootprint> {
    crate::symspec::footprint("SHALOM-K-NT-PANEL", p)
}

fn pack_copy_footprint(p: &KernelParams) -> Vec<OperandFootprint> {
    crate::symspec::footprint("SHALOM-K-PACK-COPY", p)
}

fn pack_transpose_footprint(p: &KernelParams) -> Vec<OperandFootprint> {
    crate::symspec::footprint("SHALOM-K-PACK-TRANS", p)
}

fn pack_a_goto_footprint(p: &KernelParams) -> Vec<OperandFootprint> {
    crate::symspec::footprint("SHALOM-K-PACK-A", p)
}

fn pack_b_goto_footprint(p: &KernelParams) -> Vec<OperandFootprint> {
    crate::symspec::footprint("SHALOM-K-PACK-B", p)
}

/// Every audited entry point's contract, in a stable order.
pub fn registry() -> Vec<KernelContract> {
    vec![
        KernelContract {
            id: KernelId::MainKernel,
            tag: "SHALOM-K-MAIN",
            entry: "shalom_kernels::main_kernel::tile_kernel",
            summary: "outer-product mr x nr tile update, unpacked A rows, \
                      optional interleaved B pack",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[
                ("c", "a"),
                ("c", "b"),
                ("bc", "a"),
                ("bc", "b"),
                ("bc", "c"),
            ],
            footprint: main_footprint,
        },
        // Both schedules share one body and so one contract; each keeps
        // its id so the harness checks both.
        KernelContract {
            id: KernelId::EdgePipelined,
            tag: "SHALOM-K-EDGE",
            entry: "shalom_kernels::edge::edge_kernel_pipelined",
            summary: "edge-lattice tile update, Figure 6b pipelined schedule",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[("c", "a"), ("c", "b")],
            footprint: edge_footprint,
        },
        KernelContract {
            id: KernelId::EdgeBatched,
            tag: "SHALOM-K-EDGE",
            entry: "shalom_kernels::edge::edge_kernel_batched",
            summary: "edge-lattice tile update, Figure 6a batched schedule",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[("c", "a"), ("c", "b")],
            footprint: edge_footprint,
        },
        KernelContract {
            id: KernelId::NtPackKernel,
            tag: "SHALOM-K-NT",
            entry: "shalom_kernels::nt_pack::nt_pack_kernel",
            summary: "Algorithm 3 inner-product compute + Bc scatter (7x3)",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[
                ("c", "a"),
                ("c", "b"),
                ("bc", "a"),
                ("bc", "b"),
                ("bc", "c"),
            ],
            footprint: nt_kernel_footprint,
        },
        KernelContract {
            id: KernelId::NtPackPanel,
            tag: "SHALOM-K-NT-PANEL",
            entry: "shalom_kernels::nt_pack::nt_pack_panel",
            summary: "full kc x nr Bc panel fill + C update via nt_pack_kernel",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[
                ("c", "a"),
                ("c", "b"),
                ("bc", "a"),
                ("bc", "b"),
                ("bc", "c"),
            ],
            footprint: nt_panel_footprint,
        },
        KernelContract {
            id: KernelId::PackCopy,
            tag: "SHALOM-K-PACK-COPY",
            entry: "shalom_kernels::pack::pack_copy",
            summary: "strided rows x cols block copy",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[("dst", "src")],
            footprint: pack_copy_footprint,
        },
        KernelContract {
            id: KernelId::PackTranspose,
            tag: "SHALOM-K-PACK-TRANS",
            entry: "shalom_kernels::pack::pack_transpose_tiled",
            summary: "tiled rows x cols block transpose, optional zero padding",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[("dst", "src")],
            footprint: pack_transpose_footprint,
        },
        KernelContract {
            id: KernelId::PackASliversGoto,
            tag: "SHALOM-K-PACK-A",
            entry: "shalom_kernels::pack::pack_a_slivers_goto",
            summary: "Goto sliver-major A pack with zero padding",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[("dst", "a")],
            footprint: pack_a_goto_footprint,
        },
        KernelContract {
            id: KernelId::PackBSliversGoto,
            tag: "SHALOM-K-PACK-B",
            entry: "shalom_kernels::pack::pack_b_slivers_goto",
            summary: "Goto sliver-major B pack with zero padding",
            align_elem_bytes: core::mem::align_of::<f32>(),
            no_alias: &[("dst", "b")],
            footprint: pack_b_goto_footprint,
        },
    ]
}

/// Look up a contract by id.
///
/// # Panics
/// If the id is missing from [`registry`] (an audit bug, not a runtime
/// condition).
pub fn find(id: KernelId) -> KernelContract {
    registry()
        .into_iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no contract registered for {id:?}"))
}

/// Every tag a `// SAFETY:` comment or `// CONTRACT(...)` anchor may
/// reference: the kernel contract tags, the spec-only bounds tags, and
/// the composite driver-layer tags.
pub fn known_tags() -> Vec<&'static str> {
    registry()
        .iter()
        .map(|c| c.tag)
        .chain(SPEC_ONLY_TAGS.iter().copied())
        .chain(DRIVER_TAGS.iter().copied())
        .collect()
}

/// The hardwired tile each contract family is instantiated at, per lane
/// width, with the constraints it must satisfy.
fn shipped_tiles() -> Vec<(&'static str, TileConstraints, usize, usize)> {
    vec![
        (
            "main f32 (7x12, j=4)",
            TileConstraints::armv8(4),
            MR,
            NR_F32,
        ),
        ("main f64 (7x6, j=2)", TileConstraints::armv8(2), MR, NR_F64),
        // Runtime-dispatched x86 kernel families (16 YMM / 32 ZMM files,
        // 1 register reserved, mirroring the registration-time asserts in
        // `shalom_kernels::family`).
        (
            "family avx2 f32 (7x8, j=8)",
            TileConstraints {
                vector_registers: 16,
                reserved_registers: 1,
                lanes: 8,
            },
            shalom_kernels::family::AVX2_MR_F32,
            shalom_kernels::family::AVX2_NR_F32,
        ),
        (
            "family avx2 f64 (4x8, j=4)",
            TileConstraints {
                vector_registers: 16,
                reserved_registers: 1,
                lanes: 4,
            },
            shalom_kernels::family::AVX2_MR_F64,
            shalom_kernels::family::AVX2_NR_F64,
        ),
        (
            "family avx512 f32 (15x16, j=16)",
            TileConstraints {
                vector_registers: 32,
                reserved_registers: 1,
                lanes: 16,
            },
            shalom_kernels::family::AVX512_MR_F32,
            shalom_kernels::family::AVX512_NR_F32,
        ),
        (
            "family avx512 f64 (9x16, j=8)",
            TileConstraints {
                vector_registers: 32,
                reserved_registers: 1,
                lanes: 8,
            },
            shalom_kernels::family::AVX512_MR_F64,
            shalom_kernels::family::AVX512_NR_F64,
        ),
    ]
}

/// Cross-check: every shipped kernel tile equals the §5.2 solver's answer
/// for its lane width, fits the Eq. 1 register budget
/// (`mr + nr/j + mr*nr/j <= 31`), and any inflation of the tile is
/// rejected by [`TileConstraints::feasible`]. Returns human-readable
/// violations (empty = clean).
pub fn audit_tile_contracts() -> Vec<String> {
    let mut out = Vec::new();
    for (label, cons, mr, nr) in shipped_tiles() {
        let solved = solve_tile(&cons);
        if (solved.mr, solved.nr) != (mr, nr) {
            out.push(format!(
                "{label}: contract tile {mr}x{nr} != solver tile {}x{}",
                solved.mr, solved.nr
            ));
        }
        let shape = TileShape {
            mr,
            nr,
            cmr: shalom_kernels::tile::cmr(mr, nr),
        };
        let used = shape.registers_used(&cons);
        if used > cons.budget() {
            out.push(format!(
                "{label}: contract tile uses {used} registers, budget is {}",
                cons.budget()
            ));
        }
        if !cons.feasible(mr, nr) {
            out.push(format!(
                "{label}: solver rejects the shipped tile {mr}x{nr}"
            ));
        }
        // The boundary must hold: a contract one row or one vector column
        // larger must be rejected, otherwise `feasible` has drifted from
        // the Eq. 1 budget and an oversized contract could slip through.
        if cons.feasible(mr + 1, nr) && shape_regs(mr + 1, nr, &cons) > cons.budget() {
            out.push(format!(
                "{label}: feasible() accepts over-budget {mr_1}x{nr}",
                mr_1 = mr + 1
            ));
        }
    }
    out
}

fn shape_regs(mr: usize, nr: usize, c: &TileConstraints) -> usize {
    TileShape {
        mr,
        nr,
        cmr: shalom_kernels::tile::cmr(mr, nr),
    }
    .registers_used(c)
}

/// Cross-check against the §4 packing plan: the packed-B extents the
/// full-tile and NT contracts declare must fit the driver's `Bc` budget.
/// `gemm_serial` allocates one `kc x nr` panel, so every declared packed
/// write must fit inside `kc * nr` elements, and a packed panel read back
/// at stride `nr` must fit it too.
pub fn audit_pack_plan() -> Vec<String> {
    let mut out = Vec::new();
    let main = find(KernelId::MainKernel);
    for lanes in [4usize, 2] {
        let nr = NR_VECS * lanes;
        for kc in [0usize, 1, 7, 64, 256] {
            let panel = kc * nr;
            let p = KernelParams {
                m: MR,
                n: nr,
                kc,
                lanes,
                lda: kc,
                ldb: 2 * nr,
                ldc: nr,
                nr,
                pack: true,
                ..Default::default()
            };
            let ext = main.operand(&p, "bc").extent();
            if ext > panel {
                out.push(format!(
                    "main bc extent {ext} exceeds the Bc panel {panel} (kc={kc}, nr={nr})"
                ));
            }
            let read_ext = main.operand(&KernelParams { ldb: nr, ..p }, "b").extent();
            if read_ext > panel {
                out.push(format!(
                    "main b extent {read_ext} read from a packed panel exceeds the Bc panel \
                     {panel} (kc={kc})"
                ));
            }
            let nt_panel = find(KernelId::NtPackPanel);
            let np = KernelParams {
                m: MR,
                n: nr,
                kc,
                lanes,
                lda: kc,
                ldb: kc,
                ldc: nr,
                nr,
                ..Default::default()
            };
            let bc_ext = nt_panel.operand(&np, "bc").extent();
            if bc_ext != panel {
                out.push(format!(
                    "nt panel bc extent {bc_ext} != full panel {panel} (kc={kc}, nr={nr}): \
                     downstream main-kernel reads of the panel would see undefined columns"
                ));
            }
        }
    }
    out
}

/// A representative, fully non-degenerate parameter assignment for `id`,
/// used by the registry audit and by the `audit` binary's byte-interval
/// table. All strides are distinct and larger than the widths they cover
/// so span arithmetic mistakes show up as overlaps.
pub fn representative_params(id: KernelId) -> KernelParams {
    let mut p = KernelParams {
        m: MR,
        n: NR_F32,
        kc: 5,
        lanes: 4,
        lda: 7,
        ldb: 29,
        ldc: 13,
        nr: NR_F32,
        jcol: 2,
        pack: true,
        mr_sliver: 4,
        zpad: 5,
    };
    // jcol + bcols <= nr must hold for the NT scatter kernel contract.
    if id == KernelId::NtPackKernel {
        p.n = 3;
    }
    // The plain packers read `n`-wide rows at stride `lda` (the main
    // kernels read `kc`-wide rows there), so their source stride must
    // clear the row width for the spans to be disjoint.
    if matches!(id, KernelId::PackCopy | KernelId::PackTranspose) {
        p.lda = 15;
    }
    p
}

/// Structural sanity of the registry itself: ids unique, a tag shared by
/// two entries (two schedules of one body) declaring the same footprint,
/// every `no_alias` pair naming declared operands, and spans of a single
/// operand never overlapping.
pub fn audit_registry() -> Vec<String> {
    let mut out = Vec::new();
    let regs = registry();
    for (i, a) in regs.iter().enumerate() {
        for b in regs.iter().skip(i + 1) {
            if a.id == b.id {
                out.push(format!("duplicate contract id {:?}", a.id));
            }
            if a.tag == b.tag {
                let shape = |c: &KernelContract| {
                    let fps = c.footprint(&representative_params(c.id));
                    fps.iter()
                        .map(|f| (f.name, f.spans.clone()))
                        .collect::<Vec<_>>()
                };
                if shape(a) != shape(b) {
                    out.push(format!(
                        "contract tag {} is shared by {:?} and {:?} with different footprints",
                        a.tag, a.id, b.id
                    ));
                }
            }
        }
    }
    for c in &regs {
        let params = representative_params(c.id);
        let fps = c.footprint(&params);
        for (x, y) in c.no_alias {
            for name in [x, y] {
                if !fps.iter().any(|f| &f.name == name) {
                    out.push(format!(
                        "{}: no_alias references undeclared operand `{name}`",
                        c.tag
                    ));
                }
            }
        }
        for f in &fps {
            let mut spans = f.spans.clone();
            spans.sort_by_key(|s| s.offset);
            for w in spans.windows(2) {
                if w[0].end() > w[1].offset {
                    out.push(format!(
                        "{}: operand `{}` has overlapping spans {} and {}",
                        c.tag, f.name, w[0], w[1]
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_is_registered_once() {
        assert!(audit_registry().is_empty());
        assert_eq!(registry().len(), 9);
    }

    #[test]
    fn tile_cross_check_is_clean() {
        assert!(audit_tile_contracts().is_empty());
    }

    #[test]
    fn pack_plan_cross_check_is_clean() {
        assert!(audit_pack_plan().is_empty());
    }

    #[test]
    fn main_footprint_matches_hand_calculation() {
        let c = find(KernelId::MainKernel);
        let p = KernelParams {
            m: 7,
            n: 12,
            kc: 9,
            lanes: 4,
            lda: 11,
            ldb: 14,
            ldc: 12,
            ..Default::default()
        };
        let a = c.operand(&p, "a");
        assert_eq!(a.spans.len(), 7);
        assert_eq!(a.extent(), 6 * 11 + 9);
        let b = c.operand(&p, "b");
        assert_eq!(b.spans.len(), 9);
        assert_eq!(b.extent(), 8 * 14 + 12);
        let cc = c.operand(&p, "c");
        assert_eq!(cc.extent(), 6 * 12 + 12);
        assert!(cc.complete);
    }

    #[test]
    fn degenerate_k_touches_only_c() {
        let c = find(KernelId::MainKernel);
        let p = KernelParams {
            m: 7,
            n: 12,
            kc: 0,
            lanes: 4,
            lda: 1,
            ldb: 12,
            ldc: 12,
            ..Default::default()
        };
        assert_eq!(c.operand(&p, "a").extent(), 0);
        assert_eq!(c.operand(&p, "b").extent(), 0);
        assert_eq!(c.operand(&p, "c").extent(), 84);
    }

    #[test]
    fn nt_scatter_footprint_is_column_slice() {
        let c = find(KernelId::NtPackKernel);
        let p = KernelParams {
            m: 5,
            n: 3,
            kc: 4,
            lanes: 2,
            lda: 4,
            ldb: 4,
            ldc: 6,
            nr: 6,
            jcol: 3,
            ..Default::default()
        };
        let bc = c.operand(&p, "bc");
        assert_eq!(bc.spans.len(), 4);
        assert_eq!(bc.spans[0].offset, 3);
        assert_eq!(bc.spans[0].len, 3);
        assert_eq!(bc.extent(), 3 * 6 + 6);
        let cc = c.operand(&p, "c");
        assert_eq!(cc.spans[0].offset, 3);
    }
}

//! The kernel-set table (§5.5, tract's `plug()` idiom): what the one
//! blocked driver in `core::driver` runs over.
//!
//! A *kernel set* ([`FamilyKernels`]) is everything the `jj → ii → kk`
//! block walk needs from one register tile at one element type: the tile
//! `(mr, nr, lanes)`, the full-tile kernel as two slots over one body —
//! `kernel` (plain) and `kernel_pack` (also packing the panel it reads,
//! Figure 4 step ①) — the edge kernel in both Figure 6
//! schedules, the transposing pack, and — on the 128-bit set only — the
//! NT pack panel. A *family* ([`KernelFamily`]) is the f32 and f64 sets of
//! one ISA level. Every entry point is a monomorphic `unsafe fn` emitted
//! by one macro (`kernel_set!`) that wraps the const-generic bodies of
//! [`crate::main_kernel`],
//! [`crate::edge`], [`crate::pack`] and [`crate::nt_pack`] — all
//! `#[inline(always)]` — in that level's `#[target_feature]`, so a default
//! build emits real 256/512-bit FMA and shuffles with no global
//! `RUSTFLAGS`.
//!
//! Three families ship. The 128-bit tiles are compiled unconditionally
//! (SSE2/NEON are baseline); anything wider is a **runtime** property of
//! the host, registered only after the [`shalom_simd::caps`] probe passes.
//! The wide constants are *checked against the Eq. 1–2 solver at
//! registration*, so they cannot drift from the analytic model:
//!
//! | family | registers | f32 tile | f64 tile |
//! |---|---|---|---|
//! | base (SSE2 / NEON / scalar, 128-bit) | 32, 1 reserved | 7 × 12 | 7 × 6 |
//! | AVX2+FMA (256-bit) | 16 YMM, 1 reserved | 7 × 8 | 4 × 8 |
//! | AVX-512F (512-bit) | 32 ZMM, 1 reserved | 15 × 16 | 9 × 16 |
//!
//! **FMA form.** The base set's main kernels multiply by a lane of a loaded
//! A vector (the paper's `fmla v, v, v.s[i]`); the wide sets broadcast each
//! `A[i, k]` and issue a plain FMA, as their edge kernels always have.
//!
//! **Rounding contract.** Within a wide set every kernel — the full-tile
//! body under any B handling, edge with its remainder rows *and* columns —
//! rounds a C element identically: one fused multiply-add chain over the
//! `kc` block in increasing `k`, then the `writeback_row` epilogue
//! (`acc * alpha`, or `acc * alpha + c * beta`). A transposed operand is
//! packed (a copy) and then read by those same kernels, so which kernel,
//! which mode, which packing regime or which thread covers an element
//! never shows in the bits. The base set computes exactly what the 128-bit
//! kernels always did (its edge kernel keeps the scalar column tail), and
//! its NT pack panel keeps its inner-product rounding on the first
//! [`crate::nt_pack::NT_ROWS`] rows of a fused panel.

#[cfg(any(test, all(target_arch = "x86_64", not(feature = "force-scalar"))))]
use crate::tile::{solve_tile, TileConstraints};
use shalom_matrix::Scalar;
use shalom_simd::caps::{self, Isa};
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
use std::sync::OnceLock;

/// AVX2 f32 tile rows (Eq. 1 over 15 usable YMM, `j = 8`).
pub const AVX2_MR_F32: usize = 7;
/// AVX2 f32 tile columns (`nrv = 1` vector of 8 lanes).
pub const AVX2_NR_F32: usize = 8;
/// AVX2 f64 tile rows (Eq. 1 over 15 usable YMM, `j = 4`).
pub const AVX2_MR_F64: usize = 4;
/// AVX2 f64 tile columns (`nrv = 2` vectors of 4 lanes).
pub const AVX2_NR_F64: usize = 8;
/// AVX-512 f32 tile rows (Eq. 1 over 31 usable ZMM, `j = 16`).
pub const AVX512_MR_F32: usize = 15;
/// AVX-512 f32 tile columns (`nrv = 1` vector of 16 lanes).
pub const AVX512_NR_F32: usize = 16;
/// AVX-512 f64 tile rows (Eq. 1 over 31 usable ZMM, `j = 8`).
pub const AVX512_MR_F64: usize = 9;
/// AVX-512 f64 tile columns (`nrv = 2` vectors of 8 lanes).
pub const AVX512_NR_F64: usize = 16;

/// The full-tile main kernel — the exact
/// [`crate::main_kernel::main_kernel_shape`] signature, monomorphic so it
/// can live in a dispatch table: `(kc, alpha, a, lda, b, ldb, beta, c, ldc)`.
///
/// # Safety
/// Callers must uphold the `main_kernel_shape` contract for the set's
/// `(mr, nr)` tile, **and** the set's ISA must have been runtime-probed on
/// this host (the registry only hands out families whose probe passed).
/// The same two conditions govern every entry-point type below.
pub type FamilyKernelFn<T> =
    unsafe fn(usize, T, *const T, usize, *const T, usize, T, *mut T, usize);

/// [`crate::main_kernel::tile_kernel`] at the set's tile, packing every
/// B row it reads into `bc` at stride `nr`: `(kc, alpha, a, lda, b, ldb,
/// beta, c, ldc, bc)`. Its C is bitwise [`FamilyKernelFn`]'s.
pub type KernelPackFn<T> =
    unsafe fn(usize, T, *const T, usize, *const T, usize, T, *mut T, usize, *mut T);

/// An edge kernel for any `1 <= m <= mr`, `1 <= n <= nr`:
/// `(m, n, kc, alpha, a, lda, b, ldb, beta, c, ldc)`.
pub type EdgeFn<T> =
    unsafe fn(usize, usize, usize, T, *const T, usize, *const T, usize, T, *mut T, usize);

/// [`crate::nt_pack::nt_pack_panel`]:
/// `(m, npanel, kc, nr, alpha, a, lda, b, ldb, beta, c, ldc, bc)`.
pub type NtPackFn<T> = unsafe fn(
    usize,
    usize,
    usize,
    usize,
    T,
    *const T,
    usize,
    *const T,
    usize,
    T,
    *mut T,
    usize,
    *mut T,
);

/// [`crate::pack::pack_transpose_tiled`] at the set's vector type:
/// `(src, ld_src, rows, cols, dst, ld_dst, zpad)`.
pub type PackTransposeFn<T> = unsafe fn(*const T, usize, usize, usize, *mut T, usize, usize);

/// One element type's kernel set within a family: the register tile and
/// every entry point the blocked driver calls.
pub struct FamilyKernels<T> {
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// Lanes per vector (`kc` is blocked to a multiple of this).
    pub lanes: usize,
    /// The `mr x nr` main micro-kernel.
    pub kernel: FamilyKernelFn<T>,
    /// The same body packing the panel it reads (§5.3, Figure 4 step ①).
    pub kernel_pack: KernelPackFn<T>,
    /// Edge kernel, Figure 6b schedule.
    pub edge_pipelined: EdgeFn<T>,
    /// Edge kernel, Figure 6a schedule.
    pub edge_batched: EdgeFn<T>,
    /// NT pack panel (Algorithm 3) filling a `kc x nr` panel: the 7x3
    /// inner-product kernel derived for 128-bit registers, so only the
    /// 128-bit set has one. A set without it transpose-packs the panel.
    pub nt_pack: Option<NtPackFn<T>>,
    /// The transposing pack (TN/TT `At` block; NT/TT `Bc` panel).
    pub pack_transpose: PackTransposeFn<T>,
}

/// A registered kernel family: one ISA level, both precisions.
pub struct KernelFamily {
    /// The ISA this family's kernels require.
    pub isa: Isa,
    /// f32 kernels and tile.
    pub k_f32: FamilyKernels<f32>,
    /// f64 kernels and tile.
    pub k_f64: FamilyKernels<f64>,
}

/// Selects the per-element-type half of a [`KernelFamily`]. Implemented
/// for `f32`/`f64`; generic code that reaches the family table states
/// this bound on its element type.
pub trait FamilyElem: Scalar {
    /// This element type's kernels in `fam`.
    fn kernels(fam: &KernelFamily) -> &FamilyKernels<Self>
    where
        Self: Sized;
}

impl FamilyElem for f32 {
    #[inline(always)]
    fn kernels(fam: &KernelFamily) -> &FamilyKernels<f32> {
        &fam.k_f32
    }
}

impl FamilyElem for f64 {
    #[inline(always)]
    fn kernels(fam: &KernelFamily) -> &FamilyKernels<f64> {
        &fam.k_f64
    }
}

/// Emits one kernel set: a module of monomorphic entry points wrapping the
/// const-generic kernel bodies at `$MR x $NRV` vectors of `$V`, each
/// carrying the given attributes (the set's `#[target_feature]`), plus the
/// `KERNELS` table row. A trailing `nt_pack` also emits the Algorithm 3
/// panel and fills its slot; without it the slot is `None`. The bodies are `#[inline(always)]`, so they — and
/// the `SHALOM-V-SIMD` inner functions they call, whose feature sets are
/// subsets of the entry point's — compile at the entry point's ISA. `rows`
/// must list `1..=$MR` and `vecs` every full-vector count
/// [`crate::edge::split_cols`] yields for `n <= nr`; the edge-lattice tests
/// fail on a missing arm.
macro_rules! kernel_set {
    (@nt_slot) => {
        None
    };
    (@nt_slot $f:ident) => {
        Some($f)
    };
    ($(#[$isa:meta])* $name:ident: $T:ty, $V:ty, $MR:literal x $NRV:literal,
     rows $rows:tt, vecs $vecs:tt $(, $nt_pack:ident)?) => {
        pub(crate) mod $name {
            use super::FamilyKernels;
            use crate::edge::{edge_dispatch, split_cols};
            use crate::main_kernel::{main_kernel_shape, tile_kernel};
            #[allow(unused_imports)]
            use crate::nt_pack::nt_pack_panel;
            use crate::pack::pack_transpose_tiled;
            use crate::Vector;
            #[allow(unused_imports)]
            use shalom_simd::{F32x16, F32x4, F32x8, F64x2, F64x4, F64x8};

            const NR: usize = $NRV * <$V as Vector>::LANES;

            // Every entry point forwards its caller's contract unchanged
            // to the body it wraps at this set's tile.

            $(#[$isa])*
            /// # Safety
            /// SHALOM-K-MAIN at this tile; the set's ISA probe passed.
            pub unsafe fn main(
                kc: usize,
                alpha: $T,
                a: *const $T,
                lda: usize,
                b: *const $T,
                ldb: usize,
                beta: $T,
                c: *mut $T,
                ldc: usize,
            ) {
                main_kernel_shape::<$V, $MR, $NRV>(kc, alpha, a, lda, b, ldb, beta, c, ldc)
            }

            $(#[$isa])*
            /// # Safety
            /// SHALOM-K-MAIN (with `pack`) at this tile; the set's ISA
            /// probe passed.
            pub unsafe fn kernel_pack(
                kc: usize,
                alpha: $T,
                a: *const $T,
                lda: usize,
                b: *const $T,
                ldb: usize,
                beta: $T,
                c: *mut $T,
                ldc: usize,
                bc: *mut $T,
            ) {
                tile_kernel::<$V, $MR, $NRV, true>(kc, alpha, a, lda, b, ldb, beta, c, ldc, bc)
            }

            /// # Safety
            /// SHALOM-K-EDGE at this tile.
            #[inline(always)]
            unsafe fn edge<const PIPE: bool>(
                m: usize,
                n: usize,
                kc: usize,
                alpha: $T,
                a: *const $T,
                lda: usize,
                b: *const $T,
                ldb: usize,
                beta: $T,
                c: *mut $T,
                ldc: usize,
            ) {
                debug_assert!((1..=$MR).contains(&m) && (1..=NR).contains(&n));
                let (nv, ns) = split_cols::<$V>(n);
                edge_dispatch!(
                    $V,
                    PIPE,
                    $rows,
                    $vecs,
                    m,
                    nv,
                    (ns, kc, alpha, a, lda, b, ldb, beta, c, ldc)
                )
            }

            $(#[$isa])*
            /// # Safety
            /// SHALOM-K-EDGE at this tile; the set's ISA probe passed.
            pub unsafe fn edge_pipelined(
                m: usize,
                n: usize,
                kc: usize,
                alpha: $T,
                a: *const $T,
                lda: usize,
                b: *const $T,
                ldb: usize,
                beta: $T,
                c: *mut $T,
                ldc: usize,
            ) {
                edge::<true>(m, n, kc, alpha, a, lda, b, ldb, beta, c, ldc)
            }

            $(#[$isa])*
            /// # Safety
            /// SHALOM-K-EDGE at this tile; the set's ISA probe passed.
            pub unsafe fn edge_batched(
                m: usize,
                n: usize,
                kc: usize,
                alpha: $T,
                a: *const $T,
                lda: usize,
                b: *const $T,
                ldb: usize,
                beta: $T,
                c: *mut $T,
                ldc: usize,
            ) {
                edge::<false>(m, n, kc, alpha, a, lda, b, ldb, beta, c, ldc)
            }

            // Only the 128-bit set names one, and it needs no
            // `#[target_feature]`.
            $(
                /// # Safety
                /// SHALOM-K-NT-PANEL at this tile.
                pub unsafe fn $nt_pack(
                    m: usize,
                    npanel: usize,
                    kc: usize,
                    nr: usize,
                    alpha: $T,
                    a: *const $T,
                    lda: usize,
                    b: *const $T,
                    ldb: usize,
                    beta: $T,
                    c: *mut $T,
                    ldc: usize,
                    bc: *mut $T,
                ) {
                    nt_pack_panel::<$V>(
                        m, npanel, kc, nr, alpha, a, lda, b, ldb, beta, c, ldc, bc,
                    )
                }
            )?

            $(#[$isa])*
            /// # Safety
            /// SHALOM-K-PACK-TRANS; the set's ISA probe passed.
            pub unsafe fn pack_transpose(
                src: *const $T,
                ld_src: usize,
                rows: usize,
                cols: usize,
                dst: *mut $T,
                ld_dst: usize,
                zpad: usize,
            ) {
                pack_transpose_tiled::<$V>(src, ld_src, rows, cols, dst, ld_dst, zpad)
            }

            pub const KERNELS: FamilyKernels<$T> = FamilyKernels {
                mr: $MR,
                nr: NR,
                lanes: <$V as Vector>::LANES,
                kernel: main,
                kernel_pack,
                edge_pipelined,
                edge_batched,
                nt_pack: kernel_set!(@nt_slot $($nt_pack)?),
                pack_transpose,
            };
        }
    };
}

// The 128-bit tiles (paper §5.2.3: 7 x 12 / 7 x 6), compiled at the build's
// baseline features — one more family, not a separate code path.
// They alone carry the NT pack panel (§5.3's 7x3 is a 128-bit answer).
kernel_set!(base_f32: f32, F32x4, 7 x 3, rows [1 2 3 4 5 6 7], vecs [0 1 2 3], nt_pack);
kernel_set!(base_f64: f64, F64x2, 7 x 3, rows [1 2 3 4 5 6 7], vecs [0 1 2 3], nt_pack);

/// The x86 wide sets. Compiled for dispatch on x86_64, and in every test
/// build so the rounding-contract tests can run them as scalar `mul_add`
/// emulation under `force-scalar` and off x86.
#[cfg(any(test, all(target_arch = "x86_64", not(feature = "force-scalar"))))]
pub(crate) mod wide_sets {
    use super::FamilyKernels;

    kernel_set!(
        #[cfg_attr(
            all(target_arch = "x86_64", not(feature = "force-scalar")),
            target_feature(enable = "avx2", enable = "fma")
        )]
        avx2_f32: f32, F32x8, 7 x 1, rows [1 2 3 4 5 6 7], vecs [0]
    );
    kernel_set!(
        #[cfg_attr(
            all(target_arch = "x86_64", not(feature = "force-scalar")),
            target_feature(enable = "avx2", enable = "fma")
        )]
        avx2_f64: f64, F64x4, 4 x 2, rows [1 2 3 4], vecs [0 1]
    );
    kernel_set!(
        #[cfg_attr(
            all(target_arch = "x86_64", not(feature = "force-scalar")),
            target_feature(enable = "avx512f")
        )]
        avx512_f32: f32, F32x16, 15 x 1,
        rows [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15], vecs [0]
    );
    kernel_set!(
        #[cfg_attr(
            all(target_arch = "x86_64", not(feature = "force-scalar")),
            target_feature(enable = "avx512f")
        )]
        avx512_f64: f64, F64x8, 9 x 2, rows [1 2 3 4 5 6 7 8 9], vecs [0 1]
    );

    /// The two wide table rows of `isa`, unprobed (the registry and the
    /// tests decide whether they may run).
    pub(crate) fn sets(isa: super::Isa) -> Option<(FamilyKernels<f32>, FamilyKernels<f64>)> {
        match isa {
            super::Isa::Avx2W256 => Some((avx2_f32::KERNELS, avx2_f64::KERNELS)),
            super::Isa::Avx512W512 => Some((avx512_f32::KERNELS, avx512_f64::KERNELS)),
            _ => None,
        }
    }
}

/// The 128-bit family: always executable, so a plain `static`.
static BASE: KernelFamily = KernelFamily {
    isa: caps::base_isa(),
    k_f32: base_f32::KERNELS,
    k_f64: base_f64::KERNELS,
};

/// Registration-time guard: the wired `(mr, nr)` constants must equal the
/// Eq. 1–2 solver's answer for that ISA's register file, so the table can
/// never ship a tile that drifted from the analytic model.
#[cfg(any(test, all(target_arch = "x86_64", not(feature = "force-scalar"))))]
fn assert_tile_matches_solver(isa: Isa, lanes: usize, mr: usize, nr: usize) {
    let c = TileConstraints {
        vector_registers: isa.vector_registers(),
        reserved_registers: 1,
        lanes,
    };
    let t = solve_tile(&c);
    assert!(
        t.mr == mr && t.nr == nr,
        "family {}: wired tile ({mr}, {nr}) != solver tile ({}, {}) for {} registers, j = {lanes}",
        isa.label(),
        t.mr,
        t.nr,
        c.vector_registers,
    );
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
fn build_family(isa: Isa) -> Option<KernelFamily> {
    if !caps::supported(isa) {
        return None;
    }
    let (k_f32, k_f64) = wide_sets::sets(isa)?;
    assert_tile_matches_solver(isa, k_f32.lanes, k_f32.mr, k_f32.nr);
    assert_tile_matches_solver(isa, k_f64.lanes, k_f64.mr, k_f64.nr);
    Some(KernelFamily { isa, k_f32, k_f64 })
}

/// The family registered for `isa`, if this host can execute it — total
/// over the levels `core::plan::effective_isa` can resolve to: the
/// compile-time base always, a wide level when its probe passed. Wide
/// families are built (and solver-checked) once, on first request.
pub fn family_for(isa: Isa) -> Option<&'static KernelFamily> {
    if isa == BASE.isa {
        return Some(&BASE);
    }
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        static AVX2: OnceLock<Option<KernelFamily>> = OnceLock::new();
        static AVX512: OnceLock<Option<KernelFamily>> = OnceLock::new();
        match isa {
            Isa::Avx2W256 => return AVX2.get_or_init(|| build_family(isa)).as_ref(),
            Isa::Avx512W512 => return AVX512.get_or_init(|| build_family(isa)).as_ref(),
            _ => {}
        }
    }
    None
}

/// `T`'s kernel set at `isa`; the 128-bit set when `isa` has no registered
/// family on this host (which `effective_isa` never hands the driver).
#[inline]
pub fn kernels_for<T: FamilyElem>(isa: Isa) -> &'static FamilyKernels<T> {
    T::kernels(family_for(isa).unwrap_or(&BASE))
}

/// The widest family this host can execute, or `None` when the 128-bit
/// substrate is already the best available (non-x86, `force-scalar`, or
/// hardware without AVX2+FMA).
pub fn selected_wide_family() -> Option<&'static KernelFamily> {
    let best = caps::best_isa();
    if best.is_wide() {
        family_for(best)
    } else {
        None
    }
}

/// Every family this host can execute, the 128-bit one first.
pub fn registered_families() -> impl Iterator<Item = &'static KernelFamily> {
    [caps::base_isa(), Isa::Avx2W256, Isa::Avx512W512]
        .into_iter()
        .filter_map(family_for)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;
    use shalom_matrix::gemm_tolerance;

    /// Satellite guard in test form: the wired constants equal the solver
    /// output on every build (the registry re-asserts this at runtime
    /// registration on hosts that can actually build the families).
    #[test]
    fn family_tiles_match_solver_on_all_builds() {
        for (isa, lanes, mr, nr) in [
            (Isa::Avx2W256, 8, AVX2_MR_F32, AVX2_NR_F32),
            (Isa::Avx2W256, 4, AVX2_MR_F64, AVX2_NR_F64),
            (Isa::Avx512W512, 16, AVX512_MR_F32, AVX512_NR_F32),
            (Isa::Avx512W512, 8, AVX512_MR_F64, AVX512_NR_F64),
        ] {
            assert_tile_matches_solver(isa, lanes, mr, nr);
            let (k32, k64) = wide_sets::sets(isa).expect("a wide level");
            let ks = if lanes == k32.lanes {
                (k32.mr, k32.nr)
            } else {
                (k64.mr, k64.nr)
            };
            assert_eq!(ks, (mr, nr), "table row of {} at j = {lanes}", isa.label());
        }
        assert_eq!((BASE.k_f32.mr, BASE.k_f32.nr, BASE.k_f32.lanes), (7, 12, 4));
        assert_eq!((BASE.k_f64.mr, BASE.k_f64.nr, BASE.k_f64.lanes), (7, 6, 2));
    }

    #[test]
    fn registry_is_total_over_executable_levels() {
        let caps = caps::detect();
        let on_wide_x86 = cfg!(all(target_arch = "x86_64", not(feature = "force-scalar")));
        assert_eq!(
            family_for(Isa::Avx2W256).is_some(),
            on_wide_x86 && caps.avx2_fma
        );
        assert_eq!(
            family_for(Isa::Avx512W512).is_some(),
            on_wide_x86 && caps.avx512f
        );
        // The compile-time base is always registered — and is the only
        // 128-bit level that is.
        assert_eq!(
            family_for(caps::base_isa()).map(|f| f.isa),
            Some(caps::base_isa())
        );
        for isa in [Isa::Scalar, Isa::Sse128, Isa::Neon128] {
            assert_eq!(family_for(isa).is_some(), isa == caps::base_isa());
        }
        // Everything `requested_isa()` can hand the plan layer resolves.
        assert!(family_for(caps::best_isa()).is_some());
        assert_eq!(
            registered_families().count(),
            1 + usize::from(on_wide_x86 && caps.avx2_fma)
                + usize::from(on_wide_x86 && caps.avx512f)
        );
        if let Some(fam) = selected_wide_family() {
            assert_eq!(fam.isa, caps::best_isa());
            assert!(fam.isa.is_wide());
        } else {
            assert!(!caps::best_isa().is_wide() || !on_wide_x86);
        }
    }

    /// Whether this build may execute the (unregistered) table rows of
    /// `isa`: native x86 needs the probe, every other build runs them as
    /// scalar `mul_add` emulation.
    fn can_run(isa: Isa) -> bool {
        !cfg!(all(target_arch = "x86_64", not(feature = "force-scalar"))) || caps::supported(isa)
    }

    fn gen<T: Scalar>(seed: usize, len: usize) -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64((((i * 31 + seed * 17) % 23) as f64 - 11.0) / 7.0))
            .collect()
    }

    /// Element-type glue for the bitwise model: the exactly-rounded fused
    /// multiply-add and the raw bits.
    trait Fused: FamilyElem {
        fn fma(a: Self, b: Self, acc: Self) -> Self;
        fn bits(self) -> u64;
    }
    impl Fused for f32 {
        fn fma(a: f32, b: f32, acc: f32) -> f32 {
            a.mul_add(b, acc)
        }
        fn bits(self) -> u64 {
            u64::from(self.to_bits())
        }
    }
    impl Fused for f64 {
        fn fma(a: f64, b: f64, acc: f64) -> f64 {
            a.mul_add(b, acc)
        }
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    const LD_PAD: usize = 3;

    /// Checks one `m x n` tile update `run` wrote into `c` (row stride
    /// `n + LD_PAD`, padding pre-filled with a sentinel) against the wide
    /// sets' rounding contract, **bitwise**: each C element is one fused
    /// multiply-add chain over `k` in increasing order
    /// (`acc = fma(b, a, acc)`), then `alpha * acc` for `beta == 0` or
    /// `(alpha * acc) + (beta * c)` in exactly-rounded plain ops — and
    /// nothing outside the tile is written. Also within the benchmark's
    /// tolerance of the f64 reference.
    ///
    /// Running the same check against the native kernels here and against
    /// the scalar-emulated kernels in a `force-scalar` build proves the
    /// two builds bitwise-identical transitively: both must equal this
    /// model, so they equal each other. Returns C as `run` left it.
    fn check_tile<T: Fused>(
        what: &str,
        (m, n, kc): (usize, usize, usize),
        (alpha, beta): (f64, f64),
        a: &[T],
        b: &[T],
        ldb: usize,
        run: impl FnOnce(T, T, *mut T, usize),
    ) -> Vec<T> {
        let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
        let ldc = n + LD_PAD;
        let sentinel = T::from_f64(-77.0);
        let c0 = gen::<T>(3, m * n);
        let mut c = vec![sentinel; m * ldc];
        for i in 0..m {
            c[i * ldc..i * ldc + n].copy_from_slice(&c0[i * n..(i + 1) * n]);
        }
        run(alpha, beta, c.as_mut_ptr(), ldc);
        let tol = gemm_tolerance::<T>(kc, 1.0);
        for i in 0..m {
            for j in 0..n {
                let (mut acc, mut exact) = (T::ZERO, 0.0f64);
                for p in 0..kc {
                    acc = T::fma(b[p * ldb + j], a[i * kc + p], acc);
                    exact += a[i * kc + p].to_f64() * b[p * ldb + j].to_f64();
                }
                let want = if beta == T::ZERO {
                    acc * alpha
                } else {
                    acc * alpha + c0[i * n + j] * beta
                };
                let got = c[i * ldc + j];
                assert!(
                    got.bits() == want.bits(),
                    "{what} {m}x{n}x{kc} ({i},{j}): got {got}, model {want}"
                );
                let exact = alpha.to_f64() * exact + beta.to_f64() * c0[i * n + j].to_f64();
                assert!(
                    (got.to_f64() - exact).abs() <= tol,
                    "{what} {m}x{n}x{kc} ({i},{j}): got {got}, reference {exact}"
                );
            }
            for pad in n..ldc {
                assert!(
                    c[i * ldc + pad].bits() == sentinel.bits(),
                    "{what} {m}x{n}x{kc}: wrote C[{i}, {pad}] beyond the tile"
                );
            }
        }
        c
    }

    /// Every NN entry point of one kernel set against the bitwise model:
    /// `kernel` on the source panel and on its packed copy, `kernel_pack`
    /// (which must also store exactly the panel it read into a
    /// sentinel-filled `bc`) at the full tile, both edge schedules over
    /// every `m <= mr`, `n <= nr`.
    fn check_set<T: Fused>(label: &str, ks: &FamilyKernels<T>) {
        let (mr, nr, lanes) = (ks.mr, ks.nr, ks.lanes);
        let abs = [(1.0, 0.0), (1.0, 1.0), (-1.5, 0.5)];
        for kc in [0usize, 1, 2, lanes - 1, lanes, lanes + 1, 2 * lanes, 33] {
            let a = gen::<T>(1, mr * kc);
            // Two panels side by side: the tile's own and a neighbour no
            // call may read into `bc`.
            let ldb = 2 * nr;
            let b = gen::<T>(2, kc * ldb);
            let packed: Vec<T> = (0..kc * nr).map(|x| b[x / nr * ldb + x % nr]).collect();
            let same = |x: &[T], y: &[T]| x.iter().zip(y).all(|(p, q)| p.bits() == q.bits());
            for ab in abs {
                // Operands of every call below: a is mr x kc at stride kc,
                // b is kc x 2nr at stride 2nr (`packed` its first panel at
                // stride nr), c is the m x n tile at stride n + LD_PAD,
                // bc is kc x nr; the caller checked `can_run`.
                // SAFETY: full tile of the operands described above.
                let main = |al, be, c, ldc| unsafe {
                    (ks.kernel)(kc, al, a.as_ptr(), kc, b.as_ptr(), ldb, be, c, ldc)
                };
                let plain = check_tile(label, (mr, nr, kc), ab, &a, &b, ldb, main);
                // The rows after a fused panel's first `mr` read `bc` at
                // stride nr: the same bits.
                // SAFETY: as above.
                let from_bc = |al, be, c, ldc| unsafe {
                    (ks.kernel)(kc, al, a.as_ptr(), kc, packed.as_ptr(), nr, be, c, ldc)
                };
                let what = format!("{label} kernel from bc");
                let got = check_tile(&what, (mr, nr, kc), ab, &a, &packed, nr, from_bc);
                assert!(same(&got, &plain), "{what} differs from kernel");
                let sentinel = T::from_f64(-77.0);
                let mut bc = vec![sentinel; kc * nr];
                let bc_ptr = bc.as_mut_ptr();
                // SAFETY: as above, plus the kc x nr bc panel.
                let run = |al, be, c, ldc| unsafe {
                    (ks.kernel_pack)(kc, al, a.as_ptr(), kc, b.as_ptr(), ldb, be, c, ldc, bc_ptr)
                };
                let what = format!("{label} kernel_pack");
                let got = check_tile(&what, (mr, nr, kc), ab, &a, &b, ldb, run);
                assert!(same(&got, &plain), "{what} differs from kernel");
                assert!(same(&bc, &packed), "{what}: bc is not the panel read");
            }
            // The edge lattice: remainder rows and remainder columns.
            for m in 1..=mr {
                for n in 1..=nr {
                    for (edge, sched) in [(ks.edge_pipelined, "pipe"), (ks.edge_batched, "batch")] {
                        let what = format!("{label} edge-{sched}");
                        let ab = abs[(m + n) % abs.len()];
                        // SAFETY: the leading m x n sub-tile of the same operands.
                        let run = |al, be, c, ldc| unsafe {
                            edge(m, n, kc, al, a.as_ptr(), kc, b.as_ptr(), ldb, be, c, ldc)
                        };
                        check_tile(&what, (m, n, kc), ab, &a, &b, ldb, run);
                    }
                }
            }
        }
    }

    #[test]
    fn family_kernels_are_bitwise_the_fused_model() {
        for isa in [Isa::Avx2W256, Isa::Avx512W512] {
            if !can_run(isa) {
                continue;
            }
            let (k32, k64) = wide_sets::sets(isa).expect("a wide level");
            check_set(&format!("{} f32", isa.label()), &k32);
            check_set(&format!("{} f64", isa.label()), &k64);
        }
    }

    /// The 128-bit set's entry points are the generic 7x12 / 7x6 kernels,
    /// bit for bit: registering the base tiles as a family changed how
    /// they are reached, not what they compute. Covers `kernel`,
    /// `kernel_pack` (C and the packed panel) and both edge schedules
    /// over the whole lattice.
    fn check_base<V: Vector>(ks: &FamilyKernels<V::Elem>)
    where
        V::Elem: Fused,
    {
        use crate::edge::{edge_kernel_batched, edge_kernel_pipelined};
        use crate::main_kernel::{main_kernel, tile_kernel};
        use crate::{MR, NR_VECS};
        let (mr, nr, kc) = (ks.mr, ks.nr, 9);
        assert_eq!((mr, nr), (MR, NR_VECS * V::LANES));
        // B holds two panels side by side: the tile's own and the next one.
        let ldb = 2 * nr;
        let (a, b) = (gen::<V::Elem>(1, mr * kc), gen::<V::Elem>(2, kc * ldb));
        let (al, be) = (V::Elem::from_f64(1.5), V::Elem::from_f64(0.5));
        let same =
            |x: &[V::Elem], y: &[V::Elem]| x.iter().zip(y).all(|(p, q)| p.bits() == q.bits());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        // The seeded C tile of `len` elements after `f` updated it.
        let tile = |len: usize, f: &dyn Fn(*mut V::Elem)| {
            let mut c = gen::<V::Elem>(3, len);
            f(c.as_mut_ptr());
            c
        };
        for m in 1..=mr {
            for n in 1..=nr {
                // SAFETY: a is mr x kc at stride kc, b is kc x 2nr at stride
                // 2nr, C is the m x n tile at stride n.
                let run = |f: EdgeFn<V::Elem>| {
                    tile(m * n, &|c| unsafe {
                        f(m, n, kc, al, ap, kc, bp, ldb, be, c, n)
                    })
                };
                assert!(
                    same(&run(ks.edge_pipelined), &run(edge_kernel_pipelined::<V>)),
                    "pipe {m}x{n}"
                );
                assert!(
                    same(&run(ks.edge_batched), &run(edge_kernel_batched::<V>)),
                    "batch {m}x{n}"
                );
            }
        }
        // SAFETY: as above, C being the mr x nr tile at stride nr.
        let main = |f: FamilyKernelFn<V::Elem>| {
            tile(mr * nr, &|c| unsafe {
                f(kc, al, ap, kc, bp, ldb, be, c, nr)
            })
        };
        assert!(same(&main(ks.kernel), &main(main_kernel::<V>)), "kernel");
        // C and the packed kc x nr panel after `f` ran with them.
        let pack = |f: &dyn Fn(*mut V::Elem, *mut V::Elem)| {
            let mut bc = vec![V::Elem::ZERO; kc * nr];
            let bcp = bc.as_mut_ptr();
            (tile(mr * nr, &|c| f(c, bcp)), bc)
        };
        // SAFETY: as above, plus the kc x nr panel.
        let table =
            pack(&|c, bc| unsafe { (ks.kernel_pack)(kc, al, ap, kc, bp, ldb, be, c, nr, bc) });
        // SAFETY: as above.
        let generic = pack(&|c, bc| unsafe {
            tile_kernel::<V, MR, NR_VECS, true>(kc, al, ap, kc, bp, ldb, be, c, nr, bc)
        });
        assert!(
            same(&table.0, &generic.0) && same(&table.1, &generic.1),
            "kernel_pack"
        );
    }

    #[test]
    fn base_set_is_the_generic_128_bit_kernels() {
        use shalom_simd::{F32x4, F64x2};
        check_base::<F32x4>(&BASE.k_f32);
        check_base::<F64x2>(&BASE.k_f64);
    }
}

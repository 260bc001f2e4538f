//! Portable 128-bit SIMD substrate modelling the ARMv8 NEON register file.
//!
//! LibShalom's micro-kernels are written against the ARMv8 AdvSIMD (NEON)
//! model: 32 logical vector registers, each 128 bits wide, holding `j = 4`
//! `f32` lanes or `j = 2` `f64` lanes, with a *lane-indexed* fused
//! multiply-add (`fmla vd.4s, vn.4s, vm.s[lane]`) used to form the
//! outer-product update at the heart of the GEMM micro-kernel (paper §5).
//!
//! This crate provides exactly that operation set as two value types,
//! [`F32x4`] and [`F64x2`], with three backends selected at compile time:
//!
//! * **x86_64** — SSE2 (`__m128` / `__m128d`); the lane-indexed FMA is a
//!   lane-splat shuffle followed by `_mm_fmadd_ps` when the build enables
//!   the `fma` target feature (the workspace `.cargo/config.toml` passes
//!   `-C target-cpu=native`), or an unfused multiply-add otherwise. The
//!   wide x86 types ([`wide`], [`wide512`]) have no lane-indexed FMA: x86
//!   has no FMA-by-element, so the kernels built on them broadcast each A
//!   element and issue a plain FMA instead of paying a shuffle per FMA.
//! * **aarch64** — native NEON intrinsics (`vfmaq_laneq_f32`, …), i.e. the
//!   instructions the paper's hand-written assembly uses.
//! * **scalar** — plain arrays; always available, also used as the reference
//!   implementation in this crate's tests, and forced by the `force-scalar`
//!   feature.
//!
//! The substitution from the paper's hardware is behaviour-preserving for
//! the analytic models: the register-tile solver (paper Eq. 1–2, implemented
//! in `shalom-kernels`) depends only on the vector *width* (128 bits), the
//! lane count `j`, and the register-file size (32), all of which this model
//! reproduces.

#![deny(missing_docs)]
#![allow(clippy::should_implement_trait)]
#![allow(clippy::needless_range_loop)]

pub mod caps;
mod f32x4;
mod f64x2;
pub mod scalar;
pub mod wide;
pub mod wide512;

pub use caps::{base_isa, best_isa, Isa};
pub use f32x4::F32x4;
pub use f64x2::F64x2;
pub use wide::{F32x8, F64x4};
pub use wide512::{F32x16, F64x8};

/// `out[c][r] = rows[r][c]` on plain lane arrays: the transpose every
/// vector type falls back to where it has no shuffle sequence (NEON, the
/// scalar backend, `force-scalar`).
#[allow(dead_code)] // unused when every type takes its x86 path
#[inline(always)]
pub(crate) fn transpose_arrays<T: Copy, const N: usize>(rows: [[T; N]; N]) -> [[T; N]; N] {
    core::array::from_fn(|c| core::array::from_fn(|r| rows[r][c]))
}

/// Number of architectural 128-bit vector registers in the ARMv8 model
/// (`V0`–`V31`). The micro-kernel tile solver budgets against this count.
pub const VECTOR_REGISTERS: usize = 32;

/// Vector width in bits for the AdvSIMD model this crate implements.
pub const VECTOR_BITS: usize = 128;

/// Which code path the vector types compile to on this build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// x86_64 SSE2, with FMA contraction if the `fma` target feature is on.
    X86Sse,
    /// AArch64 NEON (the paper's native target).
    Neon,
    /// Plain scalar arrays.
    Scalar,
}

/// Returns the backend the vector types use in this build.
pub const fn active_backend() -> Backend {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        Backend::X86Sse
    }
    #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
    {
        Backend::Neon
    }
    #[cfg(any(
        feature = "force-scalar",
        not(any(target_arch = "x86_64", target_arch = "aarch64"))
    ))]
    {
        Backend::Scalar
    }
}

/// True if the compiled code contracts `a*b+c` into a single fused
/// multiply-add (one rounding). Tests use this to pick tolerances.
pub const fn fma_is_fused() -> bool {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "fma",
        not(feature = "force-scalar")
    ))]
    {
        true
    }
    #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
    {
        true
    }
    #[cfg(not(any(
        all(
            target_arch = "x86_64",
            target_feature = "fma",
            not(feature = "force-scalar")
        ),
        all(target_arch = "aarch64", not(feature = "force-scalar"))
    )))]
    {
        false
    }
}

/// Hints the hardware prefetcher to pull the cache line at `ptr` for a
/// future read. Maps to `prefetcht0` / `prfm pldl1keep`; a no-op on the
/// scalar backend. The paper reserves one vector register plus explicit
/// prefetches for the next A/B elements (§5.2.1); we model that with this
/// instruction-level hint.
///
/// # Safety
/// `ptr` must be a valid pointer (it need not be dereferenceable for a full
/// cache line; prefetch never faults architecturally, but Rust still
/// requires the pointer itself to be non-dangling for provenance).
#[inline(always)]
pub unsafe fn prefetch_read<T>(ptr: *const T) {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
    {
        // No stable prefetch intrinsic on aarch64; a plain read-ahead via
        // `read_volatile` would perturb semantics, so rely on the hardware
        // stride prefetcher there.
        let _ = ptr;
    }
    #[cfg(any(
        feature = "force-scalar",
        not(any(target_arch = "x86_64", target_arch = "aarch64"))
    ))]
    {
        let _ = ptr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_matches_build() {
        // On this CI/host matrix we only ever build the three known arms.
        let b = active_backend();
        if cfg!(feature = "force-scalar") {
            assert_eq!(b, Backend::Scalar);
        } else if cfg!(target_arch = "x86_64") {
            assert_eq!(b, Backend::X86Sse);
        } else if cfg!(target_arch = "aarch64") {
            assert_eq!(b, Backend::Neon);
        } else {
            assert_eq!(b, Backend::Scalar);
        }
    }

    #[test]
    fn register_file_model() {
        assert_eq!(VECTOR_REGISTERS, 32);
        assert_eq!(VECTOR_BITS, 128);
        assert_eq!(F32x4::LANES * 32, VECTOR_BITS);
        assert_eq!(F64x2::LANES * 64, VECTOR_BITS);
    }

    /// Every type's transpose moves lane `c` of row `r` to lane `r` of row
    /// `c` and alters no bit: each element is a distinct NaN payload.
    #[test]
    fn transposes_permute_lanes_bit_for_bit() {
        macro_rules! check {
            ($V:ty, $E:ty, $B:ty, $N:literal, $nan:expr) => {{
                let rows: [[$E; $N]; $N] = core::array::from_fn(|r| {
                    core::array::from_fn(|c| <$E>::from_bits($nan | (1 + r * $N + c) as $B))
                });
                let out = <$V>::transpose(rows.map(<$V>::from_array)).map(<$V>::to_array);
                for r in 0..$N {
                    for c in 0..$N {
                        assert_eq!(out[c][r].to_bits(), rows[r][c].to_bits(), "({r}, {c})");
                    }
                }
            }};
        }
        check!(F32x4, f32, u32, 4, 0x7FC0_0000);
        check!(F64x2, f64, u64, 2, 0x7FF8_0000_0000_0000);
        let caps = caps::detect();
        let native = cfg!(all(target_arch = "x86_64", not(feature = "force-scalar")));
        if !native || caps.avx2_fma {
            check!(F32x8, f32, u32, 8, 0x7FC0_0000);
            check!(F64x4, f64, u64, 4, 0x7FF8_0000_0000_0000);
        }
        if !native || caps.avx512f {
            check!(F32x16, f32, u32, 16, 0x7FC0_0000);
            check!(F64x8, f64, u64, 8, 0x7FF8_0000_0000_0000);
        }
    }

    #[test]
    fn prefetch_does_not_crash() {
        let data = [0f32; 64];
        unsafe { prefetch_read(data.as_ptr()) };
    }
}

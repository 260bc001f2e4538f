//! 256-bit wide vector types — the §5.5 extension point, runtime-dispatched.
//!
//! The paper notes its method "can be applied to a longer vector length
//! with a revised mr and nr computed according to the available number
//! and length of vector registers" (SVE on A64FX/ARMv9, wider x86
//! vectors). These types provide the 256-bit operation set: [`F32x8`]
//! (`j = 8`) and [`F64x4`] (`j = 4`), the same [`Vector`](crate::Vector)
//! trait as the 128-bit types so the generic kernels instantiate
//! unchanged — except the lane-indexed FMA: x86 has no FMA-by-element, so
//! the kernels broadcast A elements into a plain
//! [`Vector::fma`](crate::Vector::fma) instead.
//! Both types, and the 512-bit ones in [`crate::wide512`], are emitted by
//! one shared body (`crate::wide_body`); this module holds their AVX2
//! intrinsics.
//!
//! # Runtime dispatch contract (`SHALOM-V-SIMD`)
//!
//! Unlike the 128-bit substrate, AVX2+FMA cannot be assumed by a default
//! `cargo build`. These types therefore keep a **plain array
//! representation** on every build and route their arithmetic through
//! small `#[target_feature(enable = ...)]`-attributed inner functions on
//! x86_64 — so a default build emits real 256-bit FMA without global
//! `RUSTFLAGS`, and the types are ABI-safe to pass around everywhere.
//! The inner functions are only *sound to execute* on a host with
//! AVX2+FMA; the dispatch layer ([`crate::caps`]) probes the CPU before
//! any kernel family built on these types is selected, and that probe is
//! the safety argument for every `SAFETY: SHALOM-V-SIMD` comment in the
//! shared body. Code that bypasses the dispatch layer must check
//! [`crate::caps::detect`] itself (the tests do).
//!
//! # Rounding contract
//!
//! Wide arithmetic is **always fused**: one rounding per multiply-add on
//! every path. On x86_64 that is hardware `vfmadd`; on the scalar
//! fallback (aarch64 polyfill, `force-scalar`, other arches) it is
//! [`f32::mul_add`]/[`f64::mul_add`], which IEEE 754 defines as exactly
//! rounded — bitwise identical to the hardware instruction. Horizontal
//! reduction ([`Vector::reduce_sum`](crate::Vector::reduce_sum)) sums the
//! lane array in a fixed pairwise order on every path. Consequently a
//! `force-scalar` build and a native build produce **bitwise identical**
//! results through the wide kernels; this differs from the 128-bit path,
//! whose fusion follows the build's `fma` target feature (see
//! [`crate::fma_is_fused`]).
//!
//! shalom-analysis: deny(panic)

use crate::wide_body::wide_vector;
use crate::{F32x4, F64x2};

wide_vector! {
    /// 256-bit vector of eight `f32` lanes, stored as a plain array.
    F32x8([f32; 8]), half F32x4, probe avx2_fma,
    x86::{add_ps, mul_ps, fmadd_ps, maskload_ps, maskstore_ps, transpose_ps}
}

wide_vector! {
    /// 256-bit vector of four `f64` lanes, stored as a plain array.
    F64x4([f64; 4]), half F64x2, probe avx2_fma,
    x86::{add_pd, mul_pd, fmadd_pd, maskload_pd, maskstore_pd, transpose_pd}
}

/// AVX2+FMA backends. Array parameters/returns keep the ABI
/// vector-type-free (arrays pass indirectly), so these are callable from
/// code compiled without the features; the `transmute`s are size-exact
/// (`[f32; 8]` ↔ `__m256`, 32 bytes). Feature sets are subsets of the
/// kernel-family wrappers' `avx2,fma`, so all of these inline there.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
// Every transmute here is the same size-exact array ↔ vector-register
// cast; spelling both types at each site would only obscure the
// intrinsic sequences.
#[allow(clippy::missing_transmute_annotations)]
mod x86 {
    use core::arch::x86_64::*;
    use core::mem::transmute;

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn add_ps(a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        transmute(_mm256_add_ps(transmute(a), transmute(b)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn mul_ps(a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        transmute(_mm256_mul_ps(transmute(a), transmute(b)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx", enable = "fma")]
    pub unsafe fn fmadd_ps(acc: [f32; 8], a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        transmute(_mm256_fmadd_ps(transmute(a), transmute(b), transmute(acc)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn add_pd(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        transmute(_mm256_add_pd(transmute(a), transmute(b)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn mul_pd(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        transmute(_mm256_mul_pd(transmute(a), transmute(b)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx", enable = "fma")]
    pub unsafe fn fmadd_pd(acc: [f64; 4], a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        transmute(_mm256_fmadd_pd(transmute(a), transmute(b), transmute(acc)))
    }

    /// Lane mask selecting the first `n` of eight 32-bit lanes.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mask_ps(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// Masked load of the first `n` lanes (`vmaskmovps`); masked-out
    /// lanes read as zero and are never touched in memory.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe; `ptr` covers `n` elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn maskload_ps(ptr: *const f32, n: usize) -> [f32; 8] {
        transmute(_mm256_maskload_ps(ptr, mask_ps(n)))
    }

    /// Masked store of the first `n` lanes.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe; `ptr` covers `n` elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn maskstore_ps(ptr: *mut f32, n: usize, v: [f32; 8]) {
        _mm256_maskstore_ps(ptr, mask_ps(n), transmute(v))
    }

    /// Lane mask selecting the first `n` of four 64-bit lanes.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mask_pd(n: usize) -> __m256i {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
    }

    /// Masked load of the first `n` lanes (`vmaskmovpd`).
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe; `ptr` covers `n` elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn maskload_pd(ptr: *const f64, n: usize) -> [f64; 4] {
        transmute(_mm256_maskload_pd(ptr, mask_pd(n)))
    }

    /// Masked store of the first `n` lanes.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe; `ptr` covers `n` elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn maskstore_pd(ptr: *mut f64, n: usize, v: [f64; 4]) {
        _mm256_maskstore_pd(ptr, mask_pd(n), transmute(v))
    }

    /// 8x8 `f32` transpose: `out[c][r] = rows[r][c]` — unpack pairs,
    /// shuffle quads, then swap the 128-bit halves (24 shuffles, AVX only).
    // PANIC-OK(index): constant indices into the eight-row array.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn transpose_ps(rows: [[f32; 8]; 8]) -> [[f32; 8]; 8] {
        let r: [__m256; 8] = transmute(rows);
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        transmute([
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ])
    }

    /// 4x4 `f64` transpose: unpack pairs, then swap the 128-bit halves.
    // PANIC-OK(index): constant indices into the four-row array.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX2+FMA caps probe.
    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn transpose_pd(rows: [[f64; 4]; 4]) -> [[f64; 4]; 4] {
        let r: [__m256d; 4] = transmute(rows);
        let t0 = _mm256_unpacklo_pd(r[0], r[1]);
        let t1 = _mm256_unpackhi_pd(r[0], r[1]);
        let t2 = _mm256_unpacklo_pd(r[2], r[3]);
        let t3 = _mm256_unpackhi_pd(r[2], r[3]);
        transmute([
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ])
    }
}

//! 512-bit wide vector types — the second rung of the §5.5 ladder.
//!
//! [`F32x16`] (`j = 16`) and [`F64x8`] (`j = 8`) extend the wide model to
//! AVX-512F with the same [`Vector`](crate::Vector) trait as the
//! 128/256-bit types, so the generic kernels instantiate unchanged at a
//! 512-bit width and the tile solver re-runs Eq. 1 against the
//! 32-register ZMM file.
//!
//! The representation, dispatch contract, and rounding contract are
//! exactly those of [`crate::wide`], and the body is the same shared one:
//! plain-array storage on every build,
//! `#[target_feature(enable = "avx512f")]` inner functions on x86_64
//! whose execution is justified by the [`crate::caps`] probe
//! (`SAFETY: SHALOM-V-SIMD`), and always-fused multiply-adds (`vfmadd` /
//! exactly-rounded [`f32::mul_add`]) so `force-scalar` and native builds
//! agree bitwise. Like the 256-bit types they have no lane-indexed FMA.
//!
//! shalom-analysis: deny(panic)

use crate::wide_body::wide_vector;
use crate::{F32x8, F64x4};

wide_vector! {
    /// 512-bit vector of sixteen `f32` lanes, stored as a plain array.
    F32x16([f32; 16]), half F32x8, probe avx512f,
    x86::{add_ps, mul_ps, fmadd_ps, maskload_ps, maskstore_ps, transpose_ps}
}

wide_vector! {
    /// 512-bit vector of eight `f64` lanes, stored as a plain array.
    F64x8([f64; 8]), half F64x4, probe avx512f,
    x86::{add_pd, mul_pd, fmadd_pd, maskload_pd, maskstore_pd, transpose_pd}
}

/// AVX-512F backends; see `crate::wide::x86` for the ABI rationale
/// (arrays pass indirectly, `transmute` is size-exact at 64 bytes).
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[allow(clippy::missing_transmute_annotations)]
mod x86 {
    use core::arch::x86_64::*;
    use core::mem::transmute;

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn add_ps(a: [f32; 16], b: [f32; 16]) -> [f32; 16] {
        transmute(_mm512_add_ps(transmute(a), transmute(b)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mul_ps(a: [f32; 16], b: [f32; 16]) -> [f32; 16] {
        transmute(_mm512_mul_ps(transmute(a), transmute(b)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fmadd_ps(acc: [f32; 16], a: [f32; 16], b: [f32; 16]) -> [f32; 16] {
        transmute(_mm512_fmadd_ps(transmute(a), transmute(b), transmute(acc)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn add_pd(a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        transmute(_mm512_add_pd(transmute(a), transmute(b)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mul_pd(a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        transmute(_mm512_mul_pd(transmute(a), transmute(b)))
    }

    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fmadd_pd(acc: [f64; 8], a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        transmute(_mm512_fmadd_pd(transmute(a), transmute(b), transmute(acc)))
    }

    /// Masked load of the first `n` lanes (`vmovups {k}{z}`); masked-out
    /// lanes read as zero and are never touched in memory.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe; `ptr` covers `n` elements.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maskload_ps(ptr: *const f32, n: usize) -> [f32; 16] {
        transmute(_mm512_maskz_loadu_ps(((1u32 << n) - 1) as __mmask16, ptr))
    }

    /// Masked store of the first `n` lanes.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe; `ptr` covers `n` elements.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maskstore_ps(ptr: *mut f32, n: usize, v: [f32; 16]) {
        _mm512_mask_storeu_ps(ptr, ((1u32 << n) - 1) as __mmask16, transmute(v))
    }

    /// Masked load of the first `n` lanes (`vmovupd {k}{z}`).
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe; `ptr` covers `n` elements.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maskload_pd(ptr: *const f64, n: usize) -> [f64; 8] {
        transmute(_mm512_maskz_loadu_pd(((1u32 << n) - 1) as __mmask8, ptr))
    }

    /// Masked store of the first `n` lanes.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe; `ptr` covers `n` elements.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maskstore_pd(ptr: *mut f64, n: usize, v: [f64; 8]) {
        _mm512_mask_storeu_pd(ptr, ((1u32 << n) - 1) as __mmask8, transmute(v))
    }

    /// 16x16 `f32` transpose: `out[c][r] = rows[r][c]` in 64 shuffles.
    // PANIC-OK(index): loop-bounded indices into the sixteen-row arrays.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn transpose_ps(rows: [[f32; 16]; 16]) -> [[f32; 16]; 16] {
        let r: [__m512; 16] = transmute(rows);
        // Row pairs: per 128-bit lane, `lo` = a0 b0 a1 b1, `hi` = a2 b2 a3 b3.
        let mut t = [_mm512_castps_pd(r[0]); 16];
        for i in 0..8 {
            t[2 * i] = _mm512_castps_pd(_mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]));
            t[2 * i + 1] = _mm512_castps_pd(_mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]));
        }
        // Row quads: lane `L` of `v[4g + c]` is column `4L + c` of rows
        // `4g..4g + 4`.
        let mut v = r;
        for g in 0..4 {
            v[4 * g] = _mm512_castpd_ps(_mm512_unpacklo_pd(t[4 * g], t[4 * g + 2]));
            v[4 * g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(t[4 * g], t[4 * g + 2]));
            v[4 * g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(t[4 * g + 1], t[4 * g + 3]));
            v[4 * g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(t[4 * g + 1], t[4 * g + 3]));
        }
        // For each `c`, a 4x4 transpose of 128-bit lanes across the quads:
        // output row `4L + c` gathers lane `L` of every quad.
        let mut out = r;
        for c in 0..4 {
            let x0 = _mm512_shuffle_f32x4::<0x88>(v[c], v[4 + c]);
            let x1 = _mm512_shuffle_f32x4::<0xDD>(v[c], v[4 + c]);
            let x2 = _mm512_shuffle_f32x4::<0x88>(v[8 + c], v[12 + c]);
            let x3 = _mm512_shuffle_f32x4::<0xDD>(v[8 + c], v[12 + c]);
            out[c] = _mm512_shuffle_f32x4::<0x88>(x0, x2);
            out[4 + c] = _mm512_shuffle_f32x4::<0x88>(x1, x3);
            out[8 + c] = _mm512_shuffle_f32x4::<0xDD>(x0, x2);
            out[12 + c] = _mm512_shuffle_f32x4::<0xDD>(x1, x3);
        }
        transmute(out)
    }

    /// 8x8 `f64` transpose in 24 shuffles: row pairs, then for each `c` a
    /// 4x4 transpose of 128-bit lanes (output row `2L + c` gathers lane `L`
    /// of every pair).
    // PANIC-OK(index): loop-bounded indices into the eight-row arrays.
    // SAFETY: SHALOM-V-SIMD — the host passed the AVX-512F caps probe.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn transpose_pd(rows: [[f64; 8]; 8]) -> [[f64; 8]; 8] {
        let r: [__m512d; 8] = transmute(rows);
        let mut t = r;
        for i in 0..4 {
            t[2 * i] = _mm512_unpacklo_pd(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_pd(r[2 * i], r[2 * i + 1]);
        }
        let mut out = r;
        for c in 0..2 {
            let x0 = _mm512_shuffle_f64x2::<0x88>(t[c], t[2 + c]);
            let x1 = _mm512_shuffle_f64x2::<0xDD>(t[c], t[2 + c]);
            let x2 = _mm512_shuffle_f64x2::<0x88>(t[4 + c], t[6 + c]);
            let x3 = _mm512_shuffle_f64x2::<0xDD>(t[4 + c], t[6 + c]);
            out[c] = _mm512_shuffle_f64x2::<0x88>(x0, x2);
            out[2 + c] = _mm512_shuffle_f64x2::<0x88>(x1, x3);
            out[4 + c] = _mm512_shuffle_f64x2::<0xDD>(x0, x2);
            out[6 + c] = _mm512_shuffle_f64x2::<0xDD>(x1, x3);
        }
        transmute(out)
    }
}

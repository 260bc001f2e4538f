//! `F32x4`: 128-bit vector of four `f32` lanes (the `v.4s` arrangement).
//!
//! shalom-analysis: deny(panic)

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
use core::arch::x86_64::*;

#[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
use core::arch::aarch64::*;

#[cfg(any(
    feature = "force-scalar",
    not(any(target_arch = "x86_64", target_arch = "aarch64"))
))]
use crate::scalar::ScalarF32x4 as Repr;

use crate::{Vector, MAX_LANES};

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
type Repr = __m128;

#[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
type Repr = float32x4_t;

/// A 128-bit SIMD vector of four `f32` lanes, modelling one ARMv8 vector
/// register in the `.4s` arrangement.
///
/// The operation set is exactly what LibShalom's FP32 micro-kernels use:
/// unaligned load/store, broadcast, lane-indexed FMA (the scalar-vector
/// outer-product update, paper Algorithm 2 line 4), whole-vector FMA (the
/// inner-product update, Algorithm 3 line 5), and a horizontal reduction
/// (Algorithm 3 line 7).
#[derive(Clone, Copy)]
pub struct F32x4(Repr);

impl F32x4 {
    /// Builds a vector from an array (lane 0 first).
    #[inline(always)]
    pub fn from_array(a: [f32; 4]) -> Self {
        // SAFETY: SHALOM-V-SIMD — `a` holds `LANES` elements.
        unsafe { Self::load(a.as_ptr()) }
    }

    /// Extracts all lanes into an array (lane 0 first).
    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        let mut out = [0f32; 4];
        // SAFETY: SHALOM-V-SIMD — `out` holds `LANES` elements.
        unsafe { self.store(out.as_mut_ptr()) };
        out
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_mul_ps(self.0, o.0))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vmulq_f32(self.0, o.0))
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            Self(self.0.mul(o.0))
        }
    }

    /// Lane-indexed fused multiply-add: `self + a * b[LANE]` per lane —
    /// the ARMv8 `fmla vd.4s, vn.4s, vm.s[LANE]` that forms one column of
    /// the outer-product C-tile update (paper Algorithm 2 line 4).
    #[inline(always)]
    pub fn fma_lane<const LANE: usize>(self, a: Self, b: Self) -> Self {
        self.fma(a, b.splat_lane::<LANE>())
    }

    /// Broadcasts lane `LANE` to all lanes (`dup v.4s, v.s[LANE]`).
    #[inline(always)]
    pub fn splat_lane<const LANE: usize>(self) -> Self {
        // PANIC-OK: evaluated at compile time; no runtime check remains.
        const { assert!(LANE < 4) };
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            match LANE {
                0 => Self(_mm_shuffle_ps::<0b00_00_00_00>(self.0, self.0)),
                1 => Self(_mm_shuffle_ps::<0b01_01_01_01>(self.0, self.0)),
                2 => Self(_mm_shuffle_ps::<0b10_10_10_10>(self.0, self.0)),
                _ => Self(_mm_shuffle_ps::<0b11_11_11_11>(self.0, self.0)),
            }
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            match LANE {
                0 => Self(vdupq_laneq_f32::<0>(self.0)),
                1 => Self(vdupq_laneq_f32::<1>(self.0)),
                2 => Self(vdupq_laneq_f32::<2>(self.0)),
                _ => Self(vdupq_laneq_f32::<3>(self.0)),
            }
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            // PANIC-OK: `LANE < 4`, asserted at compile time above.
            Self(Repr::splat((self.0).0[LANE]))
        }
    }
}

impl Vector for F32x4 {
    type Elem = f32;
    type Half = F32x4;
    const LANES: usize = 4;

    #[inline(always)]
    fn zero() -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_setzero_ps())
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vdupq_n_f32(0.0))
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            Self(Repr::zero())
        }
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_set1_ps(x))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vdupq_n_f32(x))
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            Self(Repr::splat(x))
        }
    }

    // SAFETY: SHALOM-V-SIMD — the caller's `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            Self(_mm_loadu_ps(ptr))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        {
            Self(vld1q_f32(ptr))
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            Self(Repr(core::ptr::read_unaligned(ptr as *const [f32; 4])))
        }
    }

    // SAFETY: SHALOM-V-SIMD — the caller's `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            _mm_storeu_ps(ptr, self.0)
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        {
            vst1q_f32(ptr, self.0)
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            core::ptr::write_unaligned(ptr as *mut [f32; 4], (self.0).0)
        }
    }

    /// Whole-vector fused multiply-add: `self + a * b` per lane.
    ///
    /// This is the inner-product (vector-vector) formulation used by the NT
    /// packing micro-kernel (paper Algorithm 3).
    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "fma",
            not(feature = "force-scalar")
        ))]
        // SAFETY: SHALOM-V-SIMD — the build enables `fma`.
        unsafe {
            Self(_mm_fmadd_ps(a.0, b.0, self.0))
        }
        #[cfg(all(
            target_arch = "x86_64",
            not(target_feature = "fma"),
            not(feature = "force-scalar")
        ))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_add_ps(self.0, _mm_mul_ps(a.0, b.0)))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vfmaq_f32(self.0, a.0, b.0))
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            Self(self.0.fma(a.0, b.0))
        }
    }

    #[inline(always)]
    fn fma_lane_dyn(self, a: Self, b: Self, lane: usize) -> Self {
        match lane {
            0 => self.fma_lane::<0>(a, b),
            1 => self.fma_lane::<1>(a, b),
            2 => self.fma_lane::<2>(a, b),
            _ => self.fma_lane::<3>(a, b),
        }
    }

    #[inline(always)]
    fn extract_dyn(self, lane: usize) -> f32 {
        // PANIC-OK: kernel contract — callers pass lane < Self::LANES
        // (debug-asserted at the kernel entry points).
        self.to_array()[lane]
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_add_ps(self.0, o.0))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vaddq_f32(self.0, o.0))
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            Self(Repr::add(self.0, o.0))
        }
    }

    #[inline(always)]
    fn scale(self, s: f32) -> Self {
        self.mul(Self::splat(s))
    }

    /// Horizontal sum of all four lanes, in the pairwise order
    /// `(l0 + l2) + (l1 + l3)` (matching a two-step `faddp` reduction).
    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            // [l0+l2, l1+l3, .., ..] then low two lanes added.
            let hi = _mm_movehl_ps(self.0, self.0);
            let sum2 = _mm_add_ps(self.0, hi);
            let shuf = _mm_shuffle_ps::<0b00_00_00_01>(sum2, sum2);
            _mm_cvtss_f32(_mm_add_ss(sum2, shuf))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            vaddvq_f32(self.0)
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            self.0.reduce_sum()
        }
    }

    #[inline(always)]
    fn transpose(tile: &mut [Self; MAX_LANES]) {
        let Some((rows, _)) = tile.split_first_chunk_mut::<4>() else {
            return;
        };
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            let [a, b, c, d] = rows.map(|v| v.0);
            let (ab_lo, ab_hi) = (_mm_unpacklo_ps(a, b), _mm_unpackhi_ps(a, b));
            let (cd_lo, cd_hi) = (_mm_unpacklo_ps(c, d), _mm_unpackhi_ps(c, d));
            *rows = [
                Self(_mm_movelh_ps(ab_lo, cd_lo)),
                Self(_mm_movehl_ps(cd_lo, ab_lo)),
                Self(_mm_movelh_ps(ab_hi, cd_hi)),
                Self(_mm_movehl_ps(cd_hi, ab_hi)),
            ];
        }
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        {
            *rows = crate::transpose_arrays(rows.map(Self::to_array)).map(Self::from_array);
        }
    }
}

impl core::fmt::Debug for F32x4 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F32x4({:?})", self.to_array())
    }
}

//! `F64x2`: 128-bit vector of two `f64` lanes (the `v.2d` arrangement).
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
use crate::scalar::ScalarF64x2 as Repr;

use crate::{Vector, MAX_LANES};

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
type Repr = __m128d;

#[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
type Repr = float64x2_t;

/// A 128-bit SIMD vector of two `f64` lanes, modelling one ARMv8 vector
/// register in the `.2d` arrangement. See [`crate::F32x4`] for the
/// operation-set rationale; this is the FP64 counterpart (the paper's
/// `j = 2` case, §5.2.1).
#[derive(Clone, Copy)]
pub struct F64x2(Repr);

impl F64x2 {
    /// Builds a vector from an array (lane 0 first).
    #[inline(always)]
    pub fn from_array(a: [f64; 2]) -> Self {
        // SAFETY: SHALOM-V-SIMD — `a` holds `LANES` elements.
        unsafe { Self::load(a.as_ptr()) }
    }

    /// Extracts both lanes into an array (lane 0 first).
    #[inline(always)]
    pub fn to_array(self) -> [f64; 2] {
        let mut out = [0f64; 2];
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
            Self(_mm_mul_pd(self.0, o.0))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vmulq_f64(self.0, o.0))
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
    /// the ARMv8 `fmla vd.2d, vn.2d, vm.d[LANE]`.
    #[inline(always)]
    pub fn fma_lane<const LANE: usize>(self, a: Self, b: Self) -> Self {
        self.fma(a, b.splat_lane::<LANE>())
    }

    /// Broadcasts lane `LANE` to both lanes (`dup v.2d, v.d[LANE]`).
    #[inline(always)]
    pub fn splat_lane<const LANE: usize>(self) -> Self {
        // PANIC-OK: evaluated at compile time; no runtime check remains.
        const { assert!(LANE < 2) };
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            match LANE {
                0 => Self(_mm_shuffle_pd::<0b00>(self.0, self.0)),
                _ => Self(_mm_shuffle_pd::<0b11>(self.0, self.0)),
            }
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            match LANE {
                0 => Self(vdupq_laneq_f64::<0>(self.0)),
                _ => Self(vdupq_laneq_f64::<1>(self.0)),
            }
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            // PANIC-OK: `LANE < 2`, asserted at compile time above.
            Self(Repr::splat((self.0).0[LANE]))
        }
    }
}

impl Vector for F64x2 {
    type Elem = f64;
    type Half = F64x2;
    const LANES: usize = 2;

    #[inline(always)]
    fn zero() -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_setzero_pd())
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vdupq_n_f64(0.0))
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
    fn splat(x: f64) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_set1_pd(x))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vdupq_n_f64(x))
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
    unsafe fn load(ptr: *const f64) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            Self(_mm_loadu_pd(ptr))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        {
            Self(vld1q_f64(ptr))
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            Self(Repr(core::ptr::read_unaligned(ptr as *const [f64; 2])))
        }
    }

    // SAFETY: SHALOM-V-SIMD — the caller's `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            _mm_storeu_pd(ptr, self.0)
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        {
            vst1q_f64(ptr, self.0)
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            core::ptr::write_unaligned(ptr as *mut [f64; 2], (self.0).0)
        }
    }

    /// Whole-vector fused multiply-add: `self + a * b` per lane.
    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "fma",
            not(feature = "force-scalar")
        ))]
        // SAFETY: SHALOM-V-SIMD — the build enables `fma`.
        unsafe {
            Self(_mm_fmadd_pd(a.0, b.0, self.0))
        }
        #[cfg(all(
            target_arch = "x86_64",
            not(target_feature = "fma"),
            not(feature = "force-scalar")
        ))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_add_pd(self.0, _mm_mul_pd(a.0, b.0)))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vfmaq_f64(self.0, a.0, b.0))
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
            _ => self.fma_lane::<1>(a, b),
        }
    }

    #[inline(always)]
    fn extract_dyn(self, lane: usize) -> f64 {
        // PANIC-OK: kernel contract — callers pass lane < Self::LANES
        // (debug-asserted at the kernel entry points).
        self.to_array()[lane]
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            Self(_mm_add_pd(self.0, o.0))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            Self(vaddq_f64(self.0, o.0))
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
    fn scale(self, s: f64) -> Self {
        self.mul(Self::splat(s))
    }

    /// Horizontal sum of both lanes.
    #[inline(always)]
    fn reduce_sum(self) -> f64 {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            let hi = _mm_unpackhi_pd(self.0, self.0);
            _mm_cvtsd_f64(_mm_add_sd(self.0, hi))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — NEON is part of the aarch64 baseline.
        unsafe {
            vaddvq_f64(self.0)
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
        let Some((rows, _)) = tile.split_first_chunk_mut::<2>() else {
            return;
        };
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: SHALOM-V-SIMD — SSE2 is part of the x86_64 baseline.
        unsafe {
            let [a, b] = rows.map(|v| v.0);
            *rows = [Self(_mm_unpacklo_pd(a, b)), Self(_mm_unpackhi_pd(a, b))];
        }
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        {
            *rows = crate::transpose_arrays(rows.map(Self::to_array)).map(Self::from_array);
        }
    }
}

impl core::fmt::Debug for F64x2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F64x2({:?})", self.to_array())
    }
}

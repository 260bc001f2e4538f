//! `F64x2`: 128-bit vector of two `f64` lanes (the `v.2d` arrangement).

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
use core::arch::x86_64::*;

#[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
use core::arch::aarch64::*;

#[cfg(any(
    feature = "force-scalar",
    not(any(target_arch = "x86_64", target_arch = "aarch64"))
))]
use crate::scalar::ScalarF64x2 as Repr;

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
    /// Number of `f64` lanes (the paper's `j` for FP64).
    pub const LANES: usize = 2;

    /// Returns the all-zero vector.
    #[inline(always)]
    pub fn zero() -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            Self(_mm_setzero_pd())
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Broadcasts `x` to both lanes.
    #[inline(always)]
    pub fn splat(x: f64) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            Self(_mm_set1_pd(x))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Loads two consecutive `f64`s from `ptr` (no alignment requirement).
    ///
    /// # Safety
    /// `ptr` must be valid for reading 16 bytes.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f64) -> Self {
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

    /// Stores both lanes to `ptr` (no alignment requirement).
    ///
    /// # Safety
    /// `ptr` must be valid for writing 16 bytes.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f64) {
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

    /// Builds a vector from an array (lane 0 first).
    #[inline(always)]
    pub fn from_array(a: [f64; 2]) -> Self {
        unsafe { Self::load(a.as_ptr()) }
    }

    /// Extracts both lanes into an array (lane 0 first).
    #[inline(always)]
    pub fn to_array(self) -> [f64; 2] {
        let mut out = [0f64; 2];
        unsafe { self.store(out.as_mut_ptr()) };
        out
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            Self(_mm_add_pd(self.0, o.0))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        unsafe {
            Self(vaddq_f64(self.0, o.0))
        }
        #[cfg(any(
            feature = "force-scalar",
            not(any(target_arch = "x86_64", target_arch = "aarch64"))
        ))]
        {
            Self(self.0.add(o.0))
        }
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            Self(_mm_mul_pd(self.0, o.0))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Whole-vector fused multiply-add: `self + a * b` per lane.
    #[inline(always)]
    pub fn fma(self, a: Self, b: Self) -> Self {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "fma",
            not(feature = "force-scalar")
        ))]
        unsafe {
            Self(_mm_fmadd_pd(a.0, b.0, self.0))
        }
        #[cfg(all(
            target_arch = "x86_64",
            not(target_feature = "fma"),
            not(feature = "force-scalar")
        ))]
        unsafe {
            Self(_mm_add_pd(self.0, _mm_mul_pd(a.0, b.0)))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Lane-indexed fused multiply-add: `self + a * b[LANE]` per lane —
    /// the ARMv8 `fmla vd.2d, vn.2d, vm.d[LANE]`.
    #[inline(always)]
    pub fn fma_lane<const LANE: usize>(self, a: Self, b: Self) -> Self {
        self.fma(a, b.splat_lane::<LANE>())
    }

    /// Broadcasts lane `LANE` to both lanes (`dup v.2d, v.d[LANE]`).
    #[inline(always)]
    pub fn splat_lane<const LANE: usize>(self) -> Self {
        const { assert!(LANE < 2) };
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            match LANE {
                0 => Self(_mm_shuffle_pd::<0b00>(self.0, self.0)),
                _ => Self(_mm_shuffle_pd::<0b11>(self.0, self.0)),
            }
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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
            Self(Repr::splat((self.0).0[LANE]))
        }
    }

    /// Extracts lane `LANE` as a scalar.
    #[inline(always)]
    pub fn extract<const LANE: usize>(self) -> f64 {
        const { assert!(LANE < 2) };
        self.to_array()[LANE]
    }

    /// Multiplies both lanes by the scalar `s`.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        self.mul(Self::splat(s))
    }

    /// Horizontal sum of both lanes.
    #[inline(always)]
    pub fn reduce_sum(self) -> f64 {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            let hi = _mm_unpackhi_pd(self.0, self.0);
            _mm_cvtsd_f64(_mm_add_sd(self.0, hi))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Transposes a 2x2 tile held as two row vectors: lane `r` of
    /// `out[c]` is lane `c` of `rows[r]`. A pure lane permutation — no
    /// bit of any element changes.
    #[inline(always)]
    pub fn transpose(rows: [Self; 2]) -> [Self; 2] {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            let [a, b] = rows.map(|v| v.0);
            [Self(_mm_unpacklo_pd(a, b)), Self(_mm_unpackhi_pd(a, b))]
        }
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        {
            crate::transpose_arrays(rows.map(Self::to_array)).map(Self::from_array)
        }
    }
}

impl core::fmt::Debug for F64x2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F64x2({:?})", self.to_array())
    }
}

impl core::ops::Add for F64x2 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F64x2::add(self, o)
    }
}

impl core::ops::Mul for F64x2 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        F64x2::mul(self, o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarF64x2;

    fn v(a: [f64; 2]) -> F64x2 {
        F64x2::from_array(a)
    }

    #[test]
    fn roundtrip() {
        let a = [1.0, -2.5];
        assert_eq!(v(a).to_array(), a);
    }

    #[test]
    fn zero_and_splat() {
        assert_eq!(F64x2::zero().to_array(), [0.0; 2]);
        assert_eq!(F64x2::splat(-3.5).to_array(), [-3.5; 2]);
    }

    #[test]
    fn add_mul_match_scalar() {
        let a = [1.0, 2.0];
        let b = [0.5, -1.0];
        assert_eq!(
            v(a).add(v(b)).to_array(),
            ScalarF64x2(a).add(ScalarF64x2(b)).0
        );
        assert_eq!(
            v(a).mul(v(b)).to_array(),
            ScalarF64x2(a).mul(ScalarF64x2(b)).0
        );
    }

    #[test]
    fn fma_matches_scalar_on_exact_inputs() {
        let c = [1.0, 2.0];
        let a = [0.5, 0.25];
        let b = [2.0, 4.0];
        let got = v(c).fma(v(a), v(b)).to_array();
        let want = ScalarF64x2(c).fma(ScalarF64x2(a), ScalarF64x2(b)).0;
        assert_eq!(got, want);
    }

    #[test]
    fn fma_lane_both_lanes() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        assert_eq!(
            v([0.0; 2]).fma_lane::<0>(v(a), v(b)).to_array(),
            [10.0, 20.0]
        );
        assert_eq!(
            v([0.0; 2]).fma_lane::<1>(v(a), v(b)).to_array(),
            [20.0, 40.0]
        );
    }

    #[test]
    fn splat_lane_extract_reduce() {
        let a = v([5.0, 8.0]);
        assert_eq!(a.splat_lane::<1>().to_array(), [8.0; 2]);
        assert_eq!(a.extract::<0>(), 5.0);
        assert_eq!(a.reduce_sum(), 13.0);
    }

    #[test]
    fn unaligned_load_store() {
        let buf = [0f64, 1.0, 2.0, 3.0];
        let x = unsafe { F64x2::load(buf.as_ptr().add(1)) };
        assert_eq!(x.to_array(), [1.0, 2.0]);
        let mut out = [0f64; 4];
        unsafe { x.store(out.as_mut_ptr().add(2)) };
        assert_eq!(out, [0.0, 0.0, 1.0, 2.0]);
    }
}

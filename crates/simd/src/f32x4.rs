//! `F32x4`: 128-bit vector of four `f32` lanes (the `v.4s` arrangement).

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
use core::arch::x86_64::*;

#[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
use core::arch::aarch64::*;

#[cfg(any(
    feature = "force-scalar",
    not(any(target_arch = "x86_64", target_arch = "aarch64"))
))]
use crate::scalar::ScalarF32x4 as Repr;

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
    /// Number of `f32` lanes (the paper's `j` for FP32).
    pub const LANES: usize = 4;

    /// Returns the all-zero vector.
    #[inline(always)]
    pub fn zero() -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            Self(_mm_setzero_ps())
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Broadcasts `x` to all four lanes.
    #[inline(always)]
    pub fn splat(x: f32) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            Self(_mm_set1_ps(x))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Loads four consecutive `f32`s from `ptr` (no alignment requirement).
    ///
    /// # Safety
    /// `ptr` must be valid for reading 16 bytes.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f32) -> Self {
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

    /// Stores the four lanes to `ptr` (no alignment requirement).
    ///
    /// # Safety
    /// `ptr` must be valid for writing 16 bytes.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f32) {
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

    /// Builds a vector from an array (lane 0 first).
    #[inline(always)]
    pub fn from_array(a: [f32; 4]) -> Self {
        unsafe { Self::load(a.as_ptr()) }
    }

    /// Extracts all lanes into an array (lane 0 first).
    #[inline(always)]
    pub fn to_array(self) -> [f32; 4] {
        let mut out = [0f32; 4];
        unsafe { self.store(out.as_mut_ptr()) };
        out
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            Self(_mm_add_ps(self.0, o.0))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
        unsafe {
            Self(vaddq_f32(self.0, o.0))
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
            Self(_mm_mul_ps(self.0, o.0))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Whole-vector fused multiply-add: `self + a * b` per lane.
    ///
    /// This is the inner-product (vector-vector) formulation used by the NT
    /// packing micro-kernel (paper Algorithm 3).
    #[inline(always)]
    pub fn fma(self, a: Self, b: Self) -> Self {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "fma",
            not(feature = "force-scalar")
        ))]
        unsafe {
            Self(_mm_fmadd_ps(a.0, b.0, self.0))
        }
        #[cfg(all(
            target_arch = "x86_64",
            not(target_feature = "fma"),
            not(feature = "force-scalar")
        ))]
        unsafe {
            Self(_mm_add_ps(self.0, _mm_mul_ps(a.0, b.0)))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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
        const { assert!(LANE < 4) };
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            match LANE {
                0 => Self(_mm_shuffle_ps::<0b00_00_00_00>(self.0, self.0)),
                1 => Self(_mm_shuffle_ps::<0b01_01_01_01>(self.0, self.0)),
                2 => Self(_mm_shuffle_ps::<0b10_10_10_10>(self.0, self.0)),
                _ => Self(_mm_shuffle_ps::<0b11_11_11_11>(self.0, self.0)),
            }
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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
            Self(Repr::splat((self.0).0[LANE]))
        }
    }

    /// Extracts lane `LANE` as a scalar.
    #[inline(always)]
    pub fn extract<const LANE: usize>(self) -> f32 {
        const { assert!(LANE < 4) };
        self.to_array()[LANE]
    }

    /// Multiplies all lanes by the scalar `s`.
    #[inline(always)]
    pub fn scale(self, s: f32) -> Self {
        self.mul(Self::splat(s))
    }

    /// Horizontal sum of all four lanes, in the pairwise order
    /// `(l0 + l2) + (l1 + l3)` (matching a two-step `faddp` reduction).
    #[inline(always)]
    pub fn reduce_sum(self) -> f32 {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            // [l0+l2, l1+l3, .., ..] then low two lanes added.
            let hi = _mm_movehl_ps(self.0, self.0);
            let sum2 = _mm_add_ps(self.0, hi);
            let shuf = _mm_shuffle_ps::<0b00_00_00_01>(sum2, sum2);
            _mm_cvtss_f32(_mm_add_ss(sum2, shuf))
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "force-scalar")))]
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

    /// Transposes a 4x4 tile held as four row vectors: lane `r` of
    /// `out[c]` is lane `c` of `rows[r]`. A pure lane permutation — no
    /// bit of any element changes.
    #[inline(always)]
    pub fn transpose(rows: [Self; 4]) -> [Self; 4] {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        unsafe {
            let [a, b, c, d] = rows.map(|v| v.0);
            let (ab_lo, ab_hi) = (_mm_unpacklo_ps(a, b), _mm_unpackhi_ps(a, b));
            let (cd_lo, cd_hi) = (_mm_unpacklo_ps(c, d), _mm_unpackhi_ps(c, d));
            [
                Self(_mm_movelh_ps(ab_lo, cd_lo)),
                Self(_mm_movehl_ps(cd_lo, ab_lo)),
                Self(_mm_movelh_ps(ab_hi, cd_hi)),
                Self(_mm_movehl_ps(cd_hi, ab_hi)),
            ]
        }
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        {
            crate::transpose_arrays(rows.map(Self::to_array)).map(Self::from_array)
        }
    }
}

impl core::fmt::Debug for F32x4 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F32x4({:?})", self.to_array())
    }
}

impl core::ops::Add for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F32x4::add(self, o)
    }
}

impl core::ops::Mul for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        F32x4::mul(self, o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarF32x4;

    fn v(a: [f32; 4]) -> F32x4 {
        F32x4::from_array(a)
    }

    #[test]
    fn roundtrip() {
        let a = [1.0, -2.5, 3.25, 0.0];
        assert_eq!(v(a).to_array(), a);
    }

    #[test]
    fn zero_and_splat() {
        assert_eq!(F32x4::zero().to_array(), [0.0; 4]);
        assert_eq!(F32x4::splat(7.5).to_array(), [7.5; 4]);
    }

    #[test]
    fn add_mul_match_scalar() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, -1.0, 2.0, -0.25];
        let sa = ScalarF32x4(a);
        let sb = ScalarF32x4(b);
        assert_eq!(v(a).add(v(b)).to_array(), sa.add(sb).0);
        assert_eq!(v(a).mul(v(b)).to_array(), sa.mul(sb).0);
    }

    #[test]
    fn fma_matches_scalar_on_exact_inputs() {
        // Powers of two: fused and unfused round identically.
        let c = [1.0, 2.0, 4.0, 8.0];
        let a = [0.5, 0.25, 2.0, 1.0];
        let b = [2.0, 4.0, 0.5, 8.0];
        let got = v(c).fma(v(a), v(b)).to_array();
        let want = ScalarF32x4(c).fma(ScalarF32x4(a), ScalarF32x4(b)).0;
        assert_eq!(got, want);
    }

    #[test]
    fn fma_lane_all_lanes() {
        let c = [0.0; 4];
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(
            v(c).fma_lane::<0>(v(a), v(b)).to_array(),
            [10.0, 20.0, 30.0, 40.0]
        );
        assert_eq!(
            v(c).fma_lane::<1>(v(a), v(b)).to_array(),
            [20.0, 40.0, 60.0, 80.0]
        );
        assert_eq!(
            v(c).fma_lane::<2>(v(a), v(b)).to_array(),
            [30.0, 60.0, 90.0, 120.0]
        );
        assert_eq!(
            v(c).fma_lane::<3>(v(a), v(b)).to_array(),
            [40.0, 80.0, 120.0, 160.0]
        );
    }

    #[test]
    fn splat_lane_and_extract() {
        let a = v([5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.splat_lane::<2>().to_array(), [7.0; 4]);
        assert_eq!(a.extract::<0>(), 5.0);
        assert_eq!(a.extract::<3>(), 8.0);
    }

    #[test]
    fn reduce_sum_matches_scalar_order() {
        let a = [1.5, 2.5, -3.0, 4.0];
        assert_eq!(v(a).reduce_sum(), ScalarF32x4(a).reduce_sum());
    }

    #[test]
    fn scale() {
        assert_eq!(
            v([1.0, 2.0, 3.0, 4.0]).scale(0.5).to_array(),
            [0.5, 1.0, 1.5, 2.0]
        );
    }

    #[test]
    fn unaligned_load_store() {
        let buf = [0f32, 1.0, 2.0, 3.0, 4.0, 5.0];
        let x = unsafe { F32x4::load(buf.as_ptr().add(1)) };
        assert_eq!(x.to_array(), [1.0, 2.0, 3.0, 4.0]);
        let mut out = [0f32; 6];
        unsafe { x.store(out.as_mut_ptr().add(2)) };
        assert_eq!(out, [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}

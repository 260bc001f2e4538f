//! The lane-type abstraction the generic kernels are written against.
//!
//! shalom-analysis: deny(panic)

use crate::family::FamilyElem;
use shalom_matrix::Scalar;
use shalom_simd::{F32x16, F32x4, F32x8, F64x2, F64x4, F64x8};

/// The widest lane count any [`Vector`] has (`F32x16`).
pub const MAX_LANES: usize = 16;

/// A SIMD vector type usable by the generic micro-kernels.
///
/// Implemented by the 128-bit [`F32x4`] (`j = 4`) and [`F64x2`] (`j = 2`)
/// substrate, and by the runtime-dispatched wide types ([`F32x8`],
/// [`F64x4`], [`F32x16`], [`F64x8`]) the kernel families instantiate. The
/// dynamic `*_lane_dyn` methods take the lane index at runtime; kernels
/// call them from loops whose trip count is the compile-time constant
/// `Self::LANES`, so after unrolling the index is a constant and the match
/// inside each implementation folds to the single lane instruction.
pub trait Vector: Copy + Send + Sync + 'static {
    /// The element type of each lane. The [`FamilyElem`] bound lets
    /// generic drivers consult the kernel-family dispatch table without
    /// cascading `where` clauses.
    type Elem: Scalar + FamilyElem;

    /// The vector type of half the width (`Self` at 128 bits): what a
    /// block that fits its tile is better served by, executable wherever
    /// `Self` is.
    type Half: Vector<Elem = Self::Elem>;

    /// Lane count (the paper's `j`).
    const LANES: usize;

    /// True for the runtime-dispatched wide types. Their arithmetic is
    /// always fused, so an edge kernel keeps a wide set's rounding
    /// contract by sending remainder columns through
    /// [`Vector::load_partial`]/[`Vector::store_partial`] lanes; the
    /// 128-bit types keep the scalar column tail (plain `x * b + acc`).
    /// It also picks how A enters the main kernels' FMA: x86 has no
    /// FMA-by-element, so the wide types broadcast each `A[i, k]`
    /// ([`Vector::splat`] then [`Vector::fma`]), while the 128-bit types
    /// keep the paper's lane-indexed [`Vector::fma_lane_dyn`].
    const WIDE: bool = false;

    /// All-zero vector.
    fn zero() -> Self;

    /// Broadcasts a scalar to all lanes.
    fn splat(x: Self::Elem) -> Self;

    /// Unaligned load of `LANES` consecutive elements.
    ///
    /// # Safety
    /// `ptr` valid for reading `LANES` elements.
    unsafe fn load(ptr: *const Self::Elem) -> Self;

    /// Unaligned store of all lanes.
    ///
    /// # Safety
    /// `ptr` valid for writing `LANES` elements.
    unsafe fn store(self, ptr: *mut Self::Elem);

    /// Loads the first `n <= LANES` lanes and zeroes the rest, reading
    /// nothing past `ptr + n`. The default stages through the stack; the
    /// wide types use masked loads.
    ///
    /// # Safety
    /// `ptr` valid for reading `n` elements.
    #[inline(always)]
    unsafe fn load_partial(ptr: *const Self::Elem, n: usize) -> Self {
        let mut buf = [Self::Elem::ZERO; MAX_LANES];
        for (d, s) in buf.iter_mut().zip(core::slice::from_raw_parts(ptr, n)) {
            *d = *s;
        }
        Self::load(buf.as_ptr())
    }

    /// Stores the first `n <= LANES` lanes, writing nothing past
    /// `ptr + n`.
    ///
    /// # Safety
    /// `ptr` valid for writing `n` elements.
    #[inline(always)]
    unsafe fn store_partial(self, ptr: *mut Self::Elem, n: usize) {
        let mut buf = [Self::Elem::ZERO; MAX_LANES];
        self.store(buf.as_mut_ptr());
        for (d, s) in core::slice::from_raw_parts_mut(ptr, n).iter_mut().zip(buf) {
            *d = s;
        }
    }

    /// Lane-wise `self + a * b`.
    fn fma(self, a: Self, b: Self) -> Self;

    /// `self + a * b[lane]`: the ARMv8 lane-indexed `fmla`, which the
    /// 128-bit types implement. The default broadcasts the lane, rounding
    /// exactly as [`Vector::fma`] with a splat; the main kernels never
    /// reach it on the wide types (see [`Vector::WIDE`]).
    #[inline(always)]
    fn fma_lane_dyn(self, a: Self, b: Self, lane: usize) -> Self {
        self.fma(a, Self::splat(b.extract_dyn(lane)))
    }

    /// Extracts lane `lane`.
    fn extract_dyn(self, lane: usize) -> Self::Elem;

    /// Lane-wise addition.
    fn add(self, o: Self) -> Self;

    /// Multiplies all lanes by a scalar.
    fn scale(self, s: Self::Elem) -> Self;

    /// Horizontal sum of all lanes.
    fn reduce_sum(self) -> Self::Elem;

    /// Transposes, in registers, the `LANES x LANES` tile held as the row
    /// vectors `tile[..LANES]`: afterwards lane `r` of `tile[c]` is what
    /// lane `c` of `tile[r]` was. A lane permutation; no element's bits
    /// change. Entries past `LANES` are ignored.
    fn transpose(tile: &mut [Self; MAX_LANES]);
}

impl Vector for F32x4 {
    type Elem = f32;
    type Half = F32x4;
    const LANES: usize = 4;

    #[inline(always)]
    fn zero() -> Self {
        F32x4::zero()
    }
    #[inline(always)]
    fn splat(x: f32) -> Self {
        F32x4::splat(x)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        F32x4::load(ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        F32x4::store(self, ptr)
    }
    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        F32x4::fma(self, a, b)
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
        F32x4::add(self, o)
    }
    #[inline(always)]
    fn scale(self, s: f32) -> Self {
        F32x4::scale(self, s)
    }
    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        F32x4::reduce_sum(self)
    }
    #[inline(always)]
    fn transpose(tile: &mut [Self; MAX_LANES]) {
        if let Some((rows, _)) = tile.split_first_chunk_mut::<4>() {
            *rows = F32x4::transpose(*rows);
        }
    }
}

impl Vector for F64x2 {
    type Elem = f64;
    type Half = F64x2;
    const LANES: usize = 2;

    #[inline(always)]
    fn zero() -> Self {
        F64x2::zero()
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        F64x2::splat(x)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        F64x2::load(ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        F64x2::store(self, ptr)
    }
    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        F64x2::fma(self, a, b)
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
        F64x2::add(self, o)
    }
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        F64x2::scale(self, s)
    }
    #[inline(always)]
    fn reduce_sum(self) -> f64 {
        F64x2::reduce_sum(self)
    }
    #[inline(always)]
    fn transpose(tile: &mut [Self; MAX_LANES]) {
        if let Some((rows, _)) = tile.split_first_chunk_mut::<2>() {
            *rows = F64x2::transpose(*rows);
        }
    }
}

impl Vector for F32x8 {
    type Elem = f32;
    type Half = F32x4;
    const LANES: usize = 8;
    const WIDE: bool = true;

    #[inline(always)]
    fn zero() -> Self {
        F32x8::zero()
    }
    #[inline(always)]
    fn splat(x: f32) -> Self {
        F32x8::splat(x)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        F32x8::load(ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        F32x8::store(self, ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `n` elements.
    #[inline(always)]
    unsafe fn load_partial(ptr: *const f32, n: usize) -> Self {
        F32x8::load_partial(ptr, n)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `n` elements.
    #[inline(always)]
    unsafe fn store_partial(self, ptr: *mut f32, n: usize) {
        F32x8::store_partial(self, ptr, n)
    }
    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        F32x8::fma(self, a, b)
    }
    #[inline(always)]
    fn extract_dyn(self, lane: usize) -> f32 {
        // PANIC-OK: kernel contract — callers pass lane < Self::LANES
        // (debug-asserted at the kernel entry points).
        self.to_array()[lane]
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F32x8::add(self, o)
    }
    #[inline(always)]
    fn scale(self, s: f32) -> Self {
        F32x8::scale(self, s)
    }
    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        F32x8::reduce_sum(self)
    }
    #[inline(always)]
    fn transpose(tile: &mut [Self; MAX_LANES]) {
        if let Some((rows, _)) = tile.split_first_chunk_mut::<8>() {
            *rows = F32x8::transpose(*rows);
        }
    }
}

impl Vector for F64x4 {
    type Elem = f64;
    type Half = F64x2;
    const LANES: usize = 4;
    const WIDE: bool = true;

    #[inline(always)]
    fn zero() -> Self {
        F64x4::zero()
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        F64x4::splat(x)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        F64x4::load(ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        F64x4::store(self, ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `n` elements.
    #[inline(always)]
    unsafe fn load_partial(ptr: *const f64, n: usize) -> Self {
        F64x4::load_partial(ptr, n)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `n` elements.
    #[inline(always)]
    unsafe fn store_partial(self, ptr: *mut f64, n: usize) {
        F64x4::store_partial(self, ptr, n)
    }
    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        F64x4::fma(self, a, b)
    }
    #[inline(always)]
    fn extract_dyn(self, lane: usize) -> f64 {
        // PANIC-OK: kernel contract — callers pass lane < Self::LANES
        // (debug-asserted at the kernel entry points).
        self.to_array()[lane]
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F64x4::add(self, o)
    }
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        F64x4::scale(self, s)
    }
    #[inline(always)]
    fn reduce_sum(self) -> f64 {
        F64x4::reduce_sum(self)
    }
    #[inline(always)]
    fn transpose(tile: &mut [Self; MAX_LANES]) {
        if let Some((rows, _)) = tile.split_first_chunk_mut::<4>() {
            *rows = F64x4::transpose(*rows);
        }
    }
}

impl Vector for F32x16 {
    type Elem = f32;
    type Half = F32x8;
    const LANES: usize = 16;
    const WIDE: bool = true;

    #[inline(always)]
    fn zero() -> Self {
        F32x16::zero()
    }
    #[inline(always)]
    fn splat(x: f32) -> Self {
        F32x16::splat(x)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        F32x16::load(ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        F32x16::store(self, ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `n` elements.
    #[inline(always)]
    unsafe fn load_partial(ptr: *const f32, n: usize) -> Self {
        F32x16::load_partial(ptr, n)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `n` elements.
    #[inline(always)]
    unsafe fn store_partial(self, ptr: *mut f32, n: usize) {
        F32x16::store_partial(self, ptr, n)
    }
    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        F32x16::fma(self, a, b)
    }
    #[inline(always)]
    fn extract_dyn(self, lane: usize) -> f32 {
        // PANIC-OK: kernel contract — callers pass lane < Self::LANES
        // (debug-asserted at the kernel entry points).
        self.to_array()[lane]
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F32x16::add(self, o)
    }
    #[inline(always)]
    fn scale(self, s: f32) -> Self {
        F32x16::scale(self, s)
    }
    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        F32x16::reduce_sum(self)
    }
    #[inline(always)]
    fn transpose(tile: &mut [Self; MAX_LANES]) {
        if let Some((rows, _)) = tile.split_first_chunk_mut::<16>() {
            *rows = F32x16::transpose(*rows);
        }
    }
}

impl Vector for F64x8 {
    type Elem = f64;
    type Half = F64x4;
    const LANES: usize = 8;
    const WIDE: bool = true;

    #[inline(always)]
    fn zero() -> Self {
        F64x8::zero()
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        F64x8::splat(x)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        F64x8::load(ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `LANES` elements.
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        F64x8::store(self, ptr)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `n` elements.
    #[inline(always)]
    unsafe fn load_partial(ptr: *const f64, n: usize) -> Self {
        F64x8::load_partial(ptr, n)
    }
    // SAFETY: SHALOM-V-SIMD — forwarded; the calling kernel's contract
    // guarantees `ptr` covers `n` elements.
    #[inline(always)]
    unsafe fn store_partial(self, ptr: *mut f64, n: usize) {
        F64x8::store_partial(self, ptr, n)
    }
    #[inline(always)]
    fn fma(self, a: Self, b: Self) -> Self {
        F64x8::fma(self, a, b)
    }
    #[inline(always)]
    fn extract_dyn(self, lane: usize) -> f64 {
        // PANIC-OK: kernel contract — callers pass lane < Self::LANES
        // (debug-asserted at the kernel entry points).
        self.to_array()[lane]
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F64x8::add(self, o)
    }
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        F64x8::scale(self, s)
    }
    #[inline(always)]
    fn reduce_sum(self) -> f64 {
        F64x8::reduce_sum(self)
    }
    #[inline(always)]
    fn transpose(tile: &mut [Self; MAX_LANES]) {
        if let Some((rows, _)) = tile.split_first_chunk_mut::<8>() {
            *rows = F64x8::transpose(*rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_match_scalar_model() {
        assert_eq!(<F32x4 as Vector>::LANES, <f32 as Scalar>::LANES);
        assert_eq!(<F64x2 as Vector>::LANES, <f64 as Scalar>::LANES);
    }

    #[test]
    fn dyn_lane_ops_agree_with_const_lane() {
        let a = F32x4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = F32x4::from_array([10.0, 20.0, 30.0, 40.0]);
        for lane in 0..4 {
            let got = F32x4::zero().fma_lane_dyn(a, b, lane);
            let want_scalar = b.to_array()[lane];
            for (i, x) in got.to_array().iter().enumerate() {
                assert_eq!(*x, a.to_array()[i] * want_scalar);
            }
            assert_eq!(b.extract_dyn(lane), b.to_array()[lane]);
        }
    }

    #[test]
    fn generic_helper_roundtrip() {
        fn sum_via<V: Vector>(vals: &[V::Elem]) -> V::Elem {
            // SAFETY: callers pass slices of exactly LANES elements.
            let v = unsafe { V::load(vals.as_ptr()) };
            v.reduce_sum()
        }
        assert_eq!(sum_via::<F32x4>(&[1.0, 2.0, 3.0, 4.0]), 10.0);
        assert_eq!(sum_via::<F64x2>(&[1.5, 2.5]), 4.0);
    }

    #[test]
    fn default_partial_ops_touch_exactly_n_lanes() {
        // The 128-bit types take the trait's stack-staged defaults.
        for n in 0..=4 {
            let src: Vec<f32> = (0..n).map(|i| i as f32 + 1.0).collect();
            // SAFETY: `src` holds exactly `n` elements.
            let v = unsafe { <F32x4 as Vector>::load_partial(src.as_ptr(), n) };
            for lane in 0..4 {
                let want = if lane < n { lane as f32 + 1.0 } else { 0.0 };
                assert_eq!(v.extract_dyn(lane), want);
            }
            let mut out = vec![-1.0f32; n + 1];
            // SAFETY: `out` holds `n + 1` elements; only `n` are written.
            unsafe { Vector::store_partial(F32x4::splat(7.0), out.as_mut_ptr(), n) };
            assert!(out[..n].iter().all(|&x| x == 7.0) && out[n] == -1.0);
        }
    }
}

//! 256-bit wide vector types — the §5.5 extension point, runtime-dispatched.
//!
//! The paper notes its method "can be applied to a longer vector length
//! with a revised mr and nr computed according to the available number
//! and length of vector registers" (SVE on A64FX/ARMv9, wider x86
//! vectors). These types provide the 256-bit operation set: [`F32x8`]
//! (`j = 8`) and [`F64x4`] (`j = 4`), with the same operations as the
//! 128-bit types so the generic kernels instantiate unchanged — except the
//! lane-indexed FMA: x86 has no FMA-by-element, so the kernels broadcast
//! A elements into a plain [`F32x8::fma`] instead.
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
//! the safety argument for every `SAFETY: SHALOM-V-SIMD` comment below.
//! Code that bypasses the dispatch layer must check
//! [`crate::caps::detect`] itself (the tests here do).
//!
//! # Rounding contract
//!
//! Wide arithmetic is **always fused**: one rounding per multiply-add on
//! every path. On x86_64 that is hardware `vfmadd`; on the scalar
//! fallback (aarch64 polyfill, `force-scalar`, other arches) it is
//! [`f32::mul_add`]/[`f64::mul_add`], which IEEE 754 defines as exactly
//! rounded — bitwise identical to the hardware instruction. Horizontal
//! reduction ([`F32x8::reduce_sum`]) extracts to an array and sums in a
//! fixed pairwise order on every path. Consequently a `force-scalar`
//! build and a native build produce **bitwise identical** results through
//! the wide kernels; this differs from the 128-bit path, whose fusion
//! follows the build's `fma` target feature (see
//! [`crate::fma_is_fused`]).
#![allow(clippy::needless_return)] // the `return` inside the cfg-gated arm selects the backend

/// 256-bit vector of eight `f32` lanes, stored as a plain array.
#[derive(Clone, Copy)]
pub struct F32x8([f32; 8]);

/// 256-bit vector of four `f64` lanes, stored as a plain array.
#[derive(Clone, Copy)]
pub struct F64x4([f64; 4]);

macro_rules! scalar_block {
    ($($t:tt)*) => {
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        { $($t)* }
    };
}

macro_rules! avx_block {
    ($($t:tt)*) => {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        { $($t)* }
    };
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

    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn add_ps(a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        transmute(_mm256_add_ps(transmute(a), transmute(b)))
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn mul_ps(a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        transmute(_mm256_mul_ps(transmute(a), transmute(b)))
    }

    #[inline]
    #[target_feature(enable = "avx", enable = "fma")]
    pub unsafe fn fmadd_ps(acc: [f32; 8], a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        transmute(_mm256_fmadd_ps(transmute(a), transmute(b), transmute(acc)))
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn add_pd(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        transmute(_mm256_add_pd(transmute(a), transmute(b)))
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub unsafe fn mul_pd(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        transmute(_mm256_mul_pd(transmute(a), transmute(b)))
    }

    #[inline]
    #[target_feature(enable = "avx", enable = "fma")]
    pub unsafe fn fmadd_pd(acc: [f64; 4], a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        transmute(_mm256_fmadd_pd(transmute(a), transmute(b), transmute(acc)))
    }

    /// Lane mask selecting the first `n` of eight 32-bit lanes.
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
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn maskload_ps(ptr: *const f32, n: usize) -> [f32; 8] {
        transmute(_mm256_maskload_ps(ptr, mask_ps(n)))
    }

    /// Masked store of the first `n` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn maskstore_ps(ptr: *mut f32, n: usize, v: [f32; 8]) {
        _mm256_maskstore_ps(ptr, mask_ps(n), transmute(v))
    }

    /// Lane mask selecting the first `n` of four 64-bit lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mask_pd(n: usize) -> __m256i {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
    }

    /// Masked load of the first `n` lanes (`vmaskmovpd`).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn maskload_pd(ptr: *const f64, n: usize) -> [f64; 4] {
        transmute(_mm256_maskload_pd(ptr, mask_pd(n)))
    }

    /// Masked store of the first `n` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn maskstore_pd(ptr: *mut f64, n: usize, v: [f64; 4]) {
        _mm256_maskstore_pd(ptr, mask_pd(n), transmute(v))
    }

    /// 8x8 `f32` transpose: `out[c][r] = rows[r][c]` — unpack pairs,
    /// shuffle quads, then swap the 128-bit halves (24 shuffles, AVX only).
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

impl F32x8 {
    /// Number of lanes (`j = 8`).
    pub const LANES: usize = 8;

    /// All-zero vector.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; 8])
    }

    /// Builds a vector from an array of lanes.
    #[inline(always)]
    pub const fn from_array(v: [f32; 8]) -> Self {
        Self(v)
    }

    /// Broadcasts `x` to all lanes.
    #[inline(always)]
    pub fn splat(x: f32) -> Self {
        Self([x; 8])
    }

    /// Unaligned load of 8 consecutive `f32`s.
    ///
    /// # Safety
    /// `ptr` valid for reading 32 bytes.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f32) -> Self {
        Self(core::ptr::read_unaligned(ptr as *const [f32; 8]))
    }

    /// Unaligned store of all lanes.
    ///
    /// # Safety
    /// `ptr` valid for writing 32 bytes.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f32) {
        core::ptr::write_unaligned(ptr as *mut [f32; 8], self.0)
    }

    /// Loads the first `n <= 8` lanes from `ptr` and zeroes the rest;
    /// memory past `ptr + n` is never read.
    ///
    /// # Safety
    /// `ptr` valid for reading `n` elements.
    #[inline(always)]
    pub unsafe fn load_partial(ptr: *const f32, n: usize) -> Self {
        debug_assert!(n <= 8);
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract; the mask keeps
            // the access inside the caller's `n` elements.
            return Self(x86::maskload_ps(ptr, n));
        }
        scalar_block! {
            let mut r = [0.0; 8];
            r[..n].copy_from_slice(core::slice::from_raw_parts(ptr, n));
            Self(r)
        }
    }

    /// Stores the first `n <= 8` lanes to `ptr`; memory past
    /// `ptr + n` is never written.
    ///
    /// # Safety
    /// `ptr` valid for writing `n` elements.
    #[inline(always)]
    pub unsafe fn store_partial(self, ptr: *mut f32, n: usize) {
        debug_assert!(n <= 8);
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract; the mask keeps
            // the access inside the caller's `n` elements.
            x86::maskstore_ps(ptr, n, self.0);
            return;
        }
        scalar_block! {
            core::slice::from_raw_parts_mut(ptr, n).copy_from_slice(&self.0[..n]);
        }
    }

    /// Extracts all lanes.
    #[inline(always)]
    pub fn to_array(self) -> [f32; 8] {
        self.0
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — 256-bit ops run only after the
            // dispatch probe confirms AVX2+FMA (module contract).
            return Self(unsafe { x86::add_ps(self.0, o.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..8 { r[i] += o.0[i]; }
            Self(r)
        }
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return Self(unsafe { x86::mul_ps(self.0, o.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..8 { r[i] *= o.0[i]; }
            Self(r)
        }
    }

    /// `self + a * b` per lane — always fused (one rounding per lane).
    #[inline(always)]
    pub fn fma(self, a: Self, b: Self) -> Self {
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return Self(unsafe { x86::fmadd_ps(self.0, a.0, b.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..8 { r[i] = a.0[i].mul_add(b.0[i], r[i]); }
            Self(r)
        }
    }

    /// Horizontal sum in a fixed pairwise order (identical on all paths).
    #[inline(always)]
    pub fn reduce_sum(self) -> f32 {
        let v = self.0;
        ((v[0] + v[4]) + (v[1] + v[5])) + ((v[2] + v[6]) + (v[3] + v[7]))
    }

    /// Multiplies all lanes by `s`.
    #[inline(always)]
    pub fn scale(self, s: f32) -> Self {
        self.mul(Self::splat(s))
    }

    /// Transposes a 8x8 tile held as 8 row vectors: lane `r` of
    /// `out[c]` is lane `c` of `rows[r]`. A pure lane permutation — no
    /// bit of any element changes.
    #[inline(always)]
    pub fn transpose(rows: [Self; 8]) -> [Self; 8] {
        let rows = rows.map(|v| v.0);
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return unsafe { x86::transpose_ps(rows) }.map(Self);
        }
        scalar_block! {
            crate::transpose_arrays(rows).map(Self)
        }
    }
}

impl F64x4 {
    /// Number of lanes (`j = 4`).
    pub const LANES: usize = 4;

    /// All-zero vector.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; 4])
    }

    /// Builds a vector from an array of lanes.
    #[inline(always)]
    pub const fn from_array(v: [f64; 4]) -> Self {
        Self(v)
    }

    /// Broadcasts `x` to all lanes.
    #[inline(always)]
    pub fn splat(x: f64) -> Self {
        Self([x; 4])
    }

    /// Unaligned load of 4 consecutive `f64`s.
    ///
    /// # Safety
    /// `ptr` valid for reading 32 bytes.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f64) -> Self {
        Self(core::ptr::read_unaligned(ptr as *const [f64; 4]))
    }

    /// Unaligned store of all lanes.
    ///
    /// # Safety
    /// `ptr` valid for writing 32 bytes.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f64) {
        core::ptr::write_unaligned(ptr as *mut [f64; 4], self.0)
    }

    /// Loads the first `n <= 4` lanes from `ptr` and zeroes the rest;
    /// memory past `ptr + n` is never read.
    ///
    /// # Safety
    /// `ptr` valid for reading `n` elements.
    #[inline(always)]
    pub unsafe fn load_partial(ptr: *const f64, n: usize) -> Self {
        debug_assert!(n <= 4);
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract; the mask keeps
            // the access inside the caller's `n` elements.
            return Self(x86::maskload_pd(ptr, n));
        }
        scalar_block! {
            let mut r = [0.0; 4];
            r[..n].copy_from_slice(core::slice::from_raw_parts(ptr, n));
            Self(r)
        }
    }

    /// Stores the first `n <= 4` lanes to `ptr`; memory past
    /// `ptr + n` is never written.
    ///
    /// # Safety
    /// `ptr` valid for writing `n` elements.
    #[inline(always)]
    pub unsafe fn store_partial(self, ptr: *mut f64, n: usize) {
        debug_assert!(n <= 4);
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract; the mask keeps
            // the access inside the caller's `n` elements.
            x86::maskstore_pd(ptr, n, self.0);
            return;
        }
        scalar_block! {
            core::slice::from_raw_parts_mut(ptr, n).copy_from_slice(&self.0[..n]);
        }
    }

    /// Extracts all lanes.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return Self(unsafe { x86::add_pd(self.0, o.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..4 { r[i] += o.0[i]; }
            Self(r)
        }
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return Self(unsafe { x86::mul_pd(self.0, o.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..4 { r[i] *= o.0[i]; }
            Self(r)
        }
    }

    /// `self + a * b` per lane — always fused (one rounding per lane).
    #[inline(always)]
    pub fn fma(self, a: Self, b: Self) -> Self {
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return Self(unsafe { x86::fmadd_pd(self.0, a.0, b.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..4 { r[i] = a.0[i].mul_add(b.0[i], r[i]); }
            Self(r)
        }
    }

    /// Horizontal sum in a fixed pairwise order (identical on all paths).
    #[inline(always)]
    pub fn reduce_sum(self) -> f64 {
        let v = self.0;
        (v[0] + v[2]) + (v[1] + v[3])
    }

    /// Multiplies all lanes by `s`.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        self.mul(Self::splat(s))
    }

    /// Transposes a 4x4 tile held as 4 row vectors: lane `r` of
    /// `out[c]` is lane `c` of `rows[r]`. A pure lane permutation — no
    /// bit of any element changes.
    #[inline(always)]
    pub fn transpose(rows: [Self; 4]) -> [Self; 4] {
        let rows = rows.map(|v| v.0);
        avx_block! {
            debug_assert!(crate::caps::detect().avx2_fma);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return unsafe { x86::transpose_pd(rows) }.map(Self);
        }
        scalar_block! {
            crate::transpose_arrays(rows).map(Self)
        }
    }
}

impl core::fmt::Debug for F32x8 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F32x8({:?})", self.to_array())
    }
}

impl core::fmt::Debug for F64x4 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F64x4({:?})", self.to_array())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when this host may execute the wide ops (always, except an
    /// x86_64 build running on hardware without AVX2+FMA).
    pub(crate) fn runtime_ok() -> bool {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            return crate::caps::detect().avx2_fma;
        }
        #[allow(unreachable_code)]
        true
    }

    #[test]
    fn f32x8_roundtrip_and_ops() {
        if !runtime_ok() {
            return;
        }
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let v = unsafe { F32x8::load(a.as_ptr()) };
        assert_eq!(v.to_array(), a);
        assert_eq!(F32x8::splat(2.0).mul(v).to_array()[7], 16.0);
        assert_eq!(v.add(v).to_array()[0], 2.0);
        assert_eq!(v.reduce_sum(), 36.0);
        assert_eq!(v.scale(0.5).to_array()[3], 2.0);
    }

    #[test]
    fn f32x8_fma() {
        if !runtime_ok() {
            return;
        }
        let a = F32x8::splat(2.0);
        let b = F32x8::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let r = F32x8::zero().fma(a, b);
        assert_eq!(r.to_array()[4], 10.0);
    }

    #[test]
    fn f64x4_roundtrip_and_ops() {
        if !runtime_ok() {
            return;
        }
        let a = [1.0f64, 2.0, 3.0, 4.0];
        let v = unsafe { F64x4::load(a.as_ptr()) };
        assert_eq!(v.to_array(), a);
        assert_eq!(v.reduce_sum(), 10.0);
    }

    #[test]
    fn unaligned_access() {
        let buf = [0f32, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let v = unsafe { F32x8::load(buf.as_ptr().add(1)) };
        assert_eq!(v.to_array()[0], 1.0);
        let mut out = [0f32; 10];
        unsafe { v.store(out.as_mut_ptr().add(2)) };
        assert_eq!(out[2], 1.0);
        assert_eq!(out[9], 8.0);
    }

    /// The rounding contract: every wide op is bitwise identical to the
    /// scalar `mul_add` model, so `force-scalar` and native builds agree
    /// bit-for-bit through the wide kernels.
    #[test]
    fn fused_ops_match_scalar_mul_add_model_bitwise() {
        if !runtime_ok() {
            return;
        }
        // Awkward values: subnormal-adjacent, sign-mixed, non-dyadic.
        let mut x = 0x2545F491u32;
        let mut next = || {
            // xorshift32; map to a wide exponent range.
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            ((x as f64 / u32::MAX as f64) - 0.5) * 3.0e3
        };
        for _ in 0..64 {
            let af: [f32; 8] = core::array::from_fn(|_| next() as f32);
            let bf: [f32; 8] = core::array::from_fn(|_| next() as f32);
            let cf: [f32; 8] = core::array::from_fn(|_| next() as f32);
            let got = F32x8::from_array(cf)
                .fma(F32x8::from_array(af), F32x8::from_array(bf))
                .to_array();
            for i in 0..8 {
                let want = af[i].mul_add(bf[i], cf[i]);
                assert_eq!(
                    got[i].to_bits(),
                    want.to_bits(),
                    "lane {i} not exactly fused"
                );
            }
            let ad: [f64; 4] = core::array::from_fn(|_| next());
            let bd: [f64; 4] = core::array::from_fn(|_| next());
            let cd: [f64; 4] = core::array::from_fn(|_| next());
            let got = F64x4::from_array(cd)
                .fma(F64x4::from_array(ad), F64x4::from_array(bd))
                .to_array();
            for i in 0..4 {
                let want = ad[i].mul_add(bd[i], cd[i]);
                assert_eq!(
                    got[i].to_bits(),
                    want.to_bits(),
                    "lane {i} not exactly fused"
                );
            }
        }
    }

    /// Partial loads zero the masked lanes and read nothing past `n`;
    /// partial stores write exactly `n` elements (the buffers are sized
    /// to `n`, so Miri/ASan-style overreach would be out of bounds).
    #[test]
    fn partial_load_store_touch_exactly_n_lanes() {
        if !runtime_ok() {
            return;
        }
        for n in 0..=8 {
            let src: Vec<f32> = (0..n).map(|i| i as f32 + 1.0).collect();
            let v = unsafe { F32x8::load_partial(src.as_ptr(), n) }.to_array();
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, if i < n { i as f32 + 1.0 } else { 0.0 });
            }
            let mut out = vec![-1.0f32; n + 2];
            unsafe { F32x8::splat(7.0).store_partial(out.as_mut_ptr().add(1), n) };
            assert_eq!((out[0], out[n + 1]), (-1.0, -1.0));
            assert!(out[1..=n].iter().all(|&x| x == 7.0));
        }
        for n in 0..=4 {
            let src: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let v = unsafe { F64x4::load_partial(src.as_ptr(), n) }.to_array();
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, if i < n { i as f64 + 1.0 } else { 0.0 });
            }
            let mut out = vec![-1.0f64; n + 2];
            unsafe { F64x4::splat(7.0).store_partial(out.as_mut_ptr().add(1), n) };
            assert_eq!((out[0], out[n + 1]), (-1.0, -1.0));
            assert!(out[1..=n].iter().all(|&x| x == 7.0));
        }
    }
}

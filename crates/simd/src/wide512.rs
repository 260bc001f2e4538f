//! 512-bit wide vector types — the second rung of the §5.5 ladder.
//!
//! [`F32x16`] (`j = 16`) and [`F64x8`] (`j = 8`) extend the wide model to
//! AVX-512F with the same operation set as the 128/256-bit types, so the
//! generic kernels instantiate unchanged at a 512-bit width and the tile
//! solver re-runs Eq. 1 against the 32-register ZMM file.
//!
//! The representation, dispatch contract, and rounding contract are
//! exactly those of [`crate::wide`]: plain-array storage on every build,
//! `#[target_feature(enable = "avx512f")]` inner functions on x86_64
//! whose execution is justified by the [`crate::caps`] probe
//! (`SAFETY: SHALOM-V-SIMD`), and always-fused multiply-adds (`vfmadd` /
//! exactly-rounded [`f32::mul_add`]) so `force-scalar` and native builds
//! agree bitwise. Like the 256-bit types they have no lane-indexed FMA.
#![allow(clippy::needless_return)] // the `return` inside the cfg-gated arm selects the backend

/// 512-bit vector of sixteen `f32` lanes, stored as a plain array.
#[derive(Clone, Copy)]
pub struct F32x16([f32; 16]);

/// 512-bit vector of eight `f64` lanes, stored as a plain array.
#[derive(Clone, Copy)]
pub struct F64x8([f64; 8]);

macro_rules! scalar_block {
    ($($t:tt)*) => {
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        { $($t)* }
    };
}

macro_rules! avx512_block {
    ($($t:tt)*) => {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        { $($t)* }
    };
}

/// AVX-512F backends; see `crate::wide::x86` for the ABI rationale
/// (arrays pass indirectly, `transmute` is size-exact at 64 bytes).
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[allow(clippy::missing_transmute_annotations)]
mod x86 {
    use core::arch::x86_64::*;
    use core::mem::transmute;

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn add_ps(a: [f32; 16], b: [f32; 16]) -> [f32; 16] {
        transmute(_mm512_add_ps(transmute(a), transmute(b)))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mul_ps(a: [f32; 16], b: [f32; 16]) -> [f32; 16] {
        transmute(_mm512_mul_ps(transmute(a), transmute(b)))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fmadd_ps(acc: [f32; 16], a: [f32; 16], b: [f32; 16]) -> [f32; 16] {
        transmute(_mm512_fmadd_ps(transmute(a), transmute(b), transmute(acc)))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn add_pd(a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        transmute(_mm512_add_pd(transmute(a), transmute(b)))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mul_pd(a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        transmute(_mm512_mul_pd(transmute(a), transmute(b)))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fmadd_pd(acc: [f64; 8], a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        transmute(_mm512_fmadd_pd(transmute(a), transmute(b), transmute(acc)))
    }

    /// Masked load of the first `n` lanes (`vmovups {k}{z}`); masked-out
    /// lanes read as zero and are never touched in memory.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maskload_ps(ptr: *const f32, n: usize) -> [f32; 16] {
        transmute(_mm512_maskz_loadu_ps(((1u32 << n) - 1) as __mmask16, ptr))
    }

    /// Masked store of the first `n` lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maskstore_ps(ptr: *mut f32, n: usize, v: [f32; 16]) {
        _mm512_mask_storeu_ps(ptr, ((1u32 << n) - 1) as __mmask16, transmute(v))
    }

    /// Masked load of the first `n` lanes (`vmovupd {k}{z}`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maskload_pd(ptr: *const f64, n: usize) -> [f64; 8] {
        transmute(_mm512_maskz_loadu_pd(((1u32 << n) - 1) as __mmask8, ptr))
    }

    /// Masked store of the first `n` lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maskstore_pd(ptr: *mut f64, n: usize, v: [f64; 8]) {
        _mm512_mask_storeu_pd(ptr, ((1u32 << n) - 1) as __mmask8, transmute(v))
    }

    /// 16x16 `f32` transpose: `out[c][r] = rows[r][c]` in 64 shuffles.
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

impl F32x16 {
    /// Number of lanes (`j = 16`).
    pub const LANES: usize = 16;

    /// All-zero vector.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; 16])
    }

    /// Builds a vector from an array of lanes.
    #[inline(always)]
    pub const fn from_array(v: [f32; 16]) -> Self {
        Self(v)
    }

    /// Broadcasts `x` to all lanes.
    #[inline(always)]
    pub fn splat(x: f32) -> Self {
        Self([x; 16])
    }

    /// Unaligned load of 16 consecutive `f32`s.
    ///
    /// # Safety
    /// `ptr` valid for reading 64 bytes.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f32) -> Self {
        Self(core::ptr::read_unaligned(ptr as *const [f32; 16]))
    }

    /// Unaligned store of all lanes.
    ///
    /// # Safety
    /// `ptr` valid for writing 64 bytes.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f32) {
        core::ptr::write_unaligned(ptr as *mut [f32; 16], self.0)
    }

    /// Loads the first `n <= 16` lanes from `ptr` and zeroes the rest;
    /// memory past `ptr + n` is never read.
    ///
    /// # Safety
    /// `ptr` valid for reading `n` elements.
    #[inline(always)]
    pub unsafe fn load_partial(ptr: *const f32, n: usize) -> Self {
        debug_assert!(n <= 16);
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see module contract; the mask keeps
            // the access inside the caller's `n` elements.
            return Self(x86::maskload_ps(ptr, n));
        }
        scalar_block! {
            let mut r = [0.0; 16];
            r[..n].copy_from_slice(core::slice::from_raw_parts(ptr, n));
            Self(r)
        }
    }

    /// Stores the first `n <= 16` lanes to `ptr`; memory past
    /// `ptr + n` is never written.
    ///
    /// # Safety
    /// `ptr` valid for writing `n` elements.
    #[inline(always)]
    pub unsafe fn store_partial(self, ptr: *mut f32, n: usize) {
        debug_assert!(n <= 16);
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
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
    pub fn to_array(self) -> [f32; 16] {
        self.0
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — 512-bit ops run only after the
            // dispatch probe confirms AVX-512F (wide module contract).
            return Self(unsafe { x86::add_ps(self.0, o.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..16 { r[i] += o.0[i]; }
            Self(r)
        }
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see wide module contract.
            return Self(unsafe { x86::mul_ps(self.0, o.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..16 { r[i] *= o.0[i]; }
            Self(r)
        }
    }

    /// `self + a * b` per lane — always fused (one rounding per lane).
    #[inline(always)]
    pub fn fma(self, a: Self, b: Self) -> Self {
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see wide module contract.
            return Self(unsafe { x86::fmadd_ps(self.0, a.0, b.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..16 { r[i] = a.0[i].mul_add(b.0[i], r[i]); }
            Self(r)
        }
    }

    /// Horizontal sum in a fixed pairwise order (identical on all paths).
    #[inline(always)]
    pub fn reduce_sum(self) -> f32 {
        let v = self.0;
        let h: [f32; 8] = core::array::from_fn(|i| v[i] + v[i + 8]);
        ((h[0] + h[4]) + (h[1] + h[5])) + ((h[2] + h[6]) + (h[3] + h[7]))
    }

    /// Multiplies all lanes by `s`.
    #[inline(always)]
    pub fn scale(self, s: f32) -> Self {
        self.mul(Self::splat(s))
    }

    /// Transposes a 16x16 tile held as 16 row vectors: lane `r` of
    /// `out[c]` is lane `c` of `rows[r]`. A pure lane permutation — no
    /// bit of any element changes.
    #[inline(always)]
    pub fn transpose(rows: [Self; 16]) -> [Self; 16] {
        let rows = rows.map(|v| v.0);
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return unsafe { x86::transpose_ps(rows) }.map(Self);
        }
        scalar_block! {
            crate::transpose_arrays(rows).map(Self)
        }
    }
}

impl F64x8 {
    /// Number of lanes (`j = 8`).
    pub const LANES: usize = 8;

    /// All-zero vector.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; 8])
    }

    /// Builds a vector from an array of lanes.
    #[inline(always)]
    pub const fn from_array(v: [f64; 8]) -> Self {
        Self(v)
    }

    /// Broadcasts `x` to all lanes.
    #[inline(always)]
    pub fn splat(x: f64) -> Self {
        Self([x; 8])
    }

    /// Unaligned load of 8 consecutive `f64`s.
    ///
    /// # Safety
    /// `ptr` valid for reading 64 bytes.
    #[inline(always)]
    pub unsafe fn load(ptr: *const f64) -> Self {
        Self(core::ptr::read_unaligned(ptr as *const [f64; 8]))
    }

    /// Unaligned store of all lanes.
    ///
    /// # Safety
    /// `ptr` valid for writing 64 bytes.
    #[inline(always)]
    pub unsafe fn store(self, ptr: *mut f64) {
        core::ptr::write_unaligned(ptr as *mut [f64; 8], self.0)
    }

    /// Loads the first `n <= 8` lanes from `ptr` and zeroes the rest;
    /// memory past `ptr + n` is never read.
    ///
    /// # Safety
    /// `ptr` valid for reading `n` elements.
    #[inline(always)]
    pub unsafe fn load_partial(ptr: *const f64, n: usize) -> Self {
        debug_assert!(n <= 8);
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see module contract; the mask keeps
            // the access inside the caller's `n` elements.
            return Self(x86::maskload_pd(ptr, n));
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
    pub unsafe fn store_partial(self, ptr: *mut f64, n: usize) {
        debug_assert!(n <= 8);
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
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
    pub fn to_array(self) -> [f64; 8] {
        self.0
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see wide module contract.
            return Self(unsafe { x86::add_pd(self.0, o.0) });
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
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see wide module contract.
            return Self(unsafe { x86::mul_pd(self.0, o.0) });
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
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see wide module contract.
            return Self(unsafe { x86::fmadd_pd(self.0, a.0, b.0) });
        }
        scalar_block! {
            let mut r = self.0;
            for i in 0..8 { r[i] = a.0[i].mul_add(b.0[i], r[i]); }
            Self(r)
        }
    }

    /// Horizontal sum in a fixed pairwise order (identical on all paths).
    #[inline(always)]
    pub fn reduce_sum(self) -> f64 {
        let v = self.0;
        let h: [f64; 4] = core::array::from_fn(|i| v[i] + v[i + 4]);
        (h[0] + h[2]) + (h[1] + h[3])
    }

    /// Multiplies all lanes by `s`.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        self.mul(Self::splat(s))
    }

    /// Transposes a 8x8 tile held as 8 row vectors: lane `r` of
    /// `out[c]` is lane `c` of `rows[r]`. A pure lane permutation — no
    /// bit of any element changes.
    #[inline(always)]
    pub fn transpose(rows: [Self; 8]) -> [Self; 8] {
        let rows = rows.map(|v| v.0);
        avx512_block! {
            debug_assert!(crate::caps::detect().avx512f);
            // SAFETY: SHALOM-V-SIMD — see module contract.
            return unsafe { x86::transpose_pd(rows) }.map(Self);
        }
        scalar_block! {
            crate::transpose_arrays(rows).map(Self)
        }
    }
}

impl core::fmt::Debug for F32x16 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F32x16({:?})", self.to_array())
    }
}

impl core::fmt::Debug for F64x8 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F64x8({:?})", self.to_array())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when this host may execute the 512-bit ops.
    fn runtime_ok() -> bool {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            return crate::caps::detect().avx512f;
        }
        #[allow(unreachable_code)]
        true
    }

    #[test]
    fn f32x16_roundtrip_and_ops() {
        if !runtime_ok() {
            return;
        }
        let a: [f32; 16] = core::array::from_fn(|i| (i + 1) as f32);
        let v = unsafe { F32x16::load(a.as_ptr()) };
        assert_eq!(v.to_array(), a);
        assert_eq!(F32x16::splat(2.0).mul(v).to_array()[15], 32.0);
        assert_eq!(v.add(v).to_array()[0], 2.0);
        assert_eq!(v.reduce_sum(), 136.0);
        assert_eq!(v.scale(0.5).to_array()[3], 2.0);
    }

    #[test]
    fn f64x8_roundtrip_and_ops() {
        if !runtime_ok() {
            return;
        }
        let a: [f64; 8] = core::array::from_fn(|i| (i + 1) as f64);
        let v = unsafe { F64x8::load(a.as_ptr()) };
        assert_eq!(v.to_array(), a);
        assert_eq!(v.reduce_sum(), 36.0);
    }

    /// Rounding contract at 512 bits: bitwise identical to scalar `mul_add`.
    #[test]
    fn fused_ops_match_scalar_mul_add_model_bitwise() {
        if !runtime_ok() {
            return;
        }
        let mut x = 0x9E3779B9u32;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            ((x as f64 / u32::MAX as f64) - 0.5) * 3.0e3
        };
        for _ in 0..64 {
            let af: [f32; 16] = core::array::from_fn(|_| next() as f32);
            let bf: [f32; 16] = core::array::from_fn(|_| next() as f32);
            let cf: [f32; 16] = core::array::from_fn(|_| next() as f32);
            let got = F32x16::from_array(cf)
                .fma(F32x16::from_array(af), F32x16::from_array(bf))
                .to_array();
            for i in 0..16 {
                assert_eq!(got[i].to_bits(), af[i].mul_add(bf[i], cf[i]).to_bits());
            }
            let ad: [f64; 8] = core::array::from_fn(|_| next());
            let bd: [f64; 8] = core::array::from_fn(|_| next());
            let cd: [f64; 8] = core::array::from_fn(|_| next());
            let got = F64x8::from_array(cd)
                .fma(F64x8::from_array(ad), F64x8::from_array(bd))
                .to_array();
            for i in 0..8 {
                assert_eq!(got[i].to_bits(), ad[i].mul_add(bd[i], cd[i]).to_bits());
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
        for n in 0..=16 {
            let src: Vec<f32> = (0..n).map(|i| i as f32 + 1.0).collect();
            let v = unsafe { F32x16::load_partial(src.as_ptr(), n) }.to_array();
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, if i < n { i as f32 + 1.0 } else { 0.0 });
            }
            let mut out = vec![-1.0f32; n + 2];
            unsafe { F32x16::splat(7.0).store_partial(out.as_mut_ptr().add(1), n) };
            assert_eq!((out[0], out[n + 1]), (-1.0, -1.0));
            assert!(out[1..=n].iter().all(|&x| x == 7.0));
        }
        for n in 0..=8 {
            let src: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let v = unsafe { F64x8::load_partial(src.as_ptr(), n) }.to_array();
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, if i < n { i as f64 + 1.0 } else { 0.0 });
            }
            let mut out = vec![-1.0f64; n + 2];
            unsafe { F64x8::splat(7.0).store_partial(out.as_mut_ptr().add(1), n) };
            assert_eq!((out[0], out[n + 1]), (-1.0, -1.0));
            assert!(out[1..=n].iter().all(|&x| x == 7.0));
        }
    }
}

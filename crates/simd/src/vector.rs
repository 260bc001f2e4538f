//! The lane-type abstraction the generic kernels are written against:
//! one trait, implemented once per vector type — directly by the 128-bit
//! types in `f32x4.rs`/`f64x2.rs`, and by one shared body
//! (`wide_body.rs`) for the four wide types.
//!
//! shalom-analysis: deny(panic)

use shalom_matrix::Scalar;

/// The widest lane count any [`Vector`] has (`F32x16`).
pub const MAX_LANES: usize = 16;

/// A SIMD vector type usable by the generic micro-kernels.
///
/// Implemented by the 128-bit [`crate::F32x4`] (`j = 4`) and
/// [`crate::F64x2`] (`j = 2`) substrate, and by the runtime-dispatched wide
/// types ([`crate::F32x8`], [`crate::F64x4`], [`crate::F32x16`],
/// [`crate::F64x8`]) the kernel families instantiate. The dynamic
/// `*_lane_dyn` methods take the lane index at runtime; kernels call them
/// from loops whose trip count is the compile-time constant `Self::LANES`,
/// so after unrolling the index is a constant and the match inside each
/// implementation folds to the single lane instruction.
pub trait Vector: Copy + Send + Sync + 'static {
    /// The element type of each lane.
    type Elem: Scalar;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{caps, fma_is_fused, F32x16, F32x4, F32x8, F64x2, F64x4, F64x8};

    /// What the lane-wise model needs of an element beyond [`Scalar`].
    trait ModelElem: Scalar {
        fn bits(self) -> u64;
        fn from_bits(bits: u64) -> Self;
        fn fused(self, a: Self, b: Self) -> Self;
        const QUIET_NAN: u64;
    }

    impl ModelElem for f32 {
        fn bits(self) -> u64 {
            self.to_bits().into()
        }
        fn from_bits(bits: u64) -> Self {
            f32::from_bits(bits as u32)
        }
        fn fused(self, a: Self, b: Self) -> Self {
            a.mul_add(b, self)
        }
        const QUIET_NAN: u64 = 0x7FC0_0000;
    }

    impl ModelElem for f64 {
        fn bits(self) -> u64 {
            self.to_bits()
        }
        fn from_bits(bits: u64) -> Self {
            f64::from_bits(bits)
        }
        fn fused(self, a: Self, b: Self) -> Self {
            a.mul_add(b, self)
        }
        const QUIET_NAN: u64 = 0x7FF8_0000_0000_0000;
    }

    type Lanes<V> = [<V as Vector>::Elem; MAX_LANES];

    fn load<V: Vector>(x: &Lanes<V>) -> V {
        // SAFETY: `x` holds MAX_LANES >= LANES elements.
        unsafe { V::load(x.as_ptr()) }
    }

    fn lanes<V: Vector>(v: V) -> Lanes<V> {
        let mut out = [V::Elem::ZERO; MAX_LANES];
        // SAFETY: `out` holds MAX_LANES >= LANES elements.
        unsafe { v.store(out.as_mut_ptr()) };
        out
    }

    /// Checks every operation of `V` against the lane-wise model, bit for
    /// bit: `bits` is the register width and `reduce` the documented
    /// summation order of [`Vector::reduce_sum`].
    fn conformance<V: Vector>(bits: usize, reduce: fn(&Lanes<V>) -> V::Elem)
    where
        V::Elem: ModelElem,
    {
        let (n, name) = (V::LANES, core::any::type_name::<V>());
        assert_eq!(n * 8 * core::mem::size_of::<V::Elem>(), bits, "{name}");
        let half = <V::Half as Vector>::LANES;
        assert!(half == n || 2 * half == n, "{name}: half has {half} lanes");
        if !V::WIDE {
            assert_eq!(n, <V::Elem as Scalar>::LANES, "{name}: the paper's j");
        }
        // The wide types always fuse; the 128-bit ones as the build does.
        let fused = V::WIDE || fma_is_fused();
        let fma = |acc: V::Elem, a: V::Elem, b: V::Elem| {
            if fused {
                acc.fused(a, b)
            } else {
                acc + a * b
            }
        };
        let same = |got: V::Elem, want: V::Elem, what: &str| {
            assert_eq!(got.bits(), want.bits(), "{name} {what}: {got} != {want}");
        };

        // Awkward values: sign-mixed, non-dyadic, over a wide range, so a
        // wrong rounding or summation order changes bits.
        let mut x = 0x2545_F491u32;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            V::Elem::from_f64(((x as f64 / u32::MAX as f64) - 0.5) * 3.0e3)
        };
        for _ in 0..64 {
            let [a, b, c]: [Lanes<V>; 3] =
                core::array::from_fn(|_| core::array::from_fn(|_| next()));
            let (va, vb, vc) = (load::<V>(&a), load::<V>(&b), load::<V>(&c));
            let s = a[0];
            let (sum, prod, scaled) =
                (lanes(vc.add(va)), lanes(vc.fma(va, vb)), lanes(va.scale(s)));
            for i in 0..n {
                same(lanes(V::zero())[i], V::Elem::ZERO, "zero");
                same(lanes(V::splat(s))[i], s, "splat");
                same(va.extract_dyn(i), a[i], "extract_dyn");
                same(sum[i], c[i] + a[i], "add");
                same(prod[i], fma(c[i], a[i], b[i]), "fma");
                same(scaled[i], a[i] * s, "scale");
                let by_lane = lanes(vc.fma_lane_dyn(va, vb, i));
                for j in 0..n {
                    same(by_lane[j], fma(c[j], a[j], b[i]), "fma_lane_dyn");
                }
            }
            same(va.reduce_sum(), reduce(&a), "reduce_sum order");
        }

        // Unaligned access: one element in on load, two on store.
        let buf: Vec<V::Elem> = (0..n + 3).map(|i| V::Elem::from_f64(i as f64)).collect();
        let mut out = vec![V::Elem::ZERO; n + 3];
        // SAFETY: `buf` and `out` hold `LANES + 3` elements.
        unsafe { V::load(buf.as_ptr().add(1)).store(out.as_mut_ptr().add(2)) };
        assert_eq!(&out[2..n + 2], &buf[1..n + 1], "{name} unaligned");
        assert!(out[..2]
            .iter()
            .chain(&out[n + 2..])
            .all(|&v| v == V::Elem::ZERO));

        // Partial access touches exactly `n` lanes: the source is sized
        // to `n`, and the store lands between two sentinels.
        let seven = V::Elem::from_f64(7.0);
        for len in 0..=n {
            let src: Vec<V::Elem> = (0..len)
                .map(|i| V::Elem::from_f64(i as f64 + 1.0))
                .collect();
            // SAFETY: `src` holds exactly `len` elements.
            let got = lanes(unsafe { V::load_partial(src.as_ptr(), len) });
            for (i, g) in got[..n].iter().enumerate() {
                let want = if i < len { src[i] } else { V::Elem::ZERO };
                same(*g, want, "load_partial");
            }
            let mut dst = vec![-V::Elem::ONE; len + 2];
            // SAFETY: `dst` holds `len + 2` elements; `len` are written
            // from the second on.
            unsafe { V::splat(seven).store_partial(dst.as_mut_ptr().add(1), len) };
            assert!(
                dst[1..=len].iter().all(|&v| v == seven),
                "{name} store_partial"
            );
            assert!(
                dst[0] == -V::Elem::ONE && dst[len + 1] == -V::Elem::ONE,
                "{name} overreach"
            );
        }

        // Transpose is a lane permutation: every element is a distinct
        // NaN payload, and each comes out bit for bit.
        let rows: [Lanes<V>; MAX_LANES] = core::array::from_fn(|r| {
            core::array::from_fn(|c| {
                V::Elem::from_bits(V::Elem::QUIET_NAN | (1 + r * n + c) as u64)
            })
        });
        let mut tile = rows.map(|r| load::<V>(&r));
        V::transpose(&mut tile);
        for r in 0..n {
            for c in 0..n {
                same(lanes(tile[c])[r], rows[r][c], "transpose");
            }
        }
    }

    #[test]
    fn every_vector_type_matches_the_lane_wise_model() {
        conformance::<F32x4>(128, |v| (v[0] + v[2]) + (v[1] + v[3]));
        conformance::<F64x2>(128, |v| v[0] + v[1]);
        // The wide types run only where the dispatch layer would admit
        // them: always off x86 (the array fallback), after the probe on it.
        let caps = caps::detect();
        let native = cfg!(all(target_arch = "x86_64", not(feature = "force-scalar")));
        if !native || caps.avx2_fma {
            conformance::<F32x8>(256, |v| {
                ((v[0] + v[4]) + (v[1] + v[5])) + ((v[2] + v[6]) + (v[3] + v[7]))
            });
            conformance::<F64x4>(256, |v| (v[0] + v[2]) + (v[1] + v[3]));
        }
        if !native || caps.avx512f {
            conformance::<F32x16>(512, |v| {
                let h: [f32; 8] = core::array::from_fn(|i| v[i] + v[i + 8]);
                ((h[0] + h[4]) + (h[1] + h[5])) + ((h[2] + h[6]) + (h[3] + h[7]))
            });
            conformance::<F64x8>(512, |v| {
                let h: [f64; 4] = core::array::from_fn(|i| v[i] + v[i + 4]);
                (h[0] + h[2]) + (h[1] + h[3])
            });
        }
    }
}

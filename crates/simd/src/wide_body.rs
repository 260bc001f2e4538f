//! The one body of the four wide vector types.
//!
//! `wide_vector!` emits a type's struct, its [`crate::Vector`] impl and
//! its `Debug` impl from the element type, the lane count, the half-width
//! type, the [`crate::caps::CpuCaps`] field that admits it and its x86
//! function set. [`crate::wide`] (AVX2) and [`crate::wide512`] (AVX-512)
//! hold those intrinsics, the dispatch contract every `SHALOM-V-SIMD`
//! comment below relies on, and the rounding contract: the x86 path calls
//! the intrinsics; every other build (aarch64, `force-scalar`, other
//! arches) runs the plain-array arms, whose multiply-adds are the exactly
//! rounded [`f32::mul_add`]/[`f64::mul_add`].
//!
//! shalom-analysis: deny(panic)

/// Emits one wide vector type; see the module docs. The x86 functions are
/// named in the order add, mul, fused multiply-add, masked load, masked
/// store, transpose.
macro_rules! wide_vector {
    ($(#[$doc:meta])* $V:ident([$E:ty; $N:literal]), half $H:ty, probe $probe:ident,
     $x86:ident::{$add:ident, $mul:ident, $fma:ident, $load:ident, $store:ident, $tr:ident}) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        pub struct $V([$E; $N]);

        impl $V {
            /// Extracts all lanes.
            #[inline(always)]
            pub fn to_array(self) -> [$E; $N] {
                self.0
            }
        }

        impl $crate::Vector for $V {
            type Elem = $E;
            type Half = $H;
            const LANES: usize = $N;
            const WIDE: bool = true;

            #[inline(always)]
            fn zero() -> Self {
                Self([0.0; $N])
            }

            #[inline(always)]
            fn splat(x: $E) -> Self {
                Self([x; $N])
            }

            // SAFETY: SHALOM-V-SIMD — the caller's `ptr` covers `LANES` elements.
            #[inline(always)]
            unsafe fn load(ptr: *const $E) -> Self {
                Self(core::ptr::read_unaligned(ptr as *const [$E; $N]))
            }

            // SAFETY: SHALOM-V-SIMD — the caller's `ptr` covers `LANES` elements.
            #[inline(always)]
            unsafe fn store(self, ptr: *mut $E) {
                core::ptr::write_unaligned(ptr as *mut [$E; $N], self.0)
            }

            // SAFETY: SHALOM-V-SIMD — the caller's `ptr` covers `n`
            // elements; the mask keeps the access inside them. Elsewhere
            // the trait's stack-staged default serves.
            #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
            #[inline(always)]
            unsafe fn load_partial(ptr: *const $E, n: usize) -> Self {
                debug_assert!(n <= $N && $crate::caps::detect().$probe);
                Self($x86::$load(ptr, n))
            }

            // SAFETY: SHALOM-V-SIMD — as `load_partial`.
            #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
            #[inline(always)]
            unsafe fn store_partial(self, ptr: *mut $E, n: usize) {
                debug_assert!(n <= $N && $crate::caps::detect().$probe);
                $x86::$store(ptr, n, self.0)
            }

            /// `self + a * b` per lane — always fused (one rounding per lane).
            #[inline(always)]
            fn fma(self, a: Self, b: Self) -> Self {
                #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
                // SAFETY: SHALOM-V-SIMD — the caps probe admitted this type.
                unsafe {
                    debug_assert!($crate::caps::detect().$probe);
                    Self($x86::$fma(self.0, a.0, b.0))
                }
                #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
                {
                    let mut r = self.0;
                    for ((r, a), b) in r.iter_mut().zip(a.0).zip(b.0) {
                        *r = a.mul_add(b, *r);
                    }
                    Self(r)
                }
            }

            #[inline(always)]
            fn extract_dyn(self, lane: usize) -> $E {
                // PANIC-OK: kernel contract — callers pass lane < Self::LANES
                // (debug-asserted at the kernel entry points).
                self.0[lane]
            }

            #[inline(always)]
            fn add(self, o: Self) -> Self {
                #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
                // SAFETY: SHALOM-V-SIMD — the caps probe admitted this type.
                unsafe {
                    debug_assert!($crate::caps::detect().$probe);
                    Self($x86::$add(self.0, o.0))
                }
                #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
                {
                    let mut r = self.0;
                    for (r, o) in r.iter_mut().zip(o.0) {
                        *r += o;
                    }
                    Self(r)
                }
            }

            #[inline(always)]
            fn scale(self, s: $E) -> Self {
                #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
                // SAFETY: SHALOM-V-SIMD — the caps probe admitted this type.
                unsafe {
                    debug_assert!($crate::caps::detect().$probe);
                    Self($x86::$mul(self.0, [s; $N]))
                }
                #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
                {
                    let mut r = self.0;
                    for r in &mut r {
                        *r *= s;
                    }
                    Self(r)
                }
            }

            /// Horizontal sum in a fixed order, identical on all paths: fold
            /// the upper half onto the lower until 128 bits are left, then
            /// add adjacent pairs.
            // PANIC-OK(index): every index is below `$N`, bounded by `n`.
            #[inline(always)]
            fn reduce_sum(self) -> $E {
                let (mut v, mut n) = (self.0, $N);
                while n > 16 / core::mem::size_of::<$E>() {
                    n /= 2;
                    for i in 0..n {
                        v[i] += v[i + n];
                    }
                }
                while n > 1 {
                    n /= 2;
                    for i in 0..n {
                        v[i] = v[2 * i] + v[2 * i + 1];
                    }
                }
                v[0]
            }

            #[inline(always)]
            fn transpose(tile: &mut [Self; $crate::MAX_LANES]) {
                let Some((rows, _)) = tile.split_first_chunk_mut::<$N>() else {
                    return;
                };
                let lanes = rows.map(|v| v.0);
                #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
                // SAFETY: SHALOM-V-SIMD — the caps probe admitted this type.
                unsafe {
                    debug_assert!($crate::caps::detect().$probe);
                    *rows = $x86::$tr(lanes).map(Self);
                }
                #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
                {
                    *rows = $crate::transpose_arrays(lanes).map(Self);
                }
            }
        }

        impl core::fmt::Debug for $V {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{}({:?})", stringify!($V), self.0)
            }
        }
    };
}

pub(crate) use wide_vector;

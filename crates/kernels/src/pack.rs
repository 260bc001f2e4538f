//! Standalone packing routines (pack *then* compute).
//!
//! These are the sequential packers of the classical Goto algorithm —
//! what OpenBLAS/BLIS always run and what LibShalom runs for the operand
//! the paper packs: the transposed one (§4.3 — `op(A) = Aᵀ` in TN/TT, and
//! `op(B) = Bᵀ` on every kernel set without an inner-product NT panel).
//! Keeping them separate lets the baselines be faithful and lets the
//! benches measure exactly the overhead the paper's fused kernels remove.
//!
//! The transposing pack ([`pack_transpose_tiled`]) is written once over
//! [`Vector`] and instantiated per kernel set by `family::kernel_set!`:
//! square `LANES x LANES` tiles, loaded as row vectors, transposed in
//! registers and stored as contiguous rows, so both sides of the copy move
//! whole vectors instead of one strided element at a time. The public
//! [`pack_transpose`] is the 128-bit set's instantiation.
//!
//! shalom-analysis: deny(panic)

use crate::family::{kernels_for, FamilyElem};
use crate::vector::MAX_LANES;
use crate::Vector;
use shalom_matrix::Scalar;

/// Bytes per cache line on every target the kernels run on.
const CACHE_LINE: usize = 64;

/// Copies a `rows x cols` block (stride `ld_src`) into a buffer with
/// stride `ld_dst` — the trivial NN-mode B pack.
///
/// # Safety
/// `src` valid for `rows x cols` reads at stride `ld_src`; `dst` valid for
/// `rows x cols` writes at stride `ld_dst`; `cols <= ld_dst`.
// ALLOC-FREE
// CONTRACT(SHALOM-K-PACK-COPY: m = rows, n = cols, lda = ld_src, ldb = ld_dst)
pub unsafe fn pack_copy<T: Scalar>(
    src: *const T,
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: *mut T,
    ld_dst: usize,
) {
    // Contract SHALOM-K-PACK-COPY preconditions.
    debug_assert!(cols <= ld_dst || rows <= 1);
    if rows > 0 && cols > 0 {
        debug_assert!(!src.is_null() && !dst.is_null());
        debug_assert!(rows <= 1 || ld_src >= cols);
    }
    for r in 0..rows {
        core::ptr::copy_nonoverlapping(src.add(r * ld_src), dst.add(r * ld_dst), cols);
    }
}

/// Transpose-packs a `rows x cols` block (stride `ld_src`) into a
/// `cols x rows` buffer (stride `ld_dst`): `dst[c][r] = src[r][c]`.
///
/// The 128-bit kernel set's instantiation of [`pack_transpose_tiled`]
/// with no padding: the sequential (non-fused) pack of the baselines.
///
/// # Safety
/// `src` valid for `rows x cols` reads at stride `ld_src`; `dst` valid for
/// `cols x rows` writes at stride `ld_dst`; `rows <= ld_dst`.
// ALLOC-FREE
pub unsafe fn pack_transpose<T: FamilyElem>(
    src: *const T,
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: *mut T,
    ld_dst: usize,
) {
    // Contract SHALOM-K-PACK-TRANS preconditions are restated by the body.
    debug_assert!(rows <= ld_dst || cols <= 1);
    let base = kernels_for::<T>(shalom_simd::base_isa());
    (base.pack_transpose)(src, ld_src, rows, cols, dst, ld_dst, 0)
}

/// One full `LANES x LANES` tile of the transposing pack.
///
/// # Safety
/// `src` valid for `LANES` rows of `LANES` reads at stride `ld_src`; `dst`
/// for `LANES` rows of `LANES` writes at stride `ld_dst`.
#[inline(always)]
// ALLOC-FREE
// CONTRACT(SHALOM-K-PACK-TRANS: m = V::LANES, n = V::LANES, lda = ld_src, ldb = ld_dst, zpad = 0, lanes = V::LANES)
unsafe fn transpose_tile<V: Vector>(
    src: *const V::Elem,
    ld_src: usize,
    dst: *mut V::Elem,
    ld_dst: usize,
) {
    let mut tile = [V::zero(); MAX_LANES];
    for (i, row) in tile.iter_mut().enumerate().take(V::LANES) {
        *row = V::load(src.add(i * ld_src));
    }
    V::transpose(&mut tile);
    for (j, col) in tile.iter().enumerate().take(V::LANES) {
        col.store(dst.add(j * ld_dst));
    }
}

/// One `rn x cn` tile, `rn, cn <= LANES`. A full one is [`transpose_tile`];
/// a ragged one that fits the half-width vector's tile is that vector's
/// tile (a third of the shuffles); otherwise, on the wide types, it is the
/// full body on masked rows — so a block under one tile is a single tile
/// with no scalar loop behind it. The 128-bit types have no masked load or
/// store and keep the scalar remainder.
///
/// # Safety
/// `src` valid for `rn` rows of `cn` reads at stride `ld_src`; `dst` for
/// `cn` rows of `rn` writes at stride `ld_dst`.
#[inline(always)]
// ALLOC-FREE
// CONTRACT(SHALOM-K-PACK-TRANS: m = rn, n = cn, lda = ld_src, ldb = ld_dst, zpad = 0, lanes = V::LANES)
unsafe fn transpose_tile_any<V: Vector>(
    src: *const V::Elem,
    ld_src: usize,
    rn: usize,
    cn: usize,
    dst: *mut V::Elem,
    ld_dst: usize,
) {
    if V::Half::LANES < V::LANES && rn <= V::Half::LANES && cn <= V::Half::LANES {
        return transpose_tile_any::<V::Half>(src, ld_src, rn, cn, dst, ld_dst);
    }
    if rn == V::LANES && cn == V::LANES {
        return transpose_tile::<V>(src, ld_src, dst, ld_dst);
    }
    if !V::WIDE {
        for i in 0..rn {
            for j in 0..cn {
                *dst.add(j * ld_dst + i) = *src.add(i * ld_src + j);
            }
        }
        return;
    }
    let mut tile = [V::zero(); MAX_LANES];
    for (i, row) in tile.iter_mut().enumerate().take(V::LANES) {
        if i < rn {
            *row = V::load_partial(src.add(i * ld_src), cn);
        }
    }
    V::transpose(&mut tile);
    for (j, col) in tile.iter().enumerate().take(V::LANES) {
        if j < cn {
            col.store_partial(dst.add(j * ld_dst), rn);
        }
    }
}

/// The transposing pack at vector type `V`: `dst[c][r] = src[r][c]` for a
/// `rows x cols` block, plus `zpad` zeros after the `rows` elements of
/// each of the `cols` destination rows (the NT panel's padding to `nr`).
/// A copy: no element's bits change.
///
/// The walk is in strips of one cache line's worth of source rows: inside
/// a strip, the tiles of one tile column are done back to back, so every
/// destination row receives a whole cache line while it is hot (at 512
/// bits a tile *is* a strip), and along a strip the source streams. The
/// strips hold whole tiles only — their tile sizes are constants, which
/// is worth 5–9 ns on an 8x8 block against one loop nest over runtime
/// sizes — and the last ragged band of rows follows them.
///
/// # Safety
/// `src` valid for `rows x cols` reads at stride `ld_src`; `dst` valid for
/// `cols` rows of `rows + zpad` writes at stride `ld_dst`, which that
/// width must clear when there is more than one destination row.
// `inline(always)`: the kernel sets call this through their
// `#[target_feature]` entry points (`family::kernel_set!`).
#[inline(always)]
// ALLOC-FREE
// CONTRACT(SHALOM-K-PACK-TRANS: m = rows, n = cols, lda = ld_src, ldb = ld_dst, lanes = V::LANES)
pub unsafe fn pack_transpose_tiled<V: Vector>(
    src: *const V::Elem,
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: *mut V::Elem,
    ld_dst: usize,
    zpad: usize,
) {
    // Contract SHALOM-K-PACK-TRANS preconditions.
    debug_assert!(rows + zpad <= ld_dst || cols <= 1);
    if rows + zpad > 0 && cols > 0 {
        debug_assert!(!dst.is_null() && (rows == 0 || !src.is_null()));
        debug_assert!(rows <= 1 || ld_src >= cols);
    }
    // A multiple of every `LANES`.
    let strip = CACHE_LINE / core::mem::size_of::<V::Elem>();
    let mut rb = 0usize;
    while rb + V::LANES <= rows {
        let re = (rb + strip).min(rows);
        let mut c0 = 0usize;
        while c0 + V::LANES <= cols {
            let mut r0 = rb;
            while r0 + V::LANES <= re {
                transpose_tile::<V>(
                    src.add(r0 * ld_src + c0),
                    ld_src,
                    dst.add(c0 * ld_dst + r0),
                    ld_dst,
                );
                r0 += V::LANES;
            }
            c0 += V::LANES;
        }
        if c0 < cols {
            let mut r0 = rb;
            while r0 + V::LANES <= re {
                transpose_tile_any::<V>(
                    src.add(r0 * ld_src + c0),
                    ld_src,
                    V::LANES,
                    cols - c0,
                    dst.add(c0 * ld_dst + r0),
                    ld_dst,
                );
                r0 += V::LANES;
            }
        }
        // The strip's whole tiles.
        rb += (re - rb) / V::LANES * V::LANES;
    }
    if rb < rows {
        let mut c0 = 0usize;
        while c0 < cols {
            let cn = V::LANES.min(cols - c0);
            transpose_tile_any::<V>(
                src.add(rb * ld_src + c0),
                ld_src,
                rows - rb,
                cn,
                dst.add(c0 * ld_dst + rb),
                ld_dst,
            );
            c0 += cn;
        }
    }
    let mut z0 = 0usize;
    while z0 < zpad {
        let zn = V::LANES.min(zpad - z0);
        for c in 0..cols {
            V::zero().store_partial(dst.add(c * ld_dst + rows + z0), zn);
        }
        z0 += zn;
    }
}

/// Goto-style sliver-major A pack with zero padding (the classical
/// libraries' edge strategy, §2.2 "pad the matrices with zeros").
///
/// The `mc x kc` block at `a` is cut into `ceil(mc/mr)` slivers of `mr`
/// rows. Sliver `s` occupies `mr * kc` contiguous elements of `dst`,
/// stored **column-major within the sliver**: element `(i, k)` of sliver
/// `s` is `dst[s*mr*kc + k*mr + i]` — the order the Goto micro-kernel
/// consumes A. Rows past `mc` in the last sliver are zero.
///
/// Returns the number of slivers written.
///
/// # Safety
/// `a` valid for `mc x kc` reads at stride `lda`; `dst` valid for
/// `ceil(mc/mr) * mr * kc` writes.
// CONTRACT(SHALOM-K-PACK-A: m = mc, mr_sliver = mr)
pub unsafe fn pack_a_slivers_goto<T: Scalar>(
    a: *const T,
    lda: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    dst: *mut T,
) -> usize {
    // Contract SHALOM-K-PACK-A preconditions: a positive sliver height
    // and strides clearing the row width.
    debug_assert!(mr >= 1);
    if mc > 0 && kc > 0 {
        debug_assert!(!a.is_null() && !dst.is_null());
        debug_assert!(mc <= 1 || lda >= kc);
    }
    let slivers = mc.div_ceil(mr);
    for s in 0..slivers {
        let base = dst.add(s * mr * kc);
        let rows = mr.min(mc - s * mr);
        for k in 0..kc {
            for i in 0..rows {
                *base.add(k * mr + i) = *a.add((s * mr + i) * lda + k);
            }
            for i in rows..mr {
                *base.add(k * mr + i) = T::ZERO;
            }
        }
    }
    slivers
}

/// Goto-style sliver-major B pack with zero padding.
///
/// The `kc x nc` block at `b` is cut into `ceil(nc/nr)` slivers of `nr`
/// columns. Sliver `s` occupies `kc * nr` contiguous elements of `dst`,
/// stored row-major within the sliver: element `(k, j)` of sliver `s` is
/// `dst[s*kc*nr + k*nr + j]`. Columns past `nc` in the last sliver are
/// zero.
///
/// Returns the number of slivers written.
///
/// # Safety
/// `b` valid for `kc x nc` reads at stride `ldb`; `dst` valid for
/// `ceil(nc/nr) * kc * nr` writes.
// CONTRACT(SHALOM-K-PACK-B: n = nc)
pub unsafe fn pack_b_slivers_goto<T: Scalar>(
    b: *const T,
    ldb: usize,
    kc: usize,
    nc: usize,
    nr: usize,
    dst: *mut T,
) -> usize {
    // Contract SHALOM-K-PACK-B preconditions.
    debug_assert!(nr >= 1);
    if kc > 0 && nc > 0 {
        debug_assert!(!b.is_null() && !dst.is_null());
        debug_assert!(kc <= 1 || ldb >= nc);
    }
    let slivers = nc.div_ceil(nr);
    for s in 0..slivers {
        let base = dst.add(s * kc * nr);
        let cols = nr.min(nc - s * nr);
        for k in 0..kc {
            let srow = b.add(k * ldb + s * nr);
            for j in 0..cols {
                *base.add(k * nr + j) = *srow.add(j);
            }
            for j in cols..nr {
                *base.add(k * nr + j) = T::ZERO;
            }
        }
    }
    slivers
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::Matrix;

    #[test]
    fn copy_pack_with_strides() {
        let src = Matrix::<f32>::random_with_ld(4, 6, 9, 1);
        let mut dst = vec![0f32; 4 * 6];
        // SAFETY: src is 4x6 (ld 9), dst holds 4*6 elements.
        unsafe {
            pack_copy(src.as_slice().as_ptr(), src.ld(), 4, 6, dst.as_mut_ptr(), 6);
        }
        for r in 0..4 {
            for c in 0..6 {
                assert_eq!(dst[r * 6 + c], src.at(r, c));
            }
        }
    }

    #[test]
    fn transpose_pack_round_trip() {
        let src = Matrix::<f64>::random(5, 3, 2);
        let mut dst = vec![0f64; 3 * 5];
        // SAFETY: src is 5x3, dst holds the 3x5 transpose.
        unsafe {
            pack_transpose(src.as_slice().as_ptr(), src.ld(), 5, 3, dst.as_mut_ptr(), 5);
        }
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(dst[c * 5 + r], src.at(r, c));
            }
        }
        // Transposing back recovers the original.
        let mut back = vec![0f64; 5 * 3];
        // SAFETY: dst is the 3x5 transpose, back holds 5*3 elements.
        unsafe { pack_transpose(dst.as_ptr(), 5, 3, 5, back.as_mut_ptr(), 3) };
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(back[r * 3 + c], src.at(r, c));
            }
        }
    }

    #[test]
    fn goto_a_pack_layout_and_padding() {
        let mc = 10; // 2 slivers of 4 + remainder 2
        let kc = 3;
        let mr = 4;
        let a = Matrix::from_fn(mc, kc, |i, k| (100 * i + k) as f32);
        let mut dst = vec![f32::NAN; mc.div_ceil(mr) * mr * kc];
        // SAFETY: dst is sized for ceil(mc/mr) padded slivers.
        let slivers = unsafe {
            pack_a_slivers_goto(a.as_slice().as_ptr(), a.ld(), mc, kc, mr, dst.as_mut_ptr())
        };
        assert_eq!(slivers, 3);
        for s in 0..slivers {
            for k in 0..kc {
                for i in 0..mr {
                    let v = dst[s * mr * kc + k * mr + i];
                    let row = s * mr + i;
                    if row < mc {
                        assert_eq!(v, a.at(row, k));
                    } else {
                        assert_eq!(v, 0.0, "padding must be zero");
                    }
                }
            }
        }
    }

    #[test]
    fn goto_b_pack_layout_and_padding() {
        let kc = 4;
        let nc = 7; // 1 sliver of 3 + 1 of 3 + remainder 1
        let nr = 3;
        let b = Matrix::from_fn(kc, nc, |k, j| (10 * k + j) as f64);
        let mut dst = vec![f64::NAN; nc.div_ceil(nr) * kc * nr];
        // SAFETY: dst is sized for ceil(nc/nr) padded slivers.
        let slivers = unsafe {
            pack_b_slivers_goto(b.as_slice().as_ptr(), b.ld(), kc, nc, nr, dst.as_mut_ptr())
        };
        assert_eq!(slivers, 3);
        for s in 0..slivers {
            for k in 0..kc {
                for j in 0..nr {
                    let v = dst[s * kc * nr + k * nr + j];
                    let col = s * nr + j;
                    if col < nc {
                        assert_eq!(v, b.at(k, col));
                    } else {
                        assert_eq!(v, 0.0, "padding must be zero");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_blocks_are_noops() {
        let mut dst = [1.0f32; 4];
        // SAFETY: rows = cols = 0 means neither pointer is dereferenced.
        unsafe {
            pack_copy(
                core::ptr::NonNull::<f32>::dangling().as_ptr(),
                1,
                0,
                0,
                dst.as_mut_ptr(),
                1,
            );
            pack_transpose(
                core::ptr::NonNull::<f32>::dangling().as_ptr(),
                1,
                0,
                0,
                dst.as_mut_ptr(),
                1,
            );
        }
        assert_eq!(dst, [1.0; 4]);
    }
}

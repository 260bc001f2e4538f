//! Property tests at the micro-kernel layer: random `kc`, strides and
//! values against the `f64`-accumulating oracle, for every kernel
//! family and both vector widths.

use proptest::prelude::*;
use shalom_kernels::edge::{edge_kernel_batched, edge_kernel_pipelined};
use shalom_kernels::main_kernel::{main_kernel, main_kernel_shape};
use shalom_kernels::nt_pack::nt_pack_panel;
use shalom_kernels::pack::{pack_a_slivers_goto, pack_b_slivers_goto, pack_transpose};
use shalom_kernels::{registered_families, FamilyElem, FamilyKernels, Vector, MR, NR_F32, NR_F64};
use shalom_matrix::{assert_close, gemm_tolerance, reference, MatRef, Matrix, Op, Scalar};
use shalom_simd::{F32x4, F32x8, F64x2};

fn check_main<V: Vector>(kc: usize, pad_a: usize, pad_b: usize, seed: u64) {
    let nr = 3 * V::LANES;
    let a = Matrix::<V::Elem>::random_with_ld(MR, kc.max(1), kc.max(1) + pad_a, seed);
    let b = Matrix::<V::Elem>::random_with_ld(kc.max(1), nr, nr + pad_b, seed + 1);
    let mut c = Matrix::<V::Elem>::random(MR, nr, seed + 2);
    let mut want = c.clone();
    reference::gemm(
        Op::NoTrans,
        Op::NoTrans,
        V::Elem::ONE,
        a.as_ref().submatrix(0, 0, MR, kc),
        b.as_ref().submatrix(0, 0, kc, nr),
        V::Elem::ONE,
        want.as_mut(),
    );
    // SAFETY: a/b/c are owned matrices covering the 7 x nr tile.
    unsafe {
        main_kernel::<V>(
            kc,
            V::Elem::ONE,
            a.as_slice().as_ptr(),
            a.ld(),
            b.as_slice().as_ptr(),
            b.ld(),
            V::Elem::ONE,
            c.as_mut().as_mut_ptr(),
            c.ld(),
        );
    }
    assert_close(
        c.as_ref(),
        want.as_ref(),
        gemm_tolerance::<V::Elem>(kc, 2.0),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn main_kernel_random_kc_strides(kc in 0usize..80,
                                     pad_a in 0usize..5,
                                     pad_b in 0usize..5,
                                     seed in 0u64..10_000) {
        check_main::<F32x4>(kc, pad_a, pad_b, seed);
        check_main::<F64x2>(kc, pad_a, pad_b, seed);
    }

    #[test]
    fn edge_kernels_random_everything(m in 1usize..=7,
                                      n in 1usize..=12,
                                      kc in 0usize..60,
                                      seed in 0u64..10_000,
                                      pipelined in any::<bool>()) {
        let a = Matrix::<f32>::random(m, kc.max(1), seed);
        let b = Matrix::<f32>::random(kc.max(1), n, seed + 1);
        let mut c = Matrix::<f32>::random(m, n, seed + 2);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.5f32,
            a.as_ref().submatrix(0, 0, m, kc),
            b.as_ref().submatrix(0, 0, kc, n),
            -0.5f32,
            want.as_mut(),
        );
        // SAFETY: matrices allocated at least m x kc / kc x n / m x n.
        unsafe {
            let f = if pipelined { edge_kernel_pipelined::<F32x4> } else { edge_kernel_batched::<F32x4> };
            f(m, n, kc, 1.5, a.as_slice().as_ptr(), a.ld(),
              b.as_slice().as_ptr(), b.ld(), -0.5, c.as_mut().as_mut_ptr(), c.ld());
        }
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f32>(kc, 4.0));
    }

    #[test]
    fn nt_pack_random(m in 1usize..=7,
                      npanel in 1usize..=6,
                      kc in 0usize..40,
                      seed in 0u64..10_000) {
        let nr = NR_F64;
        let a = Matrix::<f64>::random(m, kc.max(1), seed);
        let b = Matrix::<f64>::random(npanel, kc.max(1), seed + 1);
        let mut c = Matrix::<f64>::random(m, npanel, seed + 2);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::Trans,
            1.0f64,
            a.as_ref().submatrix(0, 0, m, kc),
            b.as_ref().submatrix(0, 0, npanel, kc),
            1.0f64,
            want.as_mut(),
        );
        let mut bc = vec![0f64; kc.max(1) * nr];
        // SAFETY: operands owned; bc holds the full kc x nr panel.
        unsafe {
            nt_pack_panel::<F64x2>(
                m, npanel, kc, nr, 1.0,
                a.as_slice().as_ptr(), a.ld(),
                b.as_slice().as_ptr(), b.ld(),
                1.0, c.as_mut().as_mut_ptr(), c.ld(), bc.as_mut_ptr(),
            );
        }
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f64>(kc, 2.0));
        // Scatter correctness: bc[k][j] == B[j][k] for j < npanel.
        for k in 0..kc {
            for j in 0..npanel {
                prop_assert_eq!(bc[k * nr + j], b.at(j, k));
            }
        }
    }

    #[test]
    fn wide_kernel_random(kc in 0usize..50, seed in 0u64..10_000) {
        let a = Matrix::<f32>::random(9, kc.max(1), seed);
        let b = Matrix::<f32>::random(kc.max(1), 16, seed + 1);
        let mut c = Matrix::<f32>::random(9, 16, seed + 2);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0f32,
            a.as_ref().submatrix(0, 0, 9, kc),
            b.as_ref().submatrix(0, 0, kc, 16),
            1.0f32,
            want.as_mut(),
        );
        // SAFETY: matrices sized exactly to the 9x16 wide tile.
        unsafe {
            main_kernel_shape::<F32x8, 9, 2>(
                kc, 1.0, a.as_slice().as_ptr(), a.ld(),
                b.as_slice().as_ptr(), b.ld(), 1.0,
                c.as_mut().as_mut_ptr(), c.ld(),
            );
        }
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f32>(kc, 2.0));
    }

    #[test]
    fn goto_packs_preserve_all_elements(mc in 1usize..30,
                                        kc in 1usize..20,
                                        nc in 1usize..30,
                                        seed in 0u64..10_000) {
        // Every source element appears exactly where the sliver layout
        // says; padding is zero.
        let mr = 8;
        let nr = 4;
        let a = Matrix::<f32>::random(mc, kc, seed);
        let mut dst = vec![f32::NAN; mc.div_ceil(mr) * mr * kc];
        // SAFETY: dst sized for ceil(mc/mr) padded slivers.
        unsafe {
            pack_a_slivers_goto(a.as_slice().as_ptr(), a.ld(), mc, kc, mr, dst.as_mut_ptr());
        }
        for s in 0..mc.div_ceil(mr) {
            for k in 0..kc {
                for i in 0..mr {
                    let v = dst[s * mr * kc + k * mr + i];
                    let row = s * mr + i;
                    if row < mc {
                        prop_assert_eq!(v, a.at(row, k));
                    } else {
                        prop_assert_eq!(v, 0.0);
                    }
                }
            }
        }
        let b = Matrix::<f32>::random(kc, nc, seed + 1);
        let mut bdst = vec![f32::NAN; nc.div_ceil(nr) * kc * nr];
        // SAFETY: bdst sized for ceil(nc/nr) padded slivers.
        unsafe {
            pack_b_slivers_goto(b.as_slice().as_ptr(), b.ld(), kc, nc, nr, bdst.as_mut_ptr());
        }
        for s in 0..nc.div_ceil(nr) {
            for k in 0..kc {
                for j in 0..nr {
                    let v = bdst[s * kc * nr + k * nr + j];
                    let col = s * nr + j;
                    if col < nc {
                        prop_assert_eq!(v, b.at(k, col));
                    } else {
                        prop_assert_eq!(v, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_pack_involution(rows in 1usize..25, cols in 1usize..25, seed in 0u64..10_000) {
        let src = Matrix::<f64>::random(rows, cols, seed);
        let mut once = vec![0f64; cols * rows];
        let mut twice = vec![0f64; rows * cols];
        // SAFETY: once/twice hold the transposed shapes exactly.
        unsafe {
            pack_transpose(src.as_slice().as_ptr(), src.ld(), rows, cols, once.as_mut_ptr(), rows);
            pack_transpose(once.as_ptr(), rows, cols, rows, twice.as_mut_ptr(), cols);
        }
        let back = MatRef::from_slice(&twice, rows, cols, cols);
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(back.at(r, c), src.at(r, c));
            }
        }
    }

    #[test]
    fn main_kernel_linearity_in_alpha(kc in 1usize..30, seed in 0u64..10_000) {
        // kernel(2*alpha, beta=0) == 2 * kernel(alpha, beta=0) exactly
        // (scaling happens once at writeback).
        let nr = NR_F32;
        let a = Matrix::<f32>::random(MR, kc, seed);
        let b = Matrix::<f32>::random(kc, nr, seed + 1);
        let run = |alpha: f32| {
            let mut c = Matrix::<f32>::zeros(MR, nr);
            // SAFETY: a/b/c are owned matrices covering the 7 x nr tile.
            unsafe {
                main_kernel::<F32x4>(
                    kc, alpha, a.as_slice().as_ptr(), a.ld(),
                    b.as_slice().as_ptr(), b.ld(), 0.0,
                    c.as_mut().as_mut_ptr(), c.ld(),
                );
            }
            c
        };
        let c1 = run(1.0);
        let c2 = run(2.0);
        for i in 0..MR {
            for j in 0..nr {
                prop_assert_eq!(c2.at(i, j), 2.0 * c1.at(i, j));
            }
        }
    }
}

/// The scalar double loop every set's transposing pack replaced — the
/// oracle: `dst[c][r] = src[r][c]`, then `zpad` zeros per destination row.
fn transpose_oracle<T: Scalar>(
    src: &[T],
    ld_src: usize,
    (rows, cols): (usize, usize),
    dst: &mut [T],
    ld_dst: usize,
    zpad: usize,
) {
    for c in 0..cols {
        for r in 0..rows + zpad {
            dst[c * ld_dst + r] = if r < rows {
                src[r * ld_src + c]
            } else {
                T::ZERO
            };
        }
    }
}

/// One kernel set's transposing pack on shapes around its `lanes x lanes`
/// tile with padded strides: bit for bit the oracle (in the plain form and
/// in the zero-padded panel form the NT arm uses), nothing written outside
/// `cols x (rows + zpad)`, and a double transpose is the identity.
fn check_set_pack<T: FamilyElem>(
    label: &str,
    ks: &FamilyKernels<T>,
    value: impl Fn(usize) -> T,
    bits: impl Fn(T) -> u64,
) {
    let l = ks.lanes;
    let dims = [0, 1, l / 2, l - 1, l, l + 1, 2 * l + 3, 67];
    let same = |x: &[T], y: &[T]| x.iter().zip(y).all(|(a, b)| bits(*a) == bits(*b));
    for rows in dims {
        for cols in dims {
            for (pad_src, zpad, pad_dst) in [(0, 0, 0), (3, 0, 2), (1, ks.nr, 0), (2, 5, 3)] {
                let ctx = format!("{label} {rows}x{cols} pads {pad_src}/{pad_dst} zpad {zpad}");
                let (ld_src, ld_dst) = (cols + pad_src, rows + zpad + pad_dst);
                let src: Vec<T> = (0..rows * ld_src).map(&value).collect();
                let sentinel = value(usize::MAX);
                let mut got = vec![sentinel; cols * ld_dst];
                let mut want = got.clone();
                transpose_oracle(&src, ld_src, (rows, cols), &mut want, ld_dst, zpad);
                // SAFETY: src is rows x cols at ld_src; got holds cols rows
                // of rows + zpad at ld_dst; the set came from the registry.
                unsafe {
                    (ks.pack_transpose)(
                        src.as_ptr(),
                        ld_src,
                        rows,
                        cols,
                        got.as_mut_ptr(),
                        ld_dst,
                        zpad,
                    );
                }
                assert!(same(&got, &want), "{ctx}: differs from the oracle");
                // Back again (the padding is not part of the block).
                let mut back = vec![sentinel; rows * ld_src];
                let mut src_block = back.clone();
                for r in 0..rows {
                    src_block[r * ld_src..r * ld_src + cols]
                        .copy_from_slice(&src[r * ld_src..r * ld_src + cols]);
                }
                // SAFETY: got is cols x rows at ld_dst; back is rows x cols
                // at ld_src.
                unsafe {
                    (ks.pack_transpose)(
                        got.as_ptr(),
                        ld_dst,
                        cols,
                        rows,
                        back.as_mut_ptr(),
                        ld_src,
                        0,
                    );
                }
                assert!(same(&back, &src_block), "{ctx}: double transpose");
            }
        }
    }
}

#[test]
fn every_sets_transposing_pack_is_the_scalar_oracle() {
    for fam in registered_families() {
        let isa = fam.isa.label();
        check_set_pack(
            &format!("{isa} f32"),
            &fam.k_f32,
            |i| (i % 8191) as f32 * 0.25 - 300.0,
            |x| u64::from(x.to_bits()),
        );
        check_set_pack(
            &format!("{isa} f64"),
            &fam.k_f64,
            |i| (i % 8191) as f64 * 0.25 - 300.0,
            f64::to_bits,
        );
    }
}

#[test]
fn transposing_pack_is_a_copy_and_never_canonicalises() {
    // NaNs with distinct payloads (quiet and signalling), both infinities,
    // negative zero and denormals all arrive with their exact bits.
    fn hostile32(i: usize) -> f32 {
        let i = i as u32;
        f32::from_bits(match i % 7 {
            0 => 0x7FC0_0000 | (i & 0x003F_FFFF),
            1 => 0x7F80_0001 + (i & 0x000F_FFFF),
            2 => 0xFFC0_0000 | (i & 0x003F_FFFF),
            3 => [0x7F80_0000, 0xFF80_0000][(i / 7 % 2) as usize],
            4 => 0x8000_0000,
            5 => 1 + (i & 0x007F_FFFE),
            _ => 0x8000_0001 + (i & 0x007F_FFF0),
        })
    }
    fn hostile64(i: usize) -> f64 {
        let i = i as u64 & 0x0000_FFFF_FFFF_FFFF;
        f64::from_bits(match i % 7 {
            0 => 0x7FF8_0000_0000_0000 | i,
            1 => 0x7FF0_0000_0000_0001 + i,
            2 => 0xFFF8_0000_0000_0000 | i,
            3 => [0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000][(i / 7 % 2) as usize],
            4 => 0x8000_0000_0000_0000,
            5 => 1 + i,
            _ => 0x8000_0000_0000_0001 + i,
        })
    }
    for fam in registered_families() {
        let isa = fam.isa.label();
        check_set_pack(&format!("{isa} f32 hostile"), &fam.k_f32, hostile32, |x| {
            u64::from(x.to_bits())
        });
        check_set_pack(
            &format!("{isa} f64 hostile"),
            &fam.k_f64,
            hostile64,
            f64::to_bits,
        );
    }
}

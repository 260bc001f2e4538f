//! `im2col`: lowering a convolution to the irregular-shaped GEMM the paper
//! motivates (§1: "GEMMs used by the convolution kernels of the ResNet deep
//! neural network computes on matrices with one dimension equal to 64 while
//! the other is greater than 3000").
//!
//! For a convolution with `c_in` input channels, an `kh x kw` kernel,
//! `c_out` filters and an `h x w` input (stride 1, zero padding `pad`),
//! the lowering produces `B = im2col(input)` of shape
//! `(c_in*kh*kw) x (h_out*w_out)`, so that `C = W · B` with the filter
//! matrix `W` of shape `c_out x (c_in*kh*kw)`. `M = c_out` is small while
//! `N = h_out*w_out` is huge — exactly the paper's tall-and-skinny case.

use crate::{Matrix, Scalar};
use core::ops::Range;

/// Shape of a stride-1 2-D convolution to be lowered to GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub c_in: usize,
    /// Output channels (number of filters) — the GEMM `M`.
    pub c_out: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl ConvShape {
    /// Output spatial height.
    pub fn h_out(&self) -> usize {
        self.h + 2 * self.pad + 1 - self.kh
    }

    /// Output spatial width.
    pub fn w_out(&self) -> usize {
        self.w + 2 * self.pad + 1 - self.kw
    }

    /// GEMM dimensions `(M, N, K)` of the lowered convolution.
    pub fn gemm_dims(&self) -> (usize, usize, usize) {
        (
            self.c_out,
            self.h_out() * self.w_out(),
            self.c_in * self.kh * self.kw,
        )
    }
}

/// Lowers `input` (shape `c_in x (h*w)`, each row one channel in row-major
/// spatial order) to the im2col matrix `B` of shape `K x N` where
/// `K = c_in*kh*kw` and `N = h_out*w_out`: [`im2col_into`] over every
/// column.
///
/// # Panics
/// If `input` does not have shape `c_in x (h*w)`, or the kernel exceeds the
/// padded input.
pub fn im2col<T: Scalar>(shape: &ConvShape, input: &Matrix<T>) -> Matrix<T> {
    let (_, n, k) = shape.gemm_dims();
    let mut b = Vec::new();
    im2col_into(shape, input, 0..n, &mut b);
    Matrix::from_vec(k, n, b)
}

/// Lowers columns `cols` of the im2col matrix of `input` into `dst`,
/// replacing its contents: afterwards `dst` holds the `K x cols.len()`
/// row-major block whose column `j - cols.start` is output pixel `j`.
/// A caller lowering a convolution block by block reuses one `dst`, so
/// its capacity is allocated once.
///
/// Each `(channel, dy, dx)` row of the block is written one output-row
/// segment at a time: a zero run for the pixels left of the image, one
/// copy of the in-image span of the input row, a zero run for the pixels
/// right of it. No element is written twice.
///
/// # Panics
/// If `input` does not have shape `c_in x (h*w)`, the kernel exceeds the
/// padded input, or `cols` is not inside `0..h_out*w_out`.
pub fn im2col_into<T: Scalar>(
    shape: &ConvShape,
    input: &Matrix<T>,
    cols: Range<usize>,
    dst: &mut Vec<T>,
) {
    check_input(shape, input);
    let (_, n, k) = shape.gemm_dims();
    assert!(
        cols.start <= cols.end && cols.end <= n,
        "columns {cols:?} outside the {n} output pixels"
    );
    let (h, w, pad, w_out) = (shape.h, shape.w, shape.pad, shape.w_out());
    let (src, ld) = (input.as_slice(), input.ld());
    let zeros = |dst: &mut Vec<T>, len: usize| dst.resize(dst.len() + len, T::ZERO);
    dst.clear();
    dst.reserve(k * cols.len());
    for c in 0..shape.c_in {
        let channel = &src[c * ld..c * ld + h * w];
        for dy in 0..shape.kh {
            for dx in 0..shape.kw {
                // Output columns `lo..hi` read input column
                // `ox + dx - pad` inside `0..w`.
                let lo = pad.saturating_sub(dx).min(w_out);
                let hi = (w + pad).saturating_sub(dx).min(w_out);
                let mut j = cols.start;
                while j < cols.end {
                    let (oy, ox0) = (j / w_out, j % w_out);
                    let ox1 = w_out.min(ox0 + (cols.end - j));
                    let (a, b) = (ox0.max(lo), ox1.min(hi));
                    match (oy + dy).checked_sub(pad).filter(|&iy| iy < h) {
                        Some(iy) if a < b => {
                            let row = &channel[iy * w..(iy + 1) * w];
                            zeros(dst, a - ox0);
                            dst.extend_from_slice(&row[a + dx - pad..b + dx - pad]);
                            zeros(dst, ox1 - b);
                        }
                        _ => zeros(dst, ox1 - ox0),
                    }
                    j += ox1 - ox0;
                }
            }
        }
    }
}

fn check_input<T: Scalar>(shape: &ConvShape, input: &Matrix<T>) {
    assert_eq!(input.rows(), shape.c_in, "input must have c_in rows");
    assert_eq!(
        input.cols(),
        shape.h * shape.w,
        "input rows must be h*w long"
    );
    assert!(
        shape.kh <= shape.h + 2 * shape.pad && shape.kw <= shape.w + 2 * shape.pad,
        "kernel larger than padded input"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-element lowering: one bounds test and one store per
    /// element of `B`. The oracle [`im2col_into`] is checked against.
    fn im2col_per_element<T: Scalar>(shape: &ConvShape, input: &Matrix<T>) -> Matrix<T> {
        check_input(shape, input);
        let (_, n, k) = shape.gemm_dims();
        let (h_out, w_out) = (shape.h_out(), shape.w_out());
        let mut b = Matrix::zeros(k, n);
        for c in 0..shape.c_in {
            for dy in 0..shape.kh {
                for dx in 0..shape.kw {
                    let krow = (c * shape.kh + dy) * shape.kw + dx;
                    for oy in 0..h_out {
                        for ox in 0..w_out {
                            let iy = (oy + dy) as isize - shape.pad as isize;
                            let ix = (ox + dx) as isize - shape.pad as isize;
                            let v = if iy >= 0
                                && ix >= 0
                                && (iy as usize) < shape.h
                                && (ix as usize) < shape.w
                            {
                                input.at(c, iy as usize * shape.w + ix as usize)
                            } else {
                                T::ZERO
                            };
                            b.set(krow, oy * w_out + ox, v);
                        }
                    }
                }
            }
        }
        b
    }

    /// Every column range `j0..j1` with ends drawn from the row starts,
    /// mid-row points and both ends of `0..n`, the empty ones included.
    fn ranges(shape: &ConvShape) -> Vec<Range<usize>> {
        let (n, w_out) = (shape.h_out() * shape.w_out(), shape.w_out());
        let mut ends = vec![0, 1, w_out, w_out + 1, 2 * w_out + 1, n / 2, n - 1, n];
        ends.retain(|&e| e <= n);
        ends.sort_unstable();
        ends.dedup();
        let mut out = Vec::new();
        for &j0 in &ends {
            for &j1 in ends.iter().filter(|&&j1| j1 >= j0) {
                out.push(j0..j1);
            }
        }
        out
    }

    /// Small shapes over pad 0..=2 and kernels 1x1, 3x3, 5x5: a single
    /// output column (`w_out = 1`), a kernel wider than the image that
    /// the padding still fits, and a ragged `ld`.
    fn grid() -> Vec<ConvShape> {
        let mut shapes = Vec::new();
        for pad in 0..=2 {
            for kk in [1, 3, 5] {
                for (h, w) in [(5, 6), (3, 1), (2, 4)] {
                    if kk <= h + 2 * pad && kk <= w + 2 * pad {
                        shapes.push(ConvShape {
                            c_in: 2,
                            c_out: 1,
                            h,
                            w,
                            kh: kk,
                            kw: kk,
                            pad,
                        });
                    }
                }
            }
        }
        shapes
    }

    fn lowering_matches_per_element_oracle<T: Scalar>() {
        let mut dst = Vec::new();
        for (i, shape) in grid().into_iter().enumerate() {
            let hw = shape.h * shape.w;
            let input = Matrix::<T>::random_with_ld(shape.c_in, hw, hw + i % 3, i as u64);
            let want = im2col_per_element(&shape, &input);
            assert_eq!(im2col(&shape, &input), want, "{shape:?}");
            for r in ranges(&shape) {
                im2col_into(&shape, &input, r.clone(), &mut dst);
                let got = Matrix::from_vec(want.rows(), r.len(), dst.clone());
                let cols = Matrix::from_fn(want.rows(), r.len(), |k, j| want.at(k, r.start + j));
                assert_eq!(got, cols, "{shape:?} columns {r:?}");
            }
        }
    }

    #[test]
    fn column_blocks_match_the_per_element_oracle_f32() {
        lowering_matches_per_element_oracle::<f32>();
    }

    #[test]
    fn column_blocks_match_the_per_element_oracle_f64() {
        lowering_matches_per_element_oracle::<f64>();
    }

    #[test]
    fn the_grid_covers_the_edge_shapes() {
        let g = grid();
        assert!(g.iter().any(|s| s.w_out() == 1));
        assert!(g.iter().any(|s| s.kw > s.w && s.kw > s.pad + 1));
        for pad in 0..=2 {
            for kk in [1, 3, 5] {
                assert!(
                    g.iter().any(|s| s.pad == pad && s.kw == kk),
                    "pad {pad} k {kk}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel larger than padded input")]
    fn kernel_larger_than_padded_input_panics() {
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 4,
            w: 1,
            kh: 3,
            kw: 5,
            pad: 1,
        };
        im2col_into(&shape, &Matrix::<f32>::zeros(1, 4), 0..0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "outside the 4 output pixels")]
    fn columns_past_the_output_panic() {
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 2,
            w: 2,
            kh: 1,
            kw: 1,
            pad: 0,
        };
        im2col_into(&shape, &Matrix::<f32>::zeros(1, 4), 2..5, &mut Vec::new());
    }

    #[test]
    fn one_by_one_kernel_is_identity_layout() {
        let shape = ConvShape {
            c_in: 2,
            c_out: 3,
            h: 2,
            w: 2,
            kh: 1,
            kw: 1,
            pad: 0,
        };
        let input = Matrix::from_fn(2, 4, |c, p| (c * 10 + p) as f32);
        let b = im2col(&shape, &input);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 4);
        for c in 0..2 {
            for p in 0..4 {
                assert_eq!(b.at(c, p), input.at(c, p));
            }
        }
    }

    #[test]
    fn vgg_layer_dims_match_paper() {
        // VGG conv1.2: 64 filters, 64 input channels, 3x3 kernel, 224x224
        // input, pad 1 => M=64, N=50176, K=576 (paper §8.3, §8.6).
        let shape = ConvShape {
            c_in: 64,
            c_out: 64,
            h: 224,
            w: 224,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        assert_eq!(shape.gemm_dims(), (64, 50176, 576));
    }

    #[test]
    fn hand_checked_3x3_no_pad() {
        // 1 channel, 3x3 input, 2x2 kernel, no pad -> 2x2 output, K=4, N=4.
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            pad: 0,
        };
        let input = Matrix::from_vec(1, 9, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let b = im2col(&shape, &input);
        assert_eq!((b.rows(), b.cols()), (4, 4));
        // Column 0 is the top-left 2x2 patch [1,2,4,5] in (dy,dx) order.
        assert_eq!(b.at(0, 0), 1.0);
        assert_eq!(b.at(1, 0), 2.0);
        assert_eq!(b.at(2, 0), 4.0);
        assert_eq!(b.at(3, 0), 5.0);
        // Column 3 is the bottom-right patch [5,6,8,9].
        assert_eq!(b.at(0, 3), 5.0);
        assert_eq!(b.at(3, 3), 9.0);
    }

    #[test]
    fn padding_injects_zeros() {
        let shape = ConvShape {
            c_in: 1,
            c_out: 1,
            h: 2,
            w: 2,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let input = Matrix::from_vec(1, 4, vec![1.0f32, 2.0, 3.0, 4.0]);
        let b = im2col(&shape, &input);
        assert_eq!((b.rows(), b.cols()), (9, 4));
        // Output (0,0): kernel centered so (dy=0,dx=0) reads padded corner.
        assert_eq!(b.at(0, 0), 0.0);
        // (dy=1,dx=1) at output 0 reads input (0,0).
        assert_eq!(b.at(4, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "c_in rows")]
    fn wrong_channel_count_panics() {
        let shape = ConvShape {
            c_in: 2,
            c_out: 1,
            h: 2,
            w: 2,
            kh: 1,
            kw: 1,
            pad: 0,
        };
        let input = Matrix::<f32>::zeros(1, 4);
        let _ = im2col(&shape, &input);
    }
}

//! Convolution layers on LibShalom's irregular-GEMM path.
//!
//! The paper's deep-learning motivation (§1, §2.1): a convolution layer
//! lowered with im2col becomes the tall-and-skinny GEMM LibShalom
//! targets — `M = c_out` (small, 64–512), `N = h_out * w_out` (huge, up
//! to 50,176 for VGG conv1.2) and `K = c_in * kh * kw`. This crate packages
//! that lowering as a reusable layer:
//!
//! * [`Conv2d`] — a stride-1 2-D convolution with symmetric zero padding,
//!   weights stored as the `c_out x (c_in*kh*kw)` filter matrix;
//! * [`Conv2d::forward`] — single image: the output pixels in column
//!   blocks, each lowered into one reused `K x nb` buffer sized to half
//!   of L2 and multiplied while it is still there (§3.3, §4: the reused
//!   operand stays in cache). The whole im2col matrix is never built;
//! * [`Conv2d::forward_batch`] — a mini-batch: one whole-matrix lowering
//!   per image and the GEMMs dispatched through `shalom_core::gemm_batch`
//!   (each GEMM is itself internally parallelizable; the batch path
//!   follows the §7.4 discipline of parallelism across independent
//!   problems);
//! * [`Conv2d::forward_batch_via`] — the same mini-batch routed through
//!   a running [`shalom_service::Service`], for serving paths where
//!   layers from concurrent model instances should coalesce;
//! * [`conv2d_direct`] — the nested-loop oracle used by the tests.
//!
//! All three `forward*` paths compute bitwise the same output: a block
//! boundary is a multiple of the kernel set's tile width, so every
//! output element is the same dot product in the same order. A layer
//! configured for `T > 1` threads runs each block of `forward` on the
//! pool, one fork-join per block.

#![deny(missing_docs)]

use shalom_core::{gemm_batch_beta, register_tile, BatchItem, GemmConfig, GemmElem, GemmPlan, Op};
use shalom_matrix::{im2col, im2col_into, ConvShape, MatMut, MatRef, Matrix, Scalar};
use shalom_service::{GemmRequest, Service, ServiceElem, ServiceError};

/// A stride-1 2-D convolution layer with im2col + GEMM execution.
///
/// [`Conv2d::forward`] splits the `N = h_out*w_out` output pixels into
/// blocks of `nb` columns: the widest multiple of the tile width `nr`
/// whose lowered `K x nb` block fits in half of `cfg.cache.l2`, at least
/// `nr` and at most `N`. A layer whose whole lowered matrix fits is one
/// block. When `nb` does not divide `N`, the `N % nb` leftover columns
/// are a tail block, or join the last full block when the two still fit
/// that budget. The block GEMMs have fixed signatures, so
/// [`Conv2d::new`] resolves one [`GemmPlan`] for the `nb`-column block
/// and one for the tail; `forward` only runs them (no plan resolution
/// per image). The handles are a snapshot: a profile override installed
/// or cleared after the layer is built does not change what `forward`
/// executes — any plan computes the same convolution; rebuild the layer
/// to pick up a new override.
pub struct Conv2d<T: GemmElem> {
    shape: ConvShape,
    /// Filter matrix, `c_out x (c_in*kh*kw)` row-major.
    weights: Matrix<T>,
    cfg: GemmConfig,
    /// Output columns per `forward` block.
    nb: usize,
    /// Output columns of the last block when it is not `nb` wide, else 0.
    tail_cols: usize,
    /// The GEMM of one `nb`-column block, planned once.
    block: GemmPlan<T>,
    /// The GEMM of the `tail_cols`-column last block; `block` when there
    /// is none.
    tail: GemmPlan<T>,
}

impl<T: GemmElem> Conv2d<T> {
    /// Builds a layer from its shape and a filter matrix of shape
    /// `c_out x (c_in*kh*kw)`.
    ///
    /// # Panics
    /// If the filter matrix shape does not match `shape`.
    pub fn new(shape: ConvShape, weights: Matrix<T>, cfg: GemmConfig) -> Self {
        let (m, n, k) = shape.gemm_dims();
        assert_eq!(weights.rows(), m, "filter rows must equal c_out");
        assert_eq!(weights.cols(), k, "filter cols must equal c_in*kh*kw");
        let (nb, tail_cols) = block_cols::<T>(&cfg, n, k);
        let block = GemmPlan::new(&cfg, Op::NoTrans, Op::NoTrans, m, nb, k);
        let tail = match tail_cols {
            0 => block,
            cols => GemmPlan::new(&cfg, Op::NoTrans, Op::NoTrans, m, cols, k),
        };
        Self {
            shape,
            weights,
            cfg,
            nb,
            tail_cols,
            block,
            tail,
        }
    }

    /// Random-weight layer (for tests and benches), seeded.
    pub fn random(shape: ConvShape, cfg: GemmConfig, seed: u64) -> Self {
        let (m, _, k) = shape.gemm_dims();
        Self::new(shape, Matrix::random(m, k, seed), cfg)
    }

    /// The layer's GEMM dimensions `(M, N, K)`.
    pub fn gemm_dims(&self) -> (usize, usize, usize) {
        self.shape.gemm_dims()
    }

    /// Runs the layer on one input image of shape `c_in x (h*w)` (each
    /// row one channel, row-major spatial order). Returns the output as
    /// `c_out x (h_out*w_out)`.
    ///
    /// Each block of output columns is lowered into one reused buffer
    /// and multiplied into its columns of the output; bitwise equal to
    /// [`Conv2d::forward_batch`] on the same image.
    ///
    /// # Panics
    /// If the input shape is wrong.
    pub fn forward(&self, input: &Matrix<T>) -> Matrix<T> {
        let (m, n, k) = self.shape.gemm_dims();
        let mut out = Matrix::zeros(m, n);
        let mut out_view = out.as_mut();
        let mut lowered = Vec::with_capacity(k * self.nb.max(self.tail_cols));
        let full = n - self.tail_cols;
        let blocks = (0..full)
            .step_by(self.nb)
            .map(|j0| (j0, self.nb, &self.block));
        let tail = (self.tail_cols > 0).then_some((full, self.tail_cols, &self.tail));
        for (j0, cols, plan) in blocks.chain(tail) {
            im2col_into(&self.shape, input, j0..j0 + cols, &mut lowered);
            plan.run(
                T::ONE,
                self.weights.as_ref(),
                MatRef::from_slice(&lowered, k, cols, cols),
                T::ZERO,
                out_view.submatrix_mut(0, j0, m, cols),
            );
        }
        out
    }

    /// Runs the layer on a mini-batch of images, dispatching the per-
    /// image GEMMs as a batch (independent problems across cores, §7.4).
    ///
    /// # Panics
    /// If any input shape is wrong.
    pub fn forward_batch(&self, inputs: &[Matrix<T>]) -> Vec<Matrix<T>> {
        let (m, n, _) = self.shape.gemm_dims();
        let lowered: Vec<Matrix<T>> = inputs.iter().map(|x| im2col(&self.shape, x)).collect();
        let mut outs: Vec<Matrix<T>> = (0..inputs.len()).map(|_| Matrix::zeros(m, n)).collect();
        let mut items: Vec<BatchItem<'_, T>> = lowered
            .iter()
            .zip(&mut outs)
            .map(|(b, c)| BatchItem {
                a: self.weights.as_ref(),
                b: b.as_ref(),
                c: c.as_mut(),
            })
            .collect();
        gemm_batch_beta(
            &self.cfg,
            Op::NoTrans,
            Op::NoTrans,
            T::ONE,
            T::ZERO,
            &mut items,
        );
        drop(items);
        outs
    }

    /// Runs the layer on a mini-batch through a running GEMM
    /// [`Service`] instead of a direct `gemm_batch` call.
    ///
    /// Every per-image GEMM shares this layer's plan key, so the
    /// service coalesces them — together with any requests *other*
    /// threads are submitting concurrently — into shared batch flushes.
    /// Blocks until all images complete; the result is bitwise
    /// identical to [`Conv2d::forward_batch`].
    pub fn forward_batch_via(
        &self,
        service: &Service,
        inputs: &[Matrix<T>],
    ) -> Result<Vec<Matrix<T>>, ServiceError>
    where
        T: ServiceElem,
    {
        let (m, n, _) = self.shape.gemm_dims();
        let lowered: Vec<Matrix<T>> = inputs.iter().map(|x| im2col(&self.shape, x)).collect();
        let mut outs: Vec<Matrix<T>> = (0..inputs.len()).map(|_| Matrix::zeros(m, n)).collect();
        service.scope(|scope| -> Result<(), ServiceError> {
            for (b, c) in lowered.iter().zip(outs.iter_mut()) {
                scope.submit_blocking(
                    GemmRequest::new(
                        self.cfg,
                        Op::NoTrans,
                        Op::NoTrans,
                        T::ONE,
                        self.weights.as_ref(),
                        b.as_ref(),
                        T::ZERO,
                        c.as_mut(),
                    ),
                    None,
                )?;
            }
            Ok(())
        })?;
        Ok(outs)
    }
}

/// The column blocking of [`Conv2d::forward`] for an `n`-pixel, depth-`k`
/// layer under `cfg`, as `(nb, tail)`. `nb` is the widest multiple of the
/// tile width `nr` with `k * nb * size_of::<T>() <= cfg.cache.l2 / 2`, at
/// least `nr` and at most `n` (and at least 1, so an empty output still
/// has a block width). `tail` is the width of the last block when that is
/// not `nb`, else 0: the `n % nb` leftover columns, joined to the last
/// full block when the two still fit the budget. Every block streams the
/// whole filter matrix, so one block fewer is one pass over the filters
/// fewer — a 4608-deep layer's filters do not fit in L2.
fn block_cols<T: GemmElem>(cfg: &GemmConfig, n: usize, k: usize) -> (usize, usize) {
    let (_, nr) = register_tile::<T>(cfg);
    let fit = cfg.cache.l2 / 2 / (k.max(1) * core::mem::size_of::<T>());
    let nb = (fit / nr * nr).max(nr).min(n).max(1);
    match n % nb {
        rest if rest > 0 && nb + rest <= fit => (nb, nb + rest),
        rest => (nb, rest),
    }
}

/// Direct (nested-loop) convolution oracle; output `c_out x (h_out*w_out)`.
///
/// # Panics
/// If the input shape is wrong.
pub fn conv2d_direct<T: Scalar>(
    shape: &ConvShape,
    input: &Matrix<T>,
    weights: &Matrix<T>,
) -> Matrix<T> {
    assert_eq!(input.rows(), shape.c_in);
    assert_eq!(input.cols(), shape.h * shape.w);
    let (h_out, w_out) = (shape.h_out(), shape.w_out());
    let mut out = Matrix::zeros(shape.c_out, h_out * w_out);
    let mut out_view: MatMut<'_, T> = out.as_mut();
    for co in 0..shape.c_out {
        for oy in 0..h_out {
            for ox in 0..w_out {
                let mut acc = T::ZERO;
                for ci in 0..shape.c_in {
                    for dy in 0..shape.kh {
                        for dx in 0..shape.kw {
                            let iy = (oy + dy) as isize - shape.pad as isize;
                            let ix = (ox + dx) as isize - shape.pad as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < shape.h
                                && (ix as usize) < shape.w
                            {
                                let w = weights.at(co, (ci * shape.kh + dy) * shape.kw + dx);
                                let x = input.at(ci, iy as usize * shape.w + ix as usize);
                                acc = acc + w * x;
                            }
                        }
                    }
                }
                out_view.set(co, oy * w_out + ox, acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_core::IsaPolicy;
    use shalom_matrix::{assert_close, gemm_tolerance, max_abs_diff};

    fn small_shape() -> ConvShape {
        ConvShape {
            c_in: 3,
            c_out: 5,
            h: 10,
            w: 8,
            kh: 3,
            kw: 3,
            pad: 1,
        }
    }

    #[test]
    fn forward_matches_direct() {
        let shape = small_shape();
        let cfg = GemmConfig::with_threads(1);
        let layer = Conv2d::<f32>::random(shape, cfg, 1);
        let input = Matrix::random(shape.c_in, shape.h * shape.w, 2);
        let got = layer.forward(&input);
        let want = conv2d_direct(&shape, &input, &layer.weights);
        let (_, _, k) = shape.gemm_dims();
        assert_close(got.as_ref(), want.as_ref(), gemm_tolerance::<f32>(k, 4.0));
    }

    #[test]
    fn forward_f64() {
        let shape = ConvShape {
            c_in: 2,
            c_out: 4,
            h: 6,
            w: 6,
            kh: 2,
            kw: 2,
            pad: 0,
        };
        let layer = Conv2d::<f64>::random(shape, GemmConfig::with_threads(1), 3);
        let input = Matrix::random(shape.c_in, 36, 4);
        let got = layer.forward(&input);
        let want = conv2d_direct(&shape, &input, &layer.weights);
        let (_, _, k) = shape.gemm_dims();
        assert_close(got.as_ref(), want.as_ref(), gemm_tolerance::<f64>(k, 4.0));
    }

    #[test]
    fn batch_matches_single() {
        let shape = small_shape();
        let layer = Conv2d::<f32>::random(shape, GemmConfig::with_threads(3), 5);
        let inputs: Vec<Matrix<f32>> = (0..7)
            .map(|i| Matrix::random(shape.c_in, shape.h * shape.w, 100 + i))
            .collect();
        let batched = layer.forward_batch(&inputs);
        assert_eq!(batched.len(), 7);
        for (input, out) in inputs.iter().zip(&batched) {
            let single = layer.forward(input);
            assert_eq!(
                max_abs_diff(out.as_ref(), single.as_ref()),
                0.0,
                "batch and single paths must agree bitwise"
            );
        }
    }

    /// `threads` workers on `isa`'s kernel set and an L2 whose half holds
    /// `extra` more columns than one tile width of the lowered `k`-deep
    /// matrix, so `forward` runs blocks of `nr` columns.
    fn blocked_cfg<T: GemmElem>(
        threads: usize,
        isa: IsaPolicy,
        k: usize,
        extra: usize,
    ) -> GemmConfig {
        let mut cfg = GemmConfig {
            isa,
            ..GemmConfig::with_threads(threads)
        };
        let (_, nr) = register_tile::<T>(&cfg);
        cfg.cache.l2 = 2 * k * core::mem::size_of::<T>() * (nr + extra);
        cfg
    }

    fn blocked_forward_matches_batch_and_direct<T: GemmElem>() {
        // N = 13 * 14 = 182: three or more blocks of any tile width up
        // to 48, and leftover columns: a tail block when the budget is
        // one tile width, joined to the last block when it has room.
        let shape = ConvShape {
            c_in: 3,
            c_out: 7,
            h: 13,
            w: 14,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let (_, n, k) = shape.gemm_dims();
        let input = Matrix::<T>::random(shape.c_in, shape.h * shape.w, 8);
        let sets = [IsaPolicy::Auto, IsaPolicy::Force(shalom_core::base_isa())];
        let runs = [1, 2]
            .into_iter()
            .flat_map(|t| sets.map(|i| (t, i)))
            .flat_map(|(t, i)| [false, true].map(|join| (t, i, join)));
        for (threads, isa, join) in runs {
            let nr = register_tile::<T>(&GemmConfig {
                isa,
                ..GemmConfig::default()
            })
            .1;
            assert!(n / nr >= 3 && n % nr != 0, "nr {nr}");
            let extra = if join { n % nr } else { 0 };
            let layer = Conv2d::<T>::random(shape, blocked_cfg::<T>(threads, isa, k, extra), 9);
            let tail = if join { nr + n % nr } else { n % nr };
            assert_eq!((layer.nb, layer.tail_cols), (nr, tail));
            let got = layer.forward(&input);
            let whole = layer.forward_batch(core::slice::from_ref(&input));
            assert!(
                got.as_slice() == whole[0].as_slice(),
                "blocked forward differs from the whole-matrix GEMM at T = {threads}, {isa:?}, \
                 tail joined {join}"
            );
            let want = conv2d_direct(&shape, &input, &layer.weights);
            assert_close(got.as_ref(), want.as_ref(), gemm_tolerance::<T>(k, 4.0));
        }
    }

    #[test]
    fn blocked_forward_matches_batch_and_direct_f32() {
        blocked_forward_matches_batch_and_direct::<f32>();
    }

    #[test]
    fn blocked_forward_matches_batch_and_direct_f64() {
        blocked_forward_matches_batch_and_direct::<f64>();
    }

    #[test]
    fn blocks_are_the_widest_tile_multiple_in_half_of_l2() {
        let cfg = GemmConfig::with_threads(1);
        let (_, nr) = register_tile::<f32>(&cfg);
        let at = |l2: usize, n: usize, k: usize| {
            let cfg = GemmConfig {
                cache: shalom_core::CacheParams { l2, ..cfg.cache },
                ..cfg
            };
            block_cols::<f32>(&cfg, n, k)
        };
        // Half of L2 holds 3.5 tile widths of a 100-deep block: 3 fit,
        // and a leftover tile width does not join the last block.
        let l2 = 2 * 100 * 4 * nr * 7 / 2;
        assert_eq!(at(l2, 1000 * nr, 100), (3 * nr, nr));
        // Two leftover columns still fit beside a full block: one block
        // of 3 tile widths and 2 columns instead of a 2-column tail.
        assert_eq!(at(l2, 15 * nr + 2, 100), (3 * nr, 3 * nr + 2));
        // A lowered matrix that fits is one block, whatever its width.
        assert_eq!(at(1 << 30, 7 * nr + 3, 100), (7 * nr + 3, 0));
        // Too deep for one tile width in half of L2: still one tile.
        assert_eq!(at(1024, 10 * nr, 100_000), (nr, 0));
        assert_eq!(at(1024, 10 * nr + 1, 100_000), (nr, 1));
        // Narrower than one tile: the whole output.
        assert_eq!(at(1024, nr - 1, 100_000), (nr - 1, 0));
        assert_eq!(at(1024, 0, 0), (1, 0));
    }

    #[test]
    fn batch_via_service_matches_forward_batch_bitwise() {
        let shape = small_shape();
        let layer = Conv2d::<f32>::random(shape, GemmConfig::with_threads(1), 11);
        let inputs: Vec<Matrix<f32>> = (0..5)
            .map(|i| Matrix::random(shape.c_in, shape.h * shape.w, 500 + i))
            .collect();
        let direct = layer.forward_batch(&inputs);
        let svc = Service::start(shalom_service::ServiceConfig::default());
        let via = layer
            .forward_batch_via(&svc, &inputs)
            .expect("service path");
        svc.shutdown();
        assert_eq!(via.len(), direct.len());
        for (got, want) in via.iter().zip(&direct) {
            assert_eq!(
                max_abs_diff(got.as_ref(), want.as_ref()),
                0.0,
                "service and direct batch paths must agree bitwise"
            );
        }
    }

    #[test]
    fn one_by_one_kernel_is_pointwise_matmul() {
        // 1x1 conv == plain GEMM over channels.
        let shape = ConvShape {
            c_in: 4,
            c_out: 3,
            h: 5,
            w: 5,
            kh: 1,
            kw: 1,
            pad: 0,
        };
        let layer = Conv2d::<f32>::random(shape, GemmConfig::with_threads(1), 6);
        let input = Matrix::random(4, 25, 7);
        let got = layer.forward(&input);
        let mut want = Matrix::<f32>::zeros(3, 25);
        shalom_matrix::reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            layer.weights.as_ref(),
            input.as_ref(),
            0.0,
            want.as_mut(),
        );
        assert_close(got.as_ref(), want.as_ref(), gemm_tolerance::<f32>(4, 2.0));
    }

    #[test]
    fn gemm_dims_are_irregular_for_vgg_like_shape() {
        let shape = ConvShape {
            c_in: 64,
            c_out: 64,
            h: 112,
            w: 112,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let (m, n, k) = shape.gemm_dims();
        assert_eq!((m, k), (64, 576));
        assert_eq!(n, 12544);
        assert!(n > 8 * m, "this is the paper's tall-and-skinny regime");
    }

    #[test]
    #[should_panic(expected = "filter rows")]
    fn wrong_weights_rejected() {
        let shape = small_shape();
        let w = Matrix::<f32>::zeros(4, 27); // c_out is 5
        let _ = Conv2d::new(shape, w, GemmConfig::with_threads(1));
    }
}

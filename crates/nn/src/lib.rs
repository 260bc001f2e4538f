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
//! * [`Conv2d::forward`] — single image: one [`GemmPlan::run_filled`]
//!   call whose fill lowers the requested output columns, so the handle
//!   blocks the lowering to half of L2 (§3.3, §4: the reused operand stays
//!   in cache) and the whole im2col matrix is never built;
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
//! configured for `T > 1` threads runs `forward` as one fork-join, each
//! worker lowering the columns it multiplies.

#![deny(missing_docs)]

use shalom_core::{gemm_batch_beta, BatchItem, GemmConfig, GemmElem, GemmPlan, Op};
use shalom_matrix::{im2col, im2col_into, ConvShape, Matrix, Scalar};
use shalom_service::{GemmRequest, Service, ServiceElem, ServiceError};

/// A stride-1 2-D convolution layer with im2col + GEMM execution.
///
/// [`Conv2d::new`] resolves one [`GemmPlan`] for the layer's `(M, N, K)`
/// and `forward` only runs it (no plan resolution per image). The handle
/// is a snapshot: a profile override installed or cleared after the
/// layer is built does not change what `forward` executes — any plan
/// computes the same convolution; rebuild the layer to pick up a new
/// override.
pub struct Conv2d<T: GemmElem> {
    shape: ConvShape,
    /// Filter matrix, `c_out x (c_in*kh*kw)` row-major.
    weights: Matrix<T>,
    cfg: GemmConfig,
    /// The layer's GEMM, planned once.
    plan: GemmPlan<T>,
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
        let plan = GemmPlan::new(&cfg, Op::NoTrans, Op::NoTrans, m, n, k);
        Self {
            shape,
            weights,
            cfg,
            plan,
        }
    }

    /// Random-weight layer (for tests and benches), seeded.
    pub fn random(shape: ConvShape, cfg: GemmConfig, seed: u64) -> Self {
        let (m, _, k) = shape.gemm_dims();
        Self::new(shape, Matrix::random(m, k, seed), cfg)
    }

    /// Runs the layer on one input image of shape `c_in x (h*w)` (each
    /// row one channel, row-major spatial order). Returns the output as
    /// `c_out x (h_out*w_out)`.
    ///
    /// The plan's fill lowers each block of output columns it asks for
    /// ([`im2col_into`]); bitwise equal to [`Conv2d::forward_batch`] on
    /// the same image, at any thread count.
    ///
    /// # Panics
    /// If the input shape is wrong.
    pub fn forward(&self, input: &Matrix<T>) -> Matrix<T> {
        let (m, n, _) = self.shape.gemm_dims();
        // An empty lowering checks the input here, on the caller, and
        // not first in a pool worker.
        im2col_into(&self.shape, input, 0..0, &mut Vec::new());
        let mut out = Matrix::zeros(m, n);
        self.plan.run_filled(
            T::ONE,
            self.weights.as_ref(),
            &|cols, dst| im2col_into(&self.shape, input, cols, dst),
            T::ZERO,
            out.as_mut(),
        );
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
    let w_out = shape.w_out();
    Matrix::from_fn(shape.c_out, shape.h_out() * w_out, |co, j| {
        let (oy, ox) = (j / w_out, j % w_out);
        let mut acc = T::ZERO;
        for ci in 0..shape.c_in {
            for dy in 0..shape.kh {
                for dx in 0..shape.kw {
                    // Left of or above the image wraps past `h`/`w`.
                    let iy = (oy + dy).wrapping_sub(shape.pad);
                    let ix = (ox + dx).wrapping_sub(shape.pad);
                    if iy < shape.h && ix < shape.w {
                        let w = weights.at(co, (ci * shape.kh + dy) * shape.kw + dx);
                        acc = acc + w * input.at(ci, iy * shape.w + ix);
                    }
                }
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

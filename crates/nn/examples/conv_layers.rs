//! Times `Conv2d::forward` (f32) on the repo benchmark's five VGG-shaped
//! layers — 3x3 kernels, pad 1, on 80², 40², 20², 10² and 5² images — at
//! one and at two threads: the best of 10 calls each, the two thread
//! counts alternating call by call. Exits non-zero if a two-thread output
//! is not bitwise the one-thread output.
//!
//! `cargo run --release -p shalom-nn --example conv_layers`

use shalom_core::GemmConfig;
use shalom_matrix::{ConvShape, Matrix};
use shalom_nn::Conv2d;
use std::process::ExitCode;
use std::time::Instant;

/// `(c_in, c_out, image side)` of conv1 … conv5.
const LAYERS: [(usize, usize, usize); 5] = [
    (64, 64, 80),
    (128, 128, 40),
    (256, 256, 20),
    (512, 512, 10),
    (512, 512, 5),
];
const CALLS: usize = 10;

fn main() -> ExitCode {
    let mut bitwise = true;
    println!("layer  M x N x K            T=1 ms   T=2 ms   speed-up");
    for (i, &(c_in, c_out, side)) in LAYERS.iter().enumerate() {
        let shape = ConvShape {
            c_in,
            c_out,
            h: side,
            w: side,
            kh: 3,
            kw: 3,
            pad: 1,
        };
        let (m, n, k) = shape.gemm_dims();
        let weights = Matrix::<f32>::random(m, k, 1 + i as u64);
        let input = Matrix::<f32>::random(c_in, side * side, 11 + i as u64);
        let layers =
            [1, 2].map(|t| Conv2d::new(shape, weights.clone(), GemmConfig::with_threads(t)));
        let mut best = [f64::INFINITY; 2];
        let mut outs: [Option<Matrix<f32>>; 2] = [None, None];
        for _ in 0..CALLS {
            for (t, layer) in layers.iter().enumerate() {
                let t0 = Instant::now();
                let out = layer.forward(&input);
                best[t] = best[t].min(t0.elapsed().as_secs_f64() * 1e3);
                outs[t] = Some(out);
            }
        }
        let same = outs[0].as_ref().map(Matrix::as_slice) == outs[1].as_ref().map(Matrix::as_slice);
        bitwise &= same;
        println!(
            "conv{}  {:<20} {:>7.3}  {:>7.3}  {:>6.2}x{}",
            i + 1,
            format!("{m}x{n}x{k}"),
            best[0],
            best[1],
            best[0] / best[1],
            if same {
                ""
            } else {
                "  T=2 output differs from T=1"
            }
        );
    }
    if bitwise {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

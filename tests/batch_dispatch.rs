//! The task count a pooled batch publishes, read off its `Dispatch` span
//! (whose `aux` is the count the pool was handed). A batch hands the pool
//! contiguous chunks of items, `max(1, n / (8 T))` items each, not one
//! task per item; a batch of exactly `T` items still publishes, one item
//! per task, which is the fork and join the repo benchmark's
//! `pool.fork_join_us` probe times.
//!
//! Spans are process-global, so this file holds one test.

use libshalom::capture::{self, Phase, Sink};
use libshalom::core::{gemm_batch_beta, BatchItem, GemmConfig, Op};
use libshalom::Matrix;

/// The `aux` of every `Dispatch` span one `threads`-way batch of `n`
/// 5x5x5 f64 items records.
fn dispatches(threads: usize, n: usize) -> Vec<u64> {
    let a = Matrix::<f64>::random(5, 5, 1);
    let b = Matrix::<f64>::random(5, 5, 2);
    let mut cs: Vec<Matrix<f64>> = (0..n).map(|_| Matrix::zeros(5, 5)).collect();
    let mut items: Vec<_> = cs
        .iter_mut()
        .map(|c| BatchItem {
            a: a.as_ref(),
            b: b.as_ref(),
            c: c.as_mut(),
        })
        .collect();
    // No GEMM is in flight between cases: the reset is quiescent.
    capture::reset();
    gemm_batch_beta(
        &GemmConfig::with_threads(threads),
        Op::NoTrans,
        Op::NoTrans,
        1.0,
        0.0,
        &mut items,
    );
    // The publisher closes `Dispatch` before it runs a single item, so a
    // lane that overflows on item spans still holds it.
    capture::span_snapshot()
        .lanes
        .iter()
        .flat_map(|lane| &lane.spans)
        .filter(|s| s.phase() == Phase::Dispatch)
        .map(|s| s.aux)
        .collect()
}

#[test]
fn a_pooled_batch_dispatches_chunks_and_a_t_item_batch_still_publishes() {
    capture::enable(Sink::Spans);
    let cases = [
        // 4096 items: grains of 256 and 170, the last of 25 chunks short.
        (2, 4096, 16),
        (3, 4096, 25),
        // `T` items: one item per task, and the pool is still woken.
        (2, 2, 2),
        (3, 3, 3),
        // Just past the first grain step at two threads: 33 items in 2s.
        (2, 33, 17),
    ];
    for (threads, n, tasks) in cases {
        assert_eq!(
            dispatches(threads, n),
            [tasks],
            "{n} items at {threads} threads"
        );
    }
    capture::disable(Sink::Spans);
}

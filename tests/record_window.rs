//! The record sink's recent window, read through the facade after a
//! pooled two-thread batch: it holds the newest `RING_CAPACITY` records
//! in `seq` order, ending at the last call counted, and drops none —
//! each thread pushes into its own shard's buffer, and no snapshot runs
//! while the batch does — so the window is exactly the last
//! `RING_CAPACITY` tickets, merged across the two threads' shards.
//!
//! The sink is process-global, so this file holds one test.

use libshalom::capture::{self, PathTag, Sink, RING_CAPACITY};
use libshalom::core::{gemm_batch_beta, BatchItem, GemmConfig, Op};
use libshalom::Matrix;

#[test]
fn a_pooled_batch_leaves_the_newest_records_in_order_with_none_dropped() {
    let n = 4096;
    let a: Vec<_> = (0..n)
        .map(|i| Matrix::<f64>::random(5, 5, 2 * i as u64 + 1))
        .collect();
    let b: Vec<_> = (0..n)
        .map(|i| Matrix::<f64>::random(5, 5, 2 * i as u64 + 2))
        .collect();
    let mut c: Vec<_> = (0..n).map(|_| Matrix::<f64>::zeros(5, 5)).collect();
    let mut items: Vec<_> = a
        .iter()
        .zip(&b)
        .zip(&mut c)
        .map(|((a, b), c)| BatchItem {
            a: a.as_ref(),
            b: b.as_ref(),
            c: c.as_mut(),
        })
        .collect();

    capture::reset();
    capture::enable(Sink::Records);
    gemm_batch_beta(
        &GemmConfig::with_threads(2),
        Op::NoTrans,
        Op::NoTrans,
        1.0,
        0.0,
        &mut items,
    );
    capture::disable(Sink::Records);
    let snap = capture::record_snapshot();

    assert_eq!(snap.recent.len(), RING_CAPACITY);
    assert!(
        snap.recent.windows(2).all(|w| w[0].seq < w[1].seq),
        "recent records out of seq order"
    );
    assert_eq!(
        snap.recent.last().map(|r| r.seq),
        Some(snap.totals.calls - 1)
    );
    assert_eq!(snap.dropped_records, 0);
    // With nothing dropped, the newest records are the last
    // `RING_CAPACITY` tickets, every one of them.
    let newest = snap.totals.calls - RING_CAPACITY as u64..snap.totals.calls;
    assert!(
        snap.recent.iter().map(|r| r.seq).eq(newest),
        "recent is not the newest window"
    );
    for r in &snap.recent {
        assert_eq!((r.m, r.n, r.k, r.path), (5, 5, 5, PathTag::Batch), "{r:?}");
    }
}

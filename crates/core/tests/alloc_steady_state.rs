//! Steady-state heap-allocation regression test for the persistent pool
//! (§3.1: fixed per-call overheads dominate small GEMM — the runtime
//! must not allocate per call once warm).
//!
//! A counting global allocator tallies fresh allocations and *growth*
//! reallocations while a warm 4-thread pool runs 200 identical small
//! GEMMs. Shrink reallocations are excluded: the workspace decay policy
//! legitimately returns memory at window boundaries, and giving memory
//! back is not the per-call overhead this test guards against.
//!
//! This lives in its own integration-test binary so the allocator swap
//! cannot perturb, or be perturbed by, unrelated tests.

use shalom_core::{gemm_with, prewarm, CacheParams, GemmConfig, Op};
use shalom_matrix::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static GROWTH_EVENTS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the bookkeeping reads two
// atomics and never allocates, so the allocator cannot recurse.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            GROWTH_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only growth counts; shrink-to-fit from workspace decay is the
        // policy working as designed.
        if new_size > layout.size() && COUNTING.load(Ordering::Relaxed) {
            GROWTH_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_parallel_path_allocates_nothing() {
    let cfg = GemmConfig {
        cache: CacheParams {
            l1: 32 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 0,
        },
        threads: 4,
        ..GemmConfig::default()
    };

    // Spawn the workers and pre-size every participant's workspace well
    // above anything a 64x64x64 f32 call can demand.
    prewarm(4, 1 << 20);

    let a = Matrix::<f32>::random(64, 64, 1);
    let b = Matrix::<f32>::random(64, 64, 2);
    let mut c = Matrix::<f32>::zeros(64, 64);

    let call = |c: &mut Matrix<f32>| {
        gemm_with(
            &cfg,
            Op::NoTrans,
            Op::NoTrans,
            1.0f32,
            a.as_ref(),
            b.as_ref(),
            0.0f32,
            c.as_mut(),
        );
    };

    // Warmup: populate thread-locals (caller workspace, telemetry shard
    // striping if compiled in) and let the first decay window elapse so
    // the measured region sees the pool in its long-run regime.
    for _ in 0..80 {
        call(&mut c);
    }

    GROWTH_EVENTS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..200 {
        call(&mut c);
    }
    COUNTING.store(false, Ordering::SeqCst);

    let growths = GROWTH_EVENTS.load(Ordering::SeqCst);
    assert_eq!(
        growths, 0,
        "steady-state parallel path performed {growths} heap allocation(s) \
         across 200 warm calls; the persistent pool must be allocation-free"
    );
}

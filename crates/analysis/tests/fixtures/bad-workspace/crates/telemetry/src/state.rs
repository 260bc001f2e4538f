//! Fixture: protocol-shape violations for the per-object audit — an
//! unpaired Release publish and a Relaxed-only object under a
//! publish-class tag.

use std::sync::atomic::{AtomicU64, Ordering};

static PUBLISHED: AtomicU64 = AtomicU64::new(0);
static LAZY: AtomicU64 = AtomicU64::new(0);

pub fn publish(v: u64) {
    // ORDERING(SHALOM-O-TRACE-PUBLISH): Release publish of the value.
    PUBLISHED.store(v, Ordering::Release);
}

pub fn peek() -> u64 {
    // ORDERING(SHALOM-O-TRACE-PUBLISH): the reader never upgrades to Acquire.
    PUBLISHED.load(Ordering::Relaxed)
}

pub fn lazy_bump() -> u64 {
    // ORDERING(SHALOM-O-PERF-FD): claims a publish protocol with no
    // non-Relaxed event anywhere on the object.
    LAZY.fetch_add(1, Ordering::Relaxed)
}

//! Fixture simd crate root: scanned by the bounds, panics, allocs and
//! features passes like the real one; nothing here for them to flag.

//! The crate's atomics facade: `std::sync::atomic` by default, the
//! instrumented `shalom-modelcheck` shims under the `modelcheck`
//! cargo feature.
//!
//! Every atomic the runtime's protocols touch (`pool`'s task counter)
//! is imported through this module rather than from `std` directly. In the default configuration that is a pure
//! re-export — same types, same codegen, zero overhead (the
//! `sync_facade` integration test pins this by type identity). With `--features modelcheck` the same names
//! resolve to `shalom_modelcheck::shim`, whose types delegate to the
//! real std atomics but count every operation, letting a harness
//! assert the exact atomic traffic of a code path.
//!
//! The exhaustive interleaving models of these protocols live in
//! `shalom-modelcheck::models`; this facade is the hook that keeps
//! the shipped code and the checked code path-compatible.

#[cfg(not(feature = "modelcheck"))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(feature = "modelcheck")]
pub use shalom_modelcheck::shim::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// `true` when the facade resolves to plain `std::sync::atomic`;
/// `false` under the `modelcheck` feature. Lets harnesses assert
/// which configuration they measured.
#[cfg(not(feature = "modelcheck"))]
pub const FACADE_IS_STD: bool = true;
/// `true` when the facade resolves to plain `std::sync::atomic`;
/// `false` under the `modelcheck` feature. Lets harnesses assert
/// which configuration they measured.
#[cfg(feature = "modelcheck")]
pub const FACADE_IS_STD: bool = false;

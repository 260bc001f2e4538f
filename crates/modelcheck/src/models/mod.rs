//! Executable models of the runtime's four cross-thread protocols.
//!
//! Each model extracts one protocol from the shipped code into a
//! finite-state [`crate::explorer::System`], keeping the event order
//! and the synchronization discipline while abstracting the payload to
//! a few bytes. Every model has a correct variant (verified
//! exhaustively) and seeded mutations reintroducing the bug class its
//! ordering annotations guard against.
//!
//! The names in [`MODEL_NAMES`] are the contract with the static
//! audit: `shalom-analysis`' ordering registry points each
//! protocol-bearing `SHALOM-O-*` tag at the model that verifies it
//! (see `orderings::OrderingTag::model`).

pub mod plan_shard;
pub mod pool_epoch;
pub mod service_queue;
pub mod trace_lane;

/// The checked protocol models, sorted. Must stay in sync with the
/// `model:` fields of the `shalom-analysis` ordering-tag registry
/// (`orderings::referenced_models()` pins the same list from the
/// other side).
pub const MODEL_NAMES: &[&str] = &["plan-shard", "pool-epoch", "service-queue", "trace-lane"];

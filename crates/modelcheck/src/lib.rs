//! `shalom-modelcheck`: an exhaustive-interleaving model checker for
//! the runtime's lock-free protocols.
//!
//! The static audit in `shalom-analysis` proves *shape* properties of
//! the `SHALOM-O-*` ordering annotations (every Release paired, no
//! Relaxed-only object under a publish-class tag). This crate proves the
//! *behavioral* side: each annotated protocol is extracted into a
//! finite-state model and every interleaving at 2–3 threads is
//! explored, in the style of `loom` but hand-rolled and offline — the
//! build container has no registry access, and the models here are
//! small enough that plain DFS with state dedup covers them in
//! milliseconds.
//!
//! # Layout
//!
//! * [`explorer`] — the DFS scheduler: [`explorer::System`] trait,
//!   state dedup, deadlock detection, counterexample schedules.
//! * [`models`] — executable models of the four shipped protocols
//!   (pool epoch publish, trace-lane publish, plan-override table,
//!   service completion queue), each with seeded mutations
//!   reintroducing the bug class its annotations guard against.
//!
//! # Why mutations, not weak memory
//!
//! The explorer is sequentially consistent. Rather than simulate store
//! buffers, each *mutated* model adds the specific reordering its
//! weakened ordering would permit as an extra nondeterministic action
//! (a Relaxed publish may drift ahead of the payload write; an unlocked
//! store may race a waiter's check). The checker then
//! searches schedules for an observable difference. This keeps the
//! checker trivially sound for the correct variants while still
//! demonstrating, constructively, what each annotation buys: the
//! tests assert every seeded mutation yields a torn- or stale-read
//! counterexample.

#![deny(missing_docs)]

pub mod explorer;
pub mod models;

pub use explorer::{explore, Options, Report, Step, System, Violation};

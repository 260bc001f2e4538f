//! Kernel-contract audit subsystem: machine-checked memory footprints for
//! the LibShalom micro-kernel layer.
//!
//! Every `unsafe` micro-kernel entry point in `shalom-kernels` is covered
//! by a [`contract::KernelContract`]: a declaration of the *exact*
//! element intervals each operand may be read from or written to, as a
//! pure function of the call parameters `(mr, nr, kc, strides, …)`. The
//! subsystem has three legs:
//!
//! * [`registry`] — the contract declarations themselves, one per entry
//!   point (the full-tile body with its optional B pack and panel copy,
//!   both edge schedules, the NT scatter-pack kernels, and every plain
//!   packer), plus static audits that cross-check the contracts against
//!   the §5.2 register-tile solver and the §4 packing plan (a declared
//!   `Bc` extent must fit the driver's double-buffer halves).
//! * [`shadow`] + [`harness`] — the shadow-memory conformance harness:
//!   runs each kernel over guard-zoned, poison-filled buffers across the
//!   full edge lattice and fails on any access outside the declared
//!   footprint, any write to a read-only operand, any guard violation,
//!   and any declared-complete element left unwritten.
//! * [`lint`] — the unsafe-hygiene lint: every `unsafe` block in
//!   `crates/kernels` and `crates/core` must carry a `// SAFETY:` comment
//!   that (outside tests) resolves to a registered contract tag, every
//!   `unsafe fn` must document its preconditions, kernel entry points
//!   must restate them as `debug_assert!`s, raw-pointer arithmetic is
//!   confined to the kernel modules, and every kernel function doing
//!   raw-pointer arithmetic anchors a `// CONTRACT(TAG)` the symbolic
//!   bounds pass can prove against.
//!
//! The operand shapes themselves live in `bounds.spec` at this crate's
//! root — [`symspec`] evaluates them numerically for the harness while
//! the `bounds` pass in `shalom-analysis` proves the kernels' pointer
//! arithmetic against the same file symbolically.
//!
//! The `audit` binary (`cargo run -p shalom-contracts --bin audit`) runs
//! all three and prints the per-contract byte-interval table; CI runs it
//! with `--full` for the exhaustive lattice.

#![deny(missing_docs)]
#![allow(clippy::too_many_arguments)]

pub mod contract;
pub mod harness;
pub mod lint;
pub mod registry;
pub mod shadow;
pub mod symspec;

pub use contract::{Access, KernelContract, KernelParams, OperandFootprint, Span};
pub use harness::{run_conformance, HarnessConfig, Report};
pub use lint::{lint_repo, LintConfig, Violation};
pub use registry::{find, registry, KernelId};

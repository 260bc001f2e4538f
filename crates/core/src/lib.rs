//! `shalom-core`: the LibShalom GEMM library proper.
//!
//! Reproduces the system of *"LibShalom: Optimizing Small and
//! Irregular-Shaped Matrix Multiplications on ARMv8 Multi-Cores"*
//! (SC '21): a Goto-algorithm GEMM whose kernel, packing and
//! parallelization layers are specialized for small and tall-and-skinny
//! operands.
//!
//! # Quick start
//!
//! ```
//! use shalom_core::{sgemm, Op};
//! use shalom_matrix::Matrix;
//!
//! let a = Matrix::<f32>::random(8, 8, 1);
//! let b = Matrix::<f32>::random(8, 8, 2);
//! let mut c = Matrix::<f32>::zeros(8, 8);
//! sgemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
//! ```
//!
//! # Architecture (paper section map)
//!
//! | Module | Paper | Content |
//! |---|---|---|
//! | [`cache`] | §2.2, §5.5 | cache detection, `mc`/`kc`/`nc` derivation |
//! | [`config`] | §3.3, §4 | packing policy, edge schedule, shape classes |
//! | `driver` | §4, Alg. 1 | exchanged-loop serial driver, packing plans |
//! | `parallel` | §6 | analytic `Tm x Tn` partition, executed on the pool |
//! | [`pool`] | §3.1, §6 | persistent worker pool amortizing spawn + workspace cost |
//! | [`api`] | §3.3 | `sgemm`/`dgemm`, raw BLAS-style entry points |
//! | [`batch`] | §7.4 | batched independent small GEMMs across cores |
//! | [`capi`] | §3.3 | `extern "C"` CBLAS-style entry points |
//! | [`autotune`](mod@autotune) | §10 | empirical parameter search (the paper's future work) |
//! | [`plan`] | §3.1, §10 | the per-call plan handle ([`GemmPlan`]), computed dispatch plans, the override table and the persistent autotune profiles that fill it |
//!
//! The micro-kernels themselves live in `shalom-kernels`. The dispatch
//! decisions ([`ShapeClass`], [`BPlan`], [`EdgeSchedule`], [`PlanSource`])
//! are defined once, in `shalom_trace::decision`, and re-exported here.
//!
//! # Observability
//!
//! The [`capture`] module exposes the one capture layer (`shalom-trace`),
//! compiled into every build, with its two runtime switches: per-call
//! dispatch decision records (shape class, packing plan, tile, thread
//! grid) with sharded counters, latency histograms and JSON snapshots;
//! and span-level timelines of the same pipeline (plan resolution,
//! pack-A/B, per-block compute, pool dispatch/queue/barrier/park, batch
//! items) in per-thread lock-free buffers, with per-phase breakdowns and
//! Chrome-trace/Perfetto export. Both are off until switched on. With
//! both off, a call reads the capture state word once where its plan
//! handle is built and once where the handle runs, then runs a driver
//! instantiation that holds no capture code. The `perf-hooks` feature
//! adds Linux hardware counters.

#![deny(missing_docs)]
#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

pub mod api;
pub mod autotune;
pub mod batch;
pub mod cache;
pub mod capi;
pub mod capture;
pub mod config;
mod driver;
pub mod error;
mod parallel;
pub mod plan;
pub mod pool;

pub use api::{dgemm, dgemm_raw, gemm, gemm_with, sgemm, sgemm_raw, GemmElem};
pub use autotune::{autotune, Candidate, TuneReport};
pub use batch::{gemm_batch, gemm_batch_beta, gemm_batch_strided, BatchItem};
pub use cache::{BlockSizes, CacheParams};
pub use config::{classify, EdgeSchedule, GemmConfig, IsaPolicy, PackingPolicy, ShapeClass};
pub use error::{try_gemm_with, GemmError};
pub use parallel::{partition_threads, quantized_chunk};
pub use plan::{
    describe_plan, install_tuned, load_profile, plan_cache_clear, plan_cache_stats, register_tile,
    request_plan_key, save_profile, CacheStats as PlanCacheStats, GemmPlan, PlanDescription,
    PlanKey, PlanSource, ProfileError, ResolvedPlan, PROFILE_VERSION,
};
pub use pool::prewarm;
pub use shalom_matrix::Op;
pub use shalom_simd::{base_isa, best_isa as host_isa, Isa};
pub use shalom_trace::BPlan;

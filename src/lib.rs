//! **libshalom** — a Rust reproduction of *"LibShalom: Optimizing Small
//! and Irregular-Shaped Matrix Multiplications on ARMv8 Multi-Cores"*
//! (Yang, Fang, Dong, Su & Wang, SC '21).
//!
//! This facade re-exports the workspace crates so applications can
//! depend on a single name:
//!
//! * [`core`] (`shalom-core`) — the GEMM library: [`sgemm`], [`dgemm`],
//!   [`gemm_with`], configuration and the §6 parallel runtime;
//! * [`matrix`] (`shalom-matrix`) — matrices, views, the reference
//!   oracle, `im2col`;
//! * [`kernels`] (`shalom-kernels`) — the micro-kernels and the analytic
//!   register-tile solver;
//! * [`simd`] (`shalom-simd`) — the portable 128-bit vector substrate;
//! * [`baselines`] (`shalom-baselines`) — the comparison strategies
//!   (Goto/OpenBLAS, BLASFEO, LIBXSMM classes);
//! * [`nn`] (`shalom-nn`) — convolution layers on the irregular-GEMM
//!   path (the paper's DNN motivation);
//! * [`cachesim`], [`perfmodel`], [`workloads`] — the evaluation
//!   substrates.
//!
//! # Quick start
//!
//! ```
//! use libshalom::{sgemm, Matrix, Op};
//!
//! let a = Matrix::<f32>::random(8, 8, 1);
//! let b = Matrix::<f32>::random(8, 8, 2);
//! let mut c = Matrix::<f32>::zeros(8, 8);
//! sgemm(Op::NoTrans, Op::NoTrans, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
//! assert!(c.at(0, 0) > 0.0);
//! ```
//!
//! See `examples/` for realistic scenarios (batched CP2K-style small
//! GEMMs, convolution via im2col, tuning/ablation) and `DESIGN.md` /
//! `EXPERIMENTS.md` for the paper reproduction map.

#![deny(missing_docs)]

pub use shalom_baselines as baselines;
pub use shalom_cachesim as cachesim;
pub use shalom_core as core;
pub use shalom_kernels as kernels;
pub use shalom_matrix as matrix;
pub use shalom_nn as nn;
pub use shalom_perfmodel as perfmodel;
pub use shalom_service as service;
pub use shalom_simd as simd;
pub use shalom_workloads as workloads;

pub use shalom_core::{
    autotune, dgemm, gemm, gemm_batch, gemm_with, sgemm, BatchItem, CacheParams, EdgeSchedule,
    GemmConfig, GemmElem, GemmError, GemmPlan, Op, PackingPolicy, TuneReport,
};
pub use shalom_matrix::{MatMut, MatRef, Matrix};

/// Capture layer — decision records, counters, histograms and
/// snapshots, plus span timelines (per-worker phase spans, breakdowns,
/// Chrome-trace export), each behind its own runtime switch and off
/// until switched on.
pub use shalom_core::capture;

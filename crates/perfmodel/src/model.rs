//! The analytic execution model.
//!
//! For a GEMM `(M, N, K)` run by a strategy on a machine with `t`
//! threads, the model computes:
//!
//! ```text
//! time = max(T_compute, T_memory) + T_fork_join
//! ```
//!
//! * `T_compute` — the slowest thread's work. Its sub-block is split into
//!   a *main* region (whole `mr x nr` tiles, running at the efficiency
//!   the tile's CMR can sustain: `eta = CMR / (CMR + kappa)` with
//!   `kappa = fma_pipes` — more FMA pipes need a higher CMR to stay busy,
//!   which is the paper's §8.5 observation about KP920) and an *edge*
//!   region (padded at main efficiency for Goto-class zero-padding, or at
//!   a schedule-dependent efficiency for dedicated edge kernels —
//!   pipelined vs batched, Figure 6). Per-panel fixed overheads and any
//!   *sequential* packing time are added here; *fused* packing adds no
//!   serial time (that is the point of §5.3).
//! * `T_memory` — aggregate compulsory traffic plus packing traffic over
//!   the machine's sustained bandwidth: the many-core saturation term.
//! * `T_fork_join` — per-thread spawn/join cost (§6 chooses outer-loop
//!   parallelism to keep this low).

use crate::machines::{MachineModel, Precision};
use shalom_core::partition_threads;

/// How a strategy partitions C across `t` threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// The §6 rule as the library runs it
    /// ([`shalom_core::partition_threads`]: of the two divisors of `T`
    /// bracketing `sqrt(T*N/M)`, the one with the better Eq. 3 CMR),
    /// block edges quantized to the register tile.
    ShapeAware,
    /// Split N only, unquantized (OpenBLAS/ARMPL class).
    NSplit,
    /// Fixed near-square grid, unquantized (BLIS class).
    SquareGrid,
}

/// How a strategy prepares operand panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingModel {
    /// LibShalom's §4 runtime decision: skip when B fits L1, fused
    /// otherwise (with no serial packing time either way).
    Auto,
    /// Always pack A and B as a separate sequential phase (Goto class).
    SequentialBoth,
    /// Never pack (naive / in-place strategies).
    None,
}

/// Edge-region treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeHandling {
    /// Zero-padding: edges cost full-tile flops (Goto/BLASFEO class).
    Padded,
    /// Dedicated edge kernels with the pipelined schedule (Figure 6b).
    DedicatedPipelined,
    /// Dedicated edge kernels with the batched schedule (Figure 6a).
    DedicatedBatched,
}

/// A modelled GEMM strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyModel {
    /// Name used in figure output.
    pub name: &'static str,
    /// Register-tile rows (for FP32; FP64 keeps `mr`, halves `nr`).
    pub mr: usize,
    /// Register-tile columns at FP32.
    pub nr_f32: usize,
    /// Thread-partition scheme.
    pub partition: PartitionScheme,
    /// Packing behaviour.
    pub packing: PackingModel,
    /// Edge-region treatment.
    pub edges: EdgeHandling,
    /// Whether the implementation blocks for cache (`kc`/`mc`/`nc`).
    /// BLASFEO and LIBXSMM do not — excellent while resident, and the
    /// source of their degradation beyond their design envelope.
    pub cache_blocked: bool,
    /// Multiplier on the per-panel fixed overhead (JIT-specialized
    /// kernels amortize dispatch/loop setup: < 1).
    pub overhead_factor: f64,
    /// True for libraries with no multi-threaded path (BLASFEO, §7.4;
    /// LIBXSMM's GEMM kernels).
    pub single_thread_only: bool,
}

impl StrategyModel {
    /// LibShalom: analytic 7x12 tile, shape-aware partition, auto/fused
    /// packing, pipelined edge kernels.
    pub fn libshalom() -> Self {
        Self {
            name: "LibShalom",
            mr: 7,
            nr_f32: 12,
            partition: PartitionScheme::ShapeAware,
            packing: PackingModel::Auto,
            edges: EdgeHandling::DedicatedPipelined,
            cache_blocked: true,
            // The small path dispatches one analytic kernel with no
            // packing and no plan lookup — as lean as a JITted call.
            overhead_factor: 0.5,
            single_thread_only: false,
        }
    }

    /// OpenBLAS class: 16x4 tile, N-split, sequential packing, batched
    /// dedicated edge kernels.
    pub fn openblas_class() -> Self {
        Self {
            name: "OpenBLAS-class",
            mr: 16,
            nr_f32: 4,
            partition: PartitionScheme::NSplit,
            packing: PackingModel::SequentialBoth,
            edges: EdgeHandling::DedicatedBatched,
            cache_blocked: true,
            overhead_factor: 1.0,
            single_thread_only: false,
        }
    }

    /// BLIS class: 8x12 tile, square grid, sequential packing, padding.
    pub fn blis_class() -> Self {
        Self {
            name: "BLIS-class",
            mr: 8,
            nr_f32: 12,
            partition: PartitionScheme::SquareGrid,
            packing: PackingModel::SequentialBoth,
            edges: EdgeHandling::Padded,
            cache_blocked: true,
            overhead_factor: 1.0,
            single_thread_only: false,
        }
    }

    /// ARMPL class: 8x8 tile, N-split, sequential packing, padding.
    pub fn armpl_class() -> Self {
        Self {
            name: "ARMPL-class",
            mr: 8,
            nr_f32: 8,
            partition: PartitionScheme::SquareGrid,
            packing: PackingModel::SequentialBoth,
            edges: EdgeHandling::Padded,
            cache_blocked: true,
            overhead_factor: 1.0,
            single_thread_only: false,
        }
    }

    /// BLASFEO class: whole-matrix panel conversion (sequential), 8x8
    /// padded tile, no cache blocking (L2-resident design point), no
    /// threads.
    pub fn blasfeo_class() -> Self {
        Self {
            name: "BLASFEO-class",
            mr: 8,
            nr_f32: 8,
            partition: PartitionScheme::NSplit,
            packing: PackingModel::SequentialBoth,
            edges: EdgeHandling::Padded,
            cache_blocked: false,
            overhead_factor: 0.8,
            single_thread_only: true,
        }
    }

    /// LIBXSMM class: JIT-specialized exact kernels — no packing, no
    /// blocking, negligible dispatch overhead once the code cache is
    /// warm; degrades outside `(MNK)^(1/3) <= 64`.
    pub fn libxsmm_class() -> Self {
        Self {
            name: "LIBXSMM-class",
            mr: 8,
            nr_f32: 8,
            partition: PartitionScheme::NSplit,
            packing: PackingModel::None,
            edges: EdgeHandling::DedicatedPipelined,
            cache_blocked: false,
            overhead_factor: 0.6,
            single_thread_only: true,
        }
    }

    /// The parallel-figure roster (Figures 9–11, 15).
    pub fn parallel_roster() -> Vec<Self> {
        vec![
            Self::openblas_class(),
            Self::armpl_class(),
            Self::blis_class(),
            Self::libshalom(),
        ]
    }

    /// The small-GEMM roster (Figures 2a, 7, 8, 14), in plotting order.
    pub fn small_roster() -> Vec<Self> {
        vec![
            Self::blis_class(),
            Self::openblas_class(),
            Self::armpl_class(),
            Self::libxsmm_class(),
            Self::blasfeo_class(),
            Self::libshalom(),
        ]
    }

    /// Register tile at a precision (`nr` halves for FP64, like the
    /// analytic solver's `j` dependence).
    pub fn tile(&self, p: Precision) -> (usize, usize) {
        match p {
            Precision::F32 => (self.mr, self.nr_f32),
            Precision::F64 => (self.mr, (self.nr_f32 / 2).max(1)),
        }
    }
}

/// Model output for one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Predicted wall time, seconds.
    pub seconds: f64,
    /// Predicted throughput, GFLOPS.
    pub gflops: f64,
    /// Fraction of the machine's peak at this thread count.
    pub peak_fraction: f64,
    /// The `(Tm, Tn)` thread grid the strategy chose.
    pub grid: (usize, usize),
}

/// Where the modelled time goes — the term-by-term breakdown behind a
/// [`Prediction`], for explaining *why* a strategy wins or loses.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// Main-region compute time of the slowest thread, seconds.
    pub compute_main: f64,
    /// Edge-region compute time (schedule/padding dependent), seconds.
    pub compute_edge: f64,
    /// Per-panel fixed overhead, seconds.
    pub overhead: f64,
    /// Serial (non-overlapped) packing time, seconds.
    pub pack_serial: f64,
    /// Aggregate memory time (compulsory + packing traffic over
    /// bandwidth), seconds — the roofline term.
    pub memory: f64,
    /// Fork-join cost, seconds.
    pub fork_join: f64,
    /// The sustained main-kernel efficiency `eta` used.
    pub eta_main: f64,
    /// Whether the final time was memory-bound (`memory > compute sum`).
    pub memory_bound: bool,
}

impl Breakdown {
    /// Total modelled time (identical to the paired
    /// [`Prediction::seconds`]).
    pub fn seconds(&self) -> f64 {
        (self.compute_main + self.compute_edge + self.overhead + self.pack_serial).max(self.memory)
            + self.fork_join
    }
}

/// Predicts the throughput of `strategy` on `machine` for
/// `C[m x n] = A[m x k] * B[k x n]` with `threads` workers.
pub fn predict(
    machine: &MachineModel,
    strategy: &StrategyModel,
    prec: Precision,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> Prediction {
    predict_detailed(machine, strategy, prec, m, n, k, threads).0
}

/// [`predict`] plus the term-by-term [`Breakdown`].
#[allow(clippy::too_many_arguments)]
pub fn predict_detailed(
    machine: &MachineModel,
    strategy: &StrategyModel,
    prec: Precision,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) -> (Prediction, Breakdown) {
    let t = if strategy.single_thread_only {
        1
    } else {
        threads.clamp(1, machine.cores)
    };
    let (mr, nr) = strategy.tile(prec);
    let elem = prec.bytes();
    let flops_total = 2.0 * m as f64 * n as f64 * k as f64;

    // --- Thread grid and the largest (slowest) sub-block. ---
    let (tm, tn) = match strategy.partition {
        PartitionScheme::ShapeAware => partition_threads(t, m, n),
        PartitionScheme::NSplit => (1, t),
        PartitionScheme::SquareGrid => {
            let tm = (t as f64).sqrt().floor().max(1.0) as usize;
            (tm, (t / tm).max(1))
        }
    };
    // Shape-aware blocks are quantized to the register tile; the others
    // take plain ceil splits (creating edge regions in every thread).
    let (mi, ni) = match strategy.partition {
        PartitionScheme::ShapeAware => {
            let mq = m.div_ceil(tm).div_ceil(mr) * mr;
            let nq = n.div_ceil(tn).div_ceil(nr) * nr;
            (mq.min(m), nq.min(n))
        }
        _ => (m.div_ceil(tm), n.div_ceil(tn)),
    };

    // --- Compute time of the slowest thread. ---
    let cmr = 2.0 * (mr * nr) as f64 / (mr + nr) as f64;
    let kappa = machine.fma_pipes as f64;
    let mut eta_main = cmr / (cmr + kappa);
    // An unblocked kernel whose per-thread working set has left the L2
    // stalls on DRAM-latency B loads that nothing hides (no Bc, no kc
    // reuse window): the design-envelope cliff of BLASFEO/LIBXSMM (§9).
    if !strategy.cache_blocked && (mi * k + ni * k) * elem > machine.l2 {
        eta_main *= 0.3;
    }
    let peak_core = machine.peak_gflops_core(prec) * 1e9;
    let m_main = (mi / mr) * mr;
    let n_main = (ni / nr) * nr;
    let main_flops = 2.0 * m_main as f64 * n_main as f64 * k as f64;
    let block_flops = 2.0 * mi as f64 * ni as f64 * k as f64;
    let edge_flops = block_flops - main_flops;
    let compute_main = main_flops / (peak_core * eta_main);
    let compute_edge = match strategy.edges {
        EdgeHandling::Padded => {
            // Edges cost full padded tiles at main efficiency.
            let padded =
                2.0 * (mi.div_ceil(mr) * mr) as f64 * (ni.div_ceil(nr) * nr) as f64 * k as f64;
            (padded - main_flops) / (peak_core * eta_main)
        }
        EdgeHandling::DedicatedPipelined => edge_flops / (peak_core * eta_main * 0.80),
        EdgeHandling::DedicatedBatched => edge_flops / (peak_core * eta_main * 0.55),
    };
    // kc for panel counting: L1-derived, as every implementation does.
    let kc = if strategy.cache_blocked {
        (machine.l1 / (2 * nr * elem)).clamp(32, 512)
    } else {
        k.max(1) // no depth blocking: one panel spans all of K
    };
    let panels = mi.div_ceil(mr) as f64 * ni.div_ceil(nr) as f64 * k.div_ceil(kc) as f64;
    let overhead = panels * machine.panel_overhead_ns * strategy.overhead_factor * 1e-9;

    // --- Packing: serial time (sequential only) and extra traffic. ---
    let elems_per_cycle = prec.lanes() as f64; // one 128-bit move pipe
    let (pack_serial, pack_bytes) = match strategy.packing {
        PackingModel::SequentialBoth => {
            // B panel packed once per (jj, kk); A block packed per ii —
            // approximated as one full sweep of each per thread, read +
            // write.
            let pack_elems = (mi * k + ni * k) as f64;
            let serial = 2.0 * pack_elems / (elems_per_cycle * machine.freq_ghz * 1e9);
            (serial, 2.0 * pack_elems * elem as f64)
        }
        PackingModel::Auto => {
            let b_bytes = n * k * elem;
            if b_bytes <= machine.l1 {
                (0.0, 0.0)
            } else {
                // Fused: traffic exists (Bc write) but no serial time.
                ((ni * k) as f64 * elem as f64 * 0.0, (ni * k * elem) as f64)
            }
        }
        PackingModel::None => (0.0, 0.0),
    };
    let t_compute = compute_main + compute_edge + overhead + pack_serial;

    // --- Memory time: aggregate compulsory + packing traffic. ---
    let active = (tm.min(m.div_ceil(mi.max(1))) * tn.min(n.div_ceil(ni.max(1)))).max(1);
    let compulsory = (m * k + n * k + 2 * m * n) * elem;
    // Unblocked implementations re-stream B per row panel once the
    // working set leaves the L2 — the degradation outside BLASFEO's /
    // LIBXSMM's design envelope.
    let unblocked_extra = if !strategy.cache_blocked && (mi * k + ni * k) * elem > machine.l2 {
        (mi.div_ceil(mr).saturating_sub(1) * ni * k * elem) as f64
    } else {
        0.0
    };
    let total_bytes = compulsory as f64 + pack_bytes * active as f64 + unblocked_extra;
    let t_memory = total_bytes / (machine.mem_bw_gbs * 1e9);

    // --- Fork-join. ---
    let t_fork = if t > 1 {
        t as f64 * machine.fork_join_us * 1e-6
    } else {
        0.0
    };

    let seconds = t_compute.max(t_memory) + t_fork;
    let gflops = flops_total / seconds / 1e9;
    (
        Prediction {
            seconds,
            gflops,
            peak_fraction: gflops / machine.peak_gflops(prec, t),
            grid: (tm, tn),
        },
        Breakdown {
            compute_main,
            compute_edge,
            overhead,
            pack_serial,
            memory: t_memory,
            fork_join: t_fork,
            eta_main,
            memory_bound: t_memory > t_compute,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phy() -> MachineModel {
        MachineModel::phytium2000()
    }

    /// The modelled §6 grid is the one the library runs, keeping the
    /// paper's worked example (T = 64, 2048x256 -> 16 x 4).
    #[test]
    fn shape_aware_grid_is_the_library_partition() {
        let machine = MachineModel {
            cores: 128,
            ..phy()
        };
        let shalom = StrategyModel::libshalom();
        assert_eq!(shalom.partition, PartitionScheme::ShapeAware);
        let grid = |t, m, n| predict(&machine, &shalom, Precision::F32, m, n, 256, t).grid;
        assert_eq!(grid(64, 2048, 256), (16, 4));
        for t in [1, 2, 4, 7, 8, 12, 16, 24, 32, 48, 64, 96, 128] {
            for (m, n) in [
                (3136, 256),
                (200, 300),
                (150, 100),
                (64, 50176),
                (32, 10240),
                (5, 5),
                (23, 23),
                (4096, 32),
                (256, 2048),
            ] {
                assert_eq!(
                    grid(t, m, n),
                    partition_threads(t, m, n),
                    "T = {t}, {m}x{n}"
                );
            }
        }
    }

    #[test]
    fn libshalom_wins_parallel_irregular() {
        // Figure 9 regime: M small, N wide, K = 5000, all 64 cores.
        for &(m, n) in &[(32usize, 10240usize), (64, 8192), (128, 6144), (256, 2048)] {
            let sh = predict(
                &phy(),
                &StrategyModel::libshalom(),
                Precision::F32,
                m,
                n,
                5000,
                64,
            );
            for s in [
                StrategyModel::openblas_class(),
                StrategyModel::blis_class(),
                StrategyModel::armpl_class(),
            ] {
                let base = predict(&phy(), &s, Precision::F32, m, n, 5000, 64);
                assert!(
                    sh.gflops > base.gflops,
                    "{} beat LibShalom at m={m} n={n}: {} vs {}",
                    s.name,
                    base.gflops,
                    sh.gflops
                );
            }
        }
    }

    #[test]
    fn advantage_shrinks_as_m_grows() {
        // Figure 9: "performance benefit tends to be more significant for
        // smaller matrix sizes".
        let ratio = |m: usize| {
            let sh = predict(
                &phy(),
                &StrategyModel::libshalom(),
                Precision::F32,
                m,
                10240,
                5000,
                64,
            );
            let ob = predict(
                &phy(),
                &StrategyModel::blis_class(),
                Precision::F32,
                m,
                10240,
                5000,
                64,
            );
            sh.gflops / ob.gflops
        };
        assert!(ratio(32) > ratio(256));
    }

    #[test]
    fn small_gemm_single_thread_packing_hurts_goto() {
        // Figure 7 regime: sequential packing + batched edges lose at
        // m = n = k = 32.
        let sh = predict(
            &phy(),
            &StrategyModel::libshalom(),
            Precision::F32,
            32,
            32,
            32,
            1,
        );
        let ob = predict(
            &phy(),
            &StrategyModel::openblas_class(),
            Precision::F32,
            32,
            32,
            32,
            1,
        );
        assert!(sh.gflops > ob.gflops);
        // And the gap narrows for larger sizes (§3.1: libraries reach 80%
        // of peak at >= 256).
        let sh_big = predict(
            &phy(),
            &StrategyModel::libshalom(),
            Precision::F32,
            512,
            512,
            512,
            1,
        );
        let ob_big = predict(
            &phy(),
            &StrategyModel::openblas_class(),
            Precision::F32,
            512,
            512,
            512,
            1,
        );
        assert!(sh.gflops / ob.gflops > sh_big.gflops / ob_big.gflops);
    }

    #[test]
    fn scalability_monotone_and_shalom_scales_best() {
        // Figure 11 regime: VGG 64 x 50176 x 576.
        let (m, n, k) = (64, 50176, 576);
        let speedup = |s: &StrategyModel, t: usize| {
            let p1 = predict(&phy(), s, Precision::F32, m, n, k, 1);
            let pt = predict(&phy(), s, Precision::F32, m, n, k, t);
            p1.seconds / pt.seconds
        };
        let sh = StrategyModel::libshalom();
        let mut prev = 0.0;
        for t in [1, 2, 4, 8, 16, 32, 64] {
            let s = speedup(&sh, t);
            assert!(s >= prev * 0.999, "speedup not monotone at t={t}");
            prev = s;
        }
        assert!(speedup(&sh, 64) > speedup(&StrategyModel::openblas_class(), 64));
        assert!(speedup(&sh, 64) > 1.0);
    }

    #[test]
    fn kp920_faster_than_phytium_everywhere() {
        let kp = MachineModel::kunpeng920();
        for s in StrategyModel::parallel_roster() {
            let a = predict(&kp, &s, Precision::F32, 64, 8192, 2000, 64);
            let b = predict(&phy(), &s, Precision::F32, 64, 8192, 2000, 64);
            assert!(a.gflops > b.gflops, "{}", s.name);
        }
    }

    #[test]
    fn fp64_roughly_half_fp32() {
        let s = StrategyModel::libshalom();
        let a = predict(&phy(), &s, Precision::F32, 512, 512, 512, 1);
        let b = predict(&phy(), &s, Precision::F64, 512, 512, 512, 1);
        let ratio = a.gflops / b.gflops;
        assert!(
            (1.5..=2.6).contains(&ratio),
            "FP32/FP64 ratio {ratio} out of range"
        );
    }

    #[test]
    fn peak_fraction_bounded() {
        for s in StrategyModel::parallel_roster() {
            for &t in &[1usize, 8, 64] {
                let p = predict(&phy(), &s, Precision::F32, 256, 4096, 1024, t);
                assert!(
                    p.peak_fraction > 0.0 && p.peak_fraction <= 1.0,
                    "{}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn small_roster_figure14_shape() {
        // Figure 14 at 5x5x5 (FP64, 1 thread): LibShalom and LIBXSMM —
        // the two that avoid packing overhead — lead; the Goto class
        // trails.
        let phy = phy();
        let run = |s: &StrategyModel| predict(&phy, s, Precision::F64, 5, 5, 5, 1).gflops;
        let sh = run(&StrategyModel::libshalom());
        let xsmm = run(&StrategyModel::libxsmm_class());
        let ob = run(&StrategyModel::openblas_class());
        let bf = run(&StrategyModel::blasfeo_class());
        assert!(sh > ob, "LibShalom must beat Goto class at 5x5x5");
        assert!(xsmm > ob, "LIBXSMM must beat Goto class at 5x5x5");
        assert!(bf > ob, "BLASFEO must beat Goto class at 5x5x5");
    }

    #[test]
    fn libxsmm_degrades_outside_envelope() {
        // §9: LIBXSMM is designed for (MNK)^(1/3) <= 64; beyond that,
        // no blocking means B is re-streamed and memory time explodes.
        let phy = phy();
        let inside = predict(
            &phy,
            &StrategyModel::libxsmm_class(),
            Precision::F32,
            48,
            48,
            48,
            1,
        );
        let outside = predict(
            &phy,
            &StrategyModel::libxsmm_class(),
            Precision::F32,
            768,
            768,
            768,
            1,
        );
        let shal_out = predict(
            &phy,
            &StrategyModel::libshalom(),
            Precision::F32,
            768,
            768,
            768,
            1,
        );
        assert!(
            shal_out.gflops > outside.gflops,
            "blocked must win at 768^3"
        );
        // And its relative standing collapses: fraction of peak falls.
        assert!(
            inside.peak_fraction * 0.9 > outside.peak_fraction
                || shal_out.gflops / outside.gflops > 1.5
        );
    }

    #[test]
    fn single_thread_only_strategies_ignore_threads() {
        let phy = phy();
        for s in [
            StrategyModel::blasfeo_class(),
            StrategyModel::libxsmm_class(),
        ] {
            let p1 = predict(&phy, &s, Precision::F32, 64, 64, 64, 1);
            let p64 = predict(&phy, &s, Precision::F32, 64, 64, 64, 64);
            assert!((p1.seconds - p64.seconds).abs() < 1e-15, "{}", s.name);
        }
    }

    #[test]
    fn breakdown_sums_to_prediction() {
        let phy = phy();
        for s in StrategyModel::parallel_roster() {
            for &t in &[1usize, 8, 64] {
                let (p, b) = predict_detailed(&phy, &s, Precision::F32, 64, 8192, 1000, t);
                assert!(
                    (b.seconds() - p.seconds).abs() < 1e-15,
                    "{} t={t}: breakdown {} vs prediction {}",
                    s.name,
                    b.seconds(),
                    p.seconds
                );
                assert!(b.compute_main >= 0.0 && b.memory >= 0.0 && b.fork_join >= 0.0);
                assert!(b.eta_main > 0.0 && b.eta_main < 1.0);
            }
        }
    }

    #[test]
    fn breakdown_attributes_sequential_packing() {
        let phy = phy();
        let (_, goto) = predict_detailed(
            &phy,
            &StrategyModel::openblas_class(),
            Precision::F32,
            32,
            32,
            32,
            1,
        );
        let (_, shalom) = predict_detailed(
            &phy,
            &StrategyModel::libshalom(),
            Precision::F32,
            32,
            32,
            32,
            1,
        );
        assert!(goto.pack_serial > 0.0, "Goto class must pay serial packing");
        assert_eq!(shalom.pack_serial, 0.0, "LibShalom never packs serially");
    }

    #[test]
    fn thread_grids_multiply_out() {
        for s in StrategyModel::parallel_roster() {
            let p = predict(&phy(), &s, Precision::F32, 64, 4096, 1000, 64);
            let (tm, tn) = p.grid;
            assert!(tm * tn <= 64 && tm * tn >= 1);
        }
    }
}

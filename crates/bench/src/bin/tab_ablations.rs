//! Ablation table: the design choices of §4–§5 measured one at a time,
//! everything else held fixed.
//!
//! * `tile_shape` — the analytic 7x12 register tile (Eq. 1–2) against
//!   the common alternatives 8x8, 4x4 and 16x4, f32 at 128 bits;
//! * `edge_schedule` — pipelined (Fig 6b) vs batched (Fig 6a) edge
//!   kernels on a 5x11 tile, the kernel-level half of Figure 13's
//!   "+edge-case optimization" bar;
//! * `formulation` — outer-product (Algorithm 2) vs inner-product NT
//!   panel with its scatter-pack of `Bc` (Algorithm 3), both 7x12;
//! * `vector_width` — the f32 main kernel of every kernel set this host
//!   registers, through its dispatched entry point (§5.5);
//! * `packing_small` / `packing_irregular` — the four `PackingPolicy`
//!   regimes (§4) on 32x32x32, where packing should be skipped, and on
//!   16x4096x512, where fused packing should win;
//! * `loop_order` — simulated L2 misses of the classical `jj→kk→ii`
//!   order against LibShalom's exchanged `jj→ii→kk` (§3.3), NT mode on
//!   the KP920 cache geometry.
//!
//! ```text
//! cargo run --release -p shalom-bench --bin tab_ablations -- --reps 5
//! ```

use shalom_bench::{time_gemm, BenchArgs, Report};
use shalom_cachesim::gemm_trace::{trace_goto_nt, trace_shalom_nt, GemmGeom};
use shalom_cachesim::{CacheGeom, CacheSim};
use shalom_core::{gemm_with, GemmConfig, Op, PackingPolicy};
use shalom_kernels::edge::{edge_kernel_batched, edge_kernel_pipelined};
use shalom_kernels::family::EdgeFn;
use shalom_kernels::main_kernel::{main_kernel, main_kernel_shape};
use shalom_kernels::nt_pack::nt_pack_panel;
use shalom_kernels::registered_families;
use shalom_matrix::Matrix;
use shalom_simd::F32x4;
use std::hint::black_box;
use std::time::Instant;

/// Depth of every kernel-level row: the operands stay L1-resident.
const KC: usize = 256;

/// GFLOPS of `body` (one call does `flops`), at the geometric mean of
/// `reps` repetitions that each batch enough calls to last ~1 ms.
fn gflops(reps: usize, flops: usize, mut body: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    body();
    let est = t0.elapsed().as_secs_f64().max(1e-8);
    let inner = ((1e-3 / est).ceil() as usize).clamp(1, 100_000);
    let stats = time_gemm(
        reps,
        1,
        || {},
        || {
            for _ in 0..inner {
                body();
            }
        },
    );
    stats.gflops((flops * inner) as f64)
}

fn main() {
    let args = BenchArgs::parse();
    let reps = args.reps;
    let mut r = Report::new(
        "tab_ablations",
        "design ablations: register tile, edge schedule, outer vs inner product, vector width, packing policy, loop order",
    );
    r.columns(&["ablation", "variant", "value", "unit"]);
    let mut row = |ablation: &str, variant: &str, value: f64, unit: &str| {
        let cell = if unit == "GFLOPS" {
            format!("{value:.2}")
        } else {
            format!("{value:.0}")
        };
        r.row(&[ablation, variant, &cell, unit]);
    };

    let a = vec![0.5f32; 16 * KC];
    let b = vec![0.25f32; KC * 12];
    let mut c = vec![0f32; 16 * 12];
    macro_rules! tile {
        ($name:literal, $MR:literal, $NRV:literal) => {{
            let g = gflops(reps, 2 * $MR * $NRV * 4 * KC, || {
                // SAFETY: a is 16 x KC, b is KC x 12, c is 16 x 12, all
                // at tight strides; every tile here is at most 16 x 12.
                unsafe {
                    main_kernel_shape::<F32x4, $MR, $NRV>(
                        KC,
                        1.0,
                        a.as_ptr(),
                        KC,
                        b.as_ptr(),
                        12,
                        1.0,
                        c.as_mut_ptr(),
                        12,
                    )
                };
                black_box(&c);
            });
            row("tile_shape", $name, g, "GFLOPS");
        }};
    }
    tile!("7x12_analytic", 7, 3);
    tile!("8x8", 8, 2);
    tile!("4x4", 4, 1);
    tile!("16x4", 16, 1);

    let (m, n) = (5usize, 11usize);
    let edges: [(&str, EdgeFn<f32>); 2] = [
        ("pipelined_fig6b", edge_kernel_pipelined::<F32x4>),
        ("batched_fig6a", edge_kernel_batched::<F32x4>),
    ];
    for (name, edge) in edges {
        let g = gflops(reps, 2 * m * n * KC, || {
            // SAFETY: a holds m x KC, b holds KC x n at stride n, and c
            // holds m x n at stride n; (5, 11) is inside one 7x12 tile.
            unsafe {
                edge(
                    m,
                    n,
                    KC,
                    1.0,
                    a.as_ptr(),
                    KC,
                    b.as_ptr(),
                    n,
                    1.0,
                    c.as_mut_ptr(),
                    n,
                )
            };
            black_box(&c);
        });
        row("edge_schedule", name, g, "GFLOPS");
    }

    let g = gflops(reps, 2 * 7 * 12 * KC, || {
        // SAFETY: as for the 7x12 tile row.
        unsafe {
            main_kernel::<F32x4>(
                KC,
                1.0,
                a.as_ptr(),
                KC,
                b.as_ptr(),
                12,
                1.0,
                c.as_mut_ptr(),
                12,
            )
        };
        black_box(&c);
    });
    row("formulation", "outer_product_7x12", g, "GFLOPS");
    let bt = vec![0.25f32; 12 * KC];
    let mut bc = vec![0f32; KC * 12];
    let g = gflops(reps, 2 * 7 * 12 * KC, || {
        // SAFETY: bt is B stored 12 x KC, bc is the KC x 12 panel it
        // packs into, a and c as above.
        unsafe {
            nt_pack_panel::<F32x4>(
                7,
                12,
                KC,
                12,
                1.0,
                a.as_ptr(),
                KC,
                bt.as_ptr(),
                KC,
                1.0,
                c.as_mut_ptr(),
                12,
                bc.as_mut_ptr(),
            )
        };
        black_box((&c, &bc));
    });
    row("formulation", "inner_product_nt_pack_7x12", g, "GFLOPS");

    for fam in registered_families() {
        let ks = &fam.k_f32;
        let a = vec![0.5f32; ks.mr * KC];
        let b = vec![0.25f32; KC * ks.nr];
        let mut c = vec![0f32; ks.mr * ks.nr];
        let g = gflops(reps, 2 * ks.mr * ks.nr * KC, || {
            // SAFETY: a/b/c are sized to the set's tile at tight
            // strides; the set came from the runtime-probed registry.
            unsafe {
                (ks.kernel)(
                    KC,
                    1.0,
                    a.as_ptr(),
                    KC,
                    b.as_ptr(),
                    ks.nr,
                    1.0,
                    c.as_mut_ptr(),
                    ks.nr,
                )
            };
            black_box(&c);
        });
        let name = format!("{}_{}x{}", fam.isa.label(), ks.mr, ks.nr);
        row("vector_width", &name, g, "GFLOPS");
    }

    let policies = [
        ("auto", PackingPolicy::Auto),
        ("always_fused", PackingPolicy::AlwaysFused),
        ("always_sequential", PackingPolicy::AlwaysSequential),
        ("never", PackingPolicy::Never),
    ];
    for (ablation, (m, n, k)) in [
        ("packing_small", (32usize, 32usize, 32usize)),
        ("packing_irregular", (16, 4096, 512)),
    ] {
        let a = Matrix::<f32>::random(m, k, 1);
        let b = Matrix::<f32>::random(k, n, 2);
        let mut c = Matrix::<f32>::zeros(m, n);
        for (name, packing) in policies {
            let cfg = GemmConfig {
                packing,
                ..GemmConfig::with_threads(1)
            };
            let g = gflops(reps, 2 * m * n * k, || {
                gemm_with(
                    &cfg,
                    Op::NoTrans,
                    Op::NoTrans,
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    0.0,
                    c.as_mut(),
                );
                black_box(c.as_slice().first());
            });
            row(ablation, &format!("{name}_{m}x{n}x{k}"), g, "GFLOPS");
        }
    }

    let geoms = [
        CacheGeom::new(64 * 1024, 4, 64),
        CacheGeom::new(512 * 1024, 8, 64),
    ];
    let (m, n, k) = (64usize, 1024usize, 576usize);
    let mut sim = CacheSim::new(&geoms);
    trace_goto_nt(&mut sim, &GemmGeom::goto(m, n, k, 4, 16, 4));
    row(
        "loop_order",
        "jj_kk_ii_goto",
        sim.stats(1).misses as f64,
        "L2 misses",
    );
    let mut sim = CacheSim::new(&geoms);
    trace_shalom_nt(
        &mut sim,
        &GemmGeom::shalom(m, n, k, 4, 64 * 1024, 512 * 1024),
    );
    row(
        "loop_order",
        "jj_ii_kk_shalom",
        sim.stats(1).misses as f64,
        "L2 misses",
    );

    r.note("tile_shape, edge_schedule and formulation run the 128-bit kernels (the paper's AdvSIMD width) whatever the host dispatches; vector_width lists every set the host registers");
    r.note("paper prediction: 7x12 highest of the 128-bit tiles; pipelined >= batched; packing_small best at auto/never, packing_irregular best at auto/always_fused; jj_ii_kk fewer L2 misses");
    r.emit(&args.out);
}

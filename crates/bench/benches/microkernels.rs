//! Kernel-level ablations:
//!
//! * register-tile sizes — the analytic 7x12 against the common
//!   alternatives (8x8, 4x4, 16x4), validating the Eq. 1–2 solver's
//!   choice;
//! * edge schedules — pipelined (Fig 6b) vs batched (Fig 6a), the
//!   kernel-level half of the Figure 13 "+edge-case optimization" bar;
//! * outer-product (Algorithm 2) vs inner-product (Algorithm 3)
//!   formulations at equal tile volume.

use criterion::{criterion_group, criterion_main, Criterion};
use shalom_kernels::edge::{edge_kernel_batched, edge_kernel_pipelined};
use shalom_kernels::main_kernel::{main_kernel, main_kernel_shape};
use shalom_kernels::nt_pack::nt_pack_panel;
use shalom_kernels::registered_families;
use shalom_simd::F32x4;

fn bench_tiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_shapes_f32");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_millis(500));
    let kc = 256;
    let a = vec![0.5f32; 16 * kc];
    let b = vec![0.25f32; kc * 12];
    let mut cm = vec![0f32; 16 * 12];
    macro_rules! tile {
        ($name:literal, $MR:literal, $NRV:literal) => {
            group.throughput(criterion::Throughput::Elements(
                (2 * $MR * $NRV * 4 * kc) as u64,
            ));
            group.bench_function($name, |bch| {
                bch.iter(|| unsafe {
                    main_kernel_shape::<F32x4, $MR, $NRV>(
                        kc,
                        1.0,
                        a.as_ptr(),
                        kc,
                        b.as_ptr(),
                        12,
                        1.0,
                        cm.as_mut_ptr(),
                        12,
                    );
                    std::hint::black_box(&cm);
                });
            });
        };
    }
    tile!("7x12_analytic", 7, 3);
    tile!("8x8", 8, 2);
    tile!("4x4", 4, 1);
    tile!("16x4", 16, 1);
    group.finish();
}

fn bench_edge_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_schedule_f32");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_millis(500));
    let kc = 256;
    let (m, n) = (5usize, 11usize);
    let a = vec![0.5f32; m * kc];
    let b = vec![0.25f32; kc * n];
    let mut cm = vec![0f32; m * n];
    group.throughput(criterion::Throughput::Elements((2 * m * n * kc) as u64));
    group.bench_function("pipelined_fig6b", |bch| {
        bch.iter(|| unsafe {
            edge_kernel_pipelined::<F32x4>(
                m,
                n,
                kc,
                1.0,
                a.as_ptr(),
                kc,
                b.as_ptr(),
                n,
                1.0,
                cm.as_mut_ptr(),
                n,
            );
            std::hint::black_box(&cm);
        });
    });
    group.bench_function("batched_fig6a", |bch| {
        bch.iter(|| unsafe {
            edge_kernel_batched::<F32x4>(
                m,
                n,
                kc,
                1.0,
                a.as_ptr(),
                kc,
                b.as_ptr(),
                n,
                1.0,
                cm.as_mut_ptr(),
                n,
            );
            std::hint::black_box(&cm);
        });
    });
    group.finish();
}

fn bench_formulations(c: &mut Criterion) {
    let mut group = c.benchmark_group("outer_vs_inner_product_f32");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_millis(500));
    let kc = 256;
    // Outer-product 7x12 (Algorithm 2) on packed B.
    let a = vec![0.5f32; 7 * kc];
    let b = vec![0.25f32; kc * 12];
    let mut cm = vec![0f32; 7 * 12];
    group.throughput(criterion::Throughput::Elements((2 * 7 * 12 * kc) as u64));
    group.bench_function("outer_product_7x12", |bch| {
        bch.iter(|| unsafe {
            main_kernel::<F32x4>(
                kc,
                1.0,
                a.as_ptr(),
                kc,
                b.as_ptr(),
                12,
                1.0,
                cm.as_mut_ptr(),
                12,
            );
            std::hint::black_box(&cm);
        });
    });
    // Inner-product 7x12 via 4 calls of the 7x3 NT kernel (Algorithm 3),
    // including its scatter-pack of Bc — the full fused pass.
    let bt = vec![0.25f32; 12 * kc]; // stored N x K
    let mut bc = vec![0f32; kc * 12];
    group.bench_function("inner_product_nt_pack_7x12", |bch| {
        bch.iter(|| unsafe {
            nt_pack_panel::<F32x4>(
                7,
                12,
                kc,
                12,
                1.0,
                a.as_ptr(),
                kc,
                bt.as_ptr(),
                kc,
                1.0,
                cm.as_mut_ptr(),
                12,
                bc.as_mut_ptr(),
            );
            std::hint::black_box((&cm, &bc));
        });
    });
    group.finish();
}

fn bench_vector_width(c: &mut Criterion) {
    // §5.5 width scaling: the f32 main kernel of every kernel set this
    // host can execute (7x12 at 128 bits, 7x8 AVX2, 15x16 AVX-512), each
    // through its dispatched entry point, flops-normalized.
    let mut group = c.benchmark_group("vector_width_f32");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_millis(500));
    let kc = 256;
    for fam in registered_families() {
        let ks = &fam.k_f32;
        let a = vec![0.5f32; ks.mr * kc];
        let b = vec![0.25f32; kc * ks.nr];
        let mut cm = vec![0f32; ks.mr * ks.nr];
        group.throughput(criterion::Throughput::Elements(
            (2 * ks.mr * ks.nr * kc) as u64,
        ));
        group.bench_function(format!("{}_{}x{}", fam.isa.label(), ks.mr, ks.nr), |bch| {
            // SAFETY: a/b/c are sized to the set's tile at tight strides;
            // the family came from the runtime-probed registry.
            bch.iter(|| unsafe {
                (ks.kernel)(
                    kc,
                    1.0,
                    a.as_ptr(),
                    kc,
                    b.as_ptr(),
                    ks.nr,
                    1.0,
                    cm.as_mut_ptr(),
                    ks.nr,
                );
                std::hint::black_box(&cm);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tiles,
    bench_edge_schedules,
    bench_formulations,
    bench_vector_width
);
criterion_main!(benches);

//! Times every full-tile slot of each kernel set this host registers, f32
//! and f64, at `KC = 256` on L1-resident panels: `kernel`, then
//! `kernel_pack` packing the panel it reads (`fused`), packing it and
//! copying the next one (`fused+ahead`), and reading a packed panel while
//! copying the next one (`streamed`), then both edge schedules at
//! `m = mr`, `n = nr`. Each figure is the best of five rounds of 20k
//! calls, in GFLOPS.
//!
//! `cargo run --release -p shalom-kernels --example family_probe`

use shalom_kernels::main_kernel::PanelCopy;
use shalom_kernels::{registered_families, FamilyElem, FamilyKernels};
use std::hint::black_box;
use std::time::Instant;

const KC: usize = 256;
const CALLS: usize = 20_000;
const ROUNDS: usize = 5;
const SLOTS: [&str; 6] = [
    "kernel",
    "fused",
    "fused+ahead",
    "streamed",
    "edge_batched",
    "edge_pipelined",
];

/// Best-of-`ROUNDS` GFLOPS of `call`, which does `flops` of work.
fn best_gflops(flops: usize, mut call: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                call();
            }
            (flops * CALLS) as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

fn probe_set<T: FamilyElem>(ks: &FamilyKernels<T>) -> [f64; SLOTS.len()] {
    // Opaque, so no call below can be resolved at compile time.
    let ks = black_box(ks);
    let (mr, nr) = (ks.mr, ks.nr);
    let gen = |seed: usize, len: usize| -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64(((i * 31 + seed * 17) % 23) as f64 / 23.0 - 0.5))
            .collect()
    };
    // B holds two panels side by side: the tile's own and the look-ahead's.
    let ldb = 2 * nr;
    let (a, b, packed) = (gen(1, mr * KC), gen(2, KC * ldb), gen(3, KC * nr));
    let (mut c, mut bc, mut next) = (gen(4, mr * nr), gen(5, KC * nr), gen(6, KC * nr));
    let (ap, bp, pp) = (a.as_ptr(), b.as_ptr(), packed.as_ptr());
    let (cp, bcp, np) = (c.as_mut_ptr(), bc.as_mut_ptr(), next.as_mut_ptr());
    let copy = PanelCopy {
        src: b[nr..].as_ptr(),
        src_ld: ldb,
        dst: np,
    };
    let (one, zero) = (T::ONE, T::ZERO);
    let flops = 2 * mr * nr * KC;
    // SAFETY (every call below): a is mr x KC at stride KC; b is KC x 2nr
    // at stride 2nr, so its second panel is the copy source;
    // packed, bc and next are KC x nr; c is the mr x nr tile. The registry
    // only hands out sets this host can execute.
    [
        best_gflops(flops, || unsafe {
            (ks.kernel)(KC, one, ap, KC, bp, ldb, zero, cp, nr)
        }),
        best_gflops(flops, || unsafe {
            (ks.kernel_pack)(KC, one, ap, KC, bp, ldb, zero, cp, nr, Some(bcp), None)
        }),
        best_gflops(flops, || unsafe {
            (ks.kernel_pack)(
                KC,
                one,
                ap,
                KC,
                bp,
                ldb,
                zero,
                cp,
                nr,
                Some(bcp),
                Some(copy),
            )
        }),
        best_gflops(flops, || unsafe {
            (ks.kernel_pack)(KC, one, ap, KC, pp, nr, zero, cp, nr, None, Some(copy))
        }),
        best_gflops(flops, || unsafe {
            (ks.edge_batched)(mr, nr, KC, one, ap, KC, bp, ldb, zero, cp, nr)
        }),
        best_gflops(flops, || unsafe {
            (ks.edge_pipelined)(mr, nr, KC, one, ap, KC, bp, ldb, zero, cp, nr)
        }),
    ]
}

fn row<T: FamilyElem>(set: &str, dtype: &str, ks: &FamilyKernels<T>) {
    let tile = format!("{}x{}", ks.mr, ks.nr);
    print!("{set:<8} {dtype:<4} {tile:<6}");
    for (g, slot) in probe_set(ks).iter().zip(SLOTS) {
        print!(" {g:>w$.1}", w = slot.len().max(6));
    }
    println!();
}

fn main() {
    println!("full-tile GFLOPS at KC = {KC}, best of {ROUNDS} x {CALLS} calls");
    print!("{:<8} {:<4} {:<6}", "set", "type", "tile");
    for slot in SLOTS {
        print!(" {slot:>6}");
    }
    println!();
    for fam in registered_families() {
        row(fam.isa.label(), "f32", &fam.k_f32);
        row(fam.isa.label(), "f64", &fam.k_f64);
    }
}

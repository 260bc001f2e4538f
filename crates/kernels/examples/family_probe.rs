//! Prints the kernel-set table this host registers and a quick GFLOPS
//! sanity figure for each set's f32 main kernel.

use shalom_kernels::registered_families;
use std::time::Instant;

fn main() {
    let kc = 256;
    let reps = 200_000;
    for fam in registered_families() {
        let ks = &fam.k_f32;
        let a = vec![1.0f32; ks.mr * kc];
        let b = vec![1.0f32; kc * ks.nr];
        let mut c = vec![0.0f32; ks.mr * ks.nr];
        let t0 = Instant::now();
        for _ in 0..reps {
            // SAFETY: a/b/c are sized to the set's tile at tight strides,
            // and the registry only hands out sets this host can execute.
            unsafe {
                (ks.kernel)(
                    kc,
                    1.0,
                    a.as_ptr(),
                    kc,
                    b.as_ptr(),
                    ks.nr,
                    0.0,
                    c.as_mut_ptr(),
                    ks.nr,
                );
            }
            std::hint::black_box(&c);
        }
        let dt = t0.elapsed().as_secs_f64();
        let gflops = (2 * ks.mr * ks.nr * kc * reps) as f64 / dt / 1e9;
        println!(
            "{:<7} f32 {:>2}x{:<2} (f64 {}x{}): main kernel {gflops:.1} GFLOPS",
            fam.isa.label(),
            ks.mr,
            ks.nr,
            fam.k_f64.mr,
            fam.k_f64.nr,
        );
    }
}

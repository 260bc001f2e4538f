//! Probe cells for the `kernels` layer: the public micro-kernels and
//! packers on cache-resident panels, timed in the same traced run as the
//! cells they are the ceiling for.

use crate::cell::{Cell, FnWork, Mode};
use crate::gemm::Elem;
use crate::rng::Rng;
use shalom_kernels::edge::edge_kernel_pipelined;
use shalom_kernels::family::FamilyKernels;
use shalom_kernels::main_kernel::main_kernel;
use shalom_kernels::nt_pack::nt_pack_panel;
use shalom_kernels::pack::{pack_a_slivers_goto, pack_b_slivers_goto, pack_transpose};
use shalom_kernels::{selected_wide_family, Vector, MR, NR_VECS};
use shalom_matrix::Scalar;
use shalom_simd::{F32x4, F64x2};

/// The `kernels.*` per-layer metrics, each measured by the probe cell of
/// the same name.
pub const NAMES: [&str; 9] = [
    "base_peak_gflops_f32",
    "base_peak_gflops_f64",
    "family_peak_gflops_f32",
    "family_peak_gflops_f64",
    "pack_b_gbps",
    "pack_a_gbps",
    "pack_transpose_gbps",
    "nt_pack_gflops",
    "edge_gflops",
];

/// Depth of the micro-kernel panels. Deep enough that the write-back of
/// the C tile is a few per cent of a call (at 128 the AVX-512 f32 kernel
/// read 68 GFLOPS and a whole 1024x32x256 call beat it); with the widest
/// tile (15x16 f32) A and B together are 31 KiB, inside a 48 KiB L1.
const KC: usize = 256;
/// Side of the packers' square source block: source plus destination are
/// 512 KiB of f32, inside L2 and outside L1.
const PACK: usize = 256;

fn probe(name: &str, span: &'static str, work_per_call: f64, f: impl FnMut() + 'static) -> Cell {
    Cell::new(
        format!("kernels.{name}"),
        span,
        Mode::Nn,
        1,
        work_per_call,
        Box::new(FnWork(f)),
    )
    .probe("probe.kernels")
    .rewarmed()
}

/// The 128-bit main kernel on an `MR x KC` A sliver and a `KC x nr` B panel.
fn base_peak<V: Vector>(rng: &mut Rng, name: &str) -> Cell
where
    V::Elem: Elem,
{
    let nr = NR_VECS * V::LANES;
    let a = V::Elem::fill(rng, MR * KC);
    let b = V::Elem::fill(rng, KC * nr);
    let mut c = V::Elem::fill(rng, MR * nr);
    let (one, zero) = (V::Elem::ONE, V::Elem::ZERO);
    probe(
        name,
        "kernels.main_kernel",
        (2 * MR * nr * KC) as f64,
        move || {
            // SAFETY: `a` holds MR rows of KC at stride KC, `b` holds KC rows
            // of nr at stride nr, `c` holds MR rows of nr at stride nr, and
            // the three buffers are distinct allocations.
            unsafe {
                main_kernel::<V>(
                    KC,
                    one,
                    a.as_ptr(),
                    KC,
                    b.as_ptr(),
                    nr,
                    zero,
                    c.as_mut_ptr(),
                    nr,
                )
            }
        },
    )
}

/// The dispatched wide family's `mr x nr` kernel on the same kind of panels.
fn family_peak<T: Elem>(rng: &mut Rng, name: &str, ks: &'static FamilyKernels<T>) -> Cell {
    let (mr, nr, kernel) = (ks.mr, ks.nr, ks.kernel);
    let a = T::fill(rng, mr * KC);
    let b = T::fill(rng, KC * nr);
    let mut c = T::fill(rng, mr * nr);
    let (one, zero) = (T::ONE, T::ZERO);
    probe(
        name,
        "kernels.family_kernel",
        (2 * mr * nr * KC) as f64,
        move || {
            // SAFETY: panels sized as for `base_peak` with this family's tile;
            // `ks` came from `selected_wide_family`, so this host passed the
            // ISA probe its kernel requires.
            unsafe {
                kernel(
                    KC,
                    one,
                    a.as_ptr(),
                    KC,
                    b.as_ptr(),
                    nr,
                    zero,
                    c.as_mut_ptr(),
                    nr,
                )
            }
        },
    )
}

pub fn cells(seed: u64) -> Vec<Cell> {
    let rng = &mut Rng::new(seed, 0x6b65_726e);
    let mut cells = vec![
        base_peak::<F32x4>(rng, NAMES[0]),
        base_peak::<F64x2>(rng, NAMES[1]),
    ];
    // With no wide family registered the family peak is the base peak.
    match selected_wide_family() {
        Some(fam) => {
            cells.push(family_peak(rng, NAMES[2], &fam.k_f32));
            cells.push(family_peak(rng, NAMES[3], &fam.k_f64));
        }
        None => {
            cells.push(base_peak::<F32x4>(rng, NAMES[2]));
            cells.push(base_peak::<F64x2>(rng, NAMES[3]));
        }
    }

    // Packers: bytes read plus bytes written per call.
    let bytes = (2 * PACK * PACK * 4) as f64;
    let nr = selected_wide_family().map_or(12, |f| f.k_f32.nr);
    let mr = selected_wide_family().map_or(MR, |f| f.k_f32.mr);
    let src = rng.fill_f32(PACK * PACK);
    let mut dst = vec![0.0f32; PACK.div_ceil(nr) * nr * PACK];
    let s = src.clone();
    cells.push(probe(
        NAMES[4],
        "kernels.pack_b_slivers_goto",
        bytes,
        move || {
            // SAFETY: `s` is PACK x PACK at stride PACK; `dst` holds
            // ceil(PACK/nr) slivers of PACK * nr elements.
            unsafe { pack_b_slivers_goto(s.as_ptr(), PACK, PACK, PACK, nr, dst.as_mut_ptr()) };
        },
    ));
    let mut dst = vec![0.0f32; PACK.div_ceil(mr) * mr * PACK];
    let s = src.clone();
    cells.push(probe(
        NAMES[5],
        "kernels.pack_a_slivers_goto",
        bytes,
        move || {
            // SAFETY: `s` is PACK x PACK at stride PACK; `dst` holds
            // ceil(PACK/mr) slivers of mr * PACK elements.
            unsafe { pack_a_slivers_goto(s.as_ptr(), PACK, PACK, PACK, mr, dst.as_mut_ptr()) };
        },
    ));
    let mut dst = vec![0.0f32; PACK * PACK];
    cells.push(probe(
        NAMES[6],
        "kernels.pack_transpose",
        bytes,
        move || {
            // SAFETY: source and destination are both PACK x PACK at stride PACK.
            unsafe { pack_transpose(src.as_ptr(), PACK, PACK, PACK, dst.as_mut_ptr(), PACK) };
        },
    ));

    // The NT packing kernel: a 7 x 12 C tile from 12 stored rows of B,
    // scattering them into a KC x 12 panel as it goes.
    let nr = NR_VECS * 4;
    let a = rng.fill_f32(MR * KC);
    let b = rng.fill_f32(nr * KC);
    let mut c = vec![0.0f32; MR * nr];
    let mut bc = vec![0.0f32; KC * nr];
    cells.push(probe(
        NAMES[7],
        "kernels.nt_pack_panel",
        (2 * MR * nr * KC) as f64,
        move || {
            // SAFETY: `a` is MR x KC at stride KC, `b` is nr rows of KC at
            // stride KC, `c` is MR x nr at stride nr, `bc` holds KC * nr, and
            // npanel = nr; all four are distinct allocations.
            unsafe {
                nt_pack_panel::<F32x4>(
                    MR,
                    nr,
                    KC,
                    nr,
                    1.0,
                    a.as_ptr(),
                    KC,
                    b.as_ptr(),
                    KC,
                    0.0,
                    c.as_mut_ptr(),
                    nr,
                    bc.as_mut_ptr(),
                )
            };
        },
    ));

    // A ragged 5 x 10 edge tile (two vectors and two scalar columns).
    let (em, en) = (5usize, 10usize);
    let a = rng.fill_f32(em * KC);
    let b = rng.fill_f32(KC * en);
    let mut c = vec![0.0f32; em * en];
    cells.push(probe(
        NAMES[8],
        "kernels.edge_kernel_pipelined",
        (2 * em * en * KC) as f64,
        move || {
            // SAFETY: `a` is em x KC at stride KC, `b` is KC x en at stride
            // en, `c` is em x en at stride en, with em <= 7 and en <= 12.
            unsafe {
                edge_kernel_pipelined::<F32x4>(
                    em,
                    en,
                    KC,
                    1.0,
                    a.as_ptr(),
                    KC,
                    b.as_ptr(),
                    en,
                    0.0,
                    c.as_mut_ptr(),
                    en,
                )
            };
        },
    ));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_probe_cell_per_kernels_metric() {
        let cells = cells(1);
        let names: Vec<String> = NAMES.iter().map(|n| format!("kernels.{n}")).collect();
        assert_eq!(
            cells.iter().map(|c| c.name.clone()).collect::<Vec<_>>(),
            names
        );
        assert!(cells
            .iter()
            .all(|c| c.probe == Some("probe.kernels") && c.work_per_call > 0.0));
    }
}

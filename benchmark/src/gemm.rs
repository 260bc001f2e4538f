//! GEMM cells: a shape, its operands, the timed `gemm_with` call and the
//! check of its output against `shalom_matrix::reference`.

use crate::cell::{repeat, CallSink, Cell, Mode, Work};
use crate::rng::Rng;
use shalom_core::{gemm_with, CacheParams, GemmConfig, GemmElem, Op};
use shalom_matrix::{gemm_tolerance, reference, MatMut, MatRef, Matrix};
use std::cell::RefCell;
use std::rc::Rc;

pub const NN: (Op, Op) = (Op::NoTrans, Op::NoTrans);
pub const NT: (Op, Op) = (Op::NoTrans, Op::Trans);
pub const TN: (Op, Op) = (Op::Trans, Op::NoTrans);

pub fn ops_label(ops: (Op, Op)) -> String {
    format!("{}{}", ops.0.letter(), ops.1.letter()).to_lowercase()
}

pub fn mode_of(ops: (Op, Op)) -> Mode {
    if ops == NN {
        Mode::Nn
    } else {
        Mode::Tr
    }
}

/// Element types the benchmark fills and names.
pub trait Elem: GemmElem {
    const LABEL: &'static str;
    fn fill(rng: &mut Rng, n: usize) -> Vec<Self>;
}

impl Elem for f32 {
    const LABEL: &'static str = "f32";
    fn fill(rng: &mut Rng, n: usize) -> Vec<f32> {
        rng.fill_f32(n)
    }
}

impl Elem for f64 {
    const LABEL: &'static str = "f64";
    fn fill(rng: &mut Rng, n: usize) -> Vec<f64> {
        rng.fill_f64(n)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl Shape {
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        Shape { m, n, k }
    }

    pub const fn square(s: usize) -> Self {
        Shape::new(s, s, s)
    }

    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.m, self.n, self.k)
    }

    /// Stored `(rows, cols)` of A and of B under `ops`.
    pub fn stored(&self, ops: (Op, Op)) -> ((usize, usize), (usize, usize)) {
        let a = match ops.0 {
            Op::NoTrans => (self.m, self.k),
            Op::Trans => (self.k, self.m),
        };
        let b = match ops.1 {
            Op::NoTrans => (self.k, self.n),
            Op::Trans => (self.n, self.k),
        };
        (a, b)
    }

    /// The name of this shape's cell: `MxNxK_dtype_ops`.
    pub fn cell_name<T: Elem>(&self, ops: (Op, Op)) -> String {
        format!("{}_{}_{}", self.label(), T::LABEL, ops_label(ops))
    }
}

pub fn random_matrix<T: Elem>(rng: &mut Rng, rows: usize, cols: usize) -> Matrix<T> {
    Matrix::from_vec(rows, cols, T::fill(rng, rows * cols))
}

/// Checks `c == op(a) * op(b)` within `gemm_tolerance`. Small products
/// are checked whole; large ones on six blocks (the four corners, where
/// ragged tiles and thread seams fall, and two seeded interior blocks),
/// which keeps the check far cheaper than the run it follows.
pub fn check_gemm<T: Elem>(
    ops: (Op, Op),
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatRef<'_, T>,
    rng: &mut Rng,
) -> Result<(), String> {
    let (m, n) = (c.rows(), c.cols());
    let k = match ops.0 {
        Op::NoTrans => a.cols(),
        Op::Trans => a.rows(),
    };
    let side = 32usize;
    let blocks: Vec<(usize, usize, usize, usize)> = if m * n * k <= 1 << 22 {
        vec![(0, 0, m, n)]
    } else {
        let (bm, bn) = (side.min(m), side.min(n));
        let mut v = vec![(0, 0), (0, n - bn), (m - bm, 0), (m - bm, n - bn)];
        for _ in 0..2 {
            v.push((rng.below(m - bm + 1), rng.below(n - bn + 1)));
        }
        v.into_iter().map(|(i, j)| (i, j, bm, bn)).collect()
    };
    let tol = gemm_tolerance::<T>(k, 1.0);
    for (i, j, bm, bn) in blocks {
        let a_blk = match ops.0 {
            Op::NoTrans => a.submatrix(i, 0, bm, k),
            Op::Trans => a.submatrix(0, i, k, bm),
        };
        let b_blk = match ops.1 {
            Op::NoTrans => b.submatrix(0, j, k, bn),
            Op::Trans => b.submatrix(j, 0, bn, k),
        };
        let mut want = Matrix::<T>::zeros(bm, bn);
        reference::gemm(ops.0, ops.1, T::ONE, a_blk, b_blk, T::ZERO, want.as_mut());
        for (r, s) in (0..bm).flat_map(|r| (0..bn).map(move |s| (r, s))) {
            let (got, want) = (c.at(i + r, j + s).to_f64(), want.at(r, s).to_f64());
            let off = (got - want).abs();
            if off.is_nan() || off > tol {
                return Err(format!(
                    "C[{},{}] = {got:e}, reference {want:e} (tolerance {tol:e})",
                    i + r,
                    j + s
                ));
            }
        }
    }
    Ok(())
}

/// One `gemm_with` call on fixed operands: every call after the first
/// finds A, B and C where the last one left them.
struct WarmGemm<T: Elem> {
    cfg: GemmConfig,
    ops: (Op, Op),
    a: Rc<Matrix<T>>,
    b: Rc<Matrix<T>>,
    c: Matrix<T>,
    check: Rng,
}

impl<T: Elem> Work for WarmGemm<T> {
    fn run(&mut self, calls: u32, sink: Option<&mut CallSink<'_>>) {
        let (a, b) = (Matrix::as_ref(&self.a), Matrix::as_ref(&self.b));
        repeat(calls, sink, || {
            gemm_with(
                &self.cfg,
                self.ops.0,
                self.ops.1,
                T::ONE,
                a,
                b,
                T::ZERO,
                self.c.as_mut(),
            )
        });
    }

    fn verify(&mut self) -> Result<(), String> {
        check_gemm(
            self.ops,
            Matrix::as_ref(&self.a),
            Matrix::as_ref(&self.b),
            self.c.as_ref(),
            &mut self.check,
        )
    }
}

/// Warm cells of one shape and ops, one per entry of `threads`, sharing
/// A and B (each has its own C).
pub fn warm_cells<T: Elem>(
    seed: u64,
    shape: Shape,
    ops: (Op, Op),
    threads: &[usize],
    name: &str,
) -> Vec<Cell> {
    let mut rng = Rng::new(seed, fnv(name));
    let ((ar, ac), (br, bc)) = shape.stored(ops);
    let a = Rc::new(random_matrix::<T>(&mut rng, ar, ac));
    let b = Rc::new(random_matrix::<T>(&mut rng, br, bc));
    let Shape { m, n, k } = shape;
    let fits_l2 = (m * k + k * n + m * n) * std::mem::size_of::<T>() <= CacheParams::detect().l2;
    threads
        .iter()
        .map(|&t| {
            let work = WarmGemm {
                cfg: GemmConfig::with_threads(t),
                ops,
                a: Rc::clone(&a),
                b: Rc::clone(&b),
                c: Matrix::zeros(shape.m, shape.n),
                check: Rng::new(seed, fnv(name) ^ t as u64),
            };
            let cell = Cell::new(
                name,
                "api.gemm_with",
                mode_of(ops),
                t,
                shape.flops(),
                Box::new(work),
            );
            if fits_l2 {
                cell.rewarmed()
            } else {
                cell
            }
        })
        .collect()
}

/// A warm single-thread cell named after its shape.
pub fn warm_cell<T: Elem>(seed: u64, shape: Shape, ops: (Op, Op)) -> Cell {
    warm_cells::<T>(seed, shape, ops, &[1], &shape.cell_name::<T>(ops))
        .pop()
        .expect("one thread count, one cell")
}

/// FNV-1a of a name: a stable per-cell stream number.
pub fn fnv(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The operand ring of the cold cells of one element type: a read-only
/// arena A and B slots are cut from (two thirds of the ring) and an
/// arena C slots are cut from (one third).
pub struct Ring<T> {
    ab: Vec<T>,
    c: RefCell<Vec<T>>,
}

impl<T: Elem> Ring<T> {
    pub fn new(rng: &mut Rng, bytes: usize) -> Rc<Self> {
        let elems = bytes / std::mem::size_of::<T>();
        Rc::new(Ring {
            ab: T::fill(rng, elems / 3 * 2),
            // Written before it is read; filled (not calloc'ed) so no
            // page is first touched inside a timed call.
            c: RefCell::new(T::fill(rng, elems / 3)),
        })
    }
}

/// One `gemm_with` call whose A, B and C are the next slot of the ring,
/// in a seeded shuffled order: by the time a slot comes round again the
/// whole ring has passed through the caches.
struct ColdGemm<T: Elem> {
    cfg: GemmConfig,
    ops: (Op, Op),
    shape: Shape,
    ring: Rc<Ring<T>>,
    order: Vec<u32>,
    cursor: usize,
    check: Rng,
}

impl<T: Elem> ColdGemm<T> {
    fn call(&self, slot: usize, c_arena: &mut [T]) {
        let Shape { m, n, k } = self.shape;
        let ((ar, ac), (br, bc)) = self.shape.stored(self.ops);
        let ab = &self.ring.ab[slot * (m * k + k * n)..][..m * k + k * n];
        gemm_with(
            &self.cfg,
            self.ops.0,
            self.ops.1,
            T::ONE,
            MatRef::from_slice(&ab[..m * k], ar, ac, ac),
            MatRef::from_slice(&ab[m * k..], br, bc, bc),
            T::ZERO,
            MatMut::from_slice(&mut c_arena[slot * m * n..][..m * n], m, n, n),
        );
    }
}

impl<T: Elem> Work for ColdGemm<T> {
    fn run(&mut self, calls: u32, sink: Option<&mut CallSink<'_>>) {
        let ring = Rc::clone(&self.ring);
        let mut c_arena = ring.c.borrow_mut();
        let mut cursor = self.cursor;
        repeat(calls, sink, || {
            self.call(self.order[cursor] as usize, &mut c_arena);
            cursor += 1;
            if cursor == self.order.len() {
                cursor = 0;
            }
        });
        self.cursor = cursor;
    }

    /// The C arena is shared, so earlier outputs may be overwritten by
    /// now: repeat one call on a seeded slot and check that.
    fn verify(&mut self) -> Result<(), String> {
        let Shape { m, n, k } = self.shape;
        let ((ar, ac), (br, bc)) = self.shape.stored(self.ops);
        let slot = self.order[self.check.below(self.order.len())] as usize;
        self.call(slot, &mut self.ring.c.borrow_mut());
        let ab = &self.ring.ab[slot * (m * k + k * n)..][..m * k + k * n];
        let c_arena = self.ring.c.borrow();
        check_gemm(
            self.ops,
            MatRef::from_slice(&ab[..m * k], ar, ac, ac),
            MatRef::from_slice(&ab[m * k..], br, bc, bc),
            MatRef::from_slice(&c_arena[slot * m * n..][..m * n], m, n, n),
            &mut self.check,
        )
    }
}

pub fn cold_cell<T: Elem>(seed: u64, ring: &Rc<Ring<T>>, shape: Shape, ops: (Op, Op)) -> Cell {
    let name = shape.cell_name::<T>(ops);
    let Shape { m, n, k } = shape;
    let slots = (ring.ab.len() / (m * k + k * n)).min(ring.c.borrow().len() / (m * n));
    let mut rng = Rng::new(seed, fnv(&name));
    let work = ColdGemm {
        cfg: GemmConfig::with_threads(1),
        ops,
        shape,
        ring: Rc::clone(ring),
        order: rng.permutation(slots),
        cursor: 0,
        check: Rng::new(seed, fnv(&name) ^ 1),
    };
    Cell::new(
        name,
        "api.gemm_with",
        mode_of(ops),
        1,
        shape.flops(),
        Box::new(work),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_stored_shapes() {
        let s = Shape::new(32, 1024, 256);
        assert_eq!(s.cell_name::<f32>(NT), "32x1024x256_f32_nt");
        assert_eq!(Shape::square(5).cell_name::<f64>(NN), "5x5x5_f64_nn");
        assert_eq!(s.stored(NN), ((32, 256), (256, 1024)));
        assert_eq!(s.stored(NT), ((32, 256), (1024, 256)));
        assert_eq!(s.stored(TN), ((256, 32), (256, 1024)));
        assert_eq!(s.flops(), 2.0 * 32.0 * 1024.0 * 256.0);
        assert_eq!(
            (mode_of(NN), mode_of(NT), mode_of(TN)),
            (Mode::Nn, Mode::Tr, Mode::Tr)
        );
    }

    #[test]
    fn warm_and_cold_cells_verify_and_a_wrong_output_is_caught() {
        for ops in [NN, NT, TN] {
            warm_cell::<f32>(1, Shape::new(33, 70, 129), ops)
                .verify()
                .unwrap();
            warm_cell::<f64>(1, Shape::square(23), ops)
                .verify()
                .unwrap();
        }
        // Large enough for the six-block path.
        warm_cell::<f32>(2, Shape::new(200, 300, 100), NT)
            .verify()
            .unwrap();
        let ring = Ring::<f32>::new(&mut Rng::new(1, 0), 1 << 20);
        let mut cold = cold_cell(1, &ring, Shape::square(24), NT);
        cold.verify().unwrap();
        assert!(cold.calls >= 1);

        let mut rng = Rng::new(3, 0);
        let a = random_matrix::<f32>(&mut rng, 200, 100);
        let b = random_matrix::<f32>(&mut rng, 100, 300);
        let mut c = Matrix::<f32>::zeros(200, 300);
        gemm_with(
            &GemmConfig::default(),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        check_gemm(NN, a.as_ref(), b.as_ref(), c.as_ref(), &mut rng).unwrap();
        c.set(199, 299, 7.0); // a corner block
        assert!(check_gemm(NN, a.as_ref(), b.as_ref(), c.as_ref(), &mut rng).is_err());
        c.set(199, 299, f32::NAN);
        assert!(check_gemm(NN, a.as_ref(), b.as_ref(), c.as_ref(), &mut rng).is_err());
    }
}

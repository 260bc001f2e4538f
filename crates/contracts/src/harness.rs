//! The shadow-memory conformance harness: runs every audited kernel over
//! guard-zoned, poison-filled operands (see [`crate::shadow`]) across the
//! full edge lattice and parameter grid, and checks
//!
//! 1. no byte changed outside the declared write spans (guards, strides'
//!    gap columns, read-only operands),
//! 2. every declared-complete write span was fully stored (no surviving
//!    poison),
//! 3. the numerical result matches the f64-accumulating reference within
//!    a forward-error tolerance — which also catches out-of-footprint
//!    *reads*, because every undeclared element is NaN-poisoned and one
//!    stray load contaminates the checked output,
//! 4. packed outputs equal their sources bit-for-bit.
//!
//! Two configurations exist: [`HarnessConfig::cheap`] rides along in
//! `cargo test -q` (tier-1), [`HarnessConfig::full`] is the CI `audit`
//! binary's exhaustive sweep.

use crate::contract::KernelParams;
use crate::registry::{find, KernelId};
use crate::shadow::{ContractElem, ShadowOperand};
use shalom_kernels::family::{NtPackFn, PackTransposeFn};
use shalom_kernels::nt_pack::{nt_pack_kernel, NT_BCOLS, NT_ROWS};
use shalom_kernels::pack::{pack_a_slivers_goto, pack_b_slivers_goto, pack_copy, pack_transpose};
use shalom_kernels::{
    registered_families, FamilyElem, FamilyKernels, Vector, NR_F32, NR_F64, NR_VECS,
};
use shalom_matrix::{gemm_tolerance, reference, Matrix, Op, Scalar};
use shalom_simd::{F32x4, F64x2};

/// Parameter grid for one conformance run.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// `kc` depths to exercise (always include the degenerate `0` and the
    /// scalar-tail-only `1`).
    pub ks: Vec<usize>,
    /// Stride paddings: each operand's leading dimension is its minimal
    /// width plus this (gap columns are poisoned).
    pub pads: Vec<usize>,
    /// `(alpha, beta)` pairs for the GEMM-like kernels.
    pub alpha_betas: Vec<(f64, f64)>,
}

impl HarnessConfig {
    /// The tier-1 configuration: full edge lattice, small depth set —
    /// cheap enough to run inside `cargo test -q` on every change.
    pub fn cheap() -> Self {
        Self {
            ks: vec![0, 1, 5],
            pads: vec![0, 3],
            alpha_betas: vec![(1.0, 1.0), (2.0, 0.0)],
        }
    }

    /// The CI configuration: every k-tail residue of both vector widths,
    /// more strides, the full alpha/beta matrix.
    pub fn full() -> Self {
        Self {
            ks: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33],
            pads: vec![0, 1, 5],
            alpha_betas: vec![
                (1.0, 1.0),
                (1.0, 0.0),
                (0.0, 2.0),
                (-0.5, 1.5),
                (2.0, 0.0),
                (0.0, 0.0),
            ],
        }
    }
}

/// Outcome of a conformance run.
#[derive(Debug, Default)]
pub struct Report {
    /// Kernel invocations checked.
    pub cases: usize,
    /// Human-readable contract violations (empty = conformant).
    pub violations: Vec<String>,
    seed: u64,
}

impl Report {
    /// True when no violation was recorded.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.seed
    }
}

fn matrix_from<T: ContractElem>(
    op: &ShadowOperand<T>,
    rows: usize,
    cols: usize,
    ld: usize,
) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |i, j| op.elem(i * ld + j))
}

fn compare_tile<T: ContractElem>(
    ctx: &str,
    got: &Matrix<T>,
    want: &Matrix<T>,
    tol: f64,
    out: &mut Vec<String>,
) {
    let mut reported = 0usize;
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let g = got.at(i, j).to_f64();
            let w = want.at(i, j).to_f64();
            let bad = !g.is_finite() || (g - w).abs() > tol;
            if bad {
                if reported < 4 {
                    let note = if g.is_finite() {
                        ""
                    } else {
                        " — non-finite: an out-of-footprint read poisoned the result"
                    };
                    out.push(format!(
                        "{ctx}: C[{i},{j}] = {g}, want {w} (tol {tol}){note}"
                    ));
                }
                reported += 1;
            }
        }
    }
    if reported > 4 {
        out.push(format!("{ctx}: …{} further C mismatches", reported - 4));
    }
}

fn expect_bits<T: ContractElem>(ctx: &str, what: String, got: T, want: T, out: &mut Vec<String>) {
    if got.to_bits64() != want.to_bits64() {
        out.push(format!(
            "{ctx}: {what}: packed {} != source {}",
            got.to_f64(),
            want.to_f64()
        ));
    }
}

/// Checks a kernel set's full-tile body through its dispatched entry
/// points at one parameter point: the `kernel` slot, or with `pack` the
/// `kernel_pack` slot. B is read at a padded stride (`pad = 0` is the
/// packed-panel layout); `kernel_pack` must store exactly the rows read
/// to `bc`.
fn check_main<T: ContractElem + FamilyElem>(
    label: &str,
    ks: &FamilyKernels<T>,
    kc: usize,
    pad: usize,
    pack: bool,
    (alpha, beta): (f64, f64),
    rep: &mut Report,
) {
    let (m, n) = (ks.mr, ks.nr);
    let p = KernelParams {
        m,
        n,
        kc,
        lanes: ks.lanes,
        lda: kc + pad,
        ldb: n + pad,
        ldc: n + pad,
        pack,
        ..Default::default()
    };
    let contract = find(KernelId::MainKernel);
    let slot = if pack { "kernel_pack" } else { "kernel" };
    let ctx = format!("{label} {slot} {m}x{n} kc={kc} pad={pad} alpha={alpha} beta={beta}");
    let seed = rep.next_seed();
    let a = ShadowOperand::<T>::new(&contract.operand(&p, "a"), seed);
    let b = ShadowOperand::<T>::new(&contract.operand(&p, "b"), seed ^ 0xB);
    let mut c = ShadowOperand::<T>::new(&contract.operand(&p, "c"), seed ^ 0xC);
    let mut bc = pack.then(|| ShadowOperand::<T>::new(&contract.operand(&p, "bc"), seed ^ 0xD));
    let c_init = matrix_from(&c, m, n, p.ldc);
    let (al, be) = (T::from_f64(alpha), T::from_f64(beta));
    let (ap, bp, cp) = (a.const_ptr(), b.const_ptr(), c.ptr());
    // SAFETY: operands are sized from the SHALOM-K-MAIN contract footprint
    // (that sizing being sufficient is exactly what this harness checks);
    // `ks` came from the registry, so its ISA probe passed.
    unsafe {
        match bc.as_mut() {
            None => (ks.kernel)(kc, al, ap, p.lda, bp, p.ldb, be, cp, p.ldc),
            Some(bc) => (ks.kernel_pack)(kc, al, ap, p.lda, bp, p.ldb, be, cp, p.ldc, bc.ptr()),
        }
    }
    a.check(&ctx, &mut rep.violations);
    b.check(&ctx, &mut rep.violations);
    c.check(&ctx, &mut rep.violations);
    if let Some(bc) = &bc {
        for k in 0..kc {
            for j in 0..n {
                let (got, want) = (bc.elem(k * n + j), b.elem(k * p.ldb + j));
                expect_bits(&ctx, format!("bc[{k},{j}]"), got, want, &mut rep.violations);
            }
        }
        bc.check(&ctx, &mut rep.violations);
    }
    let am = matrix_from(&a, m, kc, p.lda);
    let bm = matrix_from(&b, kc, n, p.ldb);
    let mut want = c_init;
    reference::gemm(
        Op::NoTrans,
        Op::NoTrans,
        al,
        am.as_ref(),
        bm.as_ref(),
        be,
        want.as_mut(),
    );
    let got = matrix_from(&c, m, n, p.ldc);
    compare_tile(
        &ctx,
        &got,
        &want,
        gemm_tolerance::<T>(kc, 4.0),
        &mut rep.violations,
    );
    rep.cases += 1;
}

fn check_edge<T: ContractElem + FamilyElem>(
    label: &str,
    ks: &FamilyKernels<T>,
    pipelined: bool,
    m: usize,
    n: usize,
    kc: usize,
    pad: usize,
    (alpha, beta): (f64, f64),
    rep: &mut Report,
) {
    let p = KernelParams {
        m,
        n,
        kc,
        lanes: ks.lanes,
        lda: kc + pad,
        ldb: n + pad,
        ldc: n + pad,
        ..Default::default()
    };
    let (id, f) = if pipelined {
        (KernelId::EdgePipelined, ks.edge_pipelined)
    } else {
        (KernelId::EdgeBatched, ks.edge_batched)
    };
    let contract = find(id);
    let ctx = format!(
        "{label} edge {} m={m} n={n} kc={kc} pad={pad}",
        if pipelined { "pipelined" } else { "batched" },
    );
    let seed = rep.next_seed();
    let a = ShadowOperand::<T>::new(&contract.operand(&p, "a"), seed);
    let b = ShadowOperand::<T>::new(&contract.operand(&p, "b"), seed ^ 0xB);
    let mut c = ShadowOperand::<T>::new(&contract.operand(&p, "c"), seed ^ 0xC);
    let c_init = matrix_from(&c, m, n, p.ldc);
    let (al, be) = (T::from_f64(alpha), T::from_f64(beta));
    // SAFETY: operands are sized from the SHALOM-K-EDGE contract
    // footprint, which this harness verifies; `ks` is registry-probed.
    unsafe {
        f(
            m,
            n,
            kc,
            al,
            a.const_ptr(),
            p.lda,
            b.const_ptr(),
            p.ldb,
            be,
            c.ptr(),
            p.ldc,
        );
    }
    a.check(&ctx, &mut rep.violations);
    b.check(&ctx, &mut rep.violations);
    c.check(&ctx, &mut rep.violations);
    let am = matrix_from(&a, m, kc, p.lda);
    let bm = matrix_from(&b, kc, n, p.ldb);
    let mut want = c_init;
    reference::gemm(
        Op::NoTrans,
        Op::NoTrans,
        al,
        am.as_ref(),
        bm.as_ref(),
        be,
        want.as_mut(),
    );
    let got = matrix_from(&c, m, n, p.ldc);
    compare_tile(
        &ctx,
        &got,
        &want,
        gemm_tolerance::<T>(kc, 4.0),
        &mut rep.violations,
    );
    rep.cases += 1;
}

fn check_nt_kernel<V: Vector>(
    m: usize,
    bcols: usize,
    jcol: usize,
    kc: usize,
    pad: usize,
    (alpha, beta): (f64, f64),
    rep: &mut Report,
) where
    V::Elem: ContractElem,
{
    let nr = NR_VECS * V::LANES;
    debug_assert!(jcol + bcols <= nr);
    let p = KernelParams {
        m,
        n: bcols,
        kc,
        lanes: V::LANES,
        lda: kc + pad,
        ldb: kc + pad,
        ldc: jcol + bcols + pad,
        nr,
        jcol,
        ..Default::default()
    };
    let contract = find(KernelId::NtPackKernel);
    let ctx = format!(
        "nt-kernel lanes={} m={m} bcols={bcols} jcol={jcol} kc={kc} pad={pad}",
        V::LANES
    );
    let seed = rep.next_seed();
    let a = ShadowOperand::<V::Elem>::new(&contract.operand(&p, "a"), seed);
    let b = ShadowOperand::<V::Elem>::new(&contract.operand(&p, "b"), seed ^ 0xB);
    let mut c = ShadowOperand::<V::Elem>::new(&contract.operand(&p, "c"), seed ^ 0xC);
    let mut bc = ShadowOperand::<V::Elem>::new(&contract.operand(&p, "bc"), seed ^ 0xD);
    let c_init = Matrix::from_fn(m, bcols, |i, r| c.elem(i * p.ldc + jcol + r));
    let (al, be) = (V::Elem::from_f64(alpha), V::Elem::from_f64(beta));
    // SAFETY: operands are sized from the SHALOM-K-NT contract footprint,
    // which this harness verifies.
    unsafe {
        nt_pack_kernel::<V>(
            m,
            bcols,
            kc,
            nr,
            jcol,
            al,
            a.const_ptr(),
            p.lda,
            b.const_ptr(),
            p.ldb,
            be,
            c.ptr(),
            p.ldc,
            bc.ptr(),
        );
    }
    a.check(&ctx, &mut rep.violations);
    b.check(&ctx, &mut rep.violations);
    c.check(&ctx, &mut rep.violations);
    bc.check(&ctx, &mut rep.violations);
    for k in 0..kc {
        for r in 0..bcols {
            expect_bits(
                &ctx,
                format!("bc[{k},{}]", jcol + r),
                bc.elem(k * nr + jcol + r),
                b.elem(r * p.ldb + k),
                &mut rep.violations,
            );
        }
    }
    let am = matrix_from(&a, m, kc, p.lda);
    let bm = matrix_from(&b, bcols, kc, p.ldb);
    let mut want = c_init;
    reference::gemm(
        Op::NoTrans,
        Op::Trans,
        al,
        am.as_ref(),
        bm.as_ref(),
        be,
        want.as_mut(),
    );
    let got = Matrix::from_fn(m, bcols, |i, r| c.elem(i * p.ldc + jcol + r));
    compare_tile(
        &ctx,
        &got,
        &want,
        gemm_tolerance::<V::Elem>(kc, 4.0),
        &mut rep.violations,
    );
    rep.cases += 1;
}

fn check_nt_panel<T: ContractElem + FamilyElem>(
    label: &str,
    ks: &FamilyKernels<T>,
    nt_pack: NtPackFn<T>,
    m: usize,
    npanel: usize,
    kc: usize,
    pad: usize,
    (alpha, beta): (f64, f64),
    rep: &mut Report,
) {
    let nr = ks.nr;
    let p = KernelParams {
        m,
        n: npanel,
        kc,
        lanes: ks.lanes,
        lda: kc + pad,
        ldb: kc + pad,
        ldc: npanel + pad,
        nr,
        ..Default::default()
    };
    let contract = find(KernelId::NtPackPanel);
    let ctx = format!("{label} nt-panel m={m} npanel={npanel} kc={kc} pad={pad}");
    let seed = rep.next_seed();
    let a = ShadowOperand::<T>::new(&contract.operand(&p, "a"), seed);
    let b = ShadowOperand::<T>::new(&contract.operand(&p, "b"), seed ^ 0xB);
    let mut c = ShadowOperand::<T>::new(&contract.operand(&p, "c"), seed ^ 0xC);
    let mut bc = ShadowOperand::<T>::new(&contract.operand(&p, "bc"), seed ^ 0xD);
    let c_init = matrix_from(&c, m, npanel, p.ldc);
    let (al, be) = (T::from_f64(alpha), T::from_f64(beta));
    // SAFETY: operands are sized from the SHALOM-K-NT-PANEL contract
    // footprint, which this harness verifies; `ks` is registry-probed.
    unsafe {
        nt_pack(
            m,
            npanel,
            kc,
            nr,
            al,
            a.const_ptr(),
            p.lda,
            b.const_ptr(),
            p.ldb,
            be,
            c.ptr(),
            p.ldc,
            bc.ptr(),
        );
    }
    a.check(&ctx, &mut rep.violations);
    b.check(&ctx, &mut rep.violations);
    c.check(&ctx, &mut rep.violations);
    bc.check(&ctx, &mut rep.violations);
    for k in 0..kc {
        for j in 0..nr {
            let want = if j < npanel {
                b.elem(j * p.ldb + k)
            } else {
                T::ZERO
            };
            expect_bits(
                &ctx,
                format!("bc[{k},{j}]"),
                bc.elem(k * nr + j),
                want,
                &mut rep.violations,
            );
        }
    }
    let am = matrix_from(&a, m, kc, p.lda);
    let bm = matrix_from(&b, npanel, kc, p.ldb);
    let mut want = c_init;
    reference::gemm(
        Op::NoTrans,
        Op::Trans,
        al,
        am.as_ref(),
        bm.as_ref(),
        be,
        want.as_mut(),
    );
    let got = matrix_from(&c, m, npanel, p.ldc);
    compare_tile(
        &ctx,
        &got,
        &want,
        gemm_tolerance::<T>(kc, 4.0),
        &mut rep.violations,
    );
    rep.cases += 1;
}

fn check_pack_copy<T: ContractElem>(rows: usize, cols: usize, pad: usize, rep: &mut Report) {
    let p = KernelParams {
        m: rows,
        n: cols,
        lda: cols + pad,
        ldb: cols + pad + 1,
        ..Default::default()
    };
    let contract = find(KernelId::PackCopy);
    let ctx = format!("pack-copy rows={rows} cols={cols} pad={pad}");
    let seed = rep.next_seed();
    let src = ShadowOperand::<T>::new(&contract.operand(&p, "src"), seed);
    let mut dst = ShadowOperand::<T>::new(&contract.operand(&p, "dst"), seed ^ 0xD);
    // SAFETY: operands are sized from the SHALOM-K-PACK-COPY contract
    // footprint, which this harness verifies.
    unsafe { pack_copy(src.const_ptr(), p.lda, rows, cols, dst.ptr(), p.ldb) };
    src.check(&ctx, &mut rep.violations);
    dst.check(&ctx, &mut rep.violations);
    for r in 0..rows {
        for c in 0..cols {
            expect_bits(
                &ctx,
                format!("dst[{r},{c}]"),
                dst.elem(r * p.ldb + c),
                src.elem(r * p.lda + c),
                &mut rep.violations,
            );
        }
    }
    rep.cases += 1;
}

/// One transposing-pack entry (`pack`, a kernel set's slot or the public
/// 128-bit one) on a `rows x cols` block with `zpad` zero-padded columns.
fn check_pack_transpose<T: ContractElem>(
    label: &str,
    pack: PackTransposeFn<T>,
    rows: usize,
    cols: usize,
    pad: usize,
    zpad: usize,
    rep: &mut Report,
) {
    let p = KernelParams {
        m: rows,
        n: cols,
        lda: cols + pad,
        ldb: rows + zpad + pad + 1,
        zpad,
        ..Default::default()
    };
    let contract = find(KernelId::PackTranspose);
    let ctx = format!("{label} pack-transpose rows={rows} cols={cols} pad={pad} zpad={zpad}");
    let seed = rep.next_seed();
    let src = ShadowOperand::<T>::new(&contract.operand(&p, "src"), seed);
    let mut dst = ShadowOperand::<T>::new(&contract.operand(&p, "dst"), seed ^ 0xD);
    // SAFETY: operands are sized from the SHALOM-K-PACK-TRANS contract
    // footprint, which this harness verifies; a set's entry comes from the
    // probed registry.
    unsafe { pack(src.const_ptr(), p.lda, rows, cols, dst.ptr(), p.ldb, zpad) };
    src.check(&ctx, &mut rep.violations);
    dst.check(&ctx, &mut rep.violations);
    for c in 0..cols {
        for r in 0..rows + zpad {
            let want = if r < rows {
                src.elem(r * p.lda + c)
            } else {
                T::ZERO
            };
            expect_bits(
                &ctx,
                format!("dst[{c},{r}]"),
                dst.elem(c * p.ldb + r),
                want,
                &mut rep.violations,
            );
        }
    }
    rep.cases += 1;
}

/// [`pack_transpose`] in the slot's shape: it pads nothing.
///
/// # Safety
/// As [`pack_transpose`]; `zpad == 0`.
unsafe fn public_pack_transpose<T: FamilyElem>(
    src: *const T,
    ld_src: usize,
    rows: usize,
    cols: usize,
    dst: *mut T,
    ld_dst: usize,
    zpad: usize,
) {
    debug_assert_eq!(zpad, 0);
    // SAFETY: SHALOM-K-PACK-TRANS, forwarded from the caller.
    unsafe { pack_transpose(src, ld_src, rows, cols, dst, ld_dst) }
}

fn check_pack_a_goto<T: ContractElem>(
    mc: usize,
    kc: usize,
    mr: usize,
    pad: usize,
    rep: &mut Report,
) {
    let p = KernelParams {
        m: mc,
        kc,
        lda: kc + pad,
        mr_sliver: mr,
        ..Default::default()
    };
    let contract = find(KernelId::PackASliversGoto);
    let ctx = format!("pack-a-goto mc={mc} kc={kc} mr={mr} pad={pad}");
    let seed = rep.next_seed();
    let a = ShadowOperand::<T>::new(&contract.operand(&p, "a"), seed);
    let mut dst = ShadowOperand::<T>::new(&contract.operand(&p, "dst"), seed ^ 0xD);
    // SAFETY: operands are sized from the SHALOM-K-PACK-A contract
    // footprint, which this harness verifies.
    let slivers = unsafe { pack_a_slivers_goto(a.const_ptr(), p.lda, mc, kc, mr, dst.ptr()) };
    a.check(&ctx, &mut rep.violations);
    dst.check(&ctx, &mut rep.violations);
    if slivers != mc.div_ceil(mr) {
        rep.violations.push(format!(
            "{ctx}: returned {slivers} slivers, want {}",
            mc.div_ceil(mr)
        ));
    }
    for s in 0..mc.div_ceil(mr) {
        for k in 0..kc {
            for i in 0..mr {
                let row = s * mr + i;
                let want = if row < mc {
                    a.elem(row * p.lda + k)
                } else {
                    T::ZERO
                };
                expect_bits(
                    &ctx,
                    format!("dst sliver {s} (k={k}, i={i})"),
                    dst.elem(s * mr * kc + k * mr + i),
                    want,
                    &mut rep.violations,
                );
            }
        }
    }
    rep.cases += 1;
}

fn check_pack_b_goto<T: ContractElem>(
    kc: usize,
    nc: usize,
    nr: usize,
    pad: usize,
    rep: &mut Report,
) {
    let p = KernelParams {
        n: nc,
        kc,
        ldb: nc + pad,
        nr,
        ..Default::default()
    };
    let contract = find(KernelId::PackBSliversGoto);
    let ctx = format!("pack-b-goto kc={kc} nc={nc} nr={nr} pad={pad}");
    let seed = rep.next_seed();
    let b = ShadowOperand::<T>::new(&contract.operand(&p, "b"), seed);
    let mut dst = ShadowOperand::<T>::new(&contract.operand(&p, "dst"), seed ^ 0xD);
    // SAFETY: operands are sized from the SHALOM-K-PACK-B contract
    // footprint, which this harness verifies.
    let slivers = unsafe { pack_b_slivers_goto(b.const_ptr(), p.ldb, kc, nc, nr, dst.ptr()) };
    b.check(&ctx, &mut rep.violations);
    dst.check(&ctx, &mut rep.violations);
    if slivers != nc.div_ceil(nr) {
        rep.violations.push(format!(
            "{ctx}: returned {slivers} slivers, want {}",
            nc.div_ceil(nr)
        ));
    }
    for s in 0..nc.div_ceil(nr) {
        for k in 0..kc {
            for j in 0..nr {
                let col = s * nr + j;
                let want = if col < nc {
                    b.elem(k * p.ldb + col)
                } else {
                    T::ZERO
                };
                expect_bits(
                    &ctx,
                    format!("dst sliver {s} (k={k}, j={j})"),
                    dst.elem(s * kc * nr + k * nr + j),
                    want,
                    &mut rep.violations,
                );
            }
        }
    }
    rep.cases += 1;
}

/// The per-set part of the sweep: every entry point of one kernel set at
/// its own tile — `kernel`, `kernel_pack`, the full edge
/// lattice `m ∈ 1..=mr × n ∈ 1..=nr` under both schedules, the NT pack
/// panel over `m ∈ 1..=7 × npanel ∈ 1..=nr` where the set has one, and
/// the transposing pack around the set's `lanes x lanes` tile, plain and
/// zero-padded to `nr` as the NT arm calls it.
fn sweep_set<T: ContractElem + FamilyElem>(
    label: &str,
    ks: &FamilyKernels<T>,
    cfg: &HarnessConfig,
    rep: &mut Report,
) {
    for &kc in &cfg.ks {
        for &pad in &cfg.pads {
            for &ab in &cfg.alpha_betas {
                for pack in [false, true] {
                    check_main(label, ks, kc, pad, pack, ab, rep);
                }
            }
            for m in 1..=ks.mr {
                for n in 1..=ks.nr {
                    for pipelined in [true, false] {
                        check_edge(label, ks, pipelined, m, n, kc, pad, (1.5, -0.5), rep);
                    }
                }
            }
            if let Some(nt_pack) = ks.nt_pack {
                for m in 1..=NT_ROWS {
                    for npanel in 1..=ks.nr {
                        check_nt_panel(label, ks, nt_pack, m, npanel, kc, pad, (1.0, 1.0), rep);
                    }
                }
            }
        }
    }
    let l = ks.lanes;
    let dims = [0, 1, l - 1, l, l + 1, 2 * l + 3];
    for &pad in &cfg.pads {
        for rows in dims {
            for cols in dims {
                check_pack_transpose(label, ks.pack_transpose, rows, cols, pad, 0, rep);
            }
        }
        // The NT panel: `npanel <= nr` stored rows of `kc`, padded to nr.
        for npanel in 0..=ks.nr {
            for &kc in &cfg.ks {
                let zpad = ks.nr - npanel;
                check_pack_transpose(label, ks.pack_transpose, npanel, kc, pad, zpad, rep);
            }
        }
    }
}

/// Runs the whole conformance suite under `cfg` and returns the report.
///
/// Covers every registered kernel set — the 128-bit tiles always, the
/// AVX2 and AVX-512 sets on hosts that pass their probe — through the
/// same dispatched entry points the driver calls (`sweep_set`), plus
/// the NT scatter kernel over every `(m, bcols, jcol)` corner and all four
/// plain packers including empty blocks.
pub fn run_conformance(cfg: &HarnessConfig) -> Report {
    let mut rep = Report {
        seed: 0x5EED_CAFE_F00D_u64,
        ..Default::default()
    };
    for fam in registered_families() {
        let isa = fam.isa.label();
        sweep_set(&format!("{isa} f32"), &fam.k_f32, cfg, &mut rep);
        sweep_set(&format!("{isa} f64"), &fam.k_f64, cfg, &mut rep);
    }
    // NT scatter kernel (not a table entry: the panel driver above is).
    let nt_ab = (1.0, 1.0);
    for &kc in &cfg.ks {
        for &pad in &cfg.pads {
            for m in 1..=NT_ROWS {
                for bcols in 1..=NT_BCOLS {
                    for jcol in [0, NR_F32 - bcols] {
                        check_nt_kernel::<F32x4>(m, bcols, jcol, kc, pad, nt_ab, &mut rep);
                    }
                    for jcol in [0, NR_F64 - bcols] {
                        check_nt_kernel::<F64x2>(m, bcols, jcol, kc, pad, nt_ab, &mut rep);
                    }
                }
            }
        }
    }
    // Plain packers, including degenerate blocks.
    for &(rows, cols) in &[(0usize, 0usize), (1, 1), (4, 6), (7, 3), (10, 12)] {
        for &pad in &cfg.pads {
            check_pack_copy::<f32>(rows, cols, pad, &mut rep);
            check_pack_copy::<f64>(rows, cols, pad, &mut rep);
            check_pack_transpose::<f32>(
                "public",
                public_pack_transpose,
                rows,
                cols,
                pad,
                0,
                &mut rep,
            );
            check_pack_transpose::<f64>(
                "public",
                public_pack_transpose,
                rows,
                cols,
                pad,
                0,
                &mut rep,
            );
        }
    }
    for &kc in &cfg.ks {
        for &pad in &cfg.pads {
            for &(blk, sliver) in &[(1usize, 4usize), (7, 4), (10, 8), (12, 3)] {
                check_pack_a_goto::<f32>(blk, kc, sliver, pad, &mut rep);
                check_pack_a_goto::<f64>(blk, kc, sliver, pad, &mut rep);
                check_pack_b_goto::<f32>(kc, blk, sliver, pad, &mut rep);
                check_pack_b_goto::<f64>(kc, blk, sliver, pad, &mut rep);
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_configuration_is_substantial() {
        let cfg = HarnessConfig::cheap();
        assert!(cfg.ks.contains(&0) && cfg.ks.contains(&1));
        let full = HarnessConfig::full();
        assert!(full.ks.len() > cfg.ks.len());
    }

    #[test]
    fn single_point_checks_pass() {
        let mut rep = Report::default();
        let base = registered_families().next().expect("the 128-bit family");
        check_main("f32", &base.k_f32, 7, 2, false, (1.0, 1.0), &mut rep);
        check_main("f64", &base.k_f64, 5, 1, true, (2.0, 0.5), &mut rep);
        check_main("f32", &base.k_f32, 4, 0, true, (1.0, 1.0), &mut rep);
        check_edge("f64", &base.k_f64, true, 3, 5, 6, 2, (1.5, -0.5), &mut rep);
        check_nt_kernel::<F32x4>(5, 2, 9, 4, 1, (1.0, 1.0), &mut rep);
        let nt_pack = base.k_f64.nt_pack.expect("the 128-bit set has the panel");
        check_nt_panel(
            "f64",
            &base.k_f64,
            nt_pack,
            6,
            4,
            3,
            0,
            (1.0, 1.0),
            &mut rep,
        );
        check_pack_copy::<f32>(3, 4, 1, &mut rep);
        check_pack_transpose("f64", base.k_f64.pack_transpose, 4, 3, 0, 2, &mut rep);
        check_pack_a_goto::<f32>(9, 4, 4, 1, &mut rep);
        check_pack_b_goto::<f64>(4, 9, 4, 0, &mut rep);
        assert_eq!(rep.cases, 10);
        assert!(rep.ok(), "{:#?}", rep.violations);
    }
}

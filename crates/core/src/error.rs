//! Fallible API variants: the panicking entry points suit HPC inner
//! loops (dimension bugs are programmer errors), but embedding
//! applications often prefer `Result`s. [`try_gemm_with`] validates and
//! reports instead of panicking.

use crate::api::{gemm_with, GemmElem};
use crate::config::GemmConfig;
use shalom_matrix::{MatMut, MatRef, Op};

/// Why a GEMM call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GemmError {
    /// A stored operand's shape does not match `(M, N, K)` under its op.
    /// Fields: operand name, stored `(rows, cols)`, required `(rows, cols)`.
    DimensionMismatch {
        /// `"A"` or `"B"`.
        operand: &'static str,
        /// Shape as stored.
        got: (usize, usize),
        /// Shape required by `C` and the ops.
        need: (usize, usize),
    },
    /// An operand view's leading dimension is smaller than its column
    /// count (rows would overlap; `ld == 0` is the degenerate case).
    /// Views with at most one row are exempt — their `ld` is never used.
    StrideTooSmall {
        /// `"A"`, `"B"` or `"C"`.
        operand: &'static str,
        /// The offending leading dimension.
        ld: usize,
        /// The view's column count.
        cols: usize,
    },
    /// The output view's memory range overlaps an input operand's. The
    /// kernels stream C while reading A/B, so aliasing produces garbage
    /// (the panicking API documents this as a safety precondition; the
    /// fallible API checks).
    OverlappingViews {
        /// The input operand C overlaps: `"A"` or `"B"`.
        operand: &'static str,
    },
    /// An operand view's footprint — `(rows - 1) * ld + cols` elements from
    /// its pointer — is more than an allocation can hold or runs past the
    /// end of the address space: no such view can be backed by memory, and
    /// the wrapped arithmetic would let an aliased `C` pass the overlap
    /// check. Views without elements are exempt.
    FootprintOverflow {
        /// `"A"`, `"B"` or `"C"`.
        operand: &'static str,
    },
    /// `cfg.threads == 0`. The panicking API treats 0 as "use all
    /// available cores"; the fallible API rejects it so configuration
    /// arithmetic that underflows to 0 cannot silently fan out to every
    /// core. Callers wanting auto-detection pass
    /// `GemmConfig::resolved_threads()` explicitly.
    ZeroThreads,
}

impl core::fmt::Display for GemmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GemmError::DimensionMismatch { operand, got, need } => write!(
                f,
                "operand {operand} stored {}x{} but {}x{} required",
                got.0, got.1, need.0, need.1
            ),
            GemmError::StrideTooSmall { operand, ld, cols } => {
                write!(f, "operand {operand} leading dimension {ld} < cols {cols}")
            }
            GemmError::OverlappingViews { operand } => {
                write!(f, "output C overlaps operand {operand}")
            }
            GemmError::FootprintOverflow { operand } => {
                write!(f, "operand {operand} footprint overflows the address space")
            }
            GemmError::ZeroThreads => {
                write!(f, "cfg.threads is 0; pass an explicit worker count")
            }
        }
    }
}

impl std::error::Error for GemmError {}

/// Elements from the first to one past the last of `rows` runs of `cols`
/// elements placed `ld` apart — `(rows - 1) * ld + cols`, 0 when there is
/// nothing — or `None` when that is more than a `T` allocation can hold.
/// The one footprint computation: the view API ([`validate`]) and the C
/// ABI both check through it.
pub(crate) fn span<T>(rows: usize, cols: usize, ld: usize) -> Option<usize> {
    if rows == 0 || cols == 0 {
        return Some(0);
    }
    let elems = (rows - 1).checked_mul(ld)?.checked_add(cols)?;
    (elems <= isize::MAX as usize / core::mem::size_of::<T>()).then_some(elems)
}

/// [`span`] of a `rows x cols` matrix operand at leading dimension `ld`;
/// `None` also when its rows would overlap (`ld < cols` on a multi-row
/// operand — the rule [`validate`] reports as
/// [`GemmError::StrideTooSmall`]).
pub(crate) fn footprint<T>(rows: usize, cols: usize, ld: usize) -> Option<usize> {
    if rows > 1 && ld < cols {
        return None;
    }
    span::<T>(rows, cols, ld)
}

/// The stored `(rows, cols)` of A and of B for `(op_a, op_b, m, n, k)`.
pub(crate) fn stored_dims(op_a: Op, op_b: Op, m: usize, n: usize, k: usize) -> [(usize, usize); 2] {
    [
        match op_a {
            Op::NoTrans => (m, k),
            Op::Trans => (k, m),
        },
        match op_b {
            Op::NoTrans => (k, n),
            Op::Trans => (n, k),
        },
    ]
}

/// One operand view as the aliasing check sees it: name (`"A"`, `"B"`,
/// `"C"`), pointer, rows, cols and leading dimension.
pub(crate) type View<T> = (&'static str, *const T, usize, usize, usize);

/// Byte range `[start, end)` covered by a view: `Ok(None)` when it holds
/// no elements, `Err` when its footprint does not fit the address space.
fn view_range<T>(
    (operand, ptr, rows, cols, ld): View<T>,
) -> Result<Option<(usize, usize)>, GemmError> {
    let start = ptr as usize;
    // `span` bounds the element count by `isize::MAX / size_of::<T>()`,
    // so the byte count cannot wrap; the end address still can.
    let end = span::<T>(rows, cols, ld)
        .and_then(|elems| start.checked_add(elems * core::mem::size_of::<T>()))
        .ok_or(GemmError::FootprintOverflow { operand })?;
    Ok((end > start).then_some((start, end)))
}

/// The aliasing rule, the kernels writing C while streaming A and B:
/// rejects views whose byte range runs past the end of the address space
/// ([`GemmError::FootprintOverflow`]) and an output `c` overlapping input
/// `a` or `b` ([`GemmError::OverlappingViews`]). Views without elements
/// overlap nothing. The one overlap check: [`validate`] and the C ABI
/// both call it.
pub(crate) fn disjoint_output<T>(a: View<T>, b: View<T>, c: View<T>) -> Result<(), GemmError> {
    let (ra, rb) = (view_range(a)?, view_range(b)?);
    if let Some((c0, c1)) = view_range(c)? {
        for ((operand, ..), range) in [(a, ra), (b, rb)] {
            if let Some((x0, x1)) = range {
                if c0 < x1 && x0 < c1 {
                    return Err(GemmError::OverlappingViews { operand });
                }
            }
        }
    }
    Ok(())
}

/// Validates the operand shapes for `C = alpha*op(A)*op(B) + beta*C`,
/// including view invariants the panicking API only debug-asserts:
/// leading dimensions no smaller than the column count and an output
/// that does not alias either input.
pub fn validate<T: GemmElem>(
    op_a: Op,
    op_b: Op,
    a: &MatRef<'_, T>,
    b: &MatRef<'_, T>,
    c: &MatMut<'_, T>,
) -> Result<(), GemmError> {
    let (m, n) = (c.rows(), c.cols());
    let k = match op_a {
        Op::NoTrans => a.cols(),
        Op::Trans => a.rows(),
    };
    let [need_a, need_b] = stored_dims(op_a, op_b, m, n, k);
    for (operand, got, need) in [
        ("A", (a.rows(), a.cols()), need_a),
        ("B", (b.rows(), b.cols()), need_b),
    ] {
        if got != need {
            return Err(GemmError::DimensionMismatch { operand, got, need });
        }
    }
    // Stride sanity: `ld < cols` makes rows overlap (ld == 0 collapses
    // the whole view onto one row). Single-row views never use ld. Then
    // each view's byte range, in checked arithmetic, and the aliasing.
    let views = [
        ("A", a.as_ptr(), a.rows(), a.cols(), a.ld()),
        ("B", b.as_ptr(), b.rows(), b.cols(), b.ld()),
        ("C", c.as_ptr(), c.rows(), c.cols(), c.ld()),
    ];
    for (operand, _, rows, cols, ld) in views {
        if rows > 1 && ld < cols {
            return Err(GemmError::StrideTooSmall { operand, ld, cols });
        }
    }
    let [va, vb, vc] = views;
    disjoint_output(va, vb, vc)
}

/// Fallible [`gemm_with`]: returns `Err` instead of panicking (shape
/// mismatch) or computing garbage (bad stride, aliased output). Unlike
/// the panicking API, it also rejects `cfg.threads == 0` — see
/// [`GemmError::ZeroThreads`].
///
/// ```
/// use shalom_core::{try_gemm_with, GemmConfig, Op};
/// use shalom_matrix::Matrix;
///
/// let a = Matrix::<f32>::random(4, 3, 1);
/// let b = Matrix::<f32>::random(3, 5, 2);
/// let mut c = Matrix::<f32>::zeros(4, 5);
/// try_gemm_with(&GemmConfig::default(), Op::NoTrans, Op::NoTrans,
///               1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut()).unwrap();
///
/// let bad = Matrix::<f32>::random(7, 5, 3); // wrong K
/// let err = try_gemm_with(&GemmConfig::default(), Op::NoTrans, Op::NoTrans,
///                         1.0, a.as_ref(), bad.as_ref(), 0.0, c.as_mut());
/// assert!(err.is_err());
/// ```
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_with<T: GemmElem>(
    cfg: &GemmConfig,
    op_a: Op,
    op_b: Op,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) -> Result<(), GemmError> {
    if cfg.threads == 0 {
        return Err(GemmError::ZeroThreads);
    }
    validate(op_a, op_b, &a, &b, &c)?;
    gemm_with(cfg, op_a, op_b, alpha, a, b, beta, c);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shalom_matrix::Matrix;

    #[test]
    fn ok_path_computes() {
        let a = Matrix::<f64>::random(3, 4, 1);
        let b = Matrix::<f64>::random(4, 2, 2);
        let mut c = Matrix::<f64>::zeros(3, 2);
        try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        )
        .unwrap();
        assert!(c.at(0, 0) != 0.0);
    }

    #[test]
    fn bad_a_reported_with_shapes() {
        let a = Matrix::<f32>::zeros(3, 4);
        let b = Matrix::<f32>::zeros(4, 2);
        let mut c = Matrix::<f32>::zeros(5, 2); // C rows mismatch A
        let err = try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            GemmError::DimensionMismatch {
                operand: "A",
                got: (3, 4),
                need: (5, 4)
            }
        );
        assert!(err.to_string().contains("operand A"));
    }

    #[test]
    fn bad_b_under_transpose() {
        let a = Matrix::<f32>::zeros(4, 3); // stored for Trans: K x M (k=4, m=3)
        let b = Matrix::<f32>::zeros(4, 5); // NT needs N x K = 2 x 4
        let mut c = Matrix::<f32>::zeros(3, 2);
        let err = try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::Trans,
            Op::Trans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        )
        .unwrap_err();
        match err {
            GemmError::DimensionMismatch { operand, need, .. } => {
                assert_eq!(operand, "B");
                assert_eq!(need, (2, 4));
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn zero_threads_rejected() {
        let a = Matrix::<f32>::random(3, 4, 1);
        let b = Matrix::<f32>::random(4, 2, 2);
        let mut c = Matrix::<f32>::zeros(3, 2);
        let err = try_gemm_with(
            &GemmConfig::with_threads(0),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        )
        .unwrap_err();
        assert_eq!(err, GemmError::ZeroThreads);
        assert!(err.to_string().contains("threads"));
    }

    #[test]
    fn zero_stride_rejected() {
        // ld == 0 on a multi-row view: every row aliases the first.
        let abuf = [1.0f32; 4];
        // SAFETY: deliberately bogus ld = 0 view; never dereferenced
        // because validation rejects it first.
        let a = unsafe { shalom_matrix::MatRef::from_raw_parts(abuf.as_ptr(), 3, 4, 0) };
        let b = Matrix::<f32>::random(4, 2, 2);
        let mut c = Matrix::<f32>::zeros(3, 2);
        let err = try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a,
            b.as_ref(),
            0.0,
            c.as_mut(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            GemmError::StrideTooSmall {
                operand: "A",
                ld: 0,
                cols: 4
            }
        );
    }

    #[test]
    fn short_stride_on_c_rejected() {
        let a = Matrix::<f32>::random(3, 4, 1);
        let b = Matrix::<f32>::random(4, 2, 2);
        let mut cbuf = vec![0.0f32; 16];
        // SAFETY: short-stride view is rejected before any element access.
        let c = unsafe { shalom_matrix::MatMut::from_raw_parts(cbuf.as_mut_ptr(), 3, 2, 1) };
        let err = try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c,
        )
        .unwrap_err();
        assert_eq!(
            err,
            GemmError::StrideTooSmall {
                operand: "C",
                ld: 1,
                cols: 2
            }
        );
    }

    #[test]
    fn single_row_any_stride_ok() {
        // ld < cols is harmless on one-row views: ld never dereferenced.
        let abuf = [1.0f32; 4];
        // SAFETY: single-row view — ld is never used, abuf covers row 0.
        let a = unsafe { shalom_matrix::MatRef::from_raw_parts(abuf.as_ptr(), 1, 4, 0) };
        let b = Matrix::<f32>::random(4, 2, 2);
        let mut c = Matrix::<f32>::zeros(1, 2);
        try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a,
            b.as_ref(),
            0.0,
            c.as_mut(),
        )
        .unwrap();
    }

    #[test]
    fn overflowing_footprints_are_reported_not_wrapped() {
        // `(rows - 1) * ld + cols` and `start + bytes` in checked
        // arithmetic: a view no allocation can back is a typed error, in
        // debug and release alike (it was an overflow panic in one and a
        // wrapped, too-small range in the other).
        let buf = vec![1.0f32; 64];
        let b = Matrix::<f32>::random(4, 2, 2);
        for (rows, ld) in [
            (3, usize::MAX / 2 + 3), // the product wraps
            (2, usize::MAX - 1),     // the sum wraps
            (2, usize::MAX / 2),     // fits a usize, not an allocation
            (3, usize::MAX / 8),     // fits in elements, not in bytes
        ] {
            // SAFETY: never dereferenced — validation rejects the view.
            let a = unsafe { MatRef::from_raw_parts(buf.as_ptr(), rows, 4, ld) };
            let mut c = Matrix::<f32>::zeros(rows, 2);
            assert_eq!(
                validate(Op::NoTrans, Op::NoTrans, &a, &b.as_ref(), &c.as_mut()),
                Err(GemmError::FootprintOverflow { operand: "A" }),
                "rows {rows} ld {ld}"
            );
        }
        // An in-range footprint from a pointer too close to the top of the
        // address space.
        let high = core::ptr::null::<f32>().wrapping_sub(2);
        // SAFETY: never dereferenced — validation rejects the view.
        let a = unsafe { MatRef::from_raw_parts(high, 1, 4, 4) };
        let mut c1 = Matrix::<f32>::zeros(1, 2);
        assert_eq!(
            validate(Op::NoTrans, Op::NoTrans, &a, &b.as_ref(), &c1.as_mut()),
            Err(GemmError::FootprintOverflow { operand: "A" })
        );
        // The case the check exists for: C starts 8 elements below A in one
        // buffer with an `ld` whose wrapped footprint (6 elements) ends
        // before A begins, so wrapped arithmetic saw no overlap.
        let mut shared = vec![1.0f32; 64];
        // 3 * third wraps to 2.
        let third = usize::MAX / 3 + 1;
        // SAFETY: never dereferenced — validation rejects C's view.
        let (a, c_alias) = unsafe {
            (
                MatRef::from_raw_parts(shared.as_ptr().add(8), 4, 4, 4),
                MatMut::from_raw_parts(shared.as_mut_ptr(), 4, 4, third),
            )
        };
        let b4 = Matrix::<f32>::random(4, 4, 3);
        let err = try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a,
            b4.as_ref(),
            0.0,
            c_alias,
        )
        .unwrap_err();
        assert_eq!(err, GemmError::FootprintOverflow { operand: "C" });
        assert!(err.to_string().contains("operand C"));
        // Views without elements never use `ld`: exempt, as for the stride.
        // SAFETY: zero-row views touch no memory.
        let (a0, c0) = unsafe {
            (
                MatRef::from_raw_parts(buf.as_ptr(), 0, 4, usize::MAX),
                MatMut::from_raw_parts(shared.as_mut_ptr(), 0, 2, usize::MAX),
            )
        };
        assert_eq!(
            validate(Op::NoTrans, Op::NoTrans, &a0, &b.as_ref(), &c0),
            Ok(())
        );
    }

    #[test]
    fn overlapping_output_rejected() {
        // One buffer serves as both A and C: in-place GEMM is not
        // supported and must be reported, not computed.
        let mut buf = vec![1.0f32; 4 * 4];
        // SAFETY: aliasing views are intentional; overlap validation
        // rejects the call before any kernel touches them.
        let a = unsafe { shalom_matrix::MatRef::from_raw_parts(buf.as_ptr(), 4, 4, 4) };
        let c = unsafe { shalom_matrix::MatMut::from_raw_parts(buf.as_mut_ptr(), 4, 4, 4) };
        let b = Matrix::<f32>::random(4, 4, 2);
        let err = try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a,
            b.as_ref(),
            0.0,
            c,
        )
        .unwrap_err();
        assert_eq!(err, GemmError::OverlappingViews { operand: "A" });
    }

    #[test]
    fn overlap_with_b_detected_even_partial() {
        // C starts midway through B's buffer: partial overlap still errs.
        let mut buf = vec![1.0f32; 64];
        // SAFETY: partially-overlapping views are intentional; overlap
        // validation rejects the call before any kernel touches them.
        let b = unsafe { shalom_matrix::MatRef::from_raw_parts(buf.as_ptr(), 4, 4, 4) };
        let c = unsafe { shalom_matrix::MatMut::from_raw_parts(buf.as_mut_ptr().add(8), 4, 4, 4) };
        let a = Matrix::<f32>::random(4, 4, 3);
        let err = try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.as_ref(),
            b,
            0.0,
            c,
        )
        .unwrap_err();
        assert_eq!(err, GemmError::OverlappingViews { operand: "B" });
    }

    #[test]
    fn disjoint_views_in_one_buffer_ok() {
        // A and B share a parent allocation with C fully disjoint.
        let buf = vec![1.0f32; 64];
        // SAFETY: both read-only views lie fully inside buf (offsets 0
        // and 16, 4x4 each at ld = 4).
        let a = unsafe { shalom_matrix::MatRef::from_raw_parts(buf.as_ptr(), 4, 4, 4) };
        let b = unsafe { shalom_matrix::MatRef::from_raw_parts(buf.as_ptr().add(16), 4, 4, 4) };
        let mut c = Matrix::<f32>::zeros(4, 4);
        try_gemm_with(
            &GemmConfig::with_threads(1),
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a,
            b,
            0.0,
            c.as_mut(),
        )
        .unwrap();
    }
}

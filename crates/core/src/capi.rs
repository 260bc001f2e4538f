//! C API: `extern "C"` entry points mirroring the row-major CBLAS
//! convention, so C/C++ applications can link the library the way the
//! paper describes ("LibShalom provides APIs in C and C++", §3.3).
//!
//! ```c
//! // C prototype
//! void shalom_sgemm(int trans_a, int trans_b,
//!                   size_t m, size_t n, size_t k,
//!                   float alpha,
//!                   const float *a, size_t lda,
//!                   const float *b, size_t ldb,
//!                   float beta,
//!                   float *c, size_t ldc,
//!                   size_t threads);
//! ```
//!
//! `trans_*` follows CBLAS: `111` = NoTrans, `112` = Trans (other values
//! are rejected). `threads == 0` means all available cores.
//!
//! Every argument is untrusted: before anything is dereferenced the GEMM
//! entry points reject — with `-1`, writing nothing — a bad transpose
//! code, a leading dimension shorter than its row (BLAS `xerbla` parity),
//! an operand whose footprint overflows the address space, a null pointer
//! to a non-empty operand, and an output C that overlaps A or B (the
//! check `try_gemm_with` makes). The checks use checked arithmetic and
//! run outside `catch_unwind`, so they can neither wrap in a release build
//! nor abort a debug one.

use crate::api::GemmElem;
use crate::batch::gemm_batch_strided;
use crate::config::GemmConfig;
use crate::error::{disjoint_output, footprint, span, stored_dims};
use crate::parallel::gemm_parallel;
use crate::plan::{GemmPlan, ProfileError};
use shalom_matrix::Op;
use std::ffi::CStr;
use std::os::raw::c_char;

/// CBLAS `CblasNoTrans`.
pub const SHALOM_NO_TRANS: i32 = 111;
/// CBLAS `CblasTrans`.
pub const SHALOM_TRANS: i32 = 112;

/// Success.
pub const SHALOM_OK: i32 = 0;
/// Invalid argument: null pointer, non-UTF-8 path, or bad code.
pub const SHALOM_ERR_INVALID: i32 = -1;
/// Profile file could not be read or written.
pub const SHALOM_ERR_IO: i32 = -2;
/// Profile format-version mismatch (file written by an incompatible
/// library release; re-tune and re-save).
pub const SHALOM_ERR_VERSION: i32 = -3;
/// Profile file is corrupt, contains out-of-range plan parameters, or
/// holds more entries than the override table admits.
pub const SHALOM_ERR_PARSE: i32 = -4;
/// Profile was tuned under a different instruction-set level than this
/// host dispatches to; its plans would be applied at the wrong vector
/// width. Re-tune and re-save on this host.
pub const SHALOM_ERR_ISA: i32 = -5;
/// Service submission rejected: the bounded request queue was at
/// capacity (`shalom-service` backpressure). Retry or shed load.
pub const SHALOM_ERR_QUEUE_FULL: i32 = -6;
/// Service request expired: its deadline passed before the batch
/// scheduler could run it; the output matrix was not touched.
pub const SHALOM_ERR_DEADLINE: i32 = -7;
/// Service is shutting down and no longer accepts submissions.
pub const SHALOM_ERR_SHUTDOWN: i32 = -8;
/// A blocking service submission timed out waiting for queue space.
pub const SHALOM_ERR_TIMEOUT: i32 = -9;

fn profile_err_code(e: &ProfileError) -> i32 {
    match e {
        ProfileError::Io(_) => SHALOM_ERR_IO,
        ProfileError::Version { .. } => SHALOM_ERR_VERSION,
        ProfileError::Parse(_) | ProfileError::Invalid(_) => SHALOM_ERR_PARSE,
        ProfileError::IsaMismatch { .. } => SHALOM_ERR_ISA,
    }
}

/// Shared prologue of the profile entry points: C string -> UTF-8 path.
///
/// # Safety
/// `path` must be null or a NUL-terminated C string.
unsafe fn path_from(path: *const c_char) -> Option<&'static str> {
    if path.is_null() {
        return None;
    }
    // SAFETY: non-null per the check above; NUL-terminated per the
    // caller's contract (SHALOM-D-FFI).
    unsafe { CStr::from_ptr(path) }.to_str().ok()
}

/// Loads a plan profile (JSON written by [`shalom_profile_save`] or
/// [`crate::plan::save_profile`]) and installs every entry as an
/// override in the global override table.
///
/// Returns the number of entries installed (`>= 0`), or a negative
/// error code: [`SHALOM_ERR_INVALID`] for a null / non-UTF-8 path,
/// [`SHALOM_ERR_IO`] when the file cannot be read,
/// [`SHALOM_ERR_VERSION`] for a format-version mismatch, and
/// [`SHALOM_ERR_PARSE`] for corrupt or out-of-range contents — including
/// more new entries than the table has room for; a refused file installs
/// nothing. Never unwinds across the FFI boundary.
///
/// # Safety
/// `path` must be null or point to a NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn shalom_profile_load(path: *const c_char) -> i64 {
    // SAFETY: forwarded caller contract (SHALOM-D-FFI).
    let Some(path) = (unsafe { path_from(path) }) else {
        return i64::from(SHALOM_ERR_INVALID);
    };
    let r = std::panic::catch_unwind(|| crate::plan::load_profile(path));
    match r {
        Ok(Ok(n)) => n as i64,
        Ok(Err(e)) => i64::from(profile_err_code(&e)),
        Err(_) => i64::from(SHALOM_ERR_INVALID),
    }
}

/// Saves every entry of the global override table to `path`
/// as versioned JSON.
///
/// Returns the number of entries written (`>= 0`), or
/// [`SHALOM_ERR_INVALID`] for a null / non-UTF-8 path and
/// [`SHALOM_ERR_IO`] when the file cannot be written. Never unwinds
/// across the FFI boundary.
///
/// # Safety
/// `path` must be null or point to a NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn shalom_profile_save(path: *const c_char) -> i64 {
    // SAFETY: forwarded caller contract (SHALOM-D-FFI).
    let Some(path) = (unsafe { path_from(path) }) else {
        return i64::from(SHALOM_ERR_INVALID);
    };
    let r = std::panic::catch_unwind(|| crate::plan::save_profile(path));
    match r {
        Ok(Ok(n)) => n as i64,
        Ok(Err(e)) => i64::from(profile_err_code(&e)),
        Err(_) => i64::from(SHALOM_ERR_INVALID),
    }
}

/// Drops every installed override; subsequent calls compute their
/// plans. Returns [`SHALOM_OK`].
#[no_mangle]
pub extern "C" fn shalom_plan_cache_clear() -> i32 {
    let r = std::panic::catch_unwind(crate::plan::plan_cache_clear);
    r.map_or(SHALOM_ERR_INVALID, |()| SHALOM_OK)
}

/// Reports the instruction-set level this process dispatches wide
/// kernels under, as the stable `Isa` code (0 scalar, 1 sse2, 2 neon,
/// 3 avx2, 4 avx512). The answer is fixed for the process lifetime, so
/// C callers can log it once alongside benchmark output.
#[no_mangle]
pub extern "C" fn shalom_host_isa() -> i32 {
    i32::from(shalom_simd::best_isa().code())
}

fn op_from(code: i32) -> Option<Op> {
    match code {
        SHALOM_NO_TRANS => Some(Op::NoTrans),
        SHALOM_TRANS => Some(Op::Trans),
        _ => None,
    }
}

fn cfg_for(threads: usize) -> GemmConfig {
    GemmConfig {
        threads,
        ..GemmConfig::default()
    }
}

/// Whether every operand, given as `(pointer is null, footprint)`, has a
/// representable footprint and, unless it is empty, a pointer.
fn operands_present(operands: [(bool, Option<usize>); 3]) -> bool {
    operands
        .into_iter()
        .all(|(null, elems)| elems.is_some_and(|e| e == 0 || !null))
}

/// Whether the raw operands of one GEMM are safe to hand to the driver:
/// present, with representable footprints, and C aliasing neither input.
fn gemm_args_ok<T>(
    op_a: Op,
    op_b: Op,
    (m, n, k): (usize, usize, usize),
    (a, lda): (*const T, usize),
    (b, ldb): (*const T, usize),
    (c, ldc): (*mut T, usize),
) -> bool {
    let [(ar, ac), (br, bc)] = stored_dims(op_a, op_b, m, n, k);
    operands_present([
        (a.is_null(), footprint::<T>(ar, ac, lda)),
        (b.is_null(), footprint::<T>(br, bc, ldb)),
        (c.is_null(), footprint::<T>(m, n, ldc)),
    ]) && disjoint_output(
        ("A", a, ar, ac, lda),
        ("B", b, br, bc, ldb),
        ("C", c.cast_const(), m, n, ldc),
    )
    .is_ok()
}

/// The body of [`shalom_sgemm`] and [`shalom_dgemm`]: decode the ops,
/// check the operands, then run the call behind `catch_unwind`.
///
/// # Safety
/// As [`shalom_sgemm`].
unsafe fn gemm_c<T: GemmElem>(
    (trans_a, trans_b): (i32, i32),
    (m, n, k): (usize, usize, usize),
    (alpha, beta): (T, T),
    (a, lda): (*const T, usize),
    (b, ldb): (*const T, usize),
    (c, ldc): (*mut T, usize),
    threads: usize,
) -> i32 {
    let (Some(op_a), Some(op_b)) = (op_from(trans_a), op_from(trans_b)) else {
        return -1;
    };
    if !gemm_args_ok(op_a, op_b, (m, n, k), (a, lda), (b, ldb), (c, ldc)) {
        return -1;
    }
    let plan = || GemmPlan::<T>::new(&cfg_for(threads), op_a, op_b, m, n, k);
    // SAFETY: SHALOM-D-FFI — `gemm_args_ok` checked every footprint and
    // C's disjointness; the pointers' validity is the caller's contract.
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
        gemm_parallel(&plan(), alpha, a, lda, b, ldb, beta, c, ldc)
    }));
    ok.map_or(-1, |()| 0)
}

/// Row-major single-precision GEMM,
/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Returns 0 on success, -1 on invalid arguments (bad transpose code, a
/// leading dimension shorter than its row on a multi-row operand, a
/// footprint beyond the address space, a null pointer to a non-empty
/// operand, or a `c` whose footprint overlaps `a`'s or `b`'s) — in which
/// case `C` is not written. Never unwinds across the FFI boundary.
///
/// # Safety
/// Pointers must satisfy the usual BLAS contracts: `a` readable as the
/// stored op-A (`m x k` rows for NoTrans, `k x m` for Trans) with leading
/// dimension `lda`; likewise `b`; `c` readable and writable as `m x n`
/// with leading dimension `ldc`. A `c` aliasing `a`/`b` is rejected.
#[no_mangle]
pub unsafe extern "C" fn shalom_sgemm(
    trans_a: i32,
    trans_b: i32,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    beta: f32,
    c: *mut f32,
    ldc: usize,
    threads: usize,
) -> i32 {
    let (ops, dims, scalars) = ((trans_a, trans_b), (m, n, k), (alpha, beta));
    gemm_c(ops, dims, scalars, (a, lda), (b, ldb), (c, ldc), threads)
}

/// Row-major double-precision GEMM; see [`shalom_sgemm`].
///
/// # Safety
/// As [`shalom_sgemm`].
#[no_mangle]
pub unsafe extern "C" fn shalom_dgemm(
    trans_a: i32,
    trans_b: i32,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    threads: usize,
) -> i32 {
    let (ops, dims, scalars) = ((trans_a, trans_b), (m, n, k), (alpha, beta));
    gemm_c(ops, dims, scalars, (a, lda), (b, ldb), (c, ldc), threads)
}

/// Strided batched single-precision GEMM (tight leading dimensions):
/// problem `i` uses `a + i*stride_a`, `b + i*stride_b`,
/// `c + i*stride_c`. Returns 0 on success, -1 on invalid arguments (as
/// [`shalom_sgemm`], plus `stride_c` smaller than one `m x n` output when
/// `count > 1`, strides that carry the batch beyond the address space, or
/// a C batch span overlapping A's or B's).
///
/// # Safety
/// As [`shalom_sgemm`], per problem; the `c` regions must be disjoint. A
/// C batch span aliasing the A or B batch span is rejected.
#[no_mangle]
pub unsafe extern "C" fn shalom_sgemm_batch_strided(
    trans_a: i32,
    trans_b: i32,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: *const f32,
    stride_a: usize,
    b: *const f32,
    stride_b: usize,
    beta: f32,
    c: *mut f32,
    stride_c: usize,
    count: usize,
    threads: usize,
) -> i32 {
    let (Some(op_a), Some(op_b)) = (op_from(trans_a), op_from(trans_b)) else {
        return -1;
    };
    // Tight leading dimensions: each problem's footprint is rows * cols.
    let [(ar, ac), (br, bc)] = stored_dims(op_a, op_b, m, n, k);
    let (Some(fa), Some(fb), Some(fc)) = (
        footprint::<f32>(ar, ac, ac),
        footprint::<f32>(br, bc, bc),
        footprint::<f32>(m, n, n),
    ) else {
        return -1;
    };
    // The C regions must be disjoint, which also bounds `count` by memory
    // the caller really has before the batch allocates its item list.
    if count > 1 && stride_c < fc {
        return -1;
    }
    if !operands_present([
        (a.is_null(), span::<f32>(count, fa, stride_a)),
        (b.is_null(), span::<f32>(count, fb, stride_b)),
        (c.is_null(), span::<f32>(count, fc, stride_c)),
    ]) {
        return -1;
    }
    // The whole C batch span, gaps included, must miss A's and B's: the
    // view API's conservative rule for one strided operand.
    if disjoint_output(
        ("A", a, count, fa, stride_a),
        ("B", b, count, fb, stride_b),
        ("C", c.cast_const(), count, fc, stride_c),
    )
    .is_err()
    {
        return -1;
    }
    if fc == 0 {
        return 0; // no output element anywhere in the batch
    }
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        gemm_batch_strided::<f32>(
            &cfg_for(threads),
            op_a,
            op_b,
            m,
            n,
            k,
            alpha,
            a,
            stride_a,
            b,
            stride_b,
            beta,
            c,
            stride_c,
            count,
        )
    }));
    ok.map_or(-1, |()| 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use shalom_matrix::{assert_close, gemm_tolerance, reference, MatRef, Matrix};

    #[test]
    fn c_sgemm_matches_oracle() {
        let (m, n, k) = (9, 14, 11);
        let a = Matrix::<f32>::random(m, k, 1);
        let b = Matrix::<f32>::random(k, n, 2);
        let mut c = Matrix::<f32>::random(m, n, 3);
        let mut want = c.clone();
        reference::gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.5,
            a.as_ref(),
            b.as_ref(),
            0.5,
            want.as_mut(),
        );
        // SAFETY: a/b/c are owned matrices shaped (m, n, k).
        let rc = unsafe {
            shalom_sgemm(
                SHALOM_NO_TRANS,
                SHALOM_NO_TRANS,
                m,
                n,
                k,
                1.5,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                0.5,
                c.as_mut().as_mut_ptr(),
                c.ld(),
                1,
            )
        };
        assert_eq!(rc, 0);
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f32>(k, 2.0));
    }

    #[test]
    fn c_dgemm_transposed() {
        let (m, n, k) = (7, 6, 8);
        let a = Matrix::<f64>::random(k, m, 1); // stored for Trans
        let b = Matrix::<f64>::random(n, k, 2);
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut want = Matrix::<f64>::zeros(m, n);
        reference::gemm(
            Op::Trans,
            Op::Trans,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            want.as_mut(),
        );
        // SAFETY: a/b/c are owned matrices stored for the Trans ops.
        let rc = unsafe {
            shalom_dgemm(
                SHALOM_TRANS,
                SHALOM_TRANS,
                m,
                n,
                k,
                1.0,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                0.0,
                c.as_mut().as_mut_ptr(),
                c.ld(),
                2,
            )
        };
        assert_eq!(rc, 0);
        assert_close(c.as_ref(), want.as_ref(), gemm_tolerance::<f64>(k, 2.0));
    }

    #[test]
    fn invalid_trans_code_rejected() {
        // SAFETY: the invalid trans code is rejected before any deref.
        let rc = unsafe {
            shalom_sgemm(
                999,
                SHALOM_NO_TRANS,
                1,
                1,
                1,
                1.0,
                std::ptr::null(),
                1,
                std::ptr::null(),
                1,
                0.0,
                std::ptr::null_mut(),
                1,
                1,
            )
        };
        assert_eq!(rc, -1);
    }

    #[test]
    fn null_pointer_rejected() {
        let b = [0f32; 4];
        let mut c = [0f32; 4];
        // SAFETY: the null A pointer is rejected before any deref.
        let rc = unsafe {
            shalom_sgemm(
                SHALOM_NO_TRANS,
                SHALOM_NO_TRANS,
                2,
                2,
                2,
                1.0,
                std::ptr::null(),
                2,
                b.as_ptr(),
                2,
                0.0,
                c.as_mut_ptr(),
                2,
                1,
            )
        };
        assert_eq!(rc, -1);
    }

    #[test]
    fn zero_sized_with_null_ok() {
        // m*k == 0 permits null A (BLAS degenerate-call convention).
        let mut c = [5f32; 4];
        // SAFETY: k = 0 means A/B are never read; c covers the 2x2 block.
        let rc = unsafe {
            shalom_sgemm(
                SHALOM_NO_TRANS,
                SHALOM_NO_TRANS,
                2,
                2,
                0,
                1.0,
                std::ptr::null(),
                0,
                std::ptr::null(),
                2,
                2.0,
                c.as_mut_ptr(),
                2,
                1,
            )
        };
        assert_eq!(rc, 0);
        assert_eq!(c, [10.0; 4]);
    }

    #[test]
    fn c_profile_entry_points() {
        use std::ffi::CString;
        let dir = std::env::temp_dir();
        let path = dir.join(format!("shalom_capi_profile_{}.json", std::process::id()));
        let c_path = CString::new(path.to_str().unwrap()).unwrap();

        // Null and non-UTF-8-free invalid inputs.
        // SAFETY: null is rejected before any deref.
        assert_eq!(
            unsafe { shalom_profile_load(std::ptr::null()) },
            i64::from(SHALOM_ERR_INVALID)
        );
        // SAFETY: null is rejected before any deref.
        assert_eq!(
            unsafe { shalom_profile_save(std::ptr::null()) },
            i64::from(SHALOM_ERR_INVALID)
        );
        // Missing file is an I/O error, not a crash.
        let missing = CString::new("/nonexistent/shalom/profile.json").unwrap();
        // SAFETY: `missing` is a valid NUL-terminated string.
        assert_eq!(
            unsafe { shalom_profile_load(missing.as_ptr()) },
            i64::from(SHALOM_ERR_IO)
        );

        // Install one override, save it, clear, reload.
        let base = GemmConfig::with_threads(1);
        crate::plan::install_tuned::<f32>(&base, &base, Op::NoTrans, Op::NoTrans, 24, 24, 24);
        // SAFETY: `c_path` is a valid NUL-terminated string.
        let saved = unsafe { shalom_profile_save(c_path.as_ptr()) };
        assert!(saved >= 1, "saved {saved}");
        assert_eq!(shalom_plan_cache_clear(), SHALOM_OK);
        // SAFETY: `c_path` is a valid NUL-terminated string.
        let loaded = unsafe { shalom_profile_load(c_path.as_ptr()) };
        assert_eq!(loaded, saved);

        // Version mismatch and corrupt docs map to distinct codes.
        std::fs::write(&path, "{\"version\":999,\"entries\":[]}").unwrap();
        // SAFETY: `c_path` is a valid NUL-terminated string.
        assert_eq!(
            unsafe { shalom_profile_load(c_path.as_ptr()) },
            i64::from(SHALOM_ERR_VERSION)
        );
        std::fs::write(&path, "not json at all").unwrap();
        // SAFETY: `c_path` is a valid NUL-terminated string.
        assert_eq!(
            unsafe { shalom_profile_load(c_path.as_ptr()) },
            i64::from(SHALOM_ERR_PARSE)
        );

        // A profile tuned under a different ISA level is refused with
        // its own code, not silently applied at the wrong vector width.
        let host = shalom_simd::best_isa().label();
        let other = if host == "scalar" { "avx512" } else { "scalar" };
        std::fs::write(
            &path,
            format!(
                "{{\"version\":{},\"isa\":\"{}\",\"entries\":[\n]}}",
                crate::plan::PROFILE_VERSION,
                other
            ),
        )
        .unwrap();
        // SAFETY: `c_path` is a valid NUL-terminated string.
        assert_eq!(
            unsafe { shalom_profile_load(c_path.as_ptr()) },
            i64::from(SHALOM_ERR_ISA)
        );

        // One entry more than the override table admits: refused whole,
        // as out-of-range contents, and the reloaded override stays.
        let resident = crate::plan::plan_cache_stats().entries;
        let key = crate::plan::request_plan_key::<f32>(&base, Op::NoTrans, Op::NoTrans, 24, 24, 24);
        let plan = crate::plan::describe_plan::<f32>(&base, Op::NoTrans, Op::NoTrans, 24, 24, 24);
        let too_many: Vec<_> = (0..=crate::plan::MAX_OVERRIDES as u64)
            .map(|i| (crate::plan::PlanKey { m: 1 + i, ..key }, plan.plan))
            .collect();
        std::fs::write(&path, crate::plan::profile::to_json(&too_many, host)).unwrap();
        // SAFETY: `c_path` is a valid NUL-terminated string.
        assert_eq!(
            unsafe { shalom_profile_load(c_path.as_ptr()) },
            i64::from(SHALOM_ERR_PARSE)
        );
        assert_eq!(crate::plan::plan_cache_stats().entries, resident);

        let _ = std::fs::remove_file(&path);
        assert_eq!(shalom_plan_cache_clear(), SHALOM_OK);
    }

    #[test]
    fn c_host_isa_is_stable_and_in_range() {
        let code = shalom_host_isa();
        assert!((0..=4).contains(&code), "unknown isa code {code}");
        assert_eq!(code, shalom_host_isa(), "dispatch answer must not drift");
        assert_eq!(code, i32::from(shalom_simd::best_isa().code()));
    }

    #[test]
    fn c_batch_strided() {
        let (m, n, k, count) = (5usize, 5usize, 5usize, 6usize);
        let a = Matrix::<f32>::random(count * m, k, 4);
        let b = Matrix::<f32>::random(count * k, n, 5);
        let mut c = vec![0f32; count * m * n];
        // SAFETY: a/b/c hold `count` dense (m, n, k) problems back to back.
        let rc = unsafe {
            shalom_sgemm_batch_strided(
                SHALOM_NO_TRANS,
                SHALOM_NO_TRANS,
                m,
                n,
                k,
                1.0,
                a.as_slice().as_ptr(),
                m * k,
                b.as_slice().as_ptr(),
                k * n,
                0.0,
                c.as_mut_ptr(),
                m * n,
                count,
                2,
            )
        };
        assert_eq!(rc, 0);
        for i in 0..count {
            let av = a.as_ref().submatrix(i * m, 0, m, k);
            let bv = b.as_ref().submatrix(i * k, 0, k, n);
            let mut want = Matrix::<f32>::zeros(m, n);
            reference::gemm(Op::NoTrans, Op::NoTrans, 1.0, av, bv, 0.0, want.as_mut());
            let got = MatRef::from_slice(&c[i * m * n..(i + 1) * m * n], m, n, n);
            assert_close(got, want.as_ref(), gemm_tolerance::<f32>(k, 2.0));
        }
    }

    /// One hostile argument planted in an otherwise valid small call.
    #[derive(Debug, Clone, Copy)]
    enum Hostile {
        TransA(i32),
        TransB(i32),
        NullA,
        NullB,
        NullC,
        /// `m = k = 2^32` (the product wraps to 0) behind a null A.
        WrappedNullA,
        ShortLda,
        ShortLdb,
        ShortLdc,
        /// `(rows - 1) * lda` overflows `usize`.
        LdaOverflow,
        /// The footprint fits `usize` but not an allocation.
        LdcBeyondIsize,
        /// A read from C's own memory.
        AliasA,
        /// B read from C's own memory, one row in (a partial overlap).
        AliasB,
    }

    fn hostile() -> impl Strategy<Value = Hostile> {
        let bad_code = (-1000i32..1000).prop_filter("a valid CBLAS code", |c| {
            *c != SHALOM_NO_TRANS && *c != SHALOM_TRANS
        });
        (0usize..13, bad_code).prop_map(|(kind, code)| match kind {
            0 => Hostile::TransA(code),
            1 => Hostile::TransB(code),
            2 => Hostile::NullA,
            3 => Hostile::NullB,
            4 => Hostile::NullC,
            5 => Hostile::WrappedNullA,
            6 => Hostile::ShortLda,
            7 => Hostile::ShortLdb,
            8 => Hostile::ShortLdc,
            9 => Hostile::LdaOverflow,
            10 => Hostile::LdcBeyondIsize,
            11 => Hostile::AliasA,
            _ => Hostile::AliasB,
        })
    }

    /// Runs `shalom_sgemm`/`shalom_dgemm` (by `T`) on valid `m x n x k`
    /// operands with `h` planted; returns the code and whether C changed.
    fn call_hostile<T: crate::GemmElem>(
        h: Option<Hostile>,
        (op_a, op_b): (Op, Op),
        (m, n, k): (usize, usize, usize),
        gemm: unsafe extern "C" fn(
            i32,
            i32,
            usize,
            usize,
            usize,
            T,
            *const T,
            usize,
            *const T,
            usize,
            T,
            *mut T,
            usize,
            usize,
        ) -> i32,
    ) -> (i32, bool) {
        let [(ar, ac), (br, bc)] = stored_dims(op_a, op_b, m, n, k);
        let a = Matrix::<T>::random(ar, ac, 1);
        let b = Matrix::<T>::random(br, bc, 2);
        // C's stride leaves room in its allocation for an A or B (at most
        // 6 x 6) planted on top of it, so an aliased call that were let
        // through would still stay in bounds.
        let mut c = Matrix::<T>::random_with_ld(m, n, 16, 3);
        let before = c.clone();
        let code = |op| match op {
            Op::NoTrans => SHALOM_NO_TRANS,
            Op::Trans => SHALOM_TRANS,
        };
        let (mut ta, mut tb) = (code(op_a), code(op_b));
        let (mut m_, mut k_) = (m, k);
        let (mut ap, mut bp, mut cp) = (
            a.as_slice().as_ptr(),
            b.as_slice().as_ptr(),
            c.as_mut().as_mut_ptr(),
        );
        let (mut lda, mut ldb, mut ldc) = (a.ld(), b.ld(), c.ld());
        match h {
            None => {}
            Some(Hostile::TransA(x)) => ta = x,
            Some(Hostile::TransB(x)) => tb = x,
            Some(Hostile::NullA) => ap = std::ptr::null(),
            Some(Hostile::NullB) => bp = std::ptr::null(),
            Some(Hostile::NullC) => cp = std::ptr::null_mut(),
            Some(Hostile::WrappedNullA) => {
                (m_, k_) = (1 << 32, 1 << 32);
                (lda, ldb, ldc) = (1 << 32, 1 << 32, n);
                ap = std::ptr::null();
            }
            Some(Hostile::ShortLda) => lda = ac - 1,
            Some(Hostile::ShortLdb) => ldb = bc - 1,
            Some(Hostile::ShortLdc) => ldc = n - 1,
            Some(Hostile::LdaOverflow) => lda = usize::MAX / 2 + 1,
            Some(Hostile::LdcBeyondIsize) => ldc = isize::MAX as usize / core::mem::size_of::<T>(),
            Some(Hostile::AliasA) => ap = cp.cast_const(),
            Some(Hostile::AliasB) => bp = cp.cast_const().wrapping_add(ldc),
        }
        // SAFETY: with `h == None` the operands are owned matrices of the
        // stated shapes; every planted argument must be rejected before any
        // pointer is dereferenced — which is what this test checks.
        let rc = unsafe {
            gemm(
                ta,
                tb,
                m_,
                n,
                k_,
                T::ONE,
                ap,
                lda,
                bp,
                ldb,
                T::ZERO,
                cp,
                ldc,
                1,
            )
        };
        (rc, c.as_slice() != before.as_slice())
    }

    proptest! {
        // Every hostile argument is refused with -1 before C is touched,
        // in both precisions and every mode; the same call without it
        // succeeds (so the refusals are not vacuous). Dimensions start at
        // 3 so every operand is multi-row and the ld rules apply.
        #[test]
        fn c_gemm_refuses_hostile_arguments(
            h in hostile(),
            m in 3usize..7,
            n in 3usize..7,
            k in 3usize..7,
            mode in 0usize..4,
        ) {
            let ops = [
                (Op::NoTrans, Op::NoTrans),
                (Op::NoTrans, Op::Trans),
                (Op::Trans, Op::NoTrans),
                (Op::Trans, Op::Trans),
            ][mode];
            prop_assert_eq!(call_hostile::<f32>(None, ops, (m, n, k), shalom_sgemm), (0, true));
            prop_assert_eq!(call_hostile::<f64>(None, ops, (m, n, k), shalom_dgemm), (0, true));
            prop_assert_eq!(
                call_hostile::<f32>(Some(h), ops, (m, n, k), shalom_sgemm),
                (-1, false),
                "{:?}", h
            );
            prop_assert_eq!(
                call_hostile::<f64>(Some(h), ops, (m, n, k), shalom_dgemm),
                (-1, false),
                "{:?}", h
            );
        }
    }

    #[test]
    fn footprints_are_checked_not_wrapped() {
        assert_eq!(footprint::<f32>(0, 1 << 40, 0), Some(0));
        assert_eq!(footprint::<f32>(1, 9, 0), Some(9), "one row never uses ld");
        assert_eq!(footprint::<f32>(3, 4, 10), Some(24));
        assert_eq!(footprint::<f32>(3, 4, 3), None, "rows overlap");
        assert_eq!(footprint::<f64>(1 << 32, 1 << 32, 1 << 32), None);
        let cap = isize::MAX as usize / 8;
        assert_eq!(footprint::<f64>(1, cap, 0), Some(cap));
        assert_eq!(footprint::<f64>(1, cap + 1, 0), None);
        // A strided batch is `count` runs of one footprint; a stride of 0
        // (every problem reading the same operand) is legitimate.
        assert_eq!(span::<f32>(4, 25, 25), Some(100));
        assert_eq!(span::<f32>(4, 25, 0), Some(25));
        assert_eq!(span::<f32>(4, 25, usize::MAX / 2), None);
        assert_eq!(span::<f32>(usize::MAX, 0, usize::MAX), Some(0));
    }

    #[test]
    fn c_batch_strided_refuses_hostile_arguments() {
        let (m, n, k, count) = (4usize, 3usize, 5usize, 3usize);
        let a = vec![1f32; count * m * k];
        let b = vec![1f32; count * k * n];
        let run = |a: *const f32, sa, b: *const f32, sb, c: &mut Vec<f32>, sc, count, m| {
            // SAFETY: as `call_hostile`: valid buffers, and every hostile
            // argument must be refused before a dereference.
            unsafe {
                shalom_sgemm_batch_strided(
                    SHALOM_NO_TRANS,
                    SHALOM_NO_TRANS,
                    m,
                    n,
                    k,
                    1.0,
                    a,
                    sa,
                    b,
                    sb,
                    0.0,
                    c.as_mut_ptr(),
                    sc,
                    count,
                    1,
                )
            }
        };
        let fresh = || vec![7f32; count * m * n];
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut c = fresh();
        assert_eq!(run(ap, m * k, bp, k * n, &mut c, m * n, count, m), 0);
        assert_ne!(c, fresh());
        for (what, rc, c) in [
            ("null A", {
                let mut c = fresh();
                (
                    run(std::ptr::null(), m * k, bp, k * n, &mut c, m * n, count, m),
                    c,
                )
            }),
            ("A stride overflows", {
                let mut c = fresh();
                (
                    run(ap, usize::MAX / 2, bp, k * n, &mut c, m * n, count, m),
                    c,
                )
            }),
            ("overlapping C regions", {
                let mut c = fresh();
                (run(ap, m * k, bp, k * n, &mut c, m * n - 1, count, m), c)
            }),
            ("count beyond the address space", {
                let mut c = fresh();
                (
                    run(ap, m * k, bp, k * n, &mut c, m * n, usize::MAX / 2, m),
                    c,
                )
            }),
            // One shared A or B (stride 0) planted inside C's allocation,
            // so a call let through would still stay in bounds.
            ("AliasA: A read from C's memory", {
                let mut c = fresh();
                let cp = c.as_ptr();
                (run(cp, 0, bp, k * n, &mut c, m * n, count, m), c)
            }),
            ("AliasB: B read from C's memory, one element in", {
                let mut c = fresh();
                let cp = c.as_ptr().wrapping_add(1);
                (run(ap, m * k, cp, 0, &mut c, m * n, count, m), c)
            }),
        ]
        .map(|(what, (rc, c))| (what, rc, c))
        {
            assert_eq!(rc, -1, "{what}");
            assert_eq!(c, fresh(), "{what} wrote C");
        }
        // An empty output is a no-op whatever the count (one shared B).
        let mut c = fresh();
        assert_eq!(run(ap, 0, bp, 0, &mut c, 0, usize::MAX, 0), 0);
        assert_eq!(c, fresh());
    }
}

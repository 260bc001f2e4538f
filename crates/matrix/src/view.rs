//! Borrowed matrix views with explicit leading dimension.

use crate::Scalar;
use core::marker::PhantomData;

/// Immutable view over a row-major matrix: element `(i, j)` lives at
/// `ptr + i * ld + j`, with `ld >= cols` (the BLAS leading dimension).
///
/// Rows are contiguous; this is the invariant the micro-kernels' vector
/// loads rely on, and why transposition is handled by dedicated kernel
/// modes rather than stride games (paper §4.3).
pub struct MatRef<'a, T> {
    ptr: *const T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a [T]>,
}

impl<T> Clone for MatRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MatRef<'_, T> {}

// The view only permits reads of `T: Sync` data.
unsafe impl<T: Sync> Send for MatRef<'_, T> {}
unsafe impl<T: Sync> Sync for MatRef<'_, T> {}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// Creates a view over `data` interpreted as `rows x cols` with leading
    /// dimension `ld`.
    ///
    /// # Panics
    /// If `ld < cols` or `data` is too short to hold the last element.
    pub fn from_slice(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols, "leading dimension {ld} < cols {cols}");
        if rows > 0 && cols > 0 {
            let need = (rows - 1) * ld + cols;
            assert!(
                data.len() >= need,
                "slice of len {} too short for {rows}x{cols} ld {ld} (need {need})",
                data.len()
            );
        }
        Self {
            ptr: data.as_ptr(),
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Creates a view from a raw pointer.
    ///
    /// # Safety
    /// `ptr` must be valid for reads of `(rows-1)*ld + cols` elements for
    /// lifetime `'a`, and no aliasing `&mut` may exist.
    pub unsafe fn from_raw_parts(ptr: *const T, rows: usize, cols: usize, ld: usize) -> Self {
        // `ld >= cols` is not asserted: a view with overlapping rows is
        // representable (so the fallible GEMM API can inspect and reject
        // it) but reading one through the kernels is the caller's UB.
        Self {
            ptr,
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (distance in elements between row starts).
    #[inline(always)]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Raw pointer to element `(0, 0)`.
    #[inline(always)]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Element at `(i, j)` with bounds checking.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        unsafe { *self.ptr.add(i * self.ld + j) }
    }

    /// Element at `(i, j)` without bounds checking.
    ///
    /// # Safety
    /// `i < rows && j < cols`.
    #[inline(always)]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        *self.ptr.add(i * self.ld + j)
    }

    /// Sub-view of `nrows x ncols` starting at `(i, j)`, sharing storage.
    ///
    /// # Panics
    /// If the window exceeds the matrix bounds.
    pub fn submatrix(&self, i: usize, j: usize, nrows: usize, ncols: usize) -> MatRef<'a, T> {
        assert!(
            i + nrows <= self.rows && j + ncols <= self.cols,
            "submatrix ({i},{j})+{nrows}x{ncols} exceeds {}x{}",
            self.rows,
            self.cols
        );
        MatRef {
            ptr: unsafe { self.ptr.add(i * self.ld + j) },
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Copies the view into an owned [`crate::Matrix`] with a tight `ld`.
    pub fn to_owned(&self) -> crate::Matrix<T> {
        crate::Matrix::from_fn(self.rows, self.cols, |i, j| self.at(i, j))
    }
}

/// Mutable view over a row-major matrix; layout as in [`MatRef`].
pub struct MatMut<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for MatMut<'_, T> {}
unsafe impl<T: Sync> Sync for MatMut<'_, T> {}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// Creates a mutable view over `data` as `rows x cols`, leading
    /// dimension `ld`.
    ///
    /// # Panics
    /// If `ld < cols` or `data` is too short.
    pub fn from_slice(data: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols, "leading dimension {ld} < cols {cols}");
        if rows > 0 && cols > 0 {
            let need = (rows - 1) * ld + cols;
            assert!(
                data.len() >= need,
                "slice of len {} too short for {rows}x{cols} ld {ld} (need {need})",
                data.len()
            );
        }
        Self {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Creates a mutable view from a raw pointer.
    ///
    /// # Safety
    /// `ptr` must be valid for reads and writes of `(rows-1)*ld + cols`
    /// elements for `'a`, with no other live view of the same elements.
    /// Distinct `MatMut`s created this way for disjoint row/column blocks
    /// (as the parallel driver does) are sound because their element sets
    /// never overlap even though the `ld`-strided *ranges* interleave.
    pub unsafe fn from_raw_parts(ptr: *mut T, rows: usize, cols: usize, ld: usize) -> Self {
        // `ld >= cols` is not asserted; see `MatRef::from_raw_parts`.
        Self {
            ptr,
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension.
    #[inline(always)]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Raw mutable pointer to element `(0, 0)`.
    #[inline(always)]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    /// Raw const pointer to element `(0, 0)` (no mutable borrow needed;
    /// validation code compares addresses without touching data).
    #[inline(always)]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Element at `(i, j)` with bounds checking.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        unsafe { *self.ptr.add(i * self.ld + j) }
    }

    /// Writes `v` at `(i, j)` with bounds checking.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        unsafe { *self.ptr.add(i * self.ld + j) = v }
    }

    /// Immutable view of the same data (reborrow).
    #[inline(always)]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        unsafe { MatRef::from_raw_parts(self.ptr, self.rows, self.cols, self.ld) }
    }

    /// Mutable sub-view of `nrows x ncols` at `(i, j)`, reborrowing `self`.
    ///
    /// # Panics
    /// If the window exceeds the matrix bounds.
    pub fn submatrix_mut(
        &mut self,
        i: usize,
        j: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatMut<'_, T> {
        assert!(
            i + nrows <= self.rows && j + ncols <= self.cols,
            "submatrix ({i},{j})+{nrows}x{ncols} exceeds {}x{}",
            self.rows,
            self.cols
        );
        MatMut {
            ptr: unsafe { self.ptr.add(i * self.ld + j) },
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Fills the viewed elements with `v` (leaving `ld` padding untouched).
    pub fn fill(&mut self, v: T) {
        for i in 0..self.rows {
            for j in 0..self.cols {
                unsafe { *self.ptr.add(i * self.ld + j) = v };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_indexing_with_ld() {
        // 2x3 stored with ld 4: padding column ignored.
        let data = [1.0f32, 2.0, 3.0, -9.0, 4.0, 5.0, 6.0, -9.0];
        let m = MatRef::from_slice(&data, 2, 3, 4);
        assert_eq!(m.at(0, 0), 1.0);
        assert_eq!(m.at(0, 2), 3.0);
        assert_eq!(m.at(1, 0), 4.0);
        assert_eq!(m.at(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn ref_oob_panics() {
        let data = [0.0f64; 6];
        let m = MatRef::from_slice(&data, 2, 3, 3);
        m.at(2, 0);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn bad_ld_panics() {
        let data = [0.0f32; 6];
        let _ = MatRef::from_slice(&data, 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_slice_panics() {
        let data = [0.0f32; 5];
        let _ = MatRef::from_slice(&data, 2, 3, 3);
    }

    #[test]
    fn submatrix_offsets() {
        let data: Vec<f32> = (0..20).map(|x| x as f32).collect();
        let m = MatRef::from_slice(&data, 4, 5, 5);
        let s = m.submatrix(1, 2, 2, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.at(0, 0), 7.0);
        assert_eq!(s.at(1, 2), 14.0);
    }

    #[test]
    fn mut_set_and_fill() {
        let mut data = [0.0f32; 8];
        let mut m = MatMut::from_slice(&mut data, 2, 3, 4);
        m.set(1, 2, 42.0);
        assert_eq!(m.at(1, 2), 42.0);
        m.submatrix_mut(0, 0, 2, 2).fill(7.0);
        assert_eq!(m.at(0, 0), 7.0);
        assert_eq!(m.at(1, 1), 7.0);
        assert_eq!(m.at(0, 2), 0.0);
        // ld padding untouched
        assert_eq!(data[3], 0.0);
    }

    #[test]
    fn empty_views_are_fine() {
        let data: [f32; 0] = [];
        let m = MatRef::from_slice(&data, 0, 0, 0);
        assert_eq!(m.rows(), 0);
        let m2 = MatRef::from_slice(&data, 0, 5, 5);
        assert_eq!(m2.cols(), 5);
    }
}

//! Zero-copy views into [`Matrix`] data.
//!
//! A [`MatrixView`] is a borrowed, strided window onto a matrix's backing
//! buffer: it can present the matrix itself, its transpose
//! ([`Matrix::transpose_view`]), or any single row/column
//! ([`Matrix::row_view`], [`Matrix::col_view`] returning [`VecView`])
//! without materializing a copy. The prediction pipeline reads score
//! matrices both benchmark-major and machine-major; views make the
//! machine-major direction free.
//!
//! Views index through `offset + i · row_stride + j · col_stride`, so
//! transposition is a stride swap and row/column extraction is an offset
//! plus one stride — no data movement anywhere.
//!
//! # Example
//!
//! ```
//! use datatrans_linalg::Matrix;
//!
//! # fn main() -> Result<(), datatrans_linalg::LinalgError> {
//! let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])?;
//! let t = m.transpose_view();          // no copy
//! assert_eq!(t.shape(), (3, 2));
//! assert_eq!(t.at(2, 1), 6.0);
//! let col = m.col_view(1);             // no copy
//! assert_eq!(col.iter().collect::<Vec<_>>(), vec![2.0, 5.0]);
//! let doubled = t.map(|x| 2.0 * x);     // materialized
//! assert_eq!(doubled, Matrix::from_fn(3, 2, |i, j| 2.0 * m[(j, i)]));
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::ops::Index;

use crate::{kernels, LinalgError, Matrix, Result};

/// A borrowed, strided, read-only view of a matrix.
#[derive(Clone, Copy)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    offset: usize,
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a> MatrixView<'a> {
    /// Builds a view over a full row-major matrix buffer.
    ///
    /// Only [`Matrix`] constructs views, which keeps every view in-bounds by
    /// construction.
    pub(crate) fn full(data: &'a [f64], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        MatrixView {
            data,
            offset: 0,
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn at(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} view",
            self.rows,
            self.cols
        );
        self.data[self.offset + i * self.row_stride + j * self.col_stride]
    }

    /// The transposed view — a stride swap, no data movement.
    pub fn transpose(&self) -> MatrixView<'a> {
        MatrixView {
            data: self.data,
            offset: self.offset,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// View of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_view(&self, i: usize) -> VecView<'a> {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        VecView {
            data: self.data,
            offset: self.offset + i * self.row_stride,
            len: self.cols,
            stride: self.col_stride,
        }
    }

    /// View of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_view(&self, j: usize) -> VecView<'a> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        VecView {
            data: self.data,
            offset: self.offset + j * self.col_stride,
            len: self.rows,
            stride: self.row_stride,
        }
    }

    /// Iterates over all elements in row-major order of the view.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.rows).flat_map(move |i| (0..self.cols).map(move |j| self.at(i, j)))
    }

    /// Materializes `f` applied to every element into an owned matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| f(self.at(i, j)))
    }

    /// Matrix–vector product `out[i] = Σⱼ self[i,j] · v[j]` into a
    /// caller-owned buffer — the allocation-free GEMV kernel for hot loops.
    ///
    /// Every row reduces over the fixed 4-lane summation tree of
    /// [`crate::kernels`] (lane `l` sums terms with `j ≡ l (mod 4)`, lanes
    /// combine as `(l₀+l₁)+(l₂+l₃)`), so each `out[i]` is
    /// bitwise-identical to `kernels::dot_ref(row_i, v)` on both the
    /// contiguous and the strided path. The contiguous path runs
    /// [`kernels::dot_unrolled`] per row — the lane accumulators vectorize,
    /// and per-row unrolling measured faster than the 4-row-blocked
    /// variants it replaced (see the kernel's docs) — without touching the
    /// per-row tree the determinism tests pin down.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != cols` or
    /// `out.len() != rows`.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec_into (vector)",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec_into (output)",
                lhs: (self.rows, self.cols),
                rhs: (out.len(), 1),
            });
        }
        if self.col_stride == 1 {
            self.gemv_contiguous(v, out);
        } else {
            self.gemv_strided(v, out);
        }
        Ok(())
    }

    /// GEMV over rows that are contiguous slices (`col_stride == 1` — a
    /// matrix or any row-aligned window of one): one unrolled lane-tree
    /// dot per row.
    fn gemv_contiguous(&self, v: &[f64], out: &mut [f64]) {
        let cols = self.cols;
        for (i, acc) in out.iter_mut().enumerate() {
            let base = self.offset + i * self.row_stride;
            *acc = kernels::dot_unrolled(&self.data[base..base + cols], v);
        }
    }

    /// General strided GEMV (transposed or column views); same per-row
    /// summation tree as the contiguous path.
    fn gemv_strided(&self, v: &[f64], out: &mut [f64]) {
        for (i, acc) in out.iter_mut().enumerate() {
            let base = self.offset + i * self.row_stride;
            *acc = kernels::dot_strided(self.data, base, self.col_stride, v);
        }
    }
}

impl Index<(usize, usize)> for MatrixView<'_> {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} view",
            self.rows,
            self.cols
        );
        &self.data[self.offset + i * self.row_stride + j * self.col_stride]
    }
}

impl fmt::Debug for MatrixView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatrixView {}x{} ", self.rows, self.cols)?;
        f.debug_list()
            .entries((0..self.rows).map(|i| self.row_view(i).to_vec()))
            .finish()
    }
}

/// A borrowed, strided, read-only view of one row or column.
#[derive(Clone, Copy)]
pub struct VecView<'a> {
    data: &'a [f64],
    offset: usize,
    len: usize,
    stride: usize,
}

impl<'a> VecView<'a> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn at(&self, i: usize) -> f64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.data[self.offset + i * self.stride]
    }

    /// Iterates over the elements by value. The iterator is `Clone`, so
    /// multi-pass consumers (e.g. regression fits) need no buffer.
    pub fn iter(&self) -> impl Iterator<Item = f64> + Clone + 'a {
        let (data, offset, stride) = (self.data, self.offset, self.stride);
        (0..self.len).map(move |i| data[offset + i * stride])
    }

    /// The contiguous backing slice, when the stride permits one
    /// (always true for row views of a row-major matrix).
    pub fn as_slice(&self) -> Option<&'a [f64]> {
        if self.len == 0 {
            // An empty view's offset may sit past the backing buffer
            // (e.g. a column view of a 0-row matrix); don't index with it.
            Some(&[])
        } else if self.stride == 1 || self.len == 1 {
            Some(&self.data[self.offset..self.offset + self.len])
        } else {
            None
        }
    }

    /// Materializes the view into an owned vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

impl Index<usize> for VecView<'_> {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        &self.data[self.offset + i * self.stride]
    }
}

impl fmt::Debug for VecView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for VecView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn full_view_matches_matrix() {
        let m = sample();
        let v = m.view();
        assert_eq!(v.shape(), m.shape());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert_eq!(v.at(i, j), m[(i, j)]);
                assert_eq!(v[(i, j)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn transpose_view_equals_materialized_transpose() {
        let m = sample();
        assert_eq!(m.transpose_view().map(|x| x), m.transpose());
        // Round trip: transposing the view twice recovers the original.
        assert_eq!(m.transpose_view().transpose().map(|x| x), m);
    }

    #[test]
    fn col_view_equals_materialized_col() {
        let m = sample();
        for j in 0..m.cols() {
            assert_eq!(m.col_view(j).to_vec(), m.col(j));
        }
    }

    #[test]
    fn row_view_is_contiguous_and_matches() {
        let m = sample();
        for i in 0..m.rows() {
            let rv = m.row_view(i);
            assert_eq!(rv.as_slice(), Some(m.row(i)));
            assert_eq!(rv.to_vec(), m.row(i).to_vec());
        }
        // Column views of a wide matrix are strided: no contiguous slice.
        assert!(m.col_view(0).as_slice().is_none());
    }

    #[test]
    fn views_of_transpose_swap_roles() {
        let m = sample();
        let t = m.transpose_view();
        for i in 0..m.rows() {
            assert_eq!(t.col_view(i).to_vec(), m.row(i).to_vec());
        }
        for j in 0..m.cols() {
            assert_eq!(t.row_view(j).to_vec(), m.col(j));
        }
    }

    #[test]
    fn iter_is_row_major() {
        let m = sample();
        let flat: Vec<f64> = m.view().iter().collect();
        assert_eq!(flat, m.as_slice());
        let flat_t: Vec<f64> = m.transpose_view().iter().collect();
        assert_eq!(flat_t, m.transpose().as_slice());
    }

    #[test]
    fn map_applies_elementwise() {
        let m = sample();
        let doubled = m.view().map(|x| 2.0 * x);
        assert_eq!(doubled, Matrix::from_fn(2, 3, |i, j| 2.0 * m[(i, j)]));
    }

    #[test]
    fn vec_view_eq() {
        let m = sample();
        let r = m.row_view(0);
        let c = m.transpose_view().col_view(0);
        assert_eq!(r, c);
        assert_ne!(r, m.row_view(1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_bounds_checked() {
        let m = sample();
        let _ = m.view().at(5, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn vec_view_bounds_checked() {
        let m = sample();
        let _ = m.col_view(0).at(9);
    }

    /// The scalar reference GEMV: each row gathered into a dense slice and
    /// reduced by `kernels::dot_ref` — the exact lane-accumulated summation
    /// tree `mul_vec_into` must reproduce bit for bit on every path.
    fn gemv_reference(m: &MatrixView<'_>, v: &[f64]) -> Vec<f64> {
        (0..m.rows())
            .map(|i| {
                let row: Vec<f64> = m.row_view(i).iter().collect();
                kernels::dot_ref(&row, v)
            })
            .collect()
    }

    #[test]
    fn mul_vec_into_matches_scalar_loop_bitwise() {
        // Sizes straddling the row block: tails of 0..=3 rows, plus a
        // single row and a single column.
        for (rows, cols) in [(1, 1), (3, 5), (4, 7), (6, 2), (9, 24), (16, 16), (17, 3)] {
            let m = Matrix::from_fn(rows, cols, |i, j| {
                (((i * 31 + j * 17) % 13) as f64 - 6.0) * 0.37
            });
            let v: Vec<f64> = (0..cols)
                .map(|j| ((j * 7 % 5) as f64 - 2.0) * 1.13)
                .collect();
            let mut out = vec![f64::NAN; rows];
            m.view().mul_vec_into(&v, &mut out).unwrap();
            let want = gemv_reference(&m.view(), &v);
            for (i, (a, b)) in out.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{rows}x{cols} row {i}");
            }
        }
    }

    #[test]
    fn mul_vec_into_strided_transpose_matches_reference() {
        let m = Matrix::from_fn(5, 8, |i, j| (i as f64 + 1.0) * 0.5 - j as f64 * 0.25);
        let t = m.transpose_view();
        let v: Vec<f64> = (0..t.cols()).map(|j| j as f64 * 0.3 - 1.0).collect();
        let mut out = vec![0.0; t.rows()];
        t.mul_vec_into(&v, &mut out).unwrap();
        let want = gemv_reference(&t, &v);
        for (a, b) in out.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mul_vec_into_validates_shapes() {
        let m = sample();
        let mut out3 = vec![0.0; 3];
        let mut out2 = vec![0.0; 2];
        assert!(m.view().mul_vec_into(&[1.0, 2.0], &mut out2).is_err());
        assert!(m.view().mul_vec_into(&[1.0, 2.0, 3.0], &mut out3).is_err());
        assert!(m.view().mul_vec_into(&[1.0, 2.0, 3.0], &mut out2).is_ok());
        assert!(m.mul_vec_into(&[1.0, 2.0, 3.0], &mut out2).is_ok());
    }

    #[test]
    fn single_element_views() {
        let m = Matrix::from_rows(&[&[42.0]]).unwrap();
        assert_eq!(m.col_view(0).as_slice(), Some(&[42.0][..]));
        assert_eq!(m.transpose_view().at(0, 0), 42.0);
        assert!(!m.row_view(0).is_empty());
        assert_eq!(m.row_view(0).len(), 1);
    }
}

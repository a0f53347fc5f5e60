use std::fmt;
use std::ops::{Index, IndexMut};

use crate::view::{MatrixView, VecView};
use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container of the workspace: performance score
/// tables, regression design matrices, neural-network weight blocks and
/// covariance matrices are all `Matrix` values. It deliberately stays small:
/// shape-checked construction, element access, iteration, and the arithmetic
/// needed by the decompositions in [`crate::decomp`].
///
/// # Example
///
/// ```
/// use datatrans_linalg::Matrix;
///
/// # fn main() -> Result<(), datatrans_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// let mut c = [0.0; 2];
/// a.mul_vec_into(&[1.0, 2.0], &mut c)?;
/// assert_eq!(c, [5.0, 11.0]); // 1*1 + 2*2, 3*1 + 4*2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `rows` is empty or the first row is
    /// empty, and [`LinalgError::DimensionMismatch`] if rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { what: "rows" });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::Empty { what: "row 0" });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (i, r.len()),
                    rhs: (0, cols),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// True if the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Zero-copy view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::full(&self.data, self.rows, self.cols)
    }

    /// Zero-copy view of the transposed matrix — a stride swap, no data
    /// movement. Use this to read a benchmarks × machines score matrix
    /// machine-major without materializing [`Matrix::transpose`].
    pub fn transpose_view(&self) -> MatrixView<'_> {
        self.view().transpose()
    }

    /// Zero-copy view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_view(&self, i: usize) -> VecView<'_> {
        self.view().row_view(i)
    }

    /// Zero-copy strided view of column `j` (unlike [`Matrix::col`], which
    /// copies).
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_view(&self, j: usize) -> VecView<'_> {
        self.view().col_view(j)
    }

    /// Flat, row-major view of the underlying data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product into a caller-owned buffer: the
    /// allocation-free, row-blocked GEMV of
    /// [`MatrixView::mul_vec_into`] on the full matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != cols` or
    /// `out.len() != rows`.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        self.view().mul_vec_into(v, out)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Maximum absolute element, or 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Extracts a sub-matrix copying rows `rows` and columns `cols`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        // Validate up front: elementwise Index only debug_asserts, and a
        // flat index computed from an out-of-range column can still land
        // inside the backing buffer, silently reading the wrong element in
        // release builds.
        for &r in rows {
            assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        }
        for &c in cols {
            assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        }
        Matrix::from_fn(rows.len(), cols.len(), |i, j| self[(rows[i], cols[j])])
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows() {
            write!(f, "  ")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:>10.4}")?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert!(approx(i[(0, 0)], 1.0));
        assert!(approx(i[(1, 2)], 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
        let err = Matrix::from_rows(&[]).unwrap_err();
        assert!(matches!(err, LinalgError::Empty { .. }));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert!(approx(t[(2, 1)], 6.0));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn map_applies_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert_eq!(a.map(|x| x * x).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn row_col_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let a = Matrix::zeros(1, 1);
        let _ = a.row(5);
    }

    #[test]
    fn select_extracts_submatrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        let s = a.select(&[0, 2], &[1]);
        assert_eq!(s.shape(), (2, 1));
        assert_eq!(s.as_slice(), &[2.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "col index 3 out of bounds")]
    fn select_rejects_out_of_bounds_column() {
        // A column index equal to `cols` would compute a flat index that is
        // still inside the backing buffer — it must panic, not misread.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let _ = a.select(&[0], &[3]);
    }

    #[test]
    fn max_abs_and_finiteness() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!(approx(a.max_abs(), 4.0));
        assert!(a.all_finite());
        let b = Matrix::from_rows(&[&[f64::NAN]]).unwrap();
        assert!(!b.all_finite());
    }

    #[test]
    fn display_contains_elements() {
        let a = Matrix::from_rows(&[&[1.5, -2.0]]).unwrap();
        let s = format!("{a}");
        assert!(s.contains("1.5"));
        assert!(s.contains("-2.0"));
    }

    #[test]
    fn views_agree_with_owned_accessors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(a.view().map(|x| x), a);
        assert_eq!(a.transpose_view().map(|x| x), a.transpose());
        for j in 0..a.cols() {
            assert_eq!(a.col_view(j).to_vec(), a.col(j));
        }
        for i in 0..a.rows() {
            assert_eq!(a.row_view(i).as_slice(), Some(a.row(i)));
        }
    }
}

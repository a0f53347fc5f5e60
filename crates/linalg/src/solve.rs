//! High-level solver entry points built on the decompositions.

use crate::decomp::Qr;
use crate::{Matrix, Result};

/// Solves the least-squares problem `min ||A·x − b||₂` via Householder QR.
///
/// # Errors
///
/// Propagates [`crate::LinalgError`] from the QR factorization: empty or
/// non-finite input, fewer rows than columns, or a rank-deficient `A`.
///
/// # Example
///
/// ```
/// use datatrans_linalg::{Matrix, solve::lstsq};
///
/// # fn main() -> Result<(), datatrans_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let beta = lstsq(&a, &[0.9, 3.1, 5.0])?;
/// assert!((beta[1] - 2.05).abs() < 1e-9); // slope ≈ 2
/// # Ok(())
/// # }
/// ```
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Qr::new(a)?.solve(b)
}

/// Residual vector `b − A·x`, useful for verifying solutions in tests.
///
/// # Errors
///
/// Returns [`crate::LinalgError::DimensionMismatch`] when shapes disagree.
pub fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    let ax = a.matvec(x)?;
    Ok(b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lstsq_on_square_system_is_exact() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let x = lstsq(&a, &[9.0, 8.0]).unwrap();
        let r = residual(&a, &x, &[9.0, 8.0]).unwrap();
        assert!(r.iter().all(|v| v.abs() < 1e-10));
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns() {
        // Normal equations property: A^T (b - A x) = 0.
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[1.0, 1.5], &[1.0, 2.5], &[1.0, 4.0]]).unwrap();
        let b = [1.0, 2.0, 2.5, 5.0];
        let x = lstsq(&a, &b).unwrap();
        let r = residual(&a, &x, &b).unwrap();
        let at_r = a.transpose().matvec(&r).unwrap();
        assert!(at_r.iter().all(|v| v.abs() < 1e-10));
    }
}

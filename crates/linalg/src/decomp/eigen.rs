use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition of a symmetric matrix, sorted by descending eigenvalue.
///
/// Produced by [`symmetric_eigen`]; consumed primarily by PCA in the ML
/// substrate.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns, column `j` pairs with `values[j]`.
    pub vectors: Matrix,
}

/// Computes all eigenvalues and eigenvectors of a symmetric matrix using the
/// cyclic Jacobi rotation method.
///
/// Jacobi is slow for very large matrices but unconditionally stable and
/// exact for the modest dimensions used here (tens of workload
/// characteristics / machines).
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `a` is not square.
/// * [`LinalgError::Empty`] if `a` is empty.
/// * [`LinalgError::NonFinite`] if `a` contains NaN or infinities.
/// * [`LinalgError::NoConvergence`] if off-diagonal mass does not vanish
///   within the sweep budget (does not happen for symmetric input).
///
/// # Example
///
/// ```
/// use datatrans_linalg::{Matrix, decomp::symmetric_eigen};
///
/// # fn main() -> Result<(), datatrans_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = symmetric_eigen(&a)?;
/// assert!((eig.values[0] - 3.0).abs() < 1e-10);
/// assert!((eig.values[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if a.is_empty() {
        return Err(LinalgError::Empty { what: "matrix" });
    }
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite);
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    const MAX_SWEEPS: usize = 100;

    for _sweep in 0..MAX_SWEEPS {
        let off: f64 = off_diagonal_norm(&m);
        if off < 1e-14 * m.max_abs().max(1.0) {
            return Ok(sorted_eigen(m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // tan of the rotation angle, the numerically stable choice.
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation J(p, q, theta) on both sides.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        algorithm: "jacobi eigendecomposition",
        iterations: MAX_SWEEPS,
    })
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += m[(i, j)] * m[(i, j)];
            }
        }
    }
    s.sqrt()
}

fn sorted_eigen(m: Matrix, v: Matrix) -> SymmetricEigen {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let values: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .expect("finite eigenvalues")
    });
    let sorted_values: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    SymmetricEigen {
        values: sorted_values,
        vectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 7.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 7.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_v_lambda_vt() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let v = &e.vectors;
        // (V Λ Vᵀ)ᵢⱼ = Σₖ vᵢₖ λₖ vⱼₖ
        let rec = Matrix::from_fn(3, 3, |i, j| {
            (0..3).map(|k| v[(i, k)] * e.values[k] * v[(j, k)]).sum()
        });
        let err = Matrix::from_fn(3, 3, |i, j| rec[(i, j)] - a[(i, j)]);
        assert!(err.max_abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let v = &e.vectors;
        // (VᵀV − I)ᵢⱼ = Σₖ vₖᵢ vₖⱼ − δᵢⱼ
        let err = Matrix::from_fn(2, 2, |i, j| {
            let dot: f64 = (0..2).map(|k| v[(k, i)] * v[(k, j)]).sum();
            dot - if i == j { 1.0 } else { 0.0 }
        });
        assert!(err.max_abs() < 1e-10);
    }

    #[test]
    fn values_sorted_descending() {
        let a = Matrix::from_rows(&[&[1.0, 0.2, 0.1], &[0.2, 5.0, 0.3], &[0.1, 0.3, 2.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.values[0] >= e.values[1] && e.values[1] >= e.values[2]);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 4.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let trace = a[(0, 0)] + a[(1, 1)];
        assert!((e.values.iter().sum::<f64>() - trace).abs() < 1e-10);
    }

    #[test]
    fn rejects_rectangular() {
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
    }
}

//! Principal component analysis via the symmetric Jacobi eigensolver.
//!
//! Used for machine-similarity analysis (projecting machines into a
//! low-dimensional "behaviour space") and mirrors the workload-similarity
//! methodology of Eeckhout et al. cited in the paper's related work.

use datatrans_linalg::decomp::symmetric_eigen;
use datatrans_linalg::kernels;
use datatrans_linalg::Matrix;

use crate::{MlError, Result};

/// A fitted PCA transform.
///
/// # Example
///
/// ```
/// use datatrans_linalg::Matrix;
/// use datatrans_ml::pca::Pca;
///
/// # fn main() -> Result<(), datatrans_ml::MlError> {
/// // Points along the diagonal: the first axis lies close to (1, 1)/√2.
/// let data = Matrix::from_rows(&[
///     &[1.0, 1.1], &[2.0, 1.9], &[3.0, 3.2], &[4.0, 3.9],
/// ])?;
/// let pca = Pca::fit(&data, 1)?;
/// let axis = pca.components().col(0);
/// assert!((axis[0].abs() - axis[1].abs()).abs() < 0.05);
/// assert_eq!(pca.transform(&data)?.shape(), (4, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    /// Column means of the training data.
    mean: Vec<f64>,
    /// Principal axes as matrix columns (features × components).
    components: Matrix,
}

impl Pca {
    /// Fits a PCA with `n_components` axes on `data` (rows = samples).
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidInput`] if `data` has fewer than 2 rows, is
    ///   non-finite, or has zero total variance (every feature constant
    ///   across samples — the principal axes would be arbitrary).
    /// * [`MlError::InvalidParameter`] if `n_components` is zero or exceeds
    ///   the feature count.
    /// * [`MlError::Linalg`] if the eigendecomposition fails.
    pub fn fit(data: &Matrix, n_components: usize) -> Result<Self> {
        if data.rows() < 2 {
            return Err(MlError::invalid_input("need at least 2 samples for PCA"));
        }
        if !data.all_finite() {
            return Err(MlError::invalid_input("data contains NaN/inf"));
        }
        if n_components == 0 || n_components > data.cols() {
            return Err(MlError::InvalidParameter {
                name: "n_components",
                value: format!("{} ({} features)", n_components, data.cols()),
            });
        }
        let (n, p) = data.shape();
        let mut mean = vec![0.0; p];
        for row in data.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                mean[j] += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n as f64;
        }
        let mut cov = covariance_upper(data, &mean);
        let denom = (n - 1) as f64;
        for a in 0..p {
            for b in a..p {
                let v = cov[(a, b)] / denom;
                cov[(a, b)] = v;
                cov[(b, a)] = v;
            }
        }
        let eig = symmetric_eigen(&cov)?;
        let total_variance: f64 = eig.values.iter().map(|v| v.max(0.0)).sum();
        if total_variance == 0.0 {
            return Err(MlError::invalid_input(
                "constant-variance data: every feature is constant across samples",
            ));
        }
        let components = Matrix::from_fn(p, n_components, |i, j| eig.vectors[(i, j)]);
        Ok(Pca { mean, components })
    }

    /// Projects samples into component space (rows = samples).
    ///
    /// The inner products run through the fixed 4-lane summation tree of
    /// [`datatrans_linalg::kernels`] ([`kernels::dot_strided`] over the
    /// row-major component columns), so projections are bitwise-identical
    /// to gathering each component column and calling [`kernels::dot_ref`]
    /// — the same determinism contract the GEMV paths obey.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] on feature-count mismatch.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        if data.cols() != self.mean.len() {
            return Err(MlError::invalid_input(format!(
                "data has {} features, PCA fitted on {}",
                data.cols(),
                self.mean.len()
            )));
        }
        let p = self.mean.len();
        let k = self.components.cols();
        let mut out = Matrix::zeros(data.rows(), k);
        let mut centered = vec![0.0; p];
        for i in 0..data.rows() {
            let row = data.row(i);
            for (c, (&v, &m)) in centered.iter_mut().zip(row.iter().zip(&self.mean)) {
                *c = v - m;
            }
            // Component j is the strided column `j, j+k, j+2k, …` of the
            // row-major `p × k` components matrix.
            let row_out = out.row_mut(i);
            for (j, slot) in row_out.iter_mut().enumerate() {
                *slot = kernels::dot_strided(self.components.as_slice(), j, k, &centered);
            }
        }
        Ok(out)
    }

    /// Projects one sample into component space.
    ///
    /// Bitwise-identical to the matching row of [`Pca::transform`] (same
    /// kernel, same operand order).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] on feature-count mismatch.
    pub fn project(&self, sample: &[f64]) -> Result<Vec<f64>> {
        if sample.len() != self.mean.len() {
            return Err(MlError::invalid_input(format!(
                "sample has {} features, PCA fitted on {}",
                sample.len(),
                self.mean.len()
            )));
        }
        let k = self.components.cols();
        let centered: Vec<f64> = sample
            .iter()
            .zip(&self.mean)
            .map(|(&v, &m)| v - m)
            .collect();
        Ok((0..k)
            .map(|j| kernels::dot_strided(self.components.as_slice(), j, k, &centered))
            .collect())
    }

    /// Number of components kept.
    pub fn n_components(&self) -> usize {
        self.components.cols()
    }

    /// Column means of the training data (the centering offset).
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Principal axes as matrix columns (`features × components`).
    pub fn components(&self) -> &Matrix {
        &self.components
    }
}

/// The upper triangle of the scatter matrix of `data` about `mean`
/// (`p × p`, rows = samples), the lower triangle left zero.
///
/// Each sample is centred once, and each triangle row is accumulated as
/// one contiguous slice. Every entry still sums its sample products in
/// sample order, so the result is bit-equal to the entry-by-entry loop
/// (`covariance_upper_ref` in the tests).
fn covariance_upper(data: &Matrix, mean: &[f64]) -> Matrix {
    let p = mean.len();
    let mut cov = Matrix::zeros(p, p);
    let mut centred = vec![0.0; p];
    for row in data.iter_rows() {
        for ((c, &v), &m) in centred.iter_mut().zip(row).zip(mean) {
            *c = v - m;
        }
        for (a, &da) in centred.iter().enumerate() {
            for (slot, &db) in cov.row_mut(a)[a..].iter_mut().zip(&centred[a..]) {
                *slot += da * db;
            }
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entry-by-entry scatter loop `covariance_upper` replaced: the
    /// bit-exact reference.
    fn covariance_upper_ref(data: &Matrix, mean: &[f64]) -> Matrix {
        let p = mean.len();
        let mut cov = Matrix::zeros(p, p);
        for row in data.iter_rows() {
            for a in 0..p {
                let da = row[a] - mean[a];
                for b in a..p {
                    let db = row[b] - mean[b];
                    cov[(a, b)] += da * db;
                }
            }
        }
        cov
    }

    #[test]
    fn covariance_is_bitwise_pinned_to_the_entry_loop() {
        let mut rows = Vec::new();
        for i in 0..37 {
            let t = i as f64;
            rows.push(vec![
                (t * 0.37).sin() * 3.0,
                t.ln_1p(),
                1.0 / (t + 0.5),
                (t * 1.3).cos() - 0.25,
                t * 1e-3 + 7.0,
                -(t * 0.11).exp(),
                t * t * 1e-2,
            ]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let data = Matrix::from_rows(&refs).unwrap();
        let p = data.cols();
        let mut mean = vec![0.0; p];
        for row in data.iter_rows() {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= data.rows() as f64;
        }
        let fast = covariance_upper(&data, &mean);
        let reference = covariance_upper_ref(&data, &mean);
        for a in 0..p {
            for b in 0..p {
                assert_eq!(
                    fast[(a, b)].to_bits(),
                    reference[(a, b)].to_bits(),
                    "entry ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn first_component_captures_dominant_direction() {
        // Variance along x is 100x variance along y.
        let mut rows = Vec::new();
        for i in 0..20 {
            let t = (i as f64 - 9.5) / 10.0;
            rows.push(vec![10.0 * t, 0.1 * if i % 2 == 0 { 1.0 } else { -1.0 }]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let data = Matrix::from_rows(&refs).unwrap();
        let pca = Pca::fit(&data, 2).unwrap();
        // First axis should be (±1, ~0).
        let axis_x = pca.components[(0, 0)].abs();
        assert!(axis_x > 0.999);
    }

    #[test]
    fn transform_centers_data() {
        let data = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let pca = Pca::fit(&data, 1).unwrap();
        let scores = pca.transform(&data).unwrap();
        let mean_score: f64 = scores.col(0).iter().sum::<f64>() / 3.0;
        assert!(mean_score.abs() < 1e-10);
    }

    #[test]
    fn projection_preserves_pairwise_order_on_line() {
        // Collinear points: 1D projection must preserve ordering (up to sign).
        let data =
            Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let pca = Pca::fit(&data, 1).unwrap();
        let s = pca.transform(&data).unwrap().col(0);
        let increasing = s.windows(2).all(|w| w[1] > w[0]);
        let decreasing = s.windows(2).all(|w| w[1] < w[0]);
        assert!(increasing || decreasing);
    }

    #[test]
    fn transform_is_bitwise_pinned_to_the_scalar_reference() {
        use datatrans_linalg::kernels::dot_ref;
        let mut rows = Vec::new();
        for i in 0..12 {
            let t = i as f64;
            rows.push(vec![
                3.0 * t + 0.25,
                (t * 0.7).sin() * 5.0,
                t * t * 0.01 - 1.0,
                1.0 / (t + 1.0),
                t.mul_add(0.3, -2.0),
            ]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let data = Matrix::from_rows(&refs).unwrap();
        let pca = Pca::fit(&data, 3).unwrap();
        let scores = pca.transform(&data).unwrap();
        for (i, row) in data.iter_rows().enumerate() {
            let centered: Vec<f64> = row.iter().zip(pca.mean()).map(|(&v, &m)| v - m).collect();
            let projected = pca.project(row).unwrap();
            for j in 0..3 {
                // Scalar specification: gather component column j densely,
                // then the reference 4-lane dot.
                let column: Vec<f64> = (0..row.len()).map(|f| pca.components()[(f, j)]).collect();
                let want = dot_ref(&centered, &column);
                assert_eq!(
                    scores[(i, j)].to_bits(),
                    want.to_bits(),
                    "sample {i} comp {j}"
                );
                assert_eq!(
                    projected[j].to_bits(),
                    want.to_bits(),
                    "project {i} comp {j}"
                );
            }
        }
    }

    #[test]
    fn constant_variance_input_is_a_typed_error() {
        let data = Matrix::from_rows(&[&[2.0, 5.0], &[2.0, 5.0], &[2.0, 5.0]]).unwrap();
        assert!(matches!(
            Pca::fit(&data, 1),
            Err(MlError::InvalidInput { .. })
        ));
    }

    #[test]
    fn validates_input() {
        let data = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(Pca::fit(&data, 1).is_err()); // one sample
        let ok = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!(Pca::fit(&ok, 0).is_err());
        assert!(Pca::fit(&ok, 3).is_err());
        let pca = Pca::fit(&ok, 1).unwrap();
        assert!(pca.transform(&Matrix::zeros(1, 3)).is_err());
        assert_eq!(pca.n_components(), 1);
    }
}

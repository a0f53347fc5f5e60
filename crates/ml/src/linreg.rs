//! Linear regression: the empirical model behind NNᵀ.
//!
//! [`SimpleLinearRegression`] fits `y = a·x + b` by ordinary least squares —
//! exactly the per-machine-pair model of the paper's Figure 3.
//! [`MultipleLinearRegression`] generalizes to several regressors via QR.

use datatrans_linalg::{solve::lstsq, Matrix};

use crate::{MlError, Result};

/// Ordinary least-squares fit of `y = slope·x + intercept`.
///
/// # Example
///
/// ```
/// use datatrans_ml::linreg::SimpleLinearRegression;
///
/// # fn main() -> Result<(), datatrans_ml::MlError> {
/// let fit = SimpleLinearRegression::fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0])?;
/// assert!((fit.slope() - 2.0).abs() < 1e-12);
/// assert!((fit.intercept() - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleLinearRegression {
    slope: f64,
    intercept: f64,
    r_squared: f64,
    residual_std: f64,
    n: usize,
}

impl SimpleLinearRegression {
    /// Fits the regression on paired samples.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidInput`] if lengths differ, fewer than 2 points are
    ///   given, inputs are non-finite, or `x` is constant.
    pub fn fit(x: &[f64], y: &[f64]) -> Result<Self> {
        if x.len() != y.len() {
            return Err(MlError::invalid_input(format!(
                "x has {} points, y has {}",
                x.len(),
                y.len()
            )));
        }
        Self::fit_pairs(x.iter().copied().zip(y.iter().copied()))
    }

    /// Fits the regression on an iterator of `(x, y)` pairs.
    ///
    /// This is the zero-copy entry point: pairs of strided matrix-column
    /// views can be fed directly, so no per-column buffer is materialized.
    /// The iterator must be `Clone` because the fit makes two passes
    /// (means, then centered moments; the residual sum falls out of the
    /// moments algebraically).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimpleLinearRegression::fit`].
    pub fn fit_pairs(pairs: impl Iterator<Item = (f64, f64)> + Clone) -> Result<Self> {
        let mut n = 0usize;
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        for (xi, yi) in pairs.clone() {
            if !xi.is_finite() || !yi.is_finite() {
                return Err(MlError::invalid_input("input contains NaN/inf"));
            }
            sum_x += xi;
            sum_y += yi;
            n += 1;
        }
        if n < 2 {
            return Err(MlError::invalid_input("need at least 2 points"));
        }
        let nf = n as f64;
        let mx = sum_x / nf;
        let my = sum_y / nf;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (xi, yi) in pairs {
            sxx += (xi - mx) * (xi - mx);
            sxy += (xi - mx) * (yi - my);
            syy += (yi - my) * (yi - my);
        }
        Self::from_moments(n, mx, my, sxx, sxy, syy)
    }

    /// Finishes a fit from its moments: `n` points with means `mx`, `my`
    /// and centred sums `sxx = Σ(x−mx)²`, `sxy = Σ(x−mx)(y−my)`,
    /// `syy = Σ(y−my)²`.
    ///
    /// [`SimpleLinearRegression::fit_pairs`] ends here. A caller that
    /// accumulates the moments itself — NNᵀ computes each predictive
    /// column's `mx` and `sxx` once for every target — gets the bits of
    /// `fit_pairs` as long as each sum adds the same terms in the same
    /// order.
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidInput`] if `sxx == 0` (`x` is constant).
    pub fn from_moments(n: usize, mx: f64, my: f64, sxx: f64, sxy: f64, syy: f64) -> Result<Self> {
        if sxx == 0.0 {
            return Err(MlError::invalid_input("x is constant"));
        }
        let nf = n as f64;
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        // For the least-squares line, SS_res = syy − slope·sxy — no third
        // pass over the data. Cancellation on a near-exact fit can drive the
        // difference a hair negative; clamp to 0.
        let ss_res = (syy - slope * sxy).max(0.0);
        // R² = 1 - SS_res/SS_tot; for constant y define R² = 1 (perfect fit
        // by the constant model, which the line reproduces).
        let r_squared = if syy == 0.0 { 1.0 } else { 1.0 - ss_res / syy };
        let dof = (nf - 2.0).max(1.0);
        let residual_std = (ss_res / dof).sqrt();
        Ok(SimpleLinearRegression {
            slope,
            intercept,
            r_squared,
            residual_std,
            n,
        })
    }

    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Fitted slope.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Coefficient of determination on the training data.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Residual standard deviation (`sqrt(SS_res / (n − 2))`).
    pub fn residual_std(&self) -> f64 {
        self.residual_std
    }

    /// Number of training points.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Multiple linear regression `y = β₀ + β₁x₁ + … + βₚxₚ` via Householder QR.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipleLinearRegression {
    /// Coefficients; `coefficients[0]` is the intercept.
    coefficients: Vec<f64>,
    r_squared: f64,
}

impl MultipleLinearRegression {
    /// Fits on a sample matrix (rows = samples, columns = regressors) and a
    /// target vector. An intercept column is added internally.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidInput`] on shape mismatch, fewer samples than
    ///   `regressors + 1`, or non-finite input.
    /// * [`MlError::Linalg`] if the design matrix is rank-deficient.
    pub fn fit(x: &Matrix, y: &[f64]) -> Result<Self> {
        if x.rows() != y.len() {
            return Err(MlError::invalid_input(format!(
                "x has {} rows, y has {} values",
                x.rows(),
                y.len()
            )));
        }
        if x.rows() < x.cols() + 1 {
            return Err(MlError::invalid_input(format!(
                "need at least {} samples for {} regressors",
                x.cols() + 1,
                x.cols()
            )));
        }
        if !x.all_finite() || y.iter().any(|v| !v.is_finite()) {
            return Err(MlError::invalid_input("input contains NaN/inf"));
        }
        // Design matrix with a leading intercept column.
        let design = Matrix::from_fn(x.rows(), x.cols() + 1, |i, j| {
            if j == 0 {
                1.0
            } else {
                x[(i, j - 1)]
            }
        });
        let coefficients = lstsq(&design, y)?;
        let fitted = design.matvec(&coefficients)?;
        let my = y.iter().sum::<f64>() / y.len() as f64;
        let ss_tot: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
        let ss_res: f64 = y.iter().zip(&fitted).map(|(v, f)| (v - f) * (v - f)).sum();
        let r_squared = if ss_tot == 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        Ok(MultipleLinearRegression {
            coefficients,
            r_squared,
        })
    }

    /// Predicted value for a feature row (without intercept column).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] if the feature count differs from
    /// the fitted model.
    pub fn predict(&self, features: &[f64]) -> Result<f64> {
        if features.len() + 1 != self.coefficients.len() {
            return Err(MlError::invalid_input(format!(
                "expected {} features, got {}",
                self.coefficients.len() - 1,
                features.len()
            )));
        }
        Ok(self.coefficients[0]
            + features
                .iter()
                .zip(&self.coefficients[1..])
                .map(|(f, c)| f * c)
                .sum::<f64>())
    }

    /// Coefficients (`[intercept, β₁, …, βₚ]`).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Coefficient of determination on the training data.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_fit_known_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| -3.0 * v + 7.0).collect();
        let fit = SimpleLinearRegression::fit(&x, &y).unwrap();
        assert!((fit.slope() + 3.0).abs() < 1e-12);
        assert!((fit.intercept() - 7.0).abs() < 1e-12);
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
        assert!(fit.residual_std() < 1e-10);
        assert_eq!(fit.n(), 4);
    }

    #[test]
    fn simple_fit_with_noise_has_lower_r2() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.1, 3.9, 6.2, 7.8, 9.5];
        let fit = SimpleLinearRegression::fit(&x, &y).unwrap();
        assert!(fit.r_squared() > 0.99 && fit.r_squared() < 1.0);
        assert!(fit.residual_std() > 0.0);
    }

    #[test]
    fn simple_fit_predicts() {
        let fit = SimpleLinearRegression::fit(&[0.0, 2.0], &[1.0, 5.0]).unwrap();
        assert!((fit.predict(3.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn simple_fit_validates() {
        assert!(SimpleLinearRegression::fit(&[1.0], &[1.0]).is_err());
        assert!(SimpleLinearRegression::fit(&[1.0, 2.0], &[1.0]).is_err());
        assert!(SimpleLinearRegression::fit(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(SimpleLinearRegression::fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn simple_fit_constant_y_r2_is_one() {
        let fit = SimpleLinearRegression::fit(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]).unwrap();
        assert_eq!(fit.slope(), 0.0);
        assert_eq!(fit.r_squared(), 1.0);
    }

    #[test]
    fn multiple_fit_recovers_plane() {
        // y = 1 + 2a - 3b over a small grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                rows.push([a as f64, b as f64]);
                y.push(1.0 + 2.0 * a as f64 - 3.0 * b as f64);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs).unwrap();
        let fit = MultipleLinearRegression::fit(&x, &y).unwrap();
        let c = fit.coefficients();
        assert!((c[0] - 1.0).abs() < 1e-10);
        assert!((c[1] - 2.0).abs() < 1e-10);
        assert!((c[2] + 3.0).abs() < 1e-10);
        assert!((fit.predict(&[1.0, 1.0]).unwrap() - 0.0).abs() < 1e-10);
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_fit_validates() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]).unwrap();
        // 2 samples < 2 regressors + 1.
        assert!(MultipleLinearRegression::fit(&x, &[1.0, 2.0]).is_err());
        let x3 = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        assert!(MultipleLinearRegression::fit(&x3, &[1.0, 2.0]).is_err());
        let fit = MultipleLinearRegression::fit(&x3, &[1.0, 2.0, 3.0]).unwrap();
        assert!(fit.predict(&[1.0, 2.0]).is_err());
    }
}

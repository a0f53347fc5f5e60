//! Feature scaling fitted on training data and applied to held-out data.

use datatrans_linalg::Matrix;

use crate::{MlError, Result};

/// Per-feature min-max scaler mapping the training range to `[lo, hi]`.
///
/// WEKA's MultilayerPerceptron normalizes attributes (and a numeric class)
/// to `[-1, 1]`; [`MinMaxScaler::weka`] reproduces that. Constant features
/// map to the midpoint of the output range.
///
/// # Example
///
/// ```
/// use datatrans_ml::scale::MinMaxScaler;
///
/// # fn main() -> Result<(), datatrans_ml::MlError> {
/// let scaler = MinMaxScaler::fit_1d(&[10.0, 20.0, 30.0], -1.0, 1.0)?;
/// assert_eq!(scaler.transform_value(0, 20.0), 0.0);
/// assert_eq!(scaler.inverse_value(0, 1.0), 30.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
    lo: f64,
    hi: f64,
}

impl MinMaxScaler {
    /// Fits the scaler on the columns of `data` (rows are samples).
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidInput`] if `data` is empty or contains non-finite
    ///   values, or `lo >= hi`.
    pub fn fit(data: &Matrix, lo: f64, hi: f64) -> Result<Self> {
        if data.is_empty() {
            return Err(MlError::invalid_input("cannot fit scaler on empty data"));
        }
        if !data.all_finite() {
            return Err(MlError::invalid_input("scaler input contains NaN/inf"));
        }
        if lo >= hi {
            return Err(MlError::InvalidParameter {
                name: "output range",
                value: format!("[{lo}, {hi}]"),
            });
        }
        let cols = data.cols();
        let mut mins = vec![f64::INFINITY; cols];
        let mut maxs = vec![f64::NEG_INFINITY; cols];
        for row in data.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        Ok(MinMaxScaler { mins, maxs, lo, hi })
    }

    /// Fits on a single feature (column vector).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MinMaxScaler::fit`].
    pub fn fit_1d(values: &[f64], lo: f64, hi: f64) -> Result<Self> {
        let m = Matrix::from_vec(values.len(), 1, values.to_vec())
            .map_err(|_| MlError::invalid_input("empty 1d input"))?;
        Self::fit(&m, lo, hi)
    }

    /// WEKA-style `[-1, 1]` scaler.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MinMaxScaler::fit`].
    pub fn weka(data: &Matrix) -> Result<Self> {
        Self::fit(data, -1.0, 1.0)
    }

    /// Fits the scaler over the rows of several matrices at once, without
    /// concatenating them.
    ///
    /// MLPᵀ uses this transductively: the per-feature range is taken over
    /// both the (labelled) predictive machines and the (unlabelled) target
    /// machines, whose benchmark scores are all published data. With tiny
    /// training sets this keeps held-out feature rows inside the scaled
    /// range instead of extrapolating far past it and saturating the
    /// network.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidInput`] if no matrix is given, the matrices have
    ///   different column counts, any is empty/non-finite, or `lo >= hi`.
    pub fn fit_many(parts: &[&Matrix], lo: f64, hi: f64) -> Result<Self> {
        let [first, rest @ ..] = parts else {
            return Err(MlError::invalid_input("cannot fit scaler on no data"));
        };
        let mut scaler = Self::fit(first, lo, hi)?;
        for part in rest {
            if part.cols() != scaler.mins.len() {
                return Err(MlError::invalid_input(format!(
                    "matrix has {} features, first had {}",
                    part.cols(),
                    scaler.mins.len()
                )));
            }
            if part.is_empty() {
                return Err(MlError::invalid_input("cannot fit scaler on empty data"));
            }
            if !part.all_finite() {
                return Err(MlError::invalid_input("scaler input contains NaN/inf"));
            }
            for row in part.iter_rows() {
                for (j, &v) in row.iter().enumerate() {
                    scaler.mins[j] = scaler.mins[j].min(v);
                    scaler.maxs[j] = scaler.maxs[j].max(v);
                }
            }
        }
        Ok(scaler)
    }

    /// Number of features the scaler was fitted on.
    pub fn n_features(&self) -> usize {
        self.mins.len()
    }

    /// The fitted per-feature minima and maxima, in feature order.
    pub fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.mins, &self.maxs)
    }

    /// The output range `(lo, hi)` that features are scaled onto.
    pub fn output_range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Scales a single value of feature `j`.
    ///
    /// Values outside the training range extrapolate linearly; constant
    /// training features map to the midpoint of the output range.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn transform_value(&self, j: usize, v: f64) -> f64 {
        let (min, max) = (self.mins[j], self.maxs[j]);
        if max == min {
            return (self.lo + self.hi) / 2.0;
        }
        self.lo + (v - min) / (max - min) * (self.hi - self.lo)
    }

    /// Inverse of [`MinMaxScaler::transform_value`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn inverse_value(&self, j: usize, s: f64) -> f64 {
        let (min, max) = (self.mins[j], self.maxs[j]);
        if max == min {
            return min;
        }
        min + (s - self.lo) / (self.hi - self.lo) * (max - min)
    }

    /// Scales a full sample row in place.
    ///
    /// Vectorized form of [`MinMaxScaler::transform_value`] over the row:
    /// one zipped pass against the fitted bounds, with the **same**
    /// per-element expression `lo + (v − min) / (max − min) · (hi − lo)`
    /// — so each output is bitwise-identical to calling `transform_value`
    /// per element (floating-point rounding depends on the operation
    /// order, so the expression is pinned, not just the formula).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] if the row length differs from the
    /// fitted feature count.
    pub fn transform_row(&self, row: &mut [f64]) -> Result<()> {
        if row.len() != self.mins.len() {
            return Err(MlError::invalid_input(format!(
                "row has {} features, scaler fitted on {}",
                row.len(),
                self.mins.len()
            )));
        }
        let mid = (self.lo + self.hi) / 2.0;
        let span = self.hi - self.lo;
        for (v, (&min, &max)) in row.iter_mut().zip(self.mins.iter().zip(&self.maxs)) {
            *v = if max == min {
                mid
            } else {
                self.lo + (*v - min) / (max - min) * span
            };
        }
        Ok(())
    }

    /// Scales an entire sample matrix, returning a new matrix.
    ///
    /// Whole-column vectorized: each output row is produced by one
    /// [`MinMaxScaler::transform_row`] pass over a copied input row,
    /// bitwise-identical to the former per-element `transform_value` map.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] on column-count mismatch.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        if data.cols() != self.mins.len() {
            return Err(MlError::invalid_input(format!(
                "data has {} features, scaler fitted on {}",
                data.cols(),
                self.mins.len()
            )));
        }
        let mut out = data.clone();
        for i in 0..out.rows() {
            self.transform_row(out.row_mut(i))?;
        }
        Ok(out)
    }

    /// Maps a full row of scaled values back to the original feature
    /// domain in place — the vectorized inverse of
    /// [`MinMaxScaler::transform_row`], pinned to the per-element
    /// expression of [`MinMaxScaler::inverse_value`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] if the row length differs from the
    /// fitted feature count.
    pub fn inverse_row(&self, row: &mut [f64]) -> Result<()> {
        if row.len() != self.mins.len() {
            return Err(MlError::invalid_input(format!(
                "row has {} features, scaler fitted on {}",
                row.len(),
                self.mins.len()
            )));
        }
        let span = self.hi - self.lo;
        for (s, (&min, &max)) in row.iter_mut().zip(self.mins.iter().zip(&self.maxs)) {
            *s = if max == min {
                min
            } else {
                min + (*s - self.lo) / span * (max - min)
            };
        }
        Ok(())
    }

    /// Maps an entire matrix of scaled values back to the original feature
    /// domain — the batch inverse of [`MinMaxScaler::transform`].
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] on column-count mismatch.
    pub fn inverse(&self, data: &Matrix) -> Result<Matrix> {
        if data.cols() != self.mins.len() {
            return Err(MlError::invalid_input(format!(
                "data has {} features, scaler fitted on {}",
                data.cols(),
                self.mins.len()
            )));
        }
        let mut out = data.clone();
        for i in 0..out.rows() {
            self.inverse_row(out.row_mut(i))?;
        }
        Ok(out)
    }
}

/// Per-feature standardizer to zero mean and unit variance.
///
/// Constant features are passed through centered (divided by 1 instead of 0).
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler on the columns of `data` (rows are samples).
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidInput`] if `data` is empty, has a single row, or
    ///   contains non-finite values.
    pub fn fit(data: &Matrix) -> Result<Self> {
        if data.is_empty() {
            return Err(MlError::invalid_input("cannot fit scaler on empty data"));
        }
        if data.rows() < 2 {
            return Err(MlError::invalid_input(
                "need at least 2 samples to standardize",
            ));
        }
        if !data.all_finite() {
            return Err(MlError::invalid_input("scaler input contains NaN/inf"));
        }
        let (n, cols) = data.shape();
        let mut means = vec![0.0; cols];
        for row in data.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                means[j] += v;
            }
        }
        for m in means.iter_mut() {
            *m /= n as f64;
        }
        let mut stds = vec![0.0; cols];
        for row in data.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                stds[j] += (v - means[j]) * (v - means[j]);
            }
        }
        for s in stds.iter_mut() {
            *s = (*s / (n - 1) as f64).sqrt();
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        Ok(StandardScaler { means, stds })
    }

    /// Number of features the scaler was fitted on.
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Standardizes one value of feature `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn transform_value(&self, j: usize, v: f64) -> f64 {
        (v - self.means[j]) / self.stds[j]
    }

    /// Inverse of [`StandardScaler::transform_value`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn inverse_value(&self, j: usize, z: f64) -> f64 {
        z * self.stds[j] + self.means[j]
    }

    /// Standardizes an entire sample matrix, returning a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] on column-count mismatch.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        if data.cols() != self.means.len() {
            return Err(MlError::invalid_input(format!(
                "data has {} features, scaler fitted on {}",
                data.cols(),
                self.means.len()
            )));
        }
        Ok(Matrix::from_fn(data.rows(), data.cols(), |i, j| {
            self.transform_value(j, data[(i, j)])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_maps_training_range_to_bounds() {
        let data = Matrix::from_rows(&[&[0.0, 100.0], &[10.0, 200.0]]).unwrap();
        let s = MinMaxScaler::weka(&data).unwrap();
        assert_eq!(s.transform_value(0, 0.0), -1.0);
        assert_eq!(s.transform_value(0, 10.0), 1.0);
        assert_eq!(s.transform_value(0, 5.0), 0.0);
        assert_eq!(s.transform_value(1, 150.0), 0.0);
    }

    #[test]
    fn minmax_extrapolates_outside_range() {
        let s = MinMaxScaler::fit_1d(&[0.0, 10.0], -1.0, 1.0).unwrap();
        assert_eq!(s.transform_value(0, 20.0), 3.0);
        assert_eq!(s.transform_value(0, -10.0), -3.0);
    }

    #[test]
    fn minmax_constant_feature_maps_to_midpoint() {
        let s = MinMaxScaler::fit_1d(&[5.0, 5.0], -1.0, 1.0).unwrap();
        assert_eq!(s.transform_value(0, 5.0), 0.0);
        assert_eq!(s.inverse_value(0, 0.7), 5.0);
    }

    #[test]
    fn minmax_inverse_roundtrip() {
        let s = MinMaxScaler::fit_1d(&[2.0, 8.0, 5.0], 0.0, 1.0).unwrap();
        for v in [2.0, 3.7, 8.0, 12.0] {
            let z = s.transform_value(0, v);
            assert!((s.inverse_value(0, z) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn minmax_transform_matrix() {
        let data = Matrix::from_rows(&[&[0.0, 1.0], &[4.0, 3.0]]).unwrap();
        let s = MinMaxScaler::fit(&data, 0.0, 1.0).unwrap();
        let t = s.transform(&data).unwrap();
        assert_eq!(t.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
        let wrong = Matrix::zeros(1, 3);
        assert!(s.transform(&wrong).is_err());
    }

    #[test]
    fn minmax_fit_many_spans_all_parts() {
        let a = Matrix::from_rows(&[&[0.0, 5.0], &[2.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[-2.0, 9.0]]).unwrap();
        let s = MinMaxScaler::fit_many(&[&a, &b], -1.0, 1.0).unwrap();
        // Feature 0 range is [-2, 2]; feature 1 range is [5, 9].
        assert_eq!(s.transform_value(0, -2.0), -1.0);
        assert_eq!(s.transform_value(0, 2.0), 1.0);
        assert_eq!(s.transform_value(1, 9.0), 1.0);
        // Single part behaves exactly like `fit`.
        let one = MinMaxScaler::fit_many(&[&a], -1.0, 1.0).unwrap();
        assert_eq!(one, MinMaxScaler::weka(&a).unwrap());
    }

    #[test]
    fn minmax_fit_many_validates() {
        let a = Matrix::from_rows(&[&[0.0, 5.0]]).unwrap();
        let wrong = Matrix::zeros(1, 3);
        assert!(MinMaxScaler::fit_many(&[], -1.0, 1.0).is_err());
        assert!(MinMaxScaler::fit_many(&[&a, &wrong], -1.0, 1.0).is_err());
        let nan = Matrix::from_rows(&[&[f64::NAN, 1.0]]).unwrap();
        assert!(MinMaxScaler::fit_many(&[&a, &nan], -1.0, 1.0).is_err());
    }

    #[test]
    fn minmax_validates() {
        assert!(MinMaxScaler::fit_1d(&[], -1.0, 1.0).is_err());
        assert!(MinMaxScaler::fit_1d(&[1.0, f64::NAN], -1.0, 1.0).is_err());
        assert!(MinMaxScaler::fit_1d(&[1.0], 1.0, -1.0).is_err());
    }

    /// A constant column (zero range) pins every transformed value — even
    /// ones far outside the fitted point — to the output midpoint, and the
    /// inverse returns the fitted constant regardless of the scaled input.
    #[test]
    fn minmax_constant_column_zero_range_pinned() {
        let data = Matrix::from_rows(&[&[7.5, 1.0], &[7.5, 3.0], &[7.5, 2.0]]).unwrap();
        let s = MinMaxScaler::fit(&data, -1.0, 1.0).unwrap();
        // Transform: the constant feature maps to the midpoint whatever
        // value comes in; the varying feature scales normally.
        for v in [7.5, 0.0, -1e6, 42.0] {
            assert_eq!(s.transform_value(0, v), 0.0, "input {v}");
        }
        assert_eq!(s.transform_value(1, 2.0), 0.0);
        // Inverse: the constant feature recovers the fitted constant for
        // any scaled input.
        for z in [-1.0, 0.0, 0.7, 5.0] {
            assert_eq!(s.inverse_value(0, z), 7.5, "scaled {z}");
        }
        // Matrix paths agree with the scalar path.
        let t = s.transform(&data).unwrap();
        assert_eq!(t.col(0), vec![0.0, 0.0, 0.0]);
        let back = s.inverse(&t).unwrap();
        assert_eq!(back.col(0), vec![7.5, 7.5, 7.5]);
        assert_eq!(back.col(1), vec![1.0, 3.0, 2.0]);
    }

    /// A single-sample fit is legal: every feature has zero range, so the
    /// whole row transforms to the midpoint and inverts to the sample.
    #[test]
    fn minmax_single_sample_fit() {
        let data = Matrix::from_rows(&[&[3.0, -2.0, 0.5]]).unwrap();
        let s = MinMaxScaler::fit(&data, 0.0, 1.0).unwrap();
        assert_eq!(s.n_features(), 3);
        let t = s.transform(&data).unwrap();
        assert_eq!(t.as_slice(), &[0.5, 0.5, 0.5]);
        let back = s.inverse(&t).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
        // 1-d convenience constructor behaves the same.
        let s1 = MinMaxScaler::fit_1d(&[4.0], -1.0, 1.0).unwrap();
        assert_eq!(s1.transform_value(0, 4.0), 0.0);
        assert_eq!(s1.transform_value(0, 100.0), 0.0);
        assert_eq!(s1.inverse_value(0, 0.3), 4.0);
    }

    /// NaN behavior, pinned explicitly: fitting on NaN data is an error
    /// (every constructor), while transforming a NaN through a fitted
    /// scaler propagates NaN — the scaler does linear arithmetic, it does
    /// not sanitize.
    #[test]
    fn minmax_nan_behavior_pinned() {
        let nan_matrix = Matrix::from_rows(&[&[f64::NAN, 1.0], &[0.0, 2.0]]).unwrap();
        assert!(MinMaxScaler::fit(&nan_matrix, -1.0, 1.0).is_err());
        assert!(MinMaxScaler::weka(&nan_matrix).is_err());
        assert!(MinMaxScaler::fit_1d(&[f64::NAN], -1.0, 1.0).is_err());

        let s = MinMaxScaler::fit_1d(&[0.0, 10.0], -1.0, 1.0).unwrap();
        assert!(s.transform_value(0, f64::NAN).is_nan());
        assert!(s.inverse_value(0, f64::NAN).is_nan());
        let mut row = [f64::NAN];
        s.transform_row(&mut row).unwrap();
        assert!(row[0].is_nan());
        // Exception: a zero-range feature short-circuits to the midpoint
        // before any arithmetic touches the value, so NaN input yields the
        // midpoint there. Pinned so a refactor cannot change it silently.
        let constant = MinMaxScaler::fit_1d(&[5.0], -1.0, 1.0).unwrap();
        assert_eq!(constant.transform_value(0, f64::NAN), 0.0);
        assert_eq!(constant.inverse_value(0, f64::NAN), 5.0);
    }

    /// The vectorized row/matrix transforms and the scalar
    /// `transform_value` / `inverse_value` must agree bitwise — they pin
    /// the same per-element operation sequence.
    #[test]
    fn minmax_vectorized_paths_match_scalar_bitwise() {
        let data = Matrix::from_fn(7, 5, |i, j| ((i * 13 + j * 29) % 23) as f64 * 0.71 - 4.0);
        let s = MinMaxScaler::fit(&data, -1.0, 1.0).unwrap();
        let probe = Matrix::from_fn(4, 5, |i, j| ((i * 7 + j * 3) % 19) as f64 * 1.37 - 9.0);
        let t = s.transform(&probe).unwrap();
        for i in 0..probe.rows() {
            for j in 0..probe.cols() {
                assert_eq!(
                    t[(i, j)].to_bits(),
                    s.transform_value(j, probe[(i, j)]).to_bits(),
                    "transform ({i}, {j})"
                );
            }
        }
        let back = s.inverse(&t).unwrap();
        for i in 0..t.rows() {
            for j in 0..t.cols() {
                assert_eq!(
                    back[(i, j)].to_bits(),
                    s.inverse_value(j, t[(i, j)]).to_bits(),
                    "inverse ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn standard_scaler_zero_mean_unit_var() {
        let data = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let s = StandardScaler::fit(&data).unwrap();
        let t = s.transform(&data).unwrap();
        let mean: f64 = t.col(0).iter().sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        // Sample std of transformed = 1.
        let var: f64 = t.col(0).iter().map(|z| z * z).sum::<f64>() / 2.0;
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standard_scaler_constant_feature_safe() {
        let data = Matrix::from_rows(&[&[7.0], &[7.0], &[7.0]]).unwrap();
        let s = StandardScaler::fit(&data).unwrap();
        assert_eq!(s.transform_value(0, 7.0), 0.0);
        assert_eq!(s.inverse_value(0, 0.0), 7.0);
    }

    #[test]
    fn standard_scaler_roundtrip() {
        let data = Matrix::from_rows(&[&[1.0, -5.0], &[9.0, 3.0], &[4.0, 0.0]]).unwrap();
        let s = StandardScaler::fit(&data).unwrap();
        for (j, v) in [(0usize, 2.5), (1usize, -1.0)] {
            let z = s.transform_value(j, v);
            assert!((s.inverse_value(j, z) - v).abs() < 1e-12);
        }
    }
}

//! Correlation coefficients: Pearson and Spearman, and the R² of a fit.
//!
//! The paper's headline metric is the Spearman rank correlation between a
//! predicted machine ranking and the ranking induced by measured scores.

use crate::rank::rank_ascending;
use crate::{Result, StatsError};

/// Pearson product-moment correlation coefficient.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] if samples differ in length.
/// * [`StatsError::Empty`] if samples are empty or have fewer than 2 points.
/// * [`StatsError::NonFinite`] on NaN/infinite input.
/// * [`StatsError::ConstantInput`] if either sample has zero variance.
///
/// # Example
///
/// ```
/// use datatrans_stats::correlation::pearson;
///
/// # fn main() -> Result<(), datatrans_stats::StatsError> {
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0])?;
/// assert!((r - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    validate_pair(x, y)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::ConstantInput);
    }
    Ok((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

/// Spearman rank correlation coefficient (tie-aware).
///
/// Computed as the Pearson correlation of the fractional ranks, which is the
/// correct generalization in the presence of ties.
///
/// # Errors
///
/// Same conditions as [`pearson`].
///
/// # Example
///
/// ```
/// use datatrans_stats::correlation::spearman;
///
/// # fn main() -> Result<(), datatrans_stats::StatsError> {
/// // Monotone but non-linear relation: Spearman is exactly 1.
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [1.0, 8.0, 27.0, 64.0];
/// assert!((spearman(&x, &y)? - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64> {
    validate_pair(x, y)?;
    let rx = rank_ascending(x)?;
    let ry = rank_ascending(y)?;
    pearson(&rx, &ry)
}

/// Coefficient of determination R² of predictions against observations.
///
/// `1 − SS_res / SS_tot`; may be negative when predictions are worse than
/// predicting the mean. This is the "goodness of fit" reported by the
/// paper's Figure 8.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] / [`StatsError::Empty`] /
///   [`StatsError::NonFinite`] as for [`pearson`].
/// * [`StatsError::ConstantInput`] if the observations have zero variance.
pub fn r_squared(predicted: &[f64], actual: &[f64]) -> Result<f64> {
    validate_pair(predicted, actual)?;
    let n = actual.len() as f64;
    let mean = actual.iter().sum::<f64>() / n;
    let ss_tot: f64 = actual.iter().map(|a| (a - mean) * (a - mean)).sum();
    if ss_tot == 0.0 {
        return Err(StatsError::ConstantInput);
    }
    let ss_res: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (a - p) * (a - p))
        .sum();
    Ok(1.0 - ss_res / ss_tot)
}

fn validate_pair(x: &[f64], y: &[f64]) -> Result<()> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::Empty {
            what: "paired sample (need at least 2 points)",
        });
    }
    if x.iter().chain(y).any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed example.
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0];
        // mx=2, my=5/3; sxy=1, sxx=2, syy=2/3 => r = 1/sqrt(4/3) = 0.8660...
        let r = pearson(&x, &y).unwrap();
        assert!((r - 0.866_025_403_784_438_6).abs() < 1e-12);
    }

    #[test]
    fn spearman_invariant_under_monotone_transform() {
        let x = [3.0, 1.0, 4.0, 1.5, 5.0];
        let y = [9.0, 1.0, 16.0, 2.25, 25.0]; // y = x^2, monotone on positives
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_reversed_is_minus_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_with_ties_known_value() {
        // Hand-computed: ranks_x = [1, 2.5, 2.5, 4], ranks_y = [1, 2, 3, 4]
        // => Pearson of ranks = 4.5 / sqrt(4.5 * 5) = sqrt(0.9).
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let rho = spearman(&x, &y).unwrap();
        assert!((rho - 0.9f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn r_squared_perfect_and_mean_prediction() {
        let actual = [1.0, 2.0, 3.0];
        assert!((r_squared(&actual, &actual).unwrap() - 1.0).abs() < 1e-12);
        let mean_pred = [2.0, 2.0, 2.0];
        assert!(r_squared(&mean_pred, &actual).unwrap().abs() < 1e-12);
    }

    #[test]
    fn r_squared_can_be_negative() {
        let actual = [1.0, 2.0, 3.0];
        let bad = [10.0, -5.0, 7.0];
        assert!(r_squared(&bad, &actual).unwrap() < 0.0);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(StatsError::Empty { .. })
        ));
        assert!(matches!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(StatsError::ConstantInput)
        ));
        assert!(matches!(
            spearman(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(StatsError::NonFinite)
        ));
    }
}

//! The paper's accuracy metrics (§6.1).
//!
//! * **Rank correlation** — see [`crate::correlation::spearman`].
//! * **Top-1 error** — performance deficiency suffered by purchasing the
//!   machine the prediction ranks first instead of the true best machine.
//! * **Mean error** — mean absolute relative prediction error across target
//!   machines.

use crate::rank::argmax;
use crate::{Result, StatsError};

/// Absolute relative error of one prediction, in percent.
///
/// `|predicted − actual| / actual × 100`.
///
/// # Errors
///
/// * [`StatsError::InvalidParameter`] if `actual` is zero or non-positive.
/// * [`StatsError::NonFinite`] on NaN/infinite input.
pub fn relative_error_pct(predicted: f64, actual: f64) -> Result<f64> {
    if !predicted.is_finite() || !actual.is_finite() {
        return Err(StatsError::NonFinite);
    }
    if actual <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "actual (must be > 0)",
            value: actual,
        });
    }
    Ok((predicted - actual).abs() / actual * 100.0)
}

/// Mean absolute relative prediction error in percent (the paper's "mean
/// error" / "average prediction error").
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] if lengths differ.
/// * [`StatsError::Empty`] on empty input.
/// * Conditions of [`relative_error_pct`] per element.
pub fn mean_relative_error_pct(predicted: &[f64], actual: &[f64]) -> Result<f64> {
    if predicted.len() != actual.len() {
        return Err(StatsError::LengthMismatch {
            left: predicted.len(),
            right: actual.len(),
        });
    }
    if predicted.is_empty() {
        return Err(StatsError::Empty {
            what: "predictions",
        });
    }
    let mut sum = 0.0;
    for (&p, &a) in predicted.iter().zip(actual) {
        sum += relative_error_pct(p, a)?;
    }
    Ok(sum / predicted.len() as f64)
}

/// Top-1 prediction error (the paper's "top-1 error"), in percent.
///
/// Let `p*` be the machine ranked first by the *prediction* and `a*` the
/// machine ranked first by the *actual* scores. The top-1 error is the
/// relative performance deficiency of choosing `p*`:
///
/// `(actual[a*] − actual[p*]) / actual[p*] × 100`.
///
/// Zero when the prediction picks a true best machine; positive otherwise.
/// This matches the paper's reading "what the loss in performance would be
/// if a purchase is following the performance prediction".
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] / [`StatsError::Empty`] /
///   [`StatsError::NonFinite`] as in [`mean_relative_error_pct`].
/// * [`StatsError::InvalidParameter`] if the chosen machine's actual score
///   is non-positive.
///
/// # Example
///
/// ```
/// use datatrans_stats::error_metrics::top1_error_pct;
///
/// # fn main() -> Result<(), datatrans_stats::StatsError> {
/// let predicted = [5.0, 9.0, 1.0]; // predicts machine 1 as best
/// let actual = [10.0, 8.0, 2.0];   // machine 0 is actually best
/// let err = top1_error_pct(&predicted, &actual)?;
/// assert!((err - 25.0).abs() < 1e-12); // (10-8)/8 = 25%
/// # Ok(())
/// # }
/// ```
pub fn top1_error_pct(predicted: &[f64], actual: &[f64]) -> Result<f64> {
    if predicted.len() != actual.len() {
        return Err(StatsError::LengthMismatch {
            left: predicted.len(),
            right: actual.len(),
        });
    }
    let predicted_best = argmax(predicted)?;
    let actual_best = argmax(actual)?;
    let chosen = actual[predicted_best];
    if chosen <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "actual score of predicted-best machine (must be > 0)",
            value: chosen,
        });
    }
    Ok(((actual[actual_best] - chosen) / chosen * 100.0).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error_pct(110.0, 100.0).unwrap(), 10.0);
        assert_eq!(relative_error_pct(90.0, 100.0).unwrap(), 10.0);
        assert!(relative_error_pct(1.0, 0.0).is_err());
        assert!(relative_error_pct(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn mean_relative_error() {
        let e = mean_relative_error_pct(&[110.0, 80.0], &[100.0, 100.0]).unwrap();
        assert_eq!(e, 15.0);
        assert!(mean_relative_error_pct(&[], &[]).is_err());
        assert!(mean_relative_error_pct(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn top1_zero_when_correct() {
        let predicted = [1.0, 5.0, 3.0];
        let actual = [10.0, 50.0, 30.0];
        assert_eq!(top1_error_pct(&predicted, &actual).unwrap(), 0.0);
    }

    #[test]
    fn top1_penalty_when_wrong() {
        let predicted = [9.0, 1.0];
        let actual = [50.0, 100.0];
        // Chose machine 0 (actual 50), best is 100 => (100-50)/50 = 100%.
        assert_eq!(top1_error_pct(&predicted, &actual).unwrap(), 100.0);
    }

    #[test]
    fn top1_ties_in_actual_do_not_penalize() {
        let predicted = [2.0, 1.0];
        let actual = [7.0, 7.0];
        assert_eq!(top1_error_pct(&predicted, &actual).unwrap(), 0.0);
    }
}

//! Slice-based vector operations shared across the workspace.
//!
//! These helpers operate directly on `&[f64]` so callers are not forced into
//! any particular container type.

use crate::{LinalgError, Result};

/// Euclidean distance between two equal-length slices.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "euclidean_distance",
            lhs: (a.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt())
}

/// True if every element is finite.
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
    }

    #[test]
    fn finiteness() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::INFINITY]));
        assert!(!all_finite(&[f64::NAN]));
    }
}

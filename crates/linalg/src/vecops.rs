//! Slice-based vector operations shared across the workspace.
//!
//! These helpers operate directly on `&[f64]` so callers are not forced into
//! any particular container type.

use crate::{LinalgError, Result};

/// Dot product of two equal-length slices.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64> {
    check_same_len("dot", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| x * y).sum())
}

/// Euclidean distance between two equal-length slices.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    check_same_len("euclidean_distance", a, b)?;
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt())
}

/// Elementwise `a + b` into a new vector.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    check_same_len("add", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| x + y).collect())
}

/// Elementwise `a − b` into a new vector.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    check_same_len("sub", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| x - y).collect())
}

/// Scales every element by `s` into a new vector.
///
/// Allocating convenience wrapper around [`scale_into`]; hot paths should
/// use [`scale_into`] to reuse a buffer instead.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    let mut out = vec![0.0; a.len()];
    scale_into(&mut out, a, s);
    out
}

/// Writes `a[i] * s` into `out` — the allocation-free form of [`scale`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn scale_into(out: &mut [f64], a: &[f64], s: f64) {
    crate::kernels::scale_into(out, a, s);
}

/// In-place `a += s * b` (axpy).
///
/// Delegates to the unrolled [`crate::kernels::axpy`]; the update is
/// elementwise, so results are bitwise-identical to the plain loop.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
pub fn axpy(a: &mut [f64], s: f64, b: &[f64]) -> Result<()> {
    check_same_len("axpy", a, b)?;
    crate::kernels::axpy(a, s, b);
    Ok(())
}

/// True if every element is finite.
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

fn check_same_len(op: &'static str, a: &[f64], b: &[f64]) -> Result<()> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op,
            lhs: (a.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn distances() {
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(add(&[1.0], &[2.0]).unwrap(), vec![3.0]);
        assert_eq!(sub(&[5.0], &[2.0]).unwrap(), vec![3.0]);
        assert_eq!(scale(&[2.0, 4.0], 0.5), vec![1.0, 2.0]);
        let mut a = vec![1.0, 1.0];
        axpy(&mut a, 2.0, &[1.0, 3.0]).unwrap();
        assert_eq!(a, vec![3.0, 7.0]);
        assert!(axpy(&mut a, 1.0, &[1.0]).is_err());
    }

    #[test]
    fn scale_variants_agree_bitwise() {
        let a: Vec<f64> = (0..11).map(|i| (i as f64) * 0.37 - 2.0).collect();
        let s = 1.0 / 3.0;
        let fresh = scale(&a, s);
        let mut into = vec![f64::NAN; a.len()];
        scale_into(&mut into, &a, s);
        for i in 0..a.len() {
            let want = (a[i] * s).to_bits();
            assert_eq!(fresh[i].to_bits(), want, "scale idx {i}");
            assert_eq!(into[i].to_bits(), want, "scale_into idx {i}");
        }
    }

    #[test]
    fn finiteness() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::INFINITY]));
        assert!(!all_finite(&[f64::NAN]));
    }
}

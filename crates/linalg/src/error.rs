use std::error::Error;
use std::fmt;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Actual shape of the offending matrix.
        shape: (usize, usize),
    },
    /// An operand was empty where a non-empty operand is required.
    Empty {
        /// Which operand was empty.
        what: &'static str,
    },
    /// A non-finite value (NaN or infinity) was encountered in the input.
    NonFinite,
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed to converge.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Empty { what } => write!(f, "{what} must not be empty"),
            LinalgError::NonFinite => write!(f, "input contains NaN or infinite values"),
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::DimensionMismatch {
            op: "mul_vec_into",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let msg = e.to_string();
        assert!(msg.contains("mul_vec_into"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));

        assert!(LinalgError::NotSquare { shape: (1, 2) }
            .to_string()
            .contains("1x2"));
        assert!(LinalgError::NoConvergence {
            algorithm: "jacobi",
            iterations: 50
        }
        .to_string()
        .contains("jacobi"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}

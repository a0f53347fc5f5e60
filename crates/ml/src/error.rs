use std::error::Error;
use std::fmt;

use datatrans_linalg::LinalgError;
use datatrans_stats::StatsError;

/// Errors produced by machine-learning routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MlError {
    /// Training or prediction input had inconsistent or invalid shape.
    InvalidInput {
        /// What was wrong with the input.
        reason: String,
    },
    /// A hyper-parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value, formatted for display.
        value: String,
    },
    /// The model has not been fitted yet (or fitting failed).
    NotFitted,
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// An underlying statistics operation failed.
    Stats(StatsError),
}

impl MlError {
    /// Shorthand for an [`MlError::InvalidInput`] with a formatted reason.
    pub fn invalid_input(reason: impl Into<String>) -> Self {
        MlError::InvalidInput {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            MlError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name}: {value}")
            }
            MlError::NotFitted => write!(f, "model has not been fitted"),
            MlError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            MlError::Stats(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl Error for MlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MlError::Linalg(e) => Some(e),
            MlError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MlError {
    fn from(e: LinalgError) -> Self {
        MlError::Linalg(e)
    }
}

impl From<StatsError> for MlError {
    fn from(e: StatsError) -> Self {
        MlError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MlError::invalid_input("bad rows");
        assert!(e.to_string().contains("bad rows"));
        assert!(e.source().is_none());

        let e: MlError = LinalgError::NonFinite.into();
        assert!(e.to_string().contains("NaN"));
        assert!(e.source().is_some());

        let e: MlError = StatsError::ConstantInput.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlError>();
    }
}

use std::error::Error;
use std::fmt;

/// Errors produced by statistics routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// An input slice was empty where data is required.
    Empty {
        /// Which operand was empty.
        what: &'static str,
    },
    /// Two paired samples have different lengths.
    LengthMismatch {
        /// Length of the first sample.
        left: usize,
        /// Length of the second sample.
        right: usize,
    },
    /// A sample is constant, so a scale-dependent statistic is undefined
    /// (e.g. correlation against a constant vector).
    ConstantInput,
    /// A non-finite value (NaN or infinity) was encountered.
    NonFinite,
    /// A parameter was outside its valid domain (e.g. a confidence `level`
    /// outside `(0, 1)`).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value, formatted by the caller.
        value: f64,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty { what } => write!(f, "{what} must not be empty"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired samples differ in length: {left} vs {right}")
            }
            StatsError::ConstantInput => {
                write!(f, "statistic undefined for constant input")
            }
            StatsError::NonFinite => write!(f, "input contains NaN or infinite values"),
            StatsError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} out of domain: {value}")
            }
        }
    }
}

impl Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(StatsError::Empty { what: "sample" }
            .to_string()
            .contains("sample"));
        assert!(StatsError::LengthMismatch { left: 3, right: 5 }
            .to_string()
            .contains("3 vs 5"));
        assert!(StatsError::InvalidParameter {
            name: "q",
            value: 1.5
        }
        .to_string()
        .contains("q"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}

use std::error::Error;
use std::fmt;

use datatrans_dataset::DatasetError;
use datatrans_linalg::LinalgError;
use datatrans_ml::MlError;
use datatrans_stats::StatsError;

/// Errors produced by the data-transposition core.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A prediction task was malformed (empty sets, overlapping splits,
    /// inconsistent shapes).
    InvalidTask {
        /// What was wrong.
        reason: String,
    },
    /// An underlying ML operation failed.
    Ml(MlError),
    /// An underlying statistics operation failed.
    Stats(StatsError),
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// An underlying dataset operation failed.
    Dataset(DatasetError),
}

impl CoreError {
    /// Shorthand for an [`CoreError::InvalidTask`] with a formatted reason.
    pub fn invalid_task(reason: impl Into<String>) -> Self {
        CoreError::InvalidTask {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidTask { reason } => write!(f, "invalid prediction task: {reason}"),
            CoreError::Ml(e) => write!(f, "model error: {e}"),
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CoreError::Dataset(e) => write!(f, "dataset error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Ml(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            CoreError::Dataset(e) => Some(e),
            CoreError::InvalidTask { .. } => None,
        }
    }
}

impl From<MlError> for CoreError {
    fn from(e: MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<DatasetError> for CoreError {
    fn from(e: DatasetError) -> Self {
        CoreError::Dataset(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = CoreError::invalid_task("empty targets");
        assert!(e.to_string().contains("empty targets"));
        assert!(e.source().is_none());

        let e: CoreError = MlError::NotFitted.into();
        assert!(e.source().is_some());
        let e: CoreError = StatsError::ConstantInput.into();
        assert!(e.source().is_some());
        let e: CoreError = LinalgError::NonFinite.into();
        assert!(e.source().is_some());
        let e: CoreError = DatasetError::NotFound {
            what: "benchmark",
            name: "x".into(),
        }
        .into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}

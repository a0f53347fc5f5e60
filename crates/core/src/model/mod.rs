//! The performance predictors.
//!
//! Two data-transposition models (this paper) and the prior-art baseline:
//!
//! | Model | Paper name | Idea |
//! |---|---|---|
//! | [`NnT`] | NNᵀ | per target machine, linear regression against the best-fitting predictive machine |
//! | [`MlpT`] | MLPᵀ | neural network mapping a machine's benchmark scores to its app score |
//! | [`GaKnn`] | GA-kNN | Hoste et al.: GA-weighted workload similarity, k-nearest benchmarks |

mod gaknn;
mod mlpt;
mod nnt;

pub use gaknn::{GaKnn, GaKnnConfig};
pub use mlpt::MlpT;
pub(crate) use mlpt::{FitMemo, MemoizedMlpT};
pub use nnt::{FitCriterion, NnT};

use crate::task::PredictionTask;
use crate::Result;

/// A method that predicts the application of interest's score on every
/// target machine.
pub trait Predictor {
    /// Short display name, e.g. `"MLP^T"`.
    fn name(&self) -> &'static str;

    /// Predicts the app's score on each target machine of `task`, in task
    /// column order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError`] if the task is malformed or an
    /// underlying model fails to fit.
    fn predict(&self, task: &PredictionTask) -> Result<Vec<f64>>;
}

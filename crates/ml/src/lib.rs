//! Machine-learning substrate for the `datatrans` workspace.
//!
//! Everything the data-transposition methodology and its GA-kNN baseline
//! need, implemented from scratch on top of [`datatrans_linalg`]:
//!
//! * [`scale`] — min-max and standard scalers (WEKA-style `[-1, 1]`
//!   normalization for the MLP).
//! * [`linreg`] — one-variable linear regression (the NNᵀ model).
//! * [`mlp`] — a multilayer perceptron with WEKA-compatible defaults
//!   (the MLPᵀ model).
//! * [`knn`] — weighted k-nearest-neighbour queries (the kNN half of
//!   GA-kNN).
//! * [`ga`] — a real-valued genetic algorithm (the GA half of GA-kNN).
//! * [`cluster`] — k-medoids (PAM), used to select predictive machines
//!   (paper §6.5, Figure 8).
//! * [`pca`] — principal component analysis, used for machine-similarity
//!   analysis.
//!
//! # Example: fit a line and predict
//!
//! ```
//! use datatrans_ml::linreg::SimpleLinearRegression;
//!
//! # fn main() -> Result<(), datatrans_ml::MlError> {
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [3.1, 4.9, 7.2, 8.8];
//! let fit = SimpleLinearRegression::fit(&xs, &ys)?;
//! assert!(fit.r_squared() > 0.99);
//! let y5 = fit.predict(5.0);
//! assert!(y5 > 10.0 && y5 < 12.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;

pub mod cluster;
pub mod ga;
pub mod knn;
pub mod linreg;
pub mod mlp;
pub mod pca;
pub mod scale;

pub use error::MlError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, MlError>;

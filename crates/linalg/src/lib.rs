//! Dense linear algebra substrate for the `datatrans` workspace.
//!
//! This crate provides the small, dependency-free numerical kernel that the
//! rest of the workspace builds on: a row-major dense [`Matrix`], slice-based
//! vector operations in [`vecops`], and the decompositions needed by the
//! higher layers (QR for least squares, and a cyclic Jacobi eigensolver for
//! symmetric matrices, used by PCA).
//!
//! # Example
//!
//! ```
//! use datatrans_linalg::{Matrix, solve::lstsq};
//!
//! # fn main() -> Result<(), datatrans_linalg::LinalgError> {
//! // Fit y = 2x + 1 exactly through three points.
//! let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
//! let y = [1.0, 3.0, 5.0];
//! let beta = lstsq(&a, &y)?;
//! assert!((beta[0] - 1.0).abs() < 1e-10);
//! assert!((beta[1] - 2.0).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod matrix;
mod view;

pub mod decomp;
pub mod kernels;
pub mod solve;
pub mod vecops;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use view::{MatrixView, VecView};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

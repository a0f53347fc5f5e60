//! Dense linear algebra substrate for the `datatrans` workspace.
//!
//! This crate provides the small, dependency-free numerical kernel that the
//! rest of the workspace builds on: a row-major dense [`Matrix`], slice-based
//! vector operations in [`vecops`], and the cyclic Jacobi eigensolver for
//! symmetric matrices in [`decomp`], used by PCA.
//!
//! # Example
//!
//! ```
//! use datatrans_linalg::{decomp::symmetric_eigen, Matrix};
//!
//! # fn main() -> Result<(), datatrans_linalg::LinalgError> {
//! // The covariance of two perfectly correlated features has one
//! // non-zero eigenvalue, along the (1, 1) diagonal.
//! let cov = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]])?;
//! let eig = symmetric_eigen(&cov)?;
//! assert!((eig.values[0] - 2.0).abs() < 1e-10);
//! assert!(eig.values[1].abs() < 1e-10);
//! let v = eig.vectors.col(0);
//! assert!((v[0].abs() - v[1].abs()).abs() < 1e-10);
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
pub mod vecops;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use view::{MatrixView, VecView};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

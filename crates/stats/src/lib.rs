//! Statistics substrate for the `datatrans` workspace.
//!
//! Everything the machine-ranking methodology measures flows through this
//! crate: tie-aware ranking and bootstrap rank confidence ([`rank`]), rank
//! and linear correlation coefficients ([`correlation`]), and the paper's
//! error metrics ([`error_metrics`]).
//!
//! # Example
//!
//! ```
//! use datatrans_stats::correlation::spearman;
//!
//! # fn main() -> Result<(), datatrans_stats::StatsError> {
//! let predicted = [10.0, 8.0, 9.0, 4.0];
//! let actual = [100.0, 70.0, 90.0, 40.0];
//! let rho = spearman(&predicted, &actual)?;
//! assert!((rho - 1.0).abs() < 1e-12); // same ordering → perfect rank correlation
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;

pub mod correlation;
pub mod error_metrics;
pub mod rank;

pub use error::StatsError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, StatsError>;

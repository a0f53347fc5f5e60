//! Matrix decompositions: a cyclic Jacobi eigensolver for symmetric
//! matrices.

mod eigen;

pub use eigen::{symmetric_eigen, SymmetricEigen};

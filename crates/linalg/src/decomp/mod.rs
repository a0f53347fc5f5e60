//! Matrix decompositions: Householder QR and a cyclic Jacobi eigensolver
//! for symmetric matrices.

mod eigen;
mod qr;

pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use qr::Qr;

//! Property-based tests for the linear-algebra substrate.
//!
//! Randomized inputs come from the workspace's deterministic
//! `datatrans-rng` generator (seeded per test), so failures are always
//! reproducible.

use datatrans_linalg::decomp::symmetric_eigen;
use datatrans_linalg::{vecops, Matrix};
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

const CASES: usize = 64;

/// A random matrix with entries in `[-10, 10]`.
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-10.0..10.0))
}

fn random_vec(rng: &mut StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn transpose_is_involution() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 4, 7);
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn transpose_swaps_indices() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 3, 5);
        let t = m.transpose();
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }
}

#[test]
fn eigen_trace_preserved() {
    let mut rng = StdRng::seed_from_u64(0xA8);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 4, 4);
        // Symmetrize first.
        let s = Matrix::from_fn(4, 4, |i, j| (m[(i, j)] + m[(j, i)]) * 0.5);
        let e = symmetric_eigen(&s).unwrap();
        let trace: f64 = (0..4).map(|i| s[(i, i)]).sum();
        assert!((e.values.iter().sum::<f64>() - trace).abs() < 1e-8);
    }
}

#[test]
fn triangle_inequality() {
    let mut rng = StdRng::seed_from_u64(0xAA);
    for _ in 0..CASES {
        let a = random_vec(&mut rng, 8, -100.0, 100.0);
        let b = random_vec(&mut rng, 8, -100.0, 100.0);
        let c = random_vec(&mut rng, 8, -100.0, 100.0);
        let ab = vecops::euclidean_distance(&a, &b).unwrap();
        let bc = vecops::euclidean_distance(&b, &c).unwrap();
        let ac = vecops::euclidean_distance(&a, &c).unwrap();
        assert!(ac <= ab + bc + 1e-9);
    }
}

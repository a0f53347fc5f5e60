//! Property-based tests for the ML substrate.
//!
//! Randomized inputs come from the workspace's deterministic
//! `datatrans-rng` generator (seeded per test), so failures are always
//! reproducible.

use datatrans_linalg::Matrix;
use datatrans_ml::cluster::{k_medoids, KMedoidsConfig};
use datatrans_ml::knn::{combine_targets_with, KnnIndex, NeighborWeighting};
use datatrans_ml::linreg::SimpleLinearRegression;
use datatrans_ml::scale::{MinMaxScaler, StandardScaler};
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

const CASES: usize = 48;

fn random_vec(rng: &mut StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Strictly increasing xs => never constant.
fn distinct_xs(rng: &mut StdRng, len: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..len)
        .map(|_| {
            acc += rng.gen_range(0.01..10.0);
            acc
        })
        .collect()
}

#[test]
fn linreg_recovers_exact_line() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for _ in 0..CASES {
        let xs = distinct_xs(&mut rng, 10);
        let slope = rng.gen_range(-5.0..5.0);
        let intercept = rng.gen_range(-100.0..100.0);
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = SimpleLinearRegression::fit(&xs, &ys).unwrap();
        assert!((fit.slope() - slope).abs() < 1e-6);
        assert!((fit.intercept() - intercept).abs() < 1e-5);
        assert!(fit.r_squared() > 1.0 - 1e-9);
    }
}

#[test]
fn linreg_r2_bounded_above() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    for _ in 0..CASES {
        let xs = distinct_xs(&mut rng, 8);
        let ys = random_vec(&mut rng, 8, -50.0, 50.0);
        let fit = SimpleLinearRegression::fit(&xs, &ys).unwrap();
        assert!(fit.r_squared() <= 1.0 + 1e-12);
    }
}

#[test]
fn minmax_scaler_bounds_training_data() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    for _ in 0..CASES {
        let data = random_vec(&mut rng, 12, -1000.0, 1000.0);
        let m = Matrix::from_vec(12, 1, data.clone()).unwrap();
        let s = MinMaxScaler::weka(&m).unwrap();
        for &v in &data {
            let z = s.transform_value(0, v);
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&z));
            assert!((s.inverse_value(0, z) - v).abs() < 1e-6);
        }
    }
}

#[test]
fn standard_scaler_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC4);
    for _ in 0..CASES {
        let data = random_vec(&mut rng, 9, -100.0, 100.0);
        let m = Matrix::from_vec(3, 3, data).unwrap();
        let s = StandardScaler::fit(&m).unwrap();
        let t = s.transform(&m).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let back = s.inverse_value(j, t[(i, j)]);
                assert!((back - m[(i, j)]).abs() < 1e-8);
            }
        }
    }
}

#[test]
fn knn_nearest_distances_sorted() {
    let mut rng = StdRng::seed_from_u64(0xC5);
    for _ in 0..CASES {
        let data = random_vec(&mut rng, 24, -10.0, 10.0);
        let query = random_vec(&mut rng, 3, -10.0, 10.0);
        let points = Matrix::from_vec(8, 3, data).unwrap();
        let index = KnnIndex::fit(points).unwrap();
        let neighbors = index.nearest(&query, 8).unwrap();
        for w in neighbors.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }
}

#[test]
fn knn_prediction_within_target_hull() {
    let mut rng = StdRng::seed_from_u64(0xC6);
    for _ in 0..CASES {
        let data = random_vec(&mut rng, 20, -10.0, 10.0);
        let targets = random_vec(&mut rng, 10, 0.0, 100.0);
        let query = random_vec(&mut rng, 2, -10.0, 10.0);
        let k = rng.gen_range(1..10usize);
        let points = Matrix::from_vec(10, 2, data).unwrap();
        let index = KnnIndex::fit(points).unwrap();
        for weighting in [
            NeighborWeighting::Uniform,
            NeighborWeighting::InverseDistance,
        ] {
            let neighbors = index.nearest(&query, k).unwrap();
            let p = combine_targets_with(&neighbors, |i| targets[i], weighting);
            let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }
}

#[test]
fn kmedoids_assignments_point_to_nearest() {
    let mut rng = StdRng::seed_from_u64(0xC7);
    for _ in 0..CASES {
        let data = random_vec(&mut rng, 30, -50.0, 50.0);
        let k = rng.gen_range(1..6usize);
        let seed = rng.gen_range(0..100u64);
        let points = Matrix::from_vec(15, 2, data).unwrap();
        let result = k_medoids(&points, &KMedoidsConfig::new(k, seed)).unwrap();
        assert_eq!(result.medoids.len(), k);
        for i in 0..15 {
            let own = result.medoids[result.assignments[i]];
            let d_own: f64 = (0..2)
                .map(|j| (points[(i, j)] - points[(own, j)]).powi(2))
                .sum::<f64>()
                .sqrt();
            for &m in &result.medoids {
                let d_m: f64 = (0..2)
                    .map(|j| (points[(i, j)] - points[(m, j)]).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert!(d_own <= d_m + 1e-9);
            }
        }
    }
}

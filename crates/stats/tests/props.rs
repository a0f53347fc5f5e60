//! Property-based tests for the statistics substrate.
//!
//! Randomized inputs come from the workspace's deterministic
//! `datatrans-rng` generator (seeded per test), so failures are always
//! reproducible.

use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};
use datatrans_stats::correlation::{pearson, r_squared, spearman};
use datatrans_stats::error_metrics::top1_error_pct;
use datatrans_stats::rank::{argsort_descending, rank_ascending, rank_descending};

const CASES: usize = 128;

fn finite_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-1000.0..1000.0)).collect()
}

fn positive_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(0.001..1000.0)).collect()
}

#[test]
fn rank_sum_invariant() {
    let mut rng = StdRng::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 12);
        let n = xs.len() as f64;
        let sum: f64 = rank_ascending(&xs).unwrap().iter().sum();
        assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }
}

#[test]
fn ascending_descending_ranks_mirror() {
    let mut rng = StdRng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 9);
        let asc = rank_ascending(&xs).unwrap();
        let desc = rank_descending(&xs).unwrap();
        let n = xs.len() as f64;
        for (a, d) in asc.iter().zip(&desc) {
            assert!((a + d - (n + 1.0)).abs() < 1e-9);
        }
    }
}

#[test]
fn argsort_descending_is_sorted() {
    let mut rng = StdRng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 10);
        let order = argsort_descending(&xs).unwrap();
        for w in order.windows(2) {
            assert!(xs[w[0]] >= xs[w[1]]);
        }
    }
}

#[test]
fn correlations_bounded() {
    let mut rng = StdRng::seed_from_u64(0xB4);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 8);
        let ys = finite_vec(&mut rng, 8);
        if let Ok(r) = pearson(&xs, &ys) {
            assert!((-1.0..=1.0).contains(&r));
        }
        if let Ok(rho) = spearman(&xs, &ys) {
            assert!((-1.0..=1.0).contains(&rho));
        }
    }
}

#[test]
fn spearman_invariant_under_monotone_map() {
    let mut rng = StdRng::seed_from_u64(0xB5);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 8);
        // exp is strictly monotone; Spearman must not change.
        let ys: Vec<f64> = xs.iter().map(|x| (x / 500.0).exp()).collect();
        if let (Ok(a), Ok(b)) = (spearman(&xs, &xs), spearman(&xs, &ys)) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn spearman_symmetric() {
    let mut rng = StdRng::seed_from_u64(0xB6);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 7);
        let ys = finite_vec(&mut rng, 7);
        if let (Ok(a), Ok(b)) = (spearman(&xs, &ys), spearman(&ys, &xs)) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn self_correlation_is_one() {
    let mut rng = StdRng::seed_from_u64(0xB7);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 6);
        if let Ok(r) = pearson(&xs, &xs) {
            assert!((r - 1.0).abs() < 1e-9);
        }
        if let Ok(rho) = spearman(&xs, &xs) {
            assert!((rho - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn r_squared_of_actual_is_one() {
    let mut rng = StdRng::seed_from_u64(0xB8);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 6);
        if let Ok(r2) = r_squared(&xs, &xs) {
            assert!((r2 - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn top1_error_zero_for_oracle() {
    let mut rng = StdRng::seed_from_u64(0xBA);
    for _ in 0..CASES {
        // Oracle prediction (the actual scores) has zero top-1 error.
        let actual = positive_vec(&mut rng, 9);
        assert_eq!(top1_error_pct(&actual, &actual).unwrap(), 0.0);
    }
}

#[test]
fn top1_error_nonnegative() {
    let mut rng = StdRng::seed_from_u64(0xBB);
    for _ in 0..CASES {
        let pred = positive_vec(&mut rng, 9);
        let actual = positive_vec(&mut rng, 9);
        assert!(top1_error_pct(&pred, &actual).unwrap() >= 0.0);
    }
}

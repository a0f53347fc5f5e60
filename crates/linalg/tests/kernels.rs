//! Remainder-lane property tests for the unrolled kernels.
//!
//! Every kernel in `datatrans_linalg::kernels` is exercised against its
//! scalar reference at the lengths that straddle the unroll width
//! (`LANES = 4`): `0, 1, LANES−1, LANES, LANES+1, 2·LANES+3`, plus a few
//! larger sizes. Equality is **bitwise** — the unrolled paths commit to
//! the same fixed summation tree as their references, so any difference,
//! even one ULP, is a bug in the tail handling or lane assignment.
//!
//! Randomized inputs come from the workspace's deterministic
//! `datatrans-rng` generator (seeded per test), so failures are always
//! reproducible.

use datatrans_linalg::kernels::{
    axpy, dot_ref, dot_strided, dot_unrolled, pairwise_sq_diffs, pairwise_sq_diffs_ref,
    scale_clamp_in_place, weighted_sqdist_ref, weighted_sqdist_unrolled, LANES,
};
use datatrans_linalg::Matrix;
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

const CASES: usize = 32;

/// The lengths that straddle the unroll width: empty, single element, one
/// short of a full chunk, exactly one chunk, one past, and a tail of 3
/// after two full chunks — every remainder lane count in `0..LANES`.
const EDGE_LENGTHS: [usize; 6] = [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3];

/// Larger sizes that mix many full chunks with each possible tail.
const BULK_LENGTHS: [usize; 4] = [64, 65, 66, 67];

fn lengths() -> impl Iterator<Item = usize> {
    EDGE_LENGTHS.iter().chain(BULK_LENGTHS.iter()).copied()
}

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect()
}

#[test]
fn dot_unrolled_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xD07);
    for n in lengths() {
        for case in 0..CASES {
            let a = random_vec(&mut rng, n);
            let b = random_vec(&mut rng, n);
            assert_eq!(
                dot_unrolled(&a, &b).to_bits(),
                dot_ref(&a, &b).to_bits(),
                "len {n} case {case}"
            );
        }
    }
}

#[test]
fn dot_strided_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x57D);
    for n in lengths() {
        for stride in [1usize, 2, 5] {
            for case in 0..CASES / 4 {
                let start = case % 3;
                let data = random_vec(&mut rng, start + n * stride + 1);
                let v = random_vec(&mut rng, n);
                let gathered: Vec<f64> = (0..n).map(|j| data[start + j * stride]).collect();
                assert_eq!(
                    dot_strided(&data, start, stride, &v).to_bits(),
                    dot_ref(&gathered, &v).to_bits(),
                    "len {n} stride {stride} case {case}"
                );
            }
        }
    }
}

#[test]
fn weighted_sqdist_unrolled_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x5D1);
    for n in lengths() {
        for case in 0..CASES {
            let a = random_vec(&mut rng, n);
            let b = random_vec(&mut rng, n);
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
            assert_eq!(
                weighted_sqdist_unrolled(&a, &b, &w).to_bits(),
                weighted_sqdist_ref(&a, &b, &w).to_bits(),
                "len {n} case {case}"
            );
        }
    }
}

#[test]
fn axpy_matches_plain_loop_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    for n in lengths() {
        for case in 0..CASES {
            let base = random_vec(&mut rng, n);
            let b = random_vec(&mut rng, n);
            let s = rng.gen_range(-3.0..3.0);
            let mut fast = base.clone();
            axpy(&mut fast, s, &b);
            let mut slow = base;
            for (x, y) in slow.iter_mut().zip(&b) {
                *x += s * y;
            }
            for (j, (f, r)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "len {n} case {case} idx {j}");
            }
        }
    }
}

#[test]
fn scale_clamp_matches_plain_loop_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x5CC);
    for n in lengths() {
        for case in 0..CASES {
            let base = random_vec(&mut rng, n);
            let s = rng.gen_range(-3.0..3.0);
            let lo = rng.gen_range(-5.0..0.0);
            let hi = rng.gen_range(0.0..5.0);
            let mut fast = base.clone();
            scale_clamp_in_place(&mut fast, s, lo, hi);
            for (j, (f, x)) in fast.iter().zip(&base).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    (x * s).clamp(lo, hi).to_bits(),
                    "len {n} case {case} idx {j}"
                );
            }
        }
    }
}

#[test]
fn pairwise_sq_diffs_tiled_matches_naive_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x5D2);
    // Row counts straddling the tile edge (32) and dimension counts
    // straddling the unroll width.
    for b in [1usize, 2, 3, 5, 31, 32, 33, 40] {
        for d in [1usize, 3, 4, 5, 11] {
            let chars = Matrix::from_fn(b, d, |_, _| rng.gen_range(-4.0..4.0));
            let tiled = pairwise_sq_diffs(&chars);
            let naive = pairwise_sq_diffs_ref(&chars);
            assert_eq!(tiled.shape(), naive.shape(), "b={b} d={d}");
            for (t, n) in tiled.as_slice().iter().zip(naive.as_slice()) {
                assert_eq!(t.to_bits(), n.to_bits(), "b={b} d={d}");
            }
        }
    }
}

#[test]
fn mul_vec_into_matches_dot_ref_on_all_paths() {
    // The GEMV wiring test: both the contiguous and the strided
    // (transpose-view) path must agree bitwise with the per-row lane-tree
    // reference at shapes straddling the 4-lane chunk.
    let mut rng = StdRng::seed_from_u64(0x6E);
    for (rows, cols) in [
        (1usize, 1usize),
        (3, 5),
        (4, 7),
        (5, 4),
        (6, 2),
        (9, 11),
        (17, 3),
    ] {
        let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-5.0..5.0));
        let v = random_vec(&mut rng, cols);
        let mut out = vec![f64::NAN; rows];
        m.view().mul_vec_into(&v, &mut out).unwrap();
        for (i, got) in out.iter().enumerate() {
            assert_eq!(
                got.to_bits(),
                dot_ref(m.row(i), &v).to_bits(),
                "contiguous {rows}x{cols} row {i}"
            );
        }
        // Strided: the transpose view's rows are the matrix's columns.
        let vt = random_vec(&mut rng, rows);
        let mut out_t = vec![f64::NAN; cols];
        m.transpose_view().mul_vec_into(&vt, &mut out_t).unwrap();
        for (j, got) in out_t.iter().enumerate() {
            assert_eq!(
                got.to_bits(),
                dot_ref(&m.col(j), &vt).to_bits(),
                "strided {rows}x{cols} col {j}"
            );
        }
    }
}

//! Weighted k-nearest-neighbour queries and regression.
//!
//! GA-kNN (Hoste et al., PACT 2006) predicts the performance of an
//! application from its `k = 10` nearest benchmarks in a *weighted*
//! microarchitecture-independent characteristic space; the weights are
//! learned by a genetic algorithm. This module supplies the neighbour
//! machinery; the GA lives in [`crate::ga`].

use datatrans_linalg::{kernels, vecops, Matrix};

use crate::{MlError, Result};

/// How neighbour targets are combined into a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborWeighting {
    /// Plain average of the neighbours' targets.
    Uniform,
    /// Average weighted by `1 / (distance + ε)` — closer neighbours count
    /// more; an exact match dominates.
    InverseDistance,
}

/// A neighbour returned by [`KnnIndex::nearest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index of the neighbour in the fitted data.
    pub index: usize,
    /// Distance from the query point.
    pub distance: f64,
}

/// An exact (brute-force) nearest-neighbour index over row vectors.
///
/// Distances are weighted Euclidean: `d(a, b) = sqrt(Σ wⱼ (aⱼ − bⱼ)²)`.
/// With unit weights this is the ordinary Euclidean distance.
///
/// # Example
///
/// ```
/// use datatrans_linalg::Matrix;
/// use datatrans_ml::knn::KnnIndex;
///
/// # fn main() -> Result<(), datatrans_ml::MlError> {
/// let points = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[5.0, 5.0]])?;
/// let index = KnnIndex::fit(points)?;
/// let neighbors = index.nearest(&[0.9, 0.1], 2)?;
/// assert_eq!(neighbors[0].index, 1);
/// assert_eq!(neighbors[1].index, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnIndex {
    points: Matrix,
    weights: Vec<f64>,
}

impl KnnIndex {
    /// Builds an index over the rows of `points` with unit feature weights.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] if `points` is empty or non-finite.
    pub fn fit(points: Matrix) -> Result<Self> {
        let weights = vec![1.0; points.cols()];
        Self::fit_weighted(points, weights)
    }

    /// Builds an index with per-feature distance weights.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] if `points` is empty/non-finite,
    /// the weight count differs from the feature count, or any weight is
    /// negative or non-finite.
    pub fn fit_weighted(points: Matrix, weights: Vec<f64>) -> Result<Self> {
        if points.is_empty() {
            return Err(MlError::invalid_input("empty point set"));
        }
        if !points.all_finite() {
            return Err(MlError::invalid_input("points contain NaN/inf"));
        }
        if weights.len() != points.cols() {
            return Err(MlError::invalid_input(format!(
                "{} weights for {} features",
                weights.len(),
                points.cols()
            )));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(MlError::invalid_input(
                "distance weights must be finite and non-negative",
            ));
        }
        Ok(KnnIndex { points, weights })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// True if the index holds no points (cannot occur after `fit`).
    pub fn is_empty(&self) -> bool {
        self.points.rows() == 0
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.points.cols()
    }

    /// The `k` nearest indexed points to `query`, closest first.
    ///
    /// Ties are broken by the lower row index, which makes results
    /// deterministic.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidInput`] if the query length differs from the
    ///   feature count or the query is non-finite.
    /// * [`MlError::InvalidParameter`] if `k` is zero or exceeds the number
    ///   of indexed points.
    pub fn nearest(&self, query: &[f64], k: usize) -> Result<Vec<Neighbor>> {
        let mut neighbors = Vec::with_capacity(self.points.rows());
        self.nearest_into(query, k, &mut neighbors)?;
        Ok(neighbors)
    }

    /// [`KnnIndex::nearest`] into a caller-owned buffer — the
    /// allocation-free path for query loops.
    ///
    /// `out` is cleared and refilled with the `k` nearest points, closest
    /// first; its capacity is reused across calls, so a loop of queries
    /// allocates the distance buffer once instead of once per query.
    /// Results are identical to [`KnnIndex::nearest`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnnIndex::nearest`]. On error `out` may hold
    /// partial contents and must not be read.
    pub fn nearest_into(&self, query: &[f64], k: usize, out: &mut Vec<Neighbor>) -> Result<()> {
        if query.len() != self.points.cols() {
            return Err(MlError::invalid_input(format!(
                "query has {} features, index has {}",
                query.len(),
                self.points.cols()
            )));
        }
        if !vecops::all_finite(query) {
            return Err(MlError::invalid_input("query contains NaN/inf"));
        }
        if k == 0 || k > self.points.rows() {
            return Err(MlError::InvalidParameter {
                name: "k",
                value: format!("{k} (index holds {} points)", self.points.rows()),
            });
        }
        out.clear();
        // Distance kernel: the unrolled fixed-tree weighted squared
        // distance (lengths were validated above), rooted once per row.
        out.extend(
            self.points
                .iter_rows()
                .enumerate()
                .map(|(i, row)| Neighbor {
                    index: i,
                    distance: kernels::weighted_sqdist_unrolled(query, row, &self.weights).sqrt(),
                }),
        );
        select_k_nearest(out, k);
        Ok(())
    }
}

/// Total-order comparator for neighbours: ascending distance, ties broken
/// by the lower row index. [`f64::total_cmp`] keeps the order defined even
/// if a degenerate input (e.g. a zero-variance characteristic column
/// upstream) produces a NaN distance — NaN sorts after every real distance
/// instead of panicking.
fn neighbor_cmp(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.distance
        .total_cmp(&b.distance)
        .then(a.index.cmp(&b.index))
}

/// Reduces `neighbors` to its `k` nearest entries, closest first.
///
/// Uses `select_nth_unstable_by` to partition out the `k` survivors in
/// O(n), then sorts only those — O(n + k log k) against the O(n log n) of a
/// full sort, which matters inside GA-kNN's triple loop (generations ×
/// population × leave-one-out folds). The comparator is a strict total
/// order (distance, then index), so the result is bitwise-identical to
/// fully sorting and truncating.
///
/// A `k` of zero clears the list; a `k` beyond the length keeps everything.
pub fn select_k_nearest(neighbors: &mut Vec<Neighbor>, k: usize) {
    let k = k.min(neighbors.len());
    if k == 0 {
        neighbors.clear();
        return;
    }
    if k < neighbors.len() {
        neighbors.select_nth_unstable_by(k - 1, neighbor_cmp);
        neighbors.truncate(k);
    }
    neighbors.sort_unstable_by(neighbor_cmp);
}

/// Offset added to every distance before inverting it, so an exact match
/// (distance 0) gets a large finite weight instead of an infinite one.
const INVERSE_DISTANCE_EPS: f64 = 1e-9;

/// Combines neighbour targets read through `target_of`, per the chosen
/// weighting scheme.
///
/// This is the zero-copy entry point: callers whose targets live in a
/// matrix column pass a closure indexing the matrix (or a
/// [`datatrans_linalg::VecView`]) directly instead of gathering the column
/// into a `Vec` first.
pub fn combine_targets_with(
    neighbors: &[Neighbor],
    target_of: impl Fn(usize) -> f64,
    weighting: NeighborWeighting,
) -> f64 {
    match weighting {
        NeighborWeighting::Uniform => {
            neighbors.iter().map(|n| target_of(n.index)).sum::<f64>() / neighbors.len() as f64
        }
        NeighborWeighting::InverseDistance => {
            let mut num = 0.0;
            let mut den = 0.0;
            for n in neighbors {
                let w = 1.0 / (n.distance + INVERSE_DISTANCE_EPS);
                num += w * target_of(n.index);
                den += w;
            }
            num / den
        }
    }
}

/// [`combine_targets_with`] for every column of `targets` at once:
/// `out[j]` becomes the combination of column `j` over the neighbours'
/// rows (`out.len() == targets.cols()`).
///
/// The weights and their denominator are computed once, and each
/// neighbour's contiguous row is accumulated with one [`kernels::axpy`],
/// in neighbour order. Every `out[j]` is therefore the same sum of the same
/// products in the same order as [`combine_targets_with`] on column `j`,
/// and equal to it bit for bit. Uniform rows start from −0.0 because
/// `f64`'s `Sum` does; the inverse-distance accumulator starts from 0.0.
///
/// # Panics
///
/// Panics if `out.len() != targets.cols()` or a neighbour index is not a
/// row of `targets`.
pub fn combine_rows_into(
    neighbors: &[Neighbor],
    targets: &Matrix,
    weighting: NeighborWeighting,
    out: &mut [f64],
) {
    let (start, weight): (f64, fn(&Neighbor) -> f64) = match weighting {
        NeighborWeighting::Uniform => (-0.0, |_| 1.0),
        NeighborWeighting::InverseDistance => (0.0, |n| 1.0 / (n.distance + INVERSE_DISTANCE_EPS)),
    };
    out.fill(start);
    let mut den = 0.0;
    for n in neighbors {
        let w = weight(n);
        kernels::axpy(out, w, targets.row(n.index));
        den += w;
    }
    for v in out.iter_mut() {
        *v /= den;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_index() -> KnnIndex {
        let points =
            Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        KnnIndex::fit(points).unwrap()
    }

    #[test]
    fn nearest_orders_by_distance() {
        let index = square_index();
        let n = index.nearest(&[0.1, 0.1], 4).unwrap();
        assert_eq!(n[0].index, 0);
        assert_eq!(n[3].index, 3);
        assert!(n[0].distance < n[1].distance);
    }

    #[test]
    fn nearest_tie_break_is_deterministic() {
        let index = square_index();
        // Equidistant from rows 1 and 2; lower index wins.
        let n = index.nearest(&[0.5, 0.5], 4).unwrap();
        assert_eq!(n[0].index, 0); // all equidistant actually: 0,1,2,3
        assert_eq!(n[1].index, 1);
        assert_eq!(n[2].index, 2);
    }

    #[test]
    fn weighted_distance_changes_neighbours() {
        let points = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap();
        // Heavy weight on dim 0 makes row 1 (x=0) closer to the origin query.
        let index = KnnIndex::fit_weighted(points, vec![100.0, 0.01]).unwrap();
        let n = index.nearest(&[0.0, 0.0], 1).unwrap();
        assert_eq!(n[0].index, 1);
    }

    #[test]
    fn uniform_prediction_is_mean_of_neighbours() {
        let targets = [10.0, 20.0, 30.0, 40.0];
        let neighbors = square_index().nearest(&[0.05, 0.0], 2).unwrap();
        let p = combine_targets_with(&neighbors, |i| targets[i], NeighborWeighting::Uniform);
        // Nearest two are rows 0 and 1.
        assert_eq!(p, 15.0);
    }

    #[test]
    fn inverse_distance_favours_closest() {
        let targets = [10.0, 20.0, 30.0, 40.0];
        let neighbors = square_index().nearest(&[0.01, 0.0], 2).unwrap();
        let p = combine_targets_with(
            &neighbors,
            |i| targets[i],
            NeighborWeighting::InverseDistance,
        );
        assert!(p < 15.0); // pulled towards target 10 of the closest point
    }

    #[test]
    fn exact_match_dominates_inverse_distance() {
        let targets = [10.0, 20.0, 30.0, 40.0];
        let neighbors = square_index().nearest(&[1.0, 1.0], 3).unwrap();
        let p = combine_targets_with(
            &neighbors,
            |i| targets[i],
            NeighborWeighting::InverseDistance,
        );
        assert!((p - 40.0).abs() < 1e-4);
    }

    #[test]
    fn validates_inputs() {
        let index = square_index();
        assert!(index.nearest(&[1.0], 1).is_err());
        assert!(index.nearest(&[1.0, f64::NAN], 1).is_err());
        assert!(index.nearest(&[0.0, 0.0], 0).is_err());
        assert!(index.nearest(&[0.0, 0.0], 5).is_err());
        assert!(KnnIndex::fit(Matrix::zeros(0, 0)).is_err());
        let pts = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(KnnIndex::fit_weighted(pts.clone(), vec![1.0]).is_err());
        assert!(KnnIndex::fit_weighted(pts, vec![-1.0, 1.0]).is_err());
    }

    #[test]
    fn nearest_into_reuses_buffer_and_matches_nearest() {
        let index = square_index();
        let mut buf = Vec::new();
        for (qi, query) in [[0.1, 0.1], [0.9, 0.2], [0.5, 0.8]].iter().enumerate() {
            index.nearest_into(query, 3, &mut buf).unwrap();
            let fresh = index.nearest(query, 3).unwrap();
            assert_eq!(buf, fresh, "query {qi}");
        }
        // Stale contents from a previous (larger-k) query never leak.
        index.nearest_into(&[0.0, 0.0], 4, &mut buf).unwrap();
        index.nearest_into(&[1.0, 1.0], 1, &mut buf).unwrap();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].index, 3);
        // Validation still applies.
        assert!(index.nearest_into(&[1.0], 1, &mut buf).is_err());
        assert!(index.nearest_into(&[0.0, 0.0], 0, &mut buf).is_err());
    }

    #[test]
    fn select_k_nearest_matches_full_sort() {
        // Pseudo-random distances with deliberate duplicates to exercise
        // the index tie-break.
        let make = || -> Vec<Neighbor> {
            (0..200)
                .map(|i| Neighbor {
                    index: i,
                    distance: (((i * 37) % 50) as f64) * 0.25,
                })
                .collect()
        };
        for k in [1, 3, 10, 50, 199, 200, 500] {
            let mut full = make();
            full.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .unwrap()
                    .then(a.index.cmp(&b.index))
            });
            full.truncate(k);
            let mut topk = make();
            select_k_nearest(&mut topk, k);
            assert_eq!(topk, full, "k = {k}");
        }
    }

    #[test]
    fn select_k_nearest_handles_nan_distances() {
        // Regression: the former partial_cmp(...).expect("finite
        // distances") panicked on NaN (e.g. from a zero-variance column
        // standardized upstream). total_cmp sorts NaN after every real
        // distance instead.
        let mut neighbors = vec![
            Neighbor {
                index: 0,
                distance: f64::NAN,
            },
            Neighbor {
                index: 1,
                distance: 2.0,
            },
            Neighbor {
                index: 2,
                distance: 1.0,
            },
        ];
        select_k_nearest(&mut neighbors, 2);
        assert_eq!(neighbors[0].index, 2);
        assert_eq!(neighbors[1].index, 1);
    }

    #[test]
    fn select_k_zero_clears() {
        let mut neighbors = vec![Neighbor {
            index: 0,
            distance: 1.0,
        }];
        select_k_nearest(&mut neighbors, 0);
        assert!(neighbors.is_empty());
    }

    #[test]
    fn combine_rows_into_matches_per_column_combine_bitwise() {
        // Column 0 is all −0.0 (the sign a uniform `Sum` keeps), column 1
        // mixes signs; neighbour 2 is an exact match (distance 0).
        let targets = Matrix::from_fn(6, 5, |i, j| match j {
            0 => -0.0,
            1 => (i as f64 - 2.5) * 3.25,
            _ => ((i * 7 + j * 3) % 11) as f64 * 0.37 + 0.01,
        });
        let neighbors: Vec<Neighbor> = [(4, 0.75), (2, 0.0), (5, 0.75), (0, 1.5)]
            .iter()
            .map(|&(index, distance)| Neighbor { index, distance })
            .collect();
        for weighting in [
            NeighborWeighting::Uniform,
            NeighborWeighting::InverseDistance,
        ] {
            for k in 1..=neighbors.len() {
                let mut out = vec![f64::NAN; targets.cols()];
                combine_rows_into(&neighbors[..k], &targets, weighting, &mut out);
                for (j, v) in out.iter().enumerate() {
                    let column = targets.col_view(j);
                    let reference =
                        combine_targets_with(&neighbors[..k], |i| column.at(i), weighting);
                    assert_eq!(
                        v.to_bits(),
                        reference.to_bits(),
                        "{weighting:?} k={k} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn len_and_features() {
        let index = square_index();
        assert_eq!(index.len(), 4);
        assert!(!index.is_empty());
        assert_eq!(index.n_features(), 2);
    }
}

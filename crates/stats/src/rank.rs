//! Tie-aware ranking utilities.
//!
//! Rank 1 is assigned to the *largest* value by [`rank_descending`] (the
//! natural convention for machine rankings, where the best machine is #1)
//! and to the smallest value by [`rank_ascending`]. Ties receive the average
//! of the ranks they span ("fractional ranking"), the convention required by
//! the Spearman coefficient.
//!
//! When the scores themselves are noisy measurements, point ranks overstate
//! how well-separated the items are. [`bootstrap_rank_confidence`] resamples
//! each item's repeated measurements, re-ranks every replicate, and returns
//! percentile confidence intervals for both scores and ranks, plus a
//! [`TieRanking`] that collapses items whose score CIs overlap into tie
//! groups with a deterministic within-group order.

use datatrans_parallel::Parallelism;
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

use crate::{Result, StatsError};

/// Smallest replicate count worth fanning out to worker threads.
const MIN_PARALLEL_RESAMPLES: usize = 32;

/// Assigns fractional ranks with rank 1 for the smallest value.
///
/// # Errors
///
/// * [`StatsError::Empty`] if `values` is empty.
/// * [`StatsError::NonFinite`] if any value is NaN or infinite.
///
/// # Example
///
/// ```
/// use datatrans_stats::rank::rank_ascending;
///
/// # fn main() -> Result<(), datatrans_stats::StatsError> {
/// let r = rank_ascending(&[10.0, 20.0, 20.0, 40.0])?;
/// assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]); // tie splits ranks 2 and 3
/// # Ok(())
/// # }
/// ```
pub fn rank_ascending(values: &[f64]) -> Result<Vec<f64>> {
    ranks_impl(values, false)
}

/// Assigns fractional ranks with rank 1 for the *largest* value.
///
/// This is the machine-ranking convention: the best-performing machine gets
/// rank 1.
///
/// # Errors
///
/// * [`StatsError::Empty`] if `values` is empty.
/// * [`StatsError::NonFinite`] if any value is NaN or infinite.
pub fn rank_descending(values: &[f64]) -> Result<Vec<f64>> {
    ranks_impl(values, true)
}

/// Indices that would sort `values` in descending order (best first).
///
/// Stable: equal values keep their original relative order.
///
/// # Errors
///
/// * [`StatsError::Empty`] if `values` is empty.
/// * [`StatsError::NonFinite`] if any value is NaN or infinite.
pub fn argsort_descending(values: &[f64]) -> Result<Vec<usize>> {
    validate(values)?;
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .expect("validated finite values")
    });
    Ok(idx)
}

/// Index of the maximum value (ties resolved to the first occurrence).
///
/// # Errors
///
/// * [`StatsError::Empty`] if `values` is empty.
/// * [`StatsError::NonFinite`] if any value is NaN or infinite.
pub fn argmax(values: &[f64]) -> Result<usize> {
    validate(values)?;
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    Ok(best)
}

/// Per-item score and rank statistics from [`bootstrap_rank_confidence`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemRankCi {
    /// Point score: mean of the item's measurements.
    pub score: f64,
    /// Lower percentile bound of the bootstrap score distribution.
    pub score_lower: f64,
    /// Upper percentile bound of the bootstrap score distribution.
    pub score_upper: f64,
    /// Fractional descending rank of `score` among the point scores
    /// (rank 1 is best).
    pub rank: f64,
    /// Lower percentile bound of the bootstrap rank distribution (the
    /// best rank the item plausibly holds).
    pub rank_lower: f64,
    /// Upper percentile bound of the bootstrap rank distribution (the
    /// worst rank the item plausibly holds).
    pub rank_upper: f64,
}

/// A tie-aware ranking: items whose score confidence intervals overlap
/// collapse into a single tie group.
///
/// Groups are formed by walking the items best-first and chaining
/// consecutive overlaps: item `b` joins the group of its predecessor `a`
/// exactly when `upper(b) >= lower(a)`, i.e. a new group starts only when
/// an item's entire interval falls strictly below the previous item's.
/// Within a group the order is the deterministic point-score order (stable
/// on exact ties), so the ranking is reproducible bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieRanking {
    /// Item indices sorted best-first by point score (stable on ties).
    pub order: Vec<usize>,
    /// `group_of[i]` is the tie group of item `i`; group 0 is the best.
    pub group_of: Vec<usize>,
    /// The tie groups, best first; members appear in `order`'s order.
    pub groups: Vec<Vec<usize>>,
}

/// Result of [`bootstrap_rank_confidence`]: per-item score/rank intervals
/// plus the tie-aware ranking induced by the score intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct RankConfidence {
    /// Per-item statistics, aligned with the input `samples`.
    pub items: Vec<ItemRankCi>,
    /// Tie groups from overlapping score confidence intervals.
    pub ties: TieRanking,
    /// Confidence level of every interval, e.g. `0.95`.
    pub level: f64,
    /// Number of bootstrap replicates that were requested.
    pub resamples: usize,
}

/// Collapses items into tie groups from per-item score intervals.
///
/// `scores` orders the items (descending, stable); an item joins its
/// predecessor's group when its interval `[lower, upper]` overlaps the
/// predecessor's (chained overlap, see [`TieRanking`]).
///
/// # Errors
///
/// * [`StatsError::Empty`] if `scores` is empty.
/// * [`StatsError::LengthMismatch`] if the slices differ in length.
/// * [`StatsError::NonFinite`] if any score or bound is NaN or infinite.
pub fn tie_groups(scores: &[f64], lower: &[f64], upper: &[f64]) -> Result<TieRanking> {
    if scores.len() != lower.len() || scores.len() != upper.len() {
        return Err(StatsError::LengthMismatch {
            left: scores.len(),
            right: if scores.len() != lower.len() {
                lower.len()
            } else {
                upper.len()
            },
        });
    }
    validate(scores)?;
    if lower.iter().chain(upper).any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let order = argsort_descending(scores)?;
    let mut group_of = vec![0usize; scores.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (pos, &item) in order.iter().enumerate() {
        let starts_new_group = match pos.checked_sub(1) {
            None => true,
            // Chained overlap: compare against the immediately preceding
            // item, not the group head, so a staircase of overlapping
            // intervals stays one group.
            Some(prev_pos) => upper[item] < lower[order[prev_pos]],
        };
        if starts_new_group {
            groups.push(Vec::new());
        }
        let g = groups.len() - 1;
        group_of[item] = g;
        groups[g].push(item);
    }
    Ok(TieRanking {
        order,
        group_of,
        groups,
    })
}

/// Bootstrap rank-confidence intervals over repeated measurements.
///
/// `samples[i]` holds item `i`'s repeated measurements. Each replicate
/// resamples every item's measurements with replacement, takes the mean,
/// and re-ranks all items descending (rank 1 best, ties averaged); the
/// per-item score and rank intervals are the percentile interval of the
/// replicate distributions at `level`. Tie groups are then formed from the
/// score intervals via [`tie_groups`].
///
/// Fully deterministic given `seed`: replicate `r`'s draws for item `i`
/// come from an RNG stream derived from `(seed, r, i)` alone, so the
/// result is bitwise-identical at any thread count, including
/// [`Parallelism::Sequential`], and does not depend on evaluation order.
///
/// # Errors
///
/// * [`StatsError::Empty`] if `samples` is empty, any item has no
///   measurements, `resamples == 0`, or every replicate degenerates to a
///   non-finite mean.
/// * [`StatsError::InvalidParameter`] if `level` is outside `(0, 1)`.
/// * [`StatsError::NonFinite`] if any measurement is NaN or infinite.
pub fn bootstrap_rank_confidence(
    samples: &[Vec<f64>],
    resamples: usize,
    level: f64,
    seed: u64,
    parallelism: Parallelism,
) -> Result<RankConfidence> {
    if samples.is_empty() {
        return Err(StatsError::Empty { what: "samples" });
    }
    for item in samples {
        if item.is_empty() {
            return Err(StatsError::Empty {
                what: "item measurements",
            });
        }
        if item.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFinite);
        }
    }
    if resamples == 0 {
        return Err(StatsError::Empty { what: "resamples" });
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "level",
            value: level,
        });
    }
    let n = samples.len();
    let point_scores: Vec<f64> = samples.iter().map(|item| sample_mean(item)).collect();
    let point_ranks = rank_descending(&point_scores)?;
    // Each replicate resamples every item and re-ranks the resampled
    // means. A replicate whose means degenerate to non-finite values
    // (overflow) is skipped.
    /// One surviving replicate: the resampled means and their ranks.
    type Replicate = (Vec<f64>, Vec<f64>);
    let replicates: Vec<Option<Replicate>> =
        parallelism.par_map_indexed(MIN_PARALLEL_RESAMPLES, resamples, |r| {
            let mut means = vec![0.0; n];
            for (i, item) in samples.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(item_replicate_seed(seed, r, i));
                let mut sum = 0.0;
                for _ in 0..item.len() {
                    sum += item[rng.gen_range(0..item.len())];
                }
                means[i] = sum / item.len() as f64;
            }
            let ranks = rank_descending(&means).ok()?;
            Some((means, ranks))
        });
    let kept: Vec<Replicate> = replicates.into_iter().flatten().collect();
    if kept.is_empty() {
        return Err(StatsError::Empty {
            what: "successful bootstrap resamples",
        });
    }
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((kept.len() as f64 - 1.0) * alpha).round() as usize;
    let hi_idx = ((kept.len() as f64 - 1.0) * (1.0 - alpha)).round() as usize;
    let mut items = Vec::with_capacity(n);
    let mut column = vec![0.0; kept.len()];
    let mut percentile_pair = |extract: &dyn Fn(&Replicate) -> f64| {
        for (slot, replicate) in column.iter_mut().zip(&kept) {
            *slot = extract(replicate);
        }
        order_statistics(&mut column, lo_idx, hi_idx)
    };
    for i in 0..n {
        let (score_lower, score_upper) = percentile_pair(&|rep| rep.0[i]);
        let (rank_lower, rank_upper) = percentile_pair(&|rep| rep.1[i]);
        items.push(ItemRankCi {
            score: point_scores[i],
            score_lower,
            score_upper,
            rank: point_ranks[i],
            rank_lower,
            rank_upper,
        });
    }
    let lower: Vec<f64> = items.iter().map(|it| it.score_lower).collect();
    let upper: Vec<f64> = items.iter().map(|it| it.score_upper).collect();
    let ties = tie_groups(&point_scores, &lower, &upper)?;
    Ok(RankConfidence {
        items,
        ties,
        level,
        resamples,
    })
}

/// The `lo_idx`-th and `hi_idx`-th smallest values of `column` under
/// [`f64::total_cmp`] (`lo_idx <= hi_idx < column.len()`), found by
/// selection instead of a full sort; reorders `column`.
///
/// Values that `total_cmp` calls equal have equal bits, so an order
/// statistic is one bit pattern however it is found: this returns what
/// indexing the sorted column would.
fn order_statistics(column: &mut [f64], lo_idx: usize, hi_idx: usize) -> (f64, f64) {
    debug_assert!(lo_idx <= hi_idx && hi_idx < column.len());
    let (_, &mut lo, above) = column.select_nth_unstable_by(lo_idx, f64::total_cmp);
    let hi = if hi_idx == lo_idx {
        lo
    } else {
        *above
            .select_nth_unstable_by(hi_idx - lo_idx - 1, f64::total_cmp)
            .1
    };
    (lo, hi)
}

/// Mean of a non-empty slice, accumulated in index order so the result is
/// reproducible bit for bit.
fn sample_mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Derives the RNG seed for replicate `r`'s resample of item `i`. Two
/// distinct odd multipliers decorrelate the replicate and item axes before
/// [`StdRng::seed_from_u64`]'s SplitMix64 scrambling; the stream depends
/// only on `(seed, r, i)`, never on thread assignment.
fn item_replicate_seed(seed: u64, r: usize, i: usize) -> u64 {
    seed.wrapping_add((r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

fn validate(values: &[f64]) -> Result<()> {
    if values.is_empty() {
        return Err(StatsError::Empty { what: "values" });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    Ok(())
}

fn ranks_impl(values: &[f64], descending: bool) -> Result<Vec<f64>> {
    validate(values)?;
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    if descending {
        idx.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).expect("finite"));
    } else {
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"));
    }
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the tie group [i, j).
        let mut j = i + 1;
        while j < n && values[idx[j]] == values[idx[i]] {
            j += 1;
        }
        // Average rank for the group; ranks are 1-based.
        let avg = (i + 1 + j) as f64 / 2.0;
        for k in i..j {
            ranks[idx[k]] = avg;
        }
        i = j;
    }
    Ok(ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-sort percentile pair that [`order_statistics`] replaced.
    fn order_statistics_by_sort(column: &[f64], lo_idx: usize, hi_idx: usize) -> (f64, f64) {
        let mut sorted = column.to_vec();
        sorted.sort_by(f64::total_cmp);
        (sorted[lo_idx], sorted[hi_idx])
    }

    #[test]
    fn order_statistics_match_the_full_sort_bitwise() {
        // Few distinct values, so every column has ties; -0.0 and 0.0 are
        // distinct under total_cmp and must come back with their sign.
        let palette = [-0.0, 0.0, 1.5, -2.25, 1.5, 7.0, -0.0, 3.0e-300, 1.0];
        let mut rng = StdRng::seed_from_u64(0x5E1EC7);
        for len in 1..=40 {
            for _ in 0..6 {
                let column: Vec<f64> = (0..len)
                    .map(|_| palette[rng.gen_range(0..palette.len())])
                    .collect();
                for lo_idx in 0..len {
                    for hi_idx in lo_idx..len {
                        let want = order_statistics_by_sort(&column, lo_idx, hi_idx);
                        let got = order_statistics(&mut column.clone(), lo_idx, hi_idx);
                        assert_eq!(
                            (got.0.to_bits(), got.1.to_bits()),
                            (want.0.to_bits(), want.1.to_bits()),
                            "{column:?} at ({lo_idx}, {hi_idx})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ascending_no_ties() {
        let r = rank_ascending(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!(r, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn descending_no_ties() {
        let r = rank_descending(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!(r, vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn ties_get_average_rank() {
        let r = rank_ascending(&[1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
        let r = rank_descending(&[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(r, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn rank_sum_is_invariant() {
        // Sum of fractional ranks is always n(n+1)/2.
        let vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let n = vals.len() as f64;
        let sum: f64 = rank_ascending(&vals).unwrap().iter().sum();
        assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn argsort_descending_orders_best_first() {
        let order = argsort_descending(&[1.0, 5.0, 3.0]).unwrap();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn argsort_is_stable_for_ties() {
        let order = argsort_descending(&[2.0, 2.0, 1.0]).unwrap();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn argmax_first_occurrence() {
        assert_eq!(argmax(&[1.0, 9.0, 3.0]).unwrap(), 1);
        // First occurrence wins ties.
        assert_eq!(argmax(&[7.0, 7.0]).unwrap(), 0);
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(matches!(rank_ascending(&[]), Err(StatsError::Empty { .. })));
        assert!(matches!(
            rank_descending(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite)
        ));
        assert!(argmax(&[]).is_err());
    }

    #[test]
    fn tie_groups_separated_intervals_stay_apart() {
        // Three items with disjoint intervals → three singleton groups.
        let ties =
            tie_groups(&[30.0, 10.0, 20.0], &[29.0, 9.0, 19.0], &[31.0, 11.0, 21.0]).unwrap();
        assert_eq!(ties.order, vec![0, 2, 1]);
        assert_eq!(ties.groups, vec![vec![0], vec![2], vec![1]]);
        assert_eq!(ties.group_of, vec![0, 2, 1]);
    }

    #[test]
    fn tie_groups_chain_consecutive_overlaps() {
        // A staircase where each interval overlaps only its neighbour:
        // chained overlap merges all three into one group.
        let ties = tie_groups(&[3.0, 2.0, 1.0], &[2.5, 1.5, 0.5], &[3.5, 2.6, 1.6]).unwrap();
        assert_eq!(ties.groups, vec![vec![0, 1, 2]]);
        assert_eq!(ties.group_of, vec![0, 0, 0]);
        // Widen the gap between items 1 and 2 → the chain breaks there.
        let ties = tie_groups(&[3.0, 2.0, 1.0], &[2.5, 1.9, 0.5], &[3.5, 2.6, 1.1]).unwrap();
        assert_eq!(ties.groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn tie_groups_order_is_stable_on_exact_ties() {
        let ties = tie_groups(&[2.0, 2.0, 5.0], &[1.0, 1.0, 4.5], &[3.0, 3.0, 5.5]).unwrap();
        // Stable sort keeps index 0 before index 1 at equal scores.
        assert_eq!(ties.order, vec![2, 0, 1]);
        assert_eq!(ties.groups, vec![vec![2], vec![0, 1]]);
    }

    #[test]
    fn tie_groups_validates_inputs() {
        assert!(matches!(
            tie_groups(&[1.0], &[0.5, 0.4], &[1.5]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            tie_groups(&[], &[], &[]),
            Err(StatsError::Empty { .. })
        ));
        assert!(matches!(
            tie_groups(&[1.0], &[f64::NAN], &[1.5]),
            Err(StatsError::NonFinite)
        ));
    }

    /// Deterministic synthetic measurements: item `i`'s level is `base - i`
    /// with a small fixed wobble, giving a known descending order.
    fn synthetic_samples(n_items: usize, repeats: usize) -> Vec<Vec<f64>> {
        (0..n_items)
            .map(|i| {
                (0..repeats)
                    .map(|r| {
                        let wobble = ((i * 31 + r * 17) % 7) as f64 * 0.01;
                        (10 + n_items - i) as f64 + wobble
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rank_ci_brackets_point_ranks() {
        let samples = synthetic_samples(6, 8);
        let rc =
            bootstrap_rank_confidence(&samples, 200, 0.95, 42, Parallelism::Sequential).unwrap();
        assert_eq!(rc.items.len(), 6);
        assert_eq!(rc.resamples, 200);
        for (i, item) in rc.items.iter().enumerate() {
            assert!(
                item.rank_lower <= item.rank && item.rank <= item.rank_upper,
                "item {i}: rank {} outside [{}, {}]",
                item.rank,
                item.rank_lower,
                item.rank_upper
            );
            assert!(item.rank_lower >= 1.0 && item.rank_upper <= 6.0);
            assert!(item.score_lower <= item.score && item.score <= item.score_upper);
        }
        // Well-separated levels: point ranks recover the construction order.
        let ranks: Vec<f64> = rc.items.iter().map(|it| it.rank).collect();
        assert_eq!(ranks, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn rank_ci_parallel_matches_sequential_bitwise() {
        let samples = synthetic_samples(9, 5);
        let seq =
            bootstrap_rank_confidence(&samples, 150, 0.9, 13, Parallelism::Sequential).unwrap();
        for threads in [2, 4] {
            let par =
                bootstrap_rank_confidence(&samples, 150, 0.9, 13, Parallelism::Threads(threads))
                    .unwrap();
            assert_eq!(seq.ties, par.ties, "{threads} threads");
            for (a, b) in seq.items.iter().zip(&par.items) {
                assert_eq!(a.score_lower.to_bits(), b.score_lower.to_bits());
                assert_eq!(a.score_upper.to_bits(), b.score_upper.to_bits());
                assert_eq!(a.rank_lower.to_bits(), b.rank_lower.to_bits());
                assert_eq!(a.rank_upper.to_bits(), b.rank_upper.to_bits());
            }
        }
    }

    #[test]
    fn rank_ci_indistinguishable_items_collapse_into_ties() {
        // Two clusters far apart; items inside a cluster differ by far less
        // than the measurement spread, so their score CIs overlap.
        let cluster = |level: f64, offset: f64| -> Vec<f64> {
            (0..6)
                .map(|r| level + offset + ((r * 13) % 5) as f64 * 0.8)
                .collect()
        };
        let samples = vec![
            cluster(100.0, 0.05),
            cluster(100.0, 0.0),
            cluster(10.0, 0.05),
            cluster(10.0, 0.0),
        ];
        let rc =
            bootstrap_rank_confidence(&samples, 300, 0.95, 7, Parallelism::Sequential).unwrap();
        assert_eq!(rc.ties.groups.len(), 2);
        assert_eq!(rc.ties.groups[0], vec![0, 1]);
        assert_eq!(rc.ties.groups[1], vec![2, 3]);
    }

    #[test]
    fn rank_ci_validates_inputs() {
        let good = synthetic_samples(3, 4);
        assert!(matches!(
            bootstrap_rank_confidence(&[], 10, 0.9, 1, Parallelism::Sequential),
            Err(StatsError::Empty { .. })
        ));
        let mut with_empty = good.clone();
        with_empty[1].clear();
        assert!(
            bootstrap_rank_confidence(&with_empty, 10, 0.9, 1, Parallelism::Sequential).is_err()
        );
        let mut with_nan = good.clone();
        with_nan[0][0] = f64::NAN;
        assert!(matches!(
            bootstrap_rank_confidence(&with_nan, 10, 0.9, 1, Parallelism::Sequential),
            Err(StatsError::NonFinite)
        ));
        assert!(bootstrap_rank_confidence(&good, 0, 0.9, 1, Parallelism::Sequential).is_err());
        assert!(bootstrap_rank_confidence(&good, 10, 1.0, 1, Parallelism::Sequential).is_err());
    }

    #[test]
    fn item_replicate_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for r in 0..64 {
            for i in 0..64 {
                assert!(
                    seen.insert(item_replicate_seed(99, r, i)),
                    "collision at ({r}, {i})"
                );
            }
        }
    }
}

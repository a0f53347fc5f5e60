//! Machine rankings and the paper's accuracy metrics (§6.1).

use datatrans_stats::correlation::spearman;
use datatrans_stats::error_metrics::{mean_relative_error_pct, top1_error_pct};
use datatrans_stats::rank::argsort_descending;

use crate::Result;

/// A ranking of target machines induced by (predicted or measured) scores.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// Machine positions, best first (indices into the score vector).
    order: Vec<usize>,
    /// The scores the ranking was derived from.
    scores: Vec<f64>,
}

impl Ranking {
    /// Ranks machines by descending score.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Stats`] on empty or non-finite scores.
    pub fn from_scores(scores: &[f64]) -> Result<Self> {
        let order = argsort_descending(scores)?;
        Ok(Ranking {
            order,
            scores: scores.to_vec(),
        })
    }

    /// Machine indices, best first.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The predicted best machine.
    pub fn top1(&self) -> usize {
        self.order[0]
    }

    /// The best `n` machines (all machines if `n` exceeds the count).
    pub fn top_n(&self, n: usize) -> &[usize] {
        &self.order[..n.min(self.order.len())]
    }

    /// Score of machine `i` (by original index).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn score(&self, i: usize) -> f64 {
        self.scores[i]
    }

    /// The underlying score vector (original machine order).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

/// The paper's three accuracy metrics for one (method, application, split)
/// evaluation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Spearman rank correlation between predicted and actual ranking.
    pub rank_correlation: f64,
    /// Top-1 performance deficiency, percent.
    pub top1_error_pct: f64,
    /// Mean absolute relative prediction error, percent.
    pub mean_error_pct: f64,
}

impl EvalMetrics {
    /// Computes all three metrics from predicted vs actual scores.
    ///
    /// A constant prediction vector carries no ranking information, so its
    /// rank correlation is defined as `0.0` rather than an error — small
    /// predictive sets can legitimately produce such degenerate models.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Stats`] when the inputs are degenerate
    /// in an unrecoverable way (mismatched lengths, fewer than two
    /// machines, non-finite values).
    pub fn compute(predicted: &[f64], actual: &[f64]) -> Result<Self> {
        use datatrans_stats::StatsError;
        let rank_correlation = match spearman(predicted, actual) {
            Ok(rho) => rho,
            Err(StatsError::ConstantInput) => 0.0,
            Err(e) => return Err(e.into()),
        };
        Ok(EvalMetrics {
            rank_correlation,
            top1_error_pct: top1_error_pct(predicted, actual)?,
            mean_error_pct: mean_relative_error_pct(predicted, actual)?,
        })
    }
}

/// Aggregate of many evaluation cells: the paper reports "average numbers
/// [...] as well as worst-case results".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricAggregate {
    /// Mean rank correlation across cells.
    pub mean_rank_correlation: f64,
    /// Worst (minimum) rank correlation.
    pub worst_rank_correlation: f64,
    /// Mean top-1 error, percent.
    pub mean_top1_error_pct: f64,
    /// Worst (maximum) top-1 error, percent.
    pub worst_top1_error_pct: f64,
    /// Mean of mean errors, percent.
    pub mean_error_pct: f64,
    /// Worst (maximum) mean error, percent.
    pub worst_mean_error_pct: f64,
    /// Number of cells aggregated.
    pub cells: usize,
}

impl MetricAggregate {
    /// Aggregates a non-empty set of cells.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidTask`] on empty input.
    pub fn from_cells(cells: &[EvalMetrics]) -> Result<Self> {
        if cells.is_empty() {
            return Err(crate::CoreError::invalid_task(
                "cannot aggregate zero evaluation cells",
            ));
        }
        let n = cells.len() as f64;
        Ok(MetricAggregate {
            mean_rank_correlation: cells.iter().map(|c| c.rank_correlation).sum::<f64>() / n,
            worst_rank_correlation: cells
                .iter()
                .map(|c| c.rank_correlation)
                .fold(f64::INFINITY, f64::min),
            mean_top1_error_pct: cells.iter().map(|c| c.top1_error_pct).sum::<f64>() / n,
            worst_top1_error_pct: cells
                .iter()
                .map(|c| c.top1_error_pct)
                .fold(f64::NEG_INFINITY, f64::max),
            mean_error_pct: cells.iter().map(|c| c.mean_error_pct).sum::<f64>() / n,
            worst_mean_error_pct: cells
                .iter()
                .map(|c| c.mean_error_pct)
                .fold(f64::NEG_INFINITY, f64::max),
            cells: cells.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_orders_best_first() {
        let r = Ranking::from_scores(&[10.0, 30.0, 20.0]).unwrap();
        assert_eq!(r.order(), &[1, 2, 0]);
        assert_eq!(r.top1(), 1);
        assert_eq!(r.top_n(2), &[1, 2]);
        assert_eq!(r.top_n(99), &[1, 2, 0]);
        assert_eq!(r.score(1), 30.0);
    }

    #[test]
    fn metrics_perfect_prediction() {
        let actual = [10.0, 30.0, 20.0, 5.0];
        let m = EvalMetrics::compute(&actual, &actual).unwrap();
        assert!((m.rank_correlation - 1.0).abs() < 1e-12);
        assert_eq!(m.top1_error_pct, 0.0);
        assert_eq!(m.mean_error_pct, 0.0);
    }

    #[test]
    fn metrics_reversed_prediction() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let reversed = [4.0, 3.0, 2.0, 1.0];
        let m = EvalMetrics::compute(&reversed, &actual).unwrap();
        assert!((m.rank_correlation + 1.0).abs() < 1e-12);
        // Predicted best is machine 0 (actual 1.0), real best is 4.0.
        assert!((m.top1_error_pct - 300.0).abs() < 1e-9);
    }

    #[test]
    fn constant_prediction_gets_zero_rank_correlation() {
        let actual = [1.0, 2.0, 3.0];
        let m = EvalMetrics::compute(&[5.0, 5.0, 5.0], &actual).unwrap();
        assert_eq!(m.rank_correlation, 0.0);
        // Top-1 falls back to the first machine; error well-defined.
        assert!(m.top1_error_pct >= 0.0);
    }

    #[test]
    fn non_finite_prediction_is_an_error() {
        let actual = [1.0, 2.0, 3.0];
        assert!(EvalMetrics::compute(&[1.0, f64::NAN, 3.0], &actual).is_err());
    }

    #[test]
    fn aggregate_mean_and_worst() {
        let cells = [
            EvalMetrics {
                rank_correlation: 0.9,
                top1_error_pct: 0.0,
                mean_error_pct: 2.0,
            },
            EvalMetrics {
                rank_correlation: 0.5,
                top1_error_pct: 30.0,
                mean_error_pct: 10.0,
            },
        ];
        let agg = MetricAggregate::from_cells(&cells).unwrap();
        assert!((agg.mean_rank_correlation - 0.7).abs() < 1e-12);
        assert_eq!(agg.worst_rank_correlation, 0.5);
        assert_eq!(agg.mean_top1_error_pct, 15.0);
        assert_eq!(agg.worst_top1_error_pct, 30.0);
        assert_eq!(agg.mean_error_pct, 6.0);
        assert_eq!(agg.worst_mean_error_pct, 10.0);
        assert_eq!(agg.cells, 2);
    }

    #[test]
    fn aggregate_rejects_empty() {
        assert!(MetricAggregate::from_cells(&[]).is_err());
    }
}

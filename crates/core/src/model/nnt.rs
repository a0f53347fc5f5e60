//! NNᵀ: data transposition through linear regression (paper §3.2.1).
//!
//! For every target machine, fit one simple linear regression per
//! predictive machine — `score_on_target ≈ a · score_on_predictive + b`
//! over the training benchmarks — and keep the predictive machine whose
//! model fits best ("the performance for that target machine correlates
//! best with the performance of the chosen predictive machine"). The app's
//! score on the target is then read off that single model.

use datatrans_linalg::{kernels, Matrix};
use datatrans_ml::linreg::SimpleLinearRegression;

use crate::model::Predictor;
use crate::task::PredictionTask;
use crate::{CoreError, Result};

/// Criterion for choosing the best-fitting predictive machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitCriterion {
    /// Highest coefficient of determination (paper's choice).
    #[default]
    RSquared,
    /// Lowest residual standard deviation.
    ResidualStd,
}

/// The NNᵀ predictor.
///
/// `log_domain` optionally fits the regressions on log-scores; SPEC ratios
/// are ratio-scaled, so this is a natural ablation (off by default to match
/// the paper).
#[derive(Debug, Clone, Default)]
pub struct NnT {
    /// Model-selection criterion.
    pub criterion: FitCriterion,
    /// Fit regressions in log space.
    pub log_domain: bool,
}

impl NnT {
    /// NNᵀ with the paper's settings (R² selection, linear domain).
    pub fn new() -> Self {
        NnT::default()
    }

    /// Returns, for each target machine, the index of the chosen predictive
    /// machine alongside the prediction. Useful for diagnostics: it shows
    /// *which* machine the method considered most similar.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Predictor::predict`].
    pub fn predict_with_neighbors(&self, task: &PredictionTask) -> Result<Vec<(f64, usize)>> {
        task.validate()?;
        let b = task.n_benchmarks();
        let p = task.n_predictive();
        let t = task.n_targets();
        if b < 3 {
            return Err(CoreError::invalid_task(
                "NN^T needs at least 3 training benchmarks",
            ));
        }

        let tf = |v: f64| if self.log_domain { v.ln() } else { v };
        let inv = |v: f64| if self.log_domain { v.exp() } else { v };

        // In log domain the transform is applied once into owned matrices
        // so the regression sweep does not recompute `ln` per pair.
        let (pred_owned, targ_owned);
        let (pred_scores, targ_scores) = if self.log_domain {
            pred_owned = task.train_predictive.map(tf);
            targ_owned = task.train_target.map(tf);
            (&pred_owned, &targ_owned)
        } else {
            (&task.train_predictive, &task.train_target)
        };
        let app_pred: Vec<f64> = task.app_predictive.iter().map(|&v| tf(v)).collect();

        // A non-finite target cell fails every regression of its target,
        // which then has no fit. A non-finite predictive column fails every
        // regression of its machine, so the machine is skipped (a constant
        // one is skipped below); with none left, no target has a fit.
        let no_fit = || CoreError::invalid_task("no predictive machine admits a regression fit");
        if !targ_scores.all_finite() {
            return Err(no_fit());
        }
        let columns: Vec<PredictiveColumn> = (0..p)
            .filter_map(|pj| PredictiveColumn::new(pred_scores, pj))
            .collect();
        if columns.is_empty() {
            return Err(no_fit());
        }
        let moments = TargetMoments::sweep(targ_scores, &columns);

        let mut out = Vec::with_capacity(t);
        for tj in 0..t {
            let mut best: Option<(f64, usize, SimpleLinearRegression)> = None;
            for (c, column) in columns.iter().enumerate() {
                let Ok(fit) = SimpleLinearRegression::from_moments(
                    b,
                    column.mean,
                    moments.mean[tj],
                    column.sxx,
                    moments.sxy[c * t + tj],
                    moments.syy[tj],
                ) else {
                    continue; // constant predictive column — skip
                };
                let quality = match self.criterion {
                    FitCriterion::RSquared => fit.r_squared(),
                    FitCriterion::ResidualStd => -fit.residual_std(),
                };
                if best.as_ref().is_none_or(|(q, _, _)| quality > *q) {
                    best = Some((quality, column.index, fit));
                }
            }
            let (_, pj, fit) = best.ok_or_else(no_fit)?;
            let raw = fit.predict(app_pred[pj]);
            // A ratio prediction below zero is meaningless; clamp to a tiny
            // positive value so downstream ranking metrics stay defined.
            let score = inv(raw).max(1e-6);
            out.push((score, pj));
        }
        Ok(out)
    }
}

/// One finite predictive machine's side of every regression it enters:
/// its column mean, centred scores and `sxx`, each summed in benchmark
/// order exactly as [`SimpleLinearRegression::fit_pairs`] sums them.
struct PredictiveColumn {
    /// Column of the machine in the task's predictive matrix.
    index: usize,
    mean: f64,
    centred: Vec<f64>,
    sxx: f64,
}

impl PredictiveColumn {
    /// `None` if the column holds a non-finite score, which fails every
    /// regression on this machine.
    fn new(scores: &Matrix, index: usize) -> Option<Self> {
        let x = scores.col_view(index);
        if !x.iter().all(f64::is_finite) {
            return None;
        }
        let mut sum = 0.0;
        for v in x.iter() {
            sum += v;
        }
        let mean = sum / x.len() as f64;
        let centred: Vec<f64> = x.iter().map(|v| v - mean).collect();
        let mut sxx = 0.0;
        for c in &centred {
            sxx += c * c;
        }
        Some(PredictiveColumn {
            index,
            mean,
            centred,
            sxx,
        })
    }
}

/// The target side of every (target, predictive column) regression, from
/// two sweeps over the contiguous rows of the target matrix: per-target
/// means, `syy`, and the cross sums `sxy` of every column (row-major,
/// `columns × targets`). Each accumulator adds its terms in benchmark
/// order, so every moment equals the one `fit_pairs` computes for the same
/// pair, bit for bit.
struct TargetMoments {
    mean: Vec<f64>,
    syy: Vec<f64>,
    sxy: Vec<f64>,
}

impl TargetMoments {
    fn sweep(targets: &Matrix, columns: &[PredictiveColumn]) -> Self {
        let (b, t) = targets.shape();
        let mut mean = vec![0.0; t];
        for row in targets.iter_rows() {
            for (s, v) in mean.iter_mut().zip(row) {
                *s += v;
            }
        }
        for s in &mut mean {
            *s /= b as f64;
        }
        let mut syy = vec![0.0; t];
        let mut sxy = vec![0.0; columns.len() * t];
        let mut centred = vec![0.0; t];
        for (i, row) in targets.iter_rows().enumerate() {
            for ((c, v), m) in centred.iter_mut().zip(row).zip(&mean) {
                *c = v - m;
            }
            for (s, c) in syy.iter_mut().zip(&centred) {
                *s += c * c;
            }
            for (acc, column) in sxy.chunks_exact_mut(t).zip(columns) {
                kernels::axpy(acc, column.centred[i], &centred);
            }
        }
        TargetMoments { mean, syy, sxy }
    }
}

impl Predictor for NnT {
    fn name(&self) -> &'static str {
        "NN^T"
    }

    fn predict(&self, task: &PredictionTask) -> Result<Vec<f64>> {
        Ok(self
            .predict_with_neighbors(task)?
            .into_iter()
            .map(|(score, _)| score)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_rng::rngs::StdRng;
    use datatrans_rng::{Rng, SeedableRng};

    /// The per-pair regression loop before the row sweep, kept as the
    /// specification of [`NnT::predict_with_neighbors`]: one `fit_pairs`
    /// on two strided column views for every (target, predictive) pair.
    fn predict_reference(nnt: &NnT, task: &PredictionTask) -> Result<Vec<(f64, usize)>> {
        task.validate()?;
        if task.n_benchmarks() < 3 {
            return Err(CoreError::invalid_task(
                "NN^T needs at least 3 training benchmarks",
            ));
        }
        let tf = |v: f64| if nnt.log_domain { v.ln() } else { v };
        let inv = |v: f64| if nnt.log_domain { v.exp() } else { v };
        let pred_scores = task.train_predictive.view().map(tf);
        let targ_scores = task.train_target.view().map(tf);
        let app_pred: Vec<f64> = task.app_predictive.iter().map(|&v| tf(v)).collect();
        let mut out = Vec::with_capacity(task.n_targets());
        for tj in 0..task.n_targets() {
            let y = targ_scores.col_view(tj);
            let mut best: Option<(f64, usize, SimpleLinearRegression)> = None;
            for pj in 0..task.n_predictive() {
                let x = pred_scores.col_view(pj);
                let Ok(fit) = SimpleLinearRegression::fit_pairs(x.iter().zip(y.iter())) else {
                    continue;
                };
                let quality = match nnt.criterion {
                    FitCriterion::RSquared => fit.r_squared(),
                    FitCriterion::ResidualStd => -fit.residual_std(),
                };
                if best.as_ref().is_none_or(|(q, _, _)| quality > *q) {
                    best = Some((quality, pj, fit));
                }
            }
            let (_, pj, fit) = best.ok_or_else(|| {
                CoreError::invalid_task("no predictive machine admits a regression fit")
            })?;
            out.push((inv(fit.predict(app_pred[pj])).max(1e-6), pj));
        }
        Ok(out)
    }

    /// A seeded task whose targets are noisy multiples of a random mix of
    /// the predictive machines; predictive column 2 (when present)
    /// duplicates column 0, so their fits tie exactly.
    fn seeded_task(seed: u64, b: usize, p: usize, t: usize) -> PredictionTask {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train_predictive = Matrix::from_fn(b, p, |_, _| rng.gen_range(2.0..90.0));
        if p > 2 {
            for i in 0..b {
                train_predictive[(i, 2)] = train_predictive[(i, 0)];
            }
        }
        let train_target = Matrix::from_fn(b, t, |i, tj| {
            let src = train_predictive[(i, (tj * 7 + 3) % p)];
            (0.4 + 0.1 * (tj % 5) as f64) * src * rng.gen_range(0.8..1.25) + rng.gen_range(0.0..3.0)
        });
        PredictionTask {
            train_predictive,
            train_target,
            app_predictive: (0..p).map(|_| rng.gen_range(2.0..90.0)).collect(),
            train_characteristics: Matrix::zeros(b, 2),
            app_characteristics: vec![0.0, 0.0],
            seed,
        }
    }

    /// Every NNᵀ configuration: both criteria, linear and log domain.
    fn configurations() -> Vec<NnT> {
        let mut out = Vec::new();
        for criterion in [FitCriterion::RSquared, FitCriterion::ResidualStd] {
            for log_domain in [false, true] {
                out.push(NnT {
                    criterion,
                    log_domain,
                });
            }
        }
        out
    }

    fn assert_matches_reference(task: &PredictionTask, what: &str) {
        for nnt in configurations() {
            let fast = nnt.predict_with_neighbors(task);
            let reference = predict_reference(&nnt, task);
            match (&fast, &reference) {
                (Ok(fast), Ok(reference)) => {
                    assert_eq!(fast.len(), reference.len(), "{what} {nnt:?}");
                    for (tj, (f, r)) in fast.iter().zip(reference).enumerate() {
                        assert_eq!(f.1, r.1, "{what} {nnt:?} target {tj}: chosen machine");
                        assert_eq!(f.0.to_bits(), r.0.to_bits(), "{what} {nnt:?} target {tj}");
                    }
                }
                (Err(fast), Err(reference)) => {
                    assert_eq!(fast.to_string(), reference.to_string(), "{what} {nnt:?}");
                }
                _ => panic!("{what} {nnt:?}: {fast:?} vs reference {reference:?}"),
            }
        }
    }

    #[test]
    fn row_sweep_matches_per_pair_reference_bitwise() {
        let mut seed = 0;
        for b in [3, 4, 9, 28] {
            for p in [1, 3, 8] {
                for t in [1, 6, 33] {
                    seed += 1;
                    let task = seeded_task(seed, b, p, t);
                    assert_matches_reference(&task, &format!("b={b} p={p} t={t}"));
                }
            }
        }
        let task = seeded_task(99, 28, 8, 600);
        let chosen = NnT::default().predict_with_neighbors(&task).unwrap();
        assert!(
            chosen.iter().all(|&(_, pj)| pj != 2),
            "the duplicate of column 0 never wins a tie"
        );
    }

    #[test]
    fn row_sweep_matches_reference_on_constant_and_non_finite_columns() {
        // A constant predictive column is skipped.
        let mut task = seeded_task(5, 12, 4, 9);
        for i in 0..12 {
            task.train_predictive[(i, 1)] = 7.25;
        }
        assert_matches_reference(&task, "constant predictive column");
        // Every predictive column constant: no fit for any target.
        let mut all_constant = task.clone();
        for i in 0..12 {
            for pj in 0..4 {
                all_constant.train_predictive[(i, pj)] = 3.0;
            }
        }
        assert!(NnT::default().predict(&all_constant).is_err());
        assert_matches_reference(&all_constant, "all predictive columns constant");
        // A zero or negative score is non-finite in log domain: the
        // predictive side skips the machine, the target side fails.
        for (cell, v) in [((3, 0), 0.0), ((8, 2), -4.0)] {
            let mut predictive = seeded_task(6, 12, 4, 9);
            predictive.train_predictive[cell] = v;
            assert_matches_reference(&predictive, &format!("predictive {cell:?} = {v}"));
            let mut target = seeded_task(7, 12, 4, 9);
            target.train_target[cell] = v;
            assert!(NnT {
                log_domain: true,
                ..NnT::default()
            }
            .predict(&target)
            .is_err());
            assert_matches_reference(&target, &format!("target {cell:?} = {v}"));
        }
        // A NaN fails validation on both paths.
        let mut nan = seeded_task(8, 12, 4, 9);
        nan.train_target[(1, 1)] = f64::NAN;
        assert_matches_reference(&nan, "NaN target cell");
    }

    /// A synthetic task where target machine 0 is an exact linear function
    /// of predictive machine 1.
    fn linear_task() -> PredictionTask {
        // 5 training benchmarks, 2 predictive machines, 1 target.
        // Predictive 0 is uncorrelated noise, predictive 1 is informative.
        let p0 = [3.0, 1.0, 2.5, 1.2, 2.8];
        let p1 = [1.0, 2.0, 3.0, 4.0, 5.0];
        let target: Vec<f64> = p1.iter().map(|x| 2.0 * x + 1.0).collect();
        let mut train_predictive = Matrix::zeros(5, 2);
        let mut train_target = Matrix::zeros(5, 1);
        for i in 0..5 {
            train_predictive[(i, 0)] = p0[i];
            train_predictive[(i, 1)] = p1[i];
            train_target[(i, 0)] = target[i];
        }
        PredictionTask {
            train_predictive,
            train_target,
            app_predictive: vec![10.0, 6.0],
            train_characteristics: Matrix::zeros(5, 2),
            app_characteristics: vec![0.0, 0.0],
            seed: 0,
        }
    }

    #[test]
    fn selects_informative_machine_and_extrapolates() {
        let task = linear_task();
        let nnt = NnT::default();
        let with_neighbors = nnt.predict_with_neighbors(&task).unwrap();
        assert_eq!(with_neighbors.len(), 1);
        let (score, chosen) = with_neighbors[0];
        assert_eq!(chosen, 1, "must pick the correlated predictive machine");
        // app scored 6.0 on machine 1 → target prediction 2*6+1 = 13.
        assert!((score - 13.0).abs() < 1e-9);
    }

    #[test]
    fn predict_matches_predict_with_neighbors() {
        let task = linear_task();
        let nnt = NnT::default();
        let a = nnt.predict(&task).unwrap();
        let b = nnt.predict_with_neighbors(&task).unwrap();
        assert_eq!(a[0], b[0].0);
    }

    #[test]
    fn log_domain_handles_multiplicative_structure() {
        // target = predictive^2 (multiplicative): log domain fits exactly.
        let p: Vec<f64> = vec![1.0, 2.0, 4.0, 8.0, 16.0];
        let t: Vec<f64> = p.iter().map(|x| x * x).collect();
        let mut train_predictive = Matrix::zeros(5, 1);
        let mut train_target = Matrix::zeros(5, 1);
        for i in 0..5 {
            train_predictive[(i, 0)] = p[i];
            train_target[(i, 0)] = t[i];
        }
        let task = PredictionTask {
            train_predictive,
            train_target,
            app_predictive: vec![32.0],
            train_characteristics: Matrix::zeros(5, 1),
            app_characteristics: vec![0.0],
            seed: 0,
        };
        let nnt = NnT {
            log_domain: true,
            ..NnT::default()
        };
        let pred = nnt.predict(&task).unwrap();
        assert!((pred[0] - 1024.0).abs() / 1024.0 < 1e-9);
    }

    #[test]
    fn residual_std_criterion_works() {
        let task = linear_task();
        let nnt = NnT {
            criterion: FitCriterion::ResidualStd,
            ..NnT::default()
        };
        let with_neighbors = nnt.predict_with_neighbors(&task).unwrap();
        assert_eq!(with_neighbors[0].1, 1);
    }

    #[test]
    fn prediction_clamped_positive() {
        // Steep negative relationship drives the raw prediction below zero.
        let p: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0];
        let t: Vec<f64> = p.iter().map(|x| 10.0 - 2.5 * x).collect();
        let mut train_predictive = Matrix::zeros(4, 1);
        let mut train_target = Matrix::zeros(4, 1);
        for i in 0..4 {
            train_predictive[(i, 0)] = p[i];
            train_target[(i, 0)] = t[i];
        }
        let task = PredictionTask {
            train_predictive,
            train_target,
            app_predictive: vec![100.0],
            train_characteristics: Matrix::zeros(4, 1),
            app_characteristics: vec![0.0],
            seed: 0,
        };
        let pred = NnT::default().predict(&task).unwrap();
        assert!(pred[0] > 0.0);
    }

    #[test]
    fn too_few_benchmarks_rejected() {
        let task = PredictionTask {
            train_predictive: Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap(),
            train_target: Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap(),
            app_predictive: vec![1.0],
            train_characteristics: Matrix::zeros(2, 1),
            app_characteristics: vec![0.0],
            seed: 0,
        };
        assert!(NnT::default().predict(&task).is_err());
    }
}

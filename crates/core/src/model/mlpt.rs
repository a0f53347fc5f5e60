//! MLPᵀ: data transposition through neural networks (paper §3.2.2).
//!
//! "The input to the neural network is the performance of the benchmark
//! applications, and the output is the predicted performance for the
//! application of interest, on the target machine. [...] Training the
//! neural network involves inputting the performance numbers of the
//! benchmarks on the predictive machines, and expecting the performance
//! for the application of interest at the output."
//!
//! Each training row is one *predictive machine*: features are its
//! benchmark scores, the label is the app's score on it. Prediction applies
//! the network to each target machine's published benchmark scores.

use datatrans_linalg::kernels;
use datatrans_ml::mlp::{MlpConfig, MlpRegressor};
use datatrans_ml::scale::MinMaxScaler;

use crate::model::Predictor;
use crate::task::PredictionTask;
use crate::Result;

/// The MLPᵀ predictor (WEKA-default multilayer perceptron, as in the
/// paper).
///
/// Deliberate deviation from WEKA: the input scaler is fitted
/// *transductively* over the predictive and target machines' benchmark
/// scores (all published data; labels still come only from the predictive
/// machines). WEKA's fit-on-train scaling saturates the sigmoid layer for
/// small predictive sets and collapses every prediction to one constant.
/// Consequence: a machine's predicted score depends (weakly, through the
/// per-feature scaling range) on which other machines are in the task's
/// target set — predictions are per-task, not per-machine.
#[derive(Debug, Clone)]
pub struct MlpT {
    /// Neural-network hyper-parameters. The seed inside is combined with
    /// the task seed so repeated folds differ deterministically.
    pub config: MlpConfig,
    /// Model scores in log space (SPEC ratios are ratio-scaled). Enabled by
    /// default: WEKA normalizes inputs linearly, but scores spanning two
    /// orders of magnitude train poorly otherwise.
    pub log_domain: bool,
}

impl Default for MlpT {
    fn default() -> Self {
        MlpT {
            config: MlpConfig::weka_default(0),
            log_domain: true,
        }
    }
}

impl MlpT {
    /// MLPᵀ with WEKA-default settings.
    pub fn new() -> Self {
        MlpT::default()
    }
}

impl Predictor for MlpT {
    fn name(&self) -> &'static str {
        "MLP^T"
    }

    fn predict(&self, task: &PredictionTask) -> Result<Vec<f64>> {
        task.validate()?;
        let tf = |v: f64| if self.log_domain { v.ln() } else { v };
        let inv = |v: f64| if self.log_domain { v.exp() } else { v };

        // Training rows = predictive machines (transpose the benchmark-major
        // matrix — this is the "transposition" in data transposition). The
        // transposes are zero-copy stride swaps; only the domain transform
        // materializes, once per matrix.
        let x = task.train_predictive.transpose_view().map(tf);
        let y: Vec<f64> = task.app_predictive.iter().map(|&v| tf(v)).collect();
        // Target machines' benchmark scores, machine-major: the prediction
        // feature rows.
        let target_features = task.train_target.transpose_view().map(tf);

        let mut config = self.config.clone();
        config.seed ^= task.seed;
        // Transductive input scaling: the per-feature range covers the
        // predictive AND target machines (all published scores, no labels).
        // Scaling on the k training rows alone saturates the sigmoid layer
        // for small k — every target row then collapses to one constant
        // prediction.
        let input_scaler = MinMaxScaler::fit_many(&[&x, &target_features], -1.0, 1.0)?;
        let model = MlpRegressor::fit_with_input_scaler(&x, &y, input_scaler, &config)?;

        // Fallback for a diverged network (possible with very small
        // predictive sets): the mean transformed app score, i.e. the
        // no-information prediction.
        let fallback = y.iter().sum::<f64>() / y.len() as f64;
        // Transformed scores in this problem live in a narrow range; a
        // prediction far outside the training spread is extrapolation
        // noise. Clamp to ±3 spreads around the mean (also prevents exp
        // overflow in log domain).
        let spread = y
            .iter()
            .map(|v| (v - fallback).abs())
            .fold(0.0f64, f64::max)
            .max(1.0);

        // One forward pass per target, all through one MlpScratch.
        let mut scratch = model.scratch();
        let mut raw: Vec<f64> = (0..task.n_targets())
            .map(|t| -> Result<f64> {
                let raw = model.predict_with_scratch(target_features.row(t), &mut scratch)?;
                Ok(if raw.is_finite() { raw } else { fallback })
            })
            .collect::<Result<_>>()?;
        // Clamp stage: one fused pass over the collected raw predictions
        // (the scale factor of 1.0 is an exact identity on finite values,
        // so this is a pure clamp — bitwise-identical to clamping inside
        // the per-target loop).
        kernels::scale_clamp_in_place(
            &mut raw,
            1.0,
            fallback - 3.0 * spread,
            fallback + 3.0 * spread,
        );
        Ok(raw.into_iter().map(|r| inv(r).max(1e-6)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_linalg::Matrix;

    /// Synthetic task: app score is a fixed non-linear function of two
    /// benchmark scores; machines vary in "speed".
    fn nonlinear_task(n_predictive: usize, n_targets: usize) -> (PredictionTask, Vec<f64>) {
        let b = 6;
        let machine_speed = |m: usize| 1.0 + 0.35 * m as f64;
        let bench_score = |bench: usize, speed: f64| {
            // Benchmarks respond differently (non-linearly) to speed.
            let exponent = 0.5 + bench as f64 * 0.2;
            10.0 * speed.powf(exponent)
        };
        let app_score = |speed: f64| 8.0 * speed.powf(1.3);

        let train_predictive = Matrix::from_fn(b, n_predictive, |bench, m| {
            bench_score(bench, machine_speed(m))
        });
        let train_target = Matrix::from_fn(b, n_targets, |bench, m| {
            bench_score(bench, machine_speed(n_predictive + m))
        });
        let app_predictive: Vec<f64> = (0..n_predictive)
            .map(|m| app_score(machine_speed(m)))
            .collect();
        let actual_target: Vec<f64> = (0..n_targets)
            .map(|m| app_score(machine_speed(n_predictive + m)))
            .collect();
        let task = PredictionTask {
            train_predictive,
            train_target,
            app_predictive,
            train_characteristics: Matrix::zeros(b, 2),
            app_characteristics: vec![0.0, 0.0],
            seed: 7,
        };
        (task, actual_target)
    }

    #[test]
    fn learns_nonlinear_machine_relationship() {
        let (task, actual) = nonlinear_task(12, 4);
        let pred = MlpT::default().predict(&task).unwrap();
        for (p, a) in pred.iter().zip(&actual) {
            let rel = (p - a).abs() / a;
            assert!(rel < 0.25, "predicted {p:.2}, actual {a:.2}");
        }
    }

    #[test]
    fn deterministic_given_task_seed() {
        let (task, _) = nonlinear_task(8, 3);
        let a = MlpT::default().predict(&task).unwrap();
        let b = MlpT::default().predict(&task).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn task_seed_changes_model() {
        let (mut task, _) = nonlinear_task(8, 3);
        let a = MlpT::default().predict(&task).unwrap();
        task.seed = 8;
        let b = MlpT::default().predict(&task).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn predictions_positive() {
        let (task, _) = nonlinear_task(6, 5);
        let pred = MlpT::default().predict(&task).unwrap();
        assert!(pred.iter().all(|p| *p > 0.0));
    }

    #[test]
    fn works_with_three_predictive_machines() {
        // Table 4's smallest predictive set.
        let (task, actual) = nonlinear_task(3, 4);
        let pred = MlpT::default().predict(&task).unwrap();
        // Looser tolerance: 3 training rows is minimal.
        for (p, a) in pred.iter().zip(&actual) {
            assert!((p - a).abs() / a < 0.8, "predicted {p:.2}, actual {a:.2}");
        }
    }

    #[test]
    fn linear_domain_variant_runs() {
        let (task, _) = nonlinear_task(8, 2);
        let mlpt = MlpT {
            log_domain: false,
            ..MlpT::default()
        };
        let pred = mlpt.predict(&task).unwrap();
        assert_eq!(pred.len(), 2);
        assert!(pred.iter().all(|p| p.is_finite() && *p > 0.0));
    }
}

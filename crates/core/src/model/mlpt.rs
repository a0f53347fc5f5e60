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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datatrans_linalg::{kernels, Matrix};
use datatrans_ml::mlp::{MlpConfig, MlpRegressor};
use datatrans_ml::scale::MinMaxScaler;
use datatrans_ml::MlError;
use datatrans_parallel::Memo;

use crate::model::Predictor;
use crate::task::PredictionTask;
use crate::Result;

/// Most fitted networks one [`FitMemo`] keeps.
const FIT_MEMO_CAPACITY: usize = 64;

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

    /// [`Predictor::predict`], taking the fitted network from `fits` when
    /// given one: the memoized network if its [`FitKey`] is resident, else
    /// a fresh fit that is memoized. Either way the network is the one a
    /// fresh fit returns, so the predictions carry the same bits.
    pub(crate) fn predict_with(
        &self,
        task: &PredictionTask,
        fits: Option<&FitMemo>,
    ) -> Result<Vec<f64>> {
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

        let key = FitKey {
            x,
            y,
            input_scaler,
            config,
        };
        let model = match fits {
            Some(fits) => fits.fit(key)?,
            None => Arc::new(key.train()?),
        };

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

impl Predictor for MlpT {
    fn name(&self) -> &'static str {
        "MLP^T"
    }

    fn predict(&self, task: &PredictionTask) -> Result<Vec<f64>> {
        self.predict_with(task, None)
    }
}

/// Every input an MLPᵀ fit reads, and nothing else: the training rows and
/// labels in the model's domain, the transductive input scaler, and the
/// hyper-parameters after the task-seed xor.
///
/// A fit is a pure function of its key — [`FitKey::train`] draws its
/// weights and shuffles from `config.seed` and reads nothing else — so
/// two equal keys train the same network, bit for bit. Equality is
/// bitwise: every `f64` compares by [`f64::to_bits`], because `==` would
/// merge +0.0 and −0.0, which a fit tells apart.
///
/// A key holds its training rows: `8 · (B + 1) · k` bytes for `k`
/// predictive machines over `B` benchmarks, plus the scaler's `16 · B`.
#[derive(Debug)]
pub(crate) struct FitKey {
    /// Training rows (predictive machines × benchmarks).
    x: Matrix,
    /// The app's score on each predictive machine.
    y: Vec<f64>,
    /// Per-benchmark range over the predictive and target machines.
    input_scaler: MinMaxScaler,
    /// Hyper-parameters, seed already combined with the task seed.
    config: MlpConfig,
}

impl FitKey {
    /// Trains the network this key describes.
    fn train(&self) -> std::result::Result<MlpRegressor, MlError> {
        MlpRegressor::fit_with_input_scaler(
            &self.x,
            &self.y,
            self.input_scaler.clone(),
            &self.config,
        )
    }
}

/// Whether `a` and `b` hold the same `f64` bits, element for element.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

impl PartialEq for FitKey {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive patterns: a field added to the key or to `MlpConfig`
        // fails to compile here until it is compared.
        let FitKey {
            x,
            y,
            input_scaler,
            config,
        } = self;
        let MlpConfig {
            hidden_layers,
            learning_rate,
            momentum,
            epochs,
            seed,
            shuffle,
            hidden_activation,
        } = config;
        let theirs = &other.config;
        let ((mins, maxs), (lo, hi)) = (input_scaler.bounds(), input_scaler.output_range());
        let ((their_mins, their_maxs), (their_lo, their_hi)) = (
            other.input_scaler.bounds(),
            other.input_scaler.output_range(),
        );
        // Cheapest first: distinct requests mostly differ in the seed.
        *seed == theirs.seed
            && *epochs == theirs.epochs
            && *shuffle == theirs.shuffle
            && *hidden_activation == theirs.hidden_activation
            && *hidden_layers == theirs.hidden_layers
            && same_bits(
                &[*learning_rate, *momentum],
                &[theirs.learning_rate, theirs.momentum],
            )
            && same_bits(y, &other.y)
            && same_bits(&[lo, hi], &[their_lo, their_hi])
            && same_bits(mins, their_mins)
            && same_bits(maxs, their_maxs)
            && x.shape() == other.x.shape()
            && same_bits(x.as_slice(), other.x.as_slice())
    }
}

/// A bounded memo of fitted MLPᵀ networks, keyed by [`FitKey`]: the
/// [`crate::cache::ResultCache`] keeps one across catalog versions.
///
/// It holds at most [`FIT_MEMO_CAPACITY`] networks, least recently used
/// evicted first. Each entry is a key (see [`FitKey`] for its size) and a
/// fitted network without momentum buffers. A fit error is memoized like
/// a network: the same inputs give the same error. The counters record how
/// many fits the memo answered and how many it trained.
#[derive(Debug, Default)]
pub(crate) struct FitMemo {
    fits: Memo<FitKey, std::result::Result<Arc<MlpRegressor>, MlError>, FIT_MEMO_CAPACITY>,
    reused: AtomicU64,
    trained: AtomicU64,
}

impl FitMemo {
    /// The network `key` describes: the memoized one, or one trained now
    /// and memoized.
    fn fit(&self, key: FitKey) -> Result<Arc<MlpRegressor>> {
        let mut trained = false;
        let fit = self.fits.get_or_build(key, |key| {
            trained = true;
            key.train().map(Arc::new)
        });
        let counter = if trained { &self.trained } else { &self.reused };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(fit?)
    }

    /// Fits reused and fits trained since the last call, in that order.
    pub(crate) fn take_counts(&self) -> (u64, u64) {
        (
            self.reused.swap(0, Ordering::Relaxed),
            self.trained.swap(0, Ordering::Relaxed),
        )
    }
}

/// Like the memo it holds, a clone starts empty.
impl Clone for FitMemo {
    fn clone(&self) -> Self {
        FitMemo::default()
    }
}

/// MLPᵀ taking its fits from a [`FitMemo`]: the model a cached serving
/// batch builds for an MLPᵀ request.
pub(crate) struct MemoizedMlpT<'a> {
    pub(crate) model: MlpT,
    pub(crate) fits: &'a FitMemo,
}

impl Predictor for MemoizedMlpT<'_> {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn predict(&self, task: &PredictionTask) -> Result<Vec<f64>> {
        self.model.predict_with(task, Some(self.fits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_ml::mlp::Activation;

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

    /// An edit of a [`FitKey`]'s inputs: training rows, labels, target
    /// rows (which only the scaler reads) and hyper-parameters.
    type KeyEdit = fn(&mut Matrix, &mut Vec<f64>, &mut Matrix, &mut MlpConfig);

    /// A small key whose inputs `edit` changes before the scaler is fitted.
    /// The target rows span every training row, so an edit of `x` leaves
    /// the scaler's bounds as they are.
    fn key_with(edit: KeyEdit) -> FitKey {
        let mut x = Matrix::from_fn(3, 2, |i, j| i as f64 * 0.5 + j as f64 * 0.25);
        let mut y = vec![0.0, 1.0, 2.0];
        let mut targets = Matrix::from_fn(2, 2, |i, _| if i == 0 { -1.0 } else { 4.0 });
        let mut config = MlpConfig {
            epochs: 2,
            ..MlpConfig::weka_default(3)
        };
        edit(&mut x, &mut y, &mut targets, &mut config);
        let input_scaler = MinMaxScaler::fit_many(&[&x, &targets], -1.0, 1.0).unwrap();
        FitKey {
            x,
            y,
            input_scaler,
            config,
        }
    }

    fn flip_low_bit(v: &mut f64) {
        *v = f64::from_bits(v.to_bits() ^ 1);
    }

    #[test]
    fn fit_key_misses_on_one_changed_bit_in_any_input() {
        let memo = FitMemo::default();
        memo.fit(key_with(|_, _, _, _| {})).unwrap();
        assert_eq!(memo.take_counts(), (0, 1), "first fit trains");
        memo.fit(key_with(|_, _, _, _| {})).unwrap();
        assert_eq!(memo.take_counts(), (1, 0), "an equal key hits");
        let edits: [(&str, KeyEdit); 13] = [
            ("x cell", |x, _, _, _| flip_low_bit(&mut x[(1, 1)])),
            ("label", |_, y, _, _| flip_low_bit(&mut y[2])),
            ("scaler min", |_, _, t, _| flip_low_bit(&mut t[(0, 1)])),
            ("scaler max", |_, _, t, _| flip_low_bit(&mut t[(1, 0)])),
            ("learning rate", |_, _, _, c| {
                flip_low_bit(&mut c.learning_rate)
            }),
            ("momentum", |_, _, _, c| flip_low_bit(&mut c.momentum)),
            ("seed", |_, _, _, c| c.seed ^= 1),
            ("epochs", |_, _, _, c| c.epochs += 1),
            ("hidden layers", |_, _, _, c| c.hidden_layers = vec![1]),
            ("shuffle", |_, _, _, c| c.shuffle = !c.shuffle),
            ("activation", |_, _, _, c| {
                c.hidden_activation = Activation::Tanh
            }),
            ("-0.0 label", |_, y, _, _| y[0] = -0.0),
            ("-0.0 x cell", |x, _, _, _| x[(0, 0)] = -0.0),
        ];
        for (what, edit) in edits {
            let key = key_with(edit);
            assert!(
                key != key_with(|_, _, _, _| {}),
                "{what}: keys compare equal"
            );
            memo.fit(key).unwrap();
            assert_eq!(memo.take_counts(), (0, 1), "{what}: hit a different key");
        }
        memo.fit(key_with(|_, _, _, _| {})).unwrap();
        assert_eq!(
            memo.take_counts(),
            (1, 0),
            "the first key is still resident"
        );
    }

    #[test]
    fn memoized_predictions_match_fresh_ones_bitwise() {
        let (task, _) = nonlinear_task(6, 4);
        let fresh = MlpT::default().predict(&task).unwrap();
        let memo = FitMemo::default();
        for expected in [(0, 1), (1, 0)] {
            let memoized = MlpT::default().predict_with(&task, Some(&memo)).unwrap();
            assert_eq!(memo.take_counts(), expected);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&memoized), bits(&fresh));
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

//! Multilayer perceptron regression with WEKA-compatible defaults.
//!
//! The paper uses "the WEKA v3 Multilayer Perceptron implementation with
//! default settings" as the MLPᵀ model. [`MlpConfig::weka_default`]
//! reproduces those settings:
//!
//! * one hidden layer with `(attributes + classes) / 2` sigmoid nodes
//!   (WEKA's `-H a`),
//! * linear output node for the numeric target,
//! * inputs and target normalized to `[-1, 1]`,
//! * stochastic gradient descent, learning rate `0.3`, momentum `0.2`,
//! * `500` training epochs.
//!
//! All per-sample state of a forward/backward pass lives in one flat,
//! preallocated [`MlpScratch`] buffer: training reuses a single scratch
//! across every epoch and sample, and batch prediction
//! ([`MlpRegressor::predict_with_scratch`]) amortizes it across calls —
//! no `Vec<Vec<f64>>` is allocated anywhere on the hot path.
//!
//! Training, 500 epochs of per-sample SGD, is most of an MLPᵀ
//! prediction. Its loop is compiled twice from one source: a portable copy
//! and an AVX2 copy, which training runs when
//! `is_x86_feature_detected!("avx2")` holds. AVX2 only widens the
//! registers of the elementwise weight/velocity update and of the fixed
//! 4-lane dot products: it enables no FMA, and every reduction keeps its
//! summation tree, so both copies give the same bits, and a unit test
//! pins them together. Other CPUs run the portable copy.
//!
//! # Example
//!
//! ```
//! use datatrans_linalg::Matrix;
//! use datatrans_ml::mlp::{MlpConfig, MlpRegressor};
//!
//! # fn main() -> Result<(), datatrans_ml::MlError> {
//! // Learn y = x1 + x2 on a tiny grid.
//! let x = Matrix::from_rows(&[
//!     &[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0], &[0.5, 0.5],
//! ])?;
//! let y = [0.0, 1.0, 1.0, 2.0, 1.0];
//! let model = MlpRegressor::fit(&x, &y, &MlpConfig::weka_default(42))?;
//! let pred = model.predict(&[0.25, 0.75])?;
//! assert!((pred - 1.0).abs() < 0.25);
//! # Ok(())
//! # }
//! ```

mod activation;
mod network;

pub use activation::Activation;

use datatrans_linalg::Matrix;
use datatrans_rng::rngs::StdRng;
use datatrans_rng::seq::SliceRandom;
use datatrans_rng::SeedableRng;

use crate::scale::MinMaxScaler;
use crate::{MlError, Result};
use network::Layer;

/// Hyper-parameters for [`MlpRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer sizes. Empty means WEKA's automatic single hidden layer
    /// of `(inputs + 1) / 2` nodes.
    pub hidden_layers: Vec<usize>,
    /// SGD learning rate (WEKA default `0.3`).
    pub learning_rate: f64,
    /// Momentum coefficient (WEKA default `0.2`).
    pub momentum: f64,
    /// Number of passes over the training data (WEKA default `500`).
    pub epochs: usize,
    /// Seed for weight initialization and epoch shuffling.
    pub seed: u64,
    /// Whether to shuffle sample order every epoch.
    pub shuffle: bool,
    /// Hidden-layer activation (WEKA uses sigmoid).
    pub hidden_activation: Activation,
}

impl MlpConfig {
    /// WEKA v3 `MultilayerPerceptron` default settings with the given seed.
    pub fn weka_default(seed: u64) -> Self {
        MlpConfig {
            hidden_layers: Vec::new(),
            learning_rate: 0.3,
            momentum: 0.2,
            epochs: 500,
            seed,
            shuffle: true,
            hidden_activation: Activation::Sigmoid,
        }
    }

    /// Validates the hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] for non-positive learning rate,
    /// negative momentum, momentum ≥ 1, or zero epochs.
    pub fn validate(&self) -> Result<()> {
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(MlError::InvalidParameter {
                name: "learning_rate",
                value: self.learning_rate.to_string(),
            });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(MlError::InvalidParameter {
                name: "momentum",
                value: self.momentum.to_string(),
            });
        }
        if self.epochs == 0 {
            return Err(MlError::InvalidParameter {
                name: "epochs",
                value: "0".into(),
            });
        }
        if self.hidden_layers.contains(&0) {
            return Err(MlError::InvalidParameter {
                name: "hidden_layers",
                value: format!("{:?}", self.hidden_layers),
            });
        }
        Ok(())
    }
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig::weka_default(0)
    }
}

/// Preallocated per-pass working memory for one [`MlpRegressor`].
///
/// Holds every layer's activations in one flat buffer plus the two delta
/// buffers of backpropagation and the scaled-input row. Obtain one with
/// [`MlpRegressor::scratch`] and reuse it across
/// [`MlpRegressor::predict_with_scratch`] calls to keep prediction
/// allocation-free.
#[derive(Debug, Clone)]
pub struct MlpScratch {
    /// Concatenated activations, one segment per layer.
    buf: Vec<f64>,
    /// `(start, end)` of each layer's segment in `buf`.
    bounds: Vec<(usize, usize)>,
    /// ∂loss/∂pre-activation of the current layer.
    delta: Vec<f64>,
    /// Gradient w.r.t. the current layer's inputs.
    input_grad: Vec<f64>,
    /// Scaled feature row for prediction.
    input: Vec<f64>,
}

impl MlpScratch {
    fn for_layers(layers: &[Layer], n_inputs: usize) -> Self {
        let mut bounds = Vec::with_capacity(layers.len());
        let mut total = 0;
        let mut widest = 0;
        for layer in layers {
            bounds.push((total, total + layer.outputs));
            total += layer.outputs;
            widest = widest.max(layer.outputs).max(layer.inputs);
        }
        MlpScratch {
            buf: vec![0.0; total],
            bounds,
            delta: vec![0.0; widest],
            input_grad: vec![0.0; widest],
            input: vec![0.0; n_inputs],
        }
    }

    fn fits(&self, layers: &[Layer], n_inputs: usize) -> bool {
        self.bounds.len() == layers.len()
            && self.input.len() == n_inputs
            && self
                .bounds
                .iter()
                .zip(layers)
                .all(|(&(s, e), l)| e - s == l.outputs)
    }
}

/// A fitted multilayer perceptron for scalar regression.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpRegressor {
    layers: Vec<Layer>,
    input_scaler: MinMaxScaler,
    target_scaler: MinMaxScaler,
    n_inputs: usize,
}

impl MlpRegressor {
    /// Trains an MLP on `x` (rows = samples) against targets `y`.
    ///
    /// The input scaler is fitted on `x` (WEKA behaviour). Use
    /// [`MlpRegressor::fit_with_input_scaler`] to scale against a wider
    /// feature population.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidInput`] on shape mismatch, empty data, or
    ///   non-finite values.
    /// * [`MlError::InvalidParameter`] if `config` fails validation.
    pub fn fit(x: &Matrix, y: &[f64], config: &MlpConfig) -> Result<Self> {
        config.validate()?;
        validate_training_data(x, y)?;
        let input_scaler = MinMaxScaler::weka(x)?;
        Self::fit_validated(x, y, input_scaler, config)
    }

    /// Trains an MLP with a caller-supplied input scaler.
    ///
    /// MLPᵀ fits the scaler over the union of predictive- and
    /// target-machine feature rows (all published data), which keeps
    /// prediction-time inputs inside the scaled range even when the
    /// training set is tiny — WEKA's fit-on-train scaling saturates the
    /// sigmoid layer there and collapses every prediction to a constant.
    ///
    /// # Errors
    ///
    /// Conditions of [`MlpRegressor::fit`], plus [`MlError::InvalidInput`]
    /// if the scaler's feature count differs from `x`'s columns.
    pub fn fit_with_input_scaler(
        x: &Matrix,
        y: &[f64],
        input_scaler: MinMaxScaler,
        config: &MlpConfig,
    ) -> Result<Self> {
        config.validate()?;
        validate_training_data(x, y)?;
        if input_scaler.n_features() != x.cols() {
            return Err(MlError::invalid_input(format!(
                "input scaler fitted on {} features, x has {}",
                input_scaler.n_features(),
                x.cols()
            )));
        }
        Self::fit_validated(x, y, input_scaler, config)
    }

    fn fit_validated(
        x: &Matrix,
        y: &[f64],
        input_scaler: MinMaxScaler,
        config: &MlpConfig,
    ) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (mut model, scaled_x, scaled_y) =
            Self::untrained(x, y, input_scaler, config, &mut rng)?;
        model.train(&scaled_x, &scaled_y, config, &mut rng);
        // A fitted network only predicts, and may be kept for a long time
        // (MLPᵀ's serving path memoizes fits), so it keeps no momentum.
        for layer in &mut model.layers {
            layer.drop_momentum();
        }
        Ok(model)
    }

    /// The network before training, with its scaled training set: the
    /// weights are drawn from `rng`, which training then shuffles with.
    fn untrained(
        x: &Matrix,
        y: &[f64],
        input_scaler: MinMaxScaler,
        config: &MlpConfig,
        rng: &mut StdRng,
    ) -> Result<(Self, Matrix, Vec<f64>)> {
        // WEKA-style normalization of attributes and numeric class to [-1,1].
        let y_matrix = Matrix::from_vec(y.len(), 1, y.to_vec())?;
        let target_scaler = MinMaxScaler::weka(&y_matrix)?;
        let scaled_x = input_scaler.transform(x)?;
        let scaled_y: Vec<f64> = y
            .iter()
            .map(|&v| target_scaler.transform_value(0, v))
            .collect();

        // Topology: WEKA 'a' = (attribs + classes) / 2 for empty config.
        let n_inputs = x.cols();
        let hidden: Vec<usize> = if config.hidden_layers.is_empty() {
            vec![n_inputs.div_ceil(2).max(1)]
        } else {
            config.hidden_layers.clone()
        };

        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = n_inputs;
        for &h in &hidden {
            layers.push(Layer::new(prev, h, config.hidden_activation, rng));
            prev = h;
        }
        layers.push(Layer::new(prev, 1, Activation::Linear, rng));

        let model = MlpRegressor {
            layers,
            input_scaler,
            target_scaler,
            n_inputs,
        };
        Ok((model, scaled_x, scaled_y))
    }

    /// Runs the SGD loop through the widest compiled copy the CPU can
    /// execute: [`Self::train_avx2`] where AVX2 is detected, else
    /// [`Self::train_portable`]. Both copies give the same bits.
    fn train(&mut self, x: &Matrix, y: &[f64], config: &MlpConfig, rng: &mut StdRng) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2, the one feature `train_avx2` enables, was just
            // detected on the running CPU.
            #[allow(unsafe_code)]
            unsafe {
                self.train_avx2(x, y, config, rng);
            }
            return;
        }
        self.train_portable(x, y, config, rng);
    }

    /// [`Self::train_portable`], compiled with AVX2 so the weight/velocity
    /// update and the lane-tree dot products run in 256-bit registers.
    ///
    /// Bit-identical to the portable copy: AVX2 does not enable FMA and
    /// rustc never contracts `a * b + c` into one, every reduction keeps
    /// the fixed 4-lane tree of `datatrans_linalg::kernels`, and the
    /// sigmoid calls the same libm `exp`. Every helper of the loop is
    /// `#[inline(always)]`, so all of it compiles inside this copy.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn train_avx2(&mut self, x: &Matrix, y: &[f64], config: &MlpConfig, rng: &mut StdRng) {
        self.train_portable(x, y, config, rng);
    }

    /// The SGD loop: `config.epochs` passes of per-sample forward and
    /// backward passes over one reused scratch.
    #[inline(always)]
    fn train_portable(&mut self, x: &Matrix, y: &[f64], config: &MlpConfig, rng: &mut StdRng) {
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut scratch = self.scratch();
        for _epoch in 0..config.epochs {
            if config.shuffle {
                order.shuffle(rng);
            }
            for &s in &order {
                let input = x.row(s);
                forward_into(&self.layers, input, &mut scratch);
                let output = last_output(&scratch);
                // Squared-error loss; output layer is linear so the
                // pre-activation delta is just the error.
                let error = output - y[s];
                self.backward(input, &mut scratch, error, config);
            }
        }
    }

    #[inline(always)]
    fn backward(
        &mut self,
        input: &[f64],
        scratch: &mut MlpScratch,
        output_error: f64,
        config: &MlpConfig,
    ) {
        let MlpScratch {
            buf,
            bounds,
            delta,
            input_grad,
            ..
        } = scratch;
        // Deltas flow backwards; for the (linear) output layer the
        // pre-activation delta equals the output error.
        delta[0] = output_error;
        let mut delta_len = 1;
        for li in (0..self.layers.len()).rev() {
            let layer_input: &[f64] = if li == 0 {
                input
            } else {
                let (ps, pe) = bounds[li - 1];
                &buf[ps..pe]
            };
            // The first layer's input gradient would have no reader.
            let grad_len = if li > 0 { self.layers[li].inputs } else { 0 };
            self.layers[li].backward(
                layer_input,
                &delta[..delta_len],
                &mut input_grad[..grad_len],
                config.learning_rate,
                config.momentum,
            );
            if li > 0 {
                // Multiply by the upstream layer's activation derivative.
                let act = self.layers[li - 1].activation;
                let (ps, _) = bounds[li - 1];
                for i in 0..grad_len {
                    delta[i] = input_grad[i] * act.derivative_from_output(buf[ps + i]);
                }
                delta_len = grad_len;
            }
        }
    }

    /// Allocates a scratch buffer sized for this network. Reuse it across
    /// [`MlpRegressor::predict_with_scratch`] calls.
    pub fn scratch(&self) -> MlpScratch {
        MlpScratch::for_layers(&self.layers, self.n_inputs)
    }

    /// Predicts the target for one feature row.
    ///
    /// Allocates a fresh scratch; batch callers should allocate one with
    /// [`MlpRegressor::scratch`] and use
    /// [`MlpRegressor::predict_with_scratch`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidInput`] if the feature count differs from
    /// training or the features are non-finite.
    pub fn predict(&self, features: &[f64]) -> Result<f64> {
        let mut scratch = self.scratch();
        self.predict_with_scratch(features, &mut scratch)
    }

    /// Predicts the target for one feature row using caller-owned scratch —
    /// the allocation-free prediction path.
    ///
    /// # Errors
    ///
    /// Conditions of [`MlpRegressor::predict`], plus
    /// [`MlError::InvalidInput`] if `scratch` was allocated for a different
    /// network shape.
    pub fn predict_with_scratch(&self, features: &[f64], scratch: &mut MlpScratch) -> Result<f64> {
        if features.len() != self.n_inputs {
            return Err(MlError::invalid_input(format!(
                "expected {} features, got {}",
                self.n_inputs,
                features.len()
            )));
        }
        if features.iter().any(|v| !v.is_finite()) {
            return Err(MlError::invalid_input("features contain NaN/inf"));
        }
        if !scratch.fits(&self.layers, self.n_inputs) {
            return Err(MlError::invalid_input(
                "scratch was allocated for a different network shape",
            ));
        }
        scratch.input.copy_from_slice(features);
        self.input_scaler.transform_row(&mut scratch.input)?;
        let MlpScratch {
            buf, bounds, input, ..
        } = scratch;
        forward_segments(&self.layers, input, buf, bounds);
        let out = buf[bounds.last().expect("at least one layer").0];
        Ok(self.target_scaler.inverse_value(0, out))
    }

    /// Number of input features.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }
}

fn validate_training_data(x: &Matrix, y: &[f64]) -> Result<()> {
    if x.rows() != y.len() {
        return Err(MlError::invalid_input(format!(
            "x has {} rows, y has {} values",
            x.rows(),
            y.len()
        )));
    }
    if x.is_empty() {
        return Err(MlError::invalid_input("empty training data"));
    }
    if !x.all_finite() || y.iter().any(|v| !v.is_finite()) {
        return Err(MlError::invalid_input("training data contains NaN/inf"));
    }
    Ok(())
}

/// Forward pass writing each layer's activations into its scratch segment.
#[inline(always)]
fn forward_into(layers: &[Layer], input: &[f64], scratch: &mut MlpScratch) {
    let MlpScratch { buf, bounds, .. } = scratch;
    forward_segments(layers, input, buf, bounds);
}

#[inline(always)]
fn forward_segments(layers: &[Layer], input: &[f64], buf: &mut [f64], bounds: &[(usize, usize)]) {
    for (li, layer) in layers.iter().enumerate() {
        let (start, end) = bounds[li];
        // Segments are laid out consecutively, so splitting at this layer's
        // start exposes the previous layer's output immutably while the
        // current segment is written.
        let (prev, cur) = buf.split_at_mut(start);
        let layer_input: &[f64] = if li == 0 {
            input
        } else {
            let (ps, pe) = bounds[li - 1];
            &prev[ps..pe]
        };
        layer.forward(layer_input, &mut cur[..end - start]);
    }
}

#[inline(always)]
fn last_output(scratch: &MlpScratch) -> f64 {
    scratch.buf[scratch.bounds.last().expect("at least one layer").0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_rng::Rng;

    fn grid_xy() -> (Matrix, Vec<f64>) {
        // y = 2*x1 - x2 + 0.5 over a 5x5 grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                let x1 = a as f64 / 4.0;
                let x2 = b as f64 / 4.0;
                rows.push(vec![x1, x2]);
                y.push(2.0 * x1 - x2 + 0.5);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs).unwrap(), y)
    }

    #[test]
    fn learns_linear_function() {
        let (x, y) = grid_xy();
        let model = MlpRegressor::fit(&x, &y, &MlpConfig::weka_default(7)).unwrap();
        let pred = model.predict(&[0.5, 0.5]).unwrap();
        assert!((pred - 1.0).abs() < 0.15, "pred = {pred}");
        // Training MSE in target units. WEKA scales the target's span of
        // 3.0 onto [-1, 1], so 0.01 on the scaled target is 0.01 · 1.5².
        let mse = x
            .iter_rows()
            .zip(&y)
            .map(|(row, &t)| (model.predict(row).unwrap() - t).powi(2))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.01 * 1.5 * 1.5, "mse = {mse}");
    }

    #[test]
    fn learns_nonlinear_function() {
        // y = x1 * x2 requires the hidden layer.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..6 {
            for b in 0..6 {
                let x1 = a as f64 / 5.0;
                let x2 = b as f64 / 5.0;
                rows.push(vec![x1, x2]);
                y.push(x1 * x2);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs).unwrap();
        let mut config = MlpConfig::weka_default(3);
        config.epochs = 1500;
        let model = MlpRegressor::fit(&x, &y, &config).unwrap();
        let pred = model.predict(&[0.8, 0.9]).unwrap();
        assert!((pred - 0.72).abs() < 0.12, "pred = {pred}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = grid_xy();
        let mut cfg = MlpConfig::weka_default(11);
        cfg.epochs = 50;
        let a = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        let b = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        assert_eq!(
            a.predict(&[0.3, 0.3]).unwrap(),
            b.predict(&[0.3, 0.3]).unwrap()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = grid_xy();
        let mut cfg = MlpConfig::weka_default(1);
        cfg.epochs = 20;
        let a = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        cfg.seed = 2;
        let b = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        assert_ne!(
            a.predict(&[0.3, 0.4]).unwrap(),
            b.predict(&[0.3, 0.4]).unwrap()
        );
    }

    #[test]
    fn weka_auto_hidden_size() {
        let (x, y) = grid_xy();
        let mut cfg = MlpConfig::weka_default(1);
        cfg.epochs = 1;
        let model = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        // (2 inputs + 1 output) / 2 = 1 hidden node, then the output layer.
        let sizes: Vec<usize> = model.layers.iter().map(|l| l.outputs).collect();
        assert_eq!(sizes, vec![1, 1]);
    }

    #[test]
    fn explicit_hidden_layers_respected() {
        let (x, y) = grid_xy();
        let mut cfg = MlpConfig::weka_default(1);
        cfg.hidden_layers = vec![8, 4];
        cfg.epochs = 1;
        let model = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        let sizes: Vec<usize> = model.layers.iter().map(|l| l.outputs).collect();
        assert_eq!(sizes, vec![8, 4, 1]);
    }

    #[test]
    fn validates_inputs() {
        let (x, y) = grid_xy();
        let cfg = MlpConfig::weka_default(1);
        assert!(MlpRegressor::fit(&x, &y[..3], &cfg).is_err());
        let mut bad = MlpConfig::weka_default(1);
        bad.learning_rate = -1.0;
        assert!(MlpRegressor::fit(&x, &y, &bad).is_err());
        bad = MlpConfig::weka_default(1);
        bad.momentum = 1.0;
        assert!(MlpRegressor::fit(&x, &y, &bad).is_err());
        bad = MlpConfig::weka_default(1);
        bad.epochs = 0;
        assert!(MlpRegressor::fit(&x, &y, &bad).is_err());
        bad = MlpConfig::weka_default(1);
        bad.hidden_layers = vec![0];
        assert!(MlpRegressor::fit(&x, &y, &bad).is_err());
    }

    #[test]
    fn predict_validates_features() {
        let (x, y) = grid_xy();
        let mut cfg = MlpConfig::weka_default(1);
        cfg.epochs = 1;
        let model = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        assert!(model.predict(&[1.0]).is_err());
        assert!(model.predict(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (x, y) = grid_xy();
        let mut cfg = MlpConfig::weka_default(5);
        cfg.epochs = 10;
        let model = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        let mut scratch = model.scratch();
        for row in x.iter_rows() {
            let fresh = model.predict(row).unwrap();
            let reused = model.predict_with_scratch(row, &mut scratch).unwrap();
            assert_eq!(fresh.to_bits(), reused.to_bits());
        }
    }

    #[test]
    fn scratch_shape_mismatch_rejected() {
        let (x, y) = grid_xy();
        let mut cfg = MlpConfig::weka_default(1);
        cfg.epochs = 1;
        let small = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        cfg.hidden_layers = vec![8, 4];
        let big = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        let mut wrong = small.scratch();
        assert!(big.predict_with_scratch(&[0.1, 0.2], &mut wrong).is_err());
    }

    #[test]
    fn fit_with_wider_scaler_accepts_out_of_range_features() {
        let (x, y) = grid_xy();
        // Scale over a range wider than the training grid.
        let wide = Matrix::from_rows(&[&[-2.0, -2.0], &[3.0, 3.0]]).unwrap();
        let scaler = MinMaxScaler::fit_many(&[&x, &wide], -1.0, 1.0).unwrap();
        let mut cfg = MlpConfig::weka_default(3);
        cfg.epochs = 50;
        let model = MlpRegressor::fit_with_input_scaler(&x, &y, scaler, &cfg).unwrap();
        let p = model.predict(&[2.5, 2.5]).unwrap();
        assert!(p.is_finite());
    }

    #[test]
    fn fit_with_mismatched_scaler_rejected() {
        let (x, y) = grid_xy();
        let narrow = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        let scaler = MinMaxScaler::weka(&narrow).unwrap();
        let cfg = MlpConfig::weka_default(1);
        assert!(MlpRegressor::fit_with_input_scaler(&x, &y, scaler, &cfg).is_err());
    }

    /// Every trained parameter and momentum buffer, as bits.
    fn state_bits(model: &MlpRegressor) -> Vec<Vec<u64>> {
        model
            .layers
            .iter()
            .flat_map(|l| [&l.weights, &l.biases, &l.weight_velocity, &l.bias_velocity])
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Trains clones of one untrained network through `train` (which
    /// dispatches to `train_avx2` on an AVX2 CPU) and through
    /// `train_portable`, and asserts both end in the same bits.
    fn assert_copies_agree(x: &Matrix, y: &[f64], config: &MlpConfig, what: &str) {
        let scaler = MinMaxScaler::weka(x).unwrap();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (model, scaled_x, scaled_y) =
            MlpRegressor::untrained(x, y, scaler, config, &mut rng).unwrap();
        let mut portable = model.clone();
        portable.train_portable(&scaled_x, &scaled_y, config, &mut rng.clone());
        let mut dispatched = model;
        dispatched.train(&scaled_x, &scaled_y, config, &mut rng);
        assert_eq!(state_bits(&dispatched), state_bits(&portable), "{what}");
        for row in x.iter_rows() {
            let (a, b) = (dispatched.predict(row), portable.predict(row));
            assert_eq!(
                a.unwrap().to_bits(),
                b.unwrap().to_bits(),
                "{what}: predict"
            );
        }
    }

    #[test]
    fn avx2_copy_matches_portable_copy_bitwise() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            eprintln!(
                "no AVX2 on this CPU: `train` runs only the portable copy, nothing to compare"
            );
            return;
        }
        let mut rng = StdRng::seed_from_u64(21);
        let mut data = |rows: usize, inputs: usize| {
            let x = Matrix::from_fn(rows, inputs, |_, _| rng.gen_range(0.5..40.0));
            let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(1.0..60.0)).collect();
            (x, y)
        };
        for inputs in 1..=29 {
            for hidden in [1, 2, 7, 14, 15] {
                for rows in 1..=8 {
                    let (x, y) = data(rows, inputs);
                    for shuffle in [true, false] {
                        let config = MlpConfig {
                            hidden_layers: vec![hidden],
                            epochs: 3,
                            shuffle,
                            ..MlpConfig::weka_default((inputs * 100 + hidden * 10 + rows) as u64)
                        };
                        let what = format!(
                            "{inputs} inputs, {hidden} hidden, {rows} rows, shuffle {shuffle}"
                        );
                        assert_copies_agree(&x, &y, &config, &what);
                    }
                }
            }
        }
        // One full fit shaped like a served request: 7 predictive
        // machines by 28 benchmarks, WEKA's automatic hidden layer.
        let (x, y) = data(7, 28);
        assert_copies_agree(
            &x,
            &y,
            &MlpConfig::weka_default(7),
            "served shape, 500 epochs",
        );
    }

    #[test]
    fn a_fitted_network_keeps_no_momentum() {
        let (x, y) = grid_xy();
        let mut cfg = MlpConfig::weka_default(5);
        cfg.epochs = 3;
        let model = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        for layer in &model.layers {
            assert!(layer.weight_velocity.is_empty() && layer.weight_velocity.capacity() == 0);
            assert!(layer.bias_velocity.is_empty() && layer.bias_velocity.capacity() == 0);
        }
    }

    #[test]
    fn constant_target_predicts_constant() {
        let (x, _) = grid_xy();
        let y = vec![5.0; x.rows()];
        let mut cfg = MlpConfig::weka_default(1);
        cfg.epochs = 10;
        let model = MlpRegressor::fit(&x, &y, &cfg).unwrap();
        // Constant target scales to the midpoint and inverts back to 5.
        assert!((model.predict(&[0.2, 0.9]).unwrap() - 5.0).abs() < 1e-9);
    }
}

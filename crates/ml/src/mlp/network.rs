//! Feed-forward network internals: dense layers with per-weight momentum.
//!
//! Layers read and write caller-provided slices (the flat scratch buffers
//! owned by [`super::MlpScratch`]), so a forward/backward pass performs no
//! allocation.

use datatrans_linalg::kernels;
use datatrans_rng::rngs::StdRng;
use datatrans_rng::Rng;

use super::activation::Activation;

/// One dense layer: `out = f(W·in + b)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Layer {
    /// Row-major `(outputs × inputs)` weight matrix.
    pub weights: Vec<f64>,
    pub biases: Vec<f64>,
    /// Momentum buffers, same layout as `weights` / `biases`.
    pub weight_velocity: Vec<f64>,
    pub bias_velocity: Vec<f64>,
    pub inputs: usize,
    pub outputs: usize,
    pub activation: Activation,
}

impl Layer {
    /// Creates a layer with weights drawn uniformly from `[-0.5, 0.5]`
    /// (WEKA's initialization range).
    pub fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut StdRng) -> Self {
        let weights = (0..inputs * outputs)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        let biases = (0..outputs).map(|_| rng.gen_range(-0.5..0.5)).collect();
        Layer {
            weights,
            biases,
            weight_velocity: vec![0.0; inputs * outputs],
            bias_velocity: vec![0.0; outputs],
            inputs,
            outputs,
            activation,
        }
    }

    /// Forward pass for one sample, writing into `output`
    /// (`output.len() == self.outputs`).
    ///
    /// The per-neuron weighted sum reduces over the fixed 4-lane summation
    /// tree of [`datatrans_linalg::kernels`] (bias added after the
    /// reduction), so forward passes — and therefore whole training
    /// trajectories — are a deterministic function of the weights alone.
    #[inline(always)]
    pub fn forward(&self, input: &[f64], output: &mut [f64]) {
        debug_assert_eq!(input.len(), self.inputs);
        debug_assert_eq!(output.len(), self.outputs);
        for (o, out) in output.iter_mut().enumerate() {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let z = self.biases[o] + datatrans_linalg::kernels::dot_unrolled(row, input);
            *out = self.activation.apply(z);
        }
    }

    /// Backward pass for one sample with SGD + momentum.
    ///
    /// `delta` is ∂loss/∂pre-activation for this layer's outputs. The
    /// gradient with respect to this layer's *inputs* (i.e. the next `delta`
    /// for the upstream layer, before multiplying by its activation
    /// derivative) is written into `input_grad`
    /// (`input_grad.len() == self.inputs`), from the weights as they were
    /// before this update. An empty `input_grad` skips that gradient — the
    /// first layer's is never read — and leaves the update bit-identical.
    ///
    /// Each weight row is updated over zipped slices with the step
    /// `-learning_rate * d` hoisted, the same expression per weight as the
    /// per-index loop it replaced, so the loop vectorizes without changing
    /// a bit.
    #[inline(always)]
    pub fn backward(
        &mut self,
        input: &[f64],
        delta: &[f64],
        input_grad: &mut [f64],
        learning_rate: f64,
        momentum: f64,
    ) {
        debug_assert_eq!(delta.len(), self.outputs);
        debug_assert_eq!(input.len(), self.inputs);
        debug_assert!(input_grad.is_empty() || input_grad.len() == self.inputs);
        input_grad.fill(0.0);
        let rows = self
            .weights
            .chunks_exact_mut(self.inputs)
            .zip(self.weight_velocity.chunks_exact_mut(self.inputs));
        let biases = self.biases.iter_mut().zip(&mut self.bias_velocity);
        for (((weights, velocity), (bias, bias_velocity)), &d) in rows.zip(biases).zip(delta) {
            if !input_grad.is_empty() {
                kernels::axpy(input_grad, d, weights);
            }
            let step = -learning_rate * d;
            for ((w, v), &x) in weights.iter_mut().zip(velocity.iter_mut()).zip(input) {
                let update = step * x + momentum * *v;
                *v = update;
                *w += update;
            }
            let bias_update = step + momentum * *bias_velocity;
            *bias_velocity = bias_update;
            *bias += bias_update;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_rng::SeedableRng;

    #[test]
    fn forward_computes_affine_plus_activation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Layer::new(2, 1, Activation::Linear, &mut rng);
        layer.weights = vec![2.0, -1.0];
        layer.biases = vec![0.5];
        let mut out = [0.0];
        layer.forward(&[3.0, 4.0], &mut out);
        assert_eq!(out, [2.0 * 3.0 - 4.0 + 0.5]);
    }

    #[test]
    fn backward_reduces_loss_on_linear_layer() {
        // Single linear neuron learning y = 2x: repeated updates on one
        // sample must reduce squared error.
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Layer::new(1, 1, Activation::Linear, &mut rng);
        let x = [1.5];
        let target = 3.0;
        let mut out = [0.0];
        let mut grad = [0.0];
        layer.forward(&x, &mut out);
        let initial_err = (out[0] - target).abs();
        for _ in 0..50 {
            layer.forward(&x, &mut out);
            let delta = [out[0] - target];
            layer.backward(&x, &delta, &mut grad, 0.1, 0.0);
        }
        layer.forward(&x, &mut out);
        assert!((out[0] - target).abs() < initial_err.min(1e-3));
    }

    #[test]
    fn initialization_within_weka_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Layer::new(10, 10, Activation::Sigmoid, &mut rng);
        assert!(layer.weights.iter().all(|w| (-0.5..0.5).contains(w)));
        assert!(layer.biases.iter().all(|b| (-0.5..0.5).contains(b)));
    }

    /// The per-index backward loop before the row-slice rewrite, kept as
    /// the specification of [`Layer::backward`].
    fn backward_reference(
        layer: &mut Layer,
        input: &[f64],
        delta: &[f64],
        input_grad: &mut [f64],
        learning_rate: f64,
        momentum: f64,
    ) {
        input_grad.fill(0.0);
        for (o, &d) in delta.iter().enumerate() {
            let row_start = o * layer.inputs;
            for i in 0..layer.inputs {
                let idx = row_start + i;
                input_grad[i] += layer.weights[idx] * d;
                let update = -learning_rate * d * input[i] + momentum * layer.weight_velocity[idx];
                layer.weight_velocity[idx] = update;
                layer.weights[idx] += update;
            }
            let bias_update = -learning_rate * d + momentum * layer.bias_velocity[o];
            layer.bias_velocity[o] = bias_update;
            layer.biases[o] += bias_update;
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_layer_bits_eq(a: &Layer, b: &Layer, what: &str) {
        assert_eq!(bits(&a.weights), bits(&b.weights), "{what}: weights");
        assert_eq!(bits(&a.biases), bits(&b.biases), "{what}: biases");
        assert_eq!(
            bits(&a.weight_velocity),
            bits(&b.weight_velocity),
            "{what}: weight velocity"
        );
        assert_eq!(
            bits(&a.bias_velocity),
            bits(&b.bias_velocity),
            "{what}: bias velocity"
        );
    }

    #[test]
    fn backward_matches_per_index_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let (learning_rate, momentum) = (0.3, 0.2);
        for inputs in 1..=29 {
            for outputs in 1..=15 {
                let mut fast = Layer::new(inputs, outputs, Activation::Sigmoid, &mut rng);
                let mut reference = fast.clone();
                let mut no_grad = fast.clone();
                for step in 0..4 {
                    let what = format!("{inputs}x{outputs} step {step}");
                    let input: Vec<f64> = (0..inputs).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let delta: Vec<f64> = (0..outputs).map(|_| rng.gen_range(-0.5..0.5)).collect();
                    let mut grad = vec![f64::NAN; inputs];
                    let mut grad_reference = vec![f64::NAN; inputs];
                    fast.backward(&input, &delta, &mut grad, learning_rate, momentum);
                    backward_reference(
                        &mut reference,
                        &input,
                        &delta,
                        &mut grad_reference,
                        learning_rate,
                        momentum,
                    );
                    no_grad.backward(&input, &delta, &mut [], learning_rate, momentum);
                    assert_eq!(bits(&grad), bits(&grad_reference), "{what}: input grad");
                    assert_layer_bits_eq(&fast, &reference, &what);
                    assert_layer_bits_eq(&no_grad, &reference, &format!("{what}, no grad"));
                }
            }
        }
    }

    #[test]
    fn input_grad_matches_weight_transpose_times_delta() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Layer::new(2, 2, Activation::Linear, &mut rng);
        layer.weights = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        let weights_before = layer.weights.clone();
        let mut grad = [0.0, 0.0];
        // lr = 0 keeps weights fixed so the expected gradient is exact.
        layer.backward(&[1.0, 1.0], &[1.0, 1.0], &mut grad, 0.0, 0.0);
        assert_eq!(grad, [1.0 + 3.0, 2.0 + 4.0]);
        assert_eq!(layer.weights, weights_before);
    }
}

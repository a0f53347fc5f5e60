//! Activation functions for the multilayer perceptron.

/// Activation function applied by a hidden or output layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^{-x})` — WEKA's hidden-node activation.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity — the output activation for numeric regression targets.
    Linear,
}

impl Activation {
    /// Applies the activation.
    #[inline(always)]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)`.
    ///
    /// Backpropagation caches the forward outputs, so derivatives are taken
    /// with respect to them: sigmoid′ = y(1−y), tanh′ = 1−y², linear′ = 1.
    #[inline(always)]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Linear => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_values() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Sigmoid.apply(10.0) > 0.999);
        assert!(Activation::Sigmoid.apply(-10.0) < 0.001);
    }

    #[test]
    fn tanh_values() {
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
        assert!(Activation::Tanh.apply(5.0) > 0.999);
    }

    #[test]
    fn linear_is_identity() {
        assert_eq!(Activation::Linear.apply(3.25), 3.25);
        assert_eq!(Activation::Linear.derivative_from_output(42.0), 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::Sigmoid, Activation::Tanh] {
            for x in [-2.0, -0.5, 0.0, 0.7, 1.9] {
                let y = act.apply(x);
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }
}

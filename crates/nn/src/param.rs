//! Trainable parameters with gradient and Adam state.

use nora_tensor::Matrix;

/// A trainable matrix parameter with its gradient accumulator and Adam
/// moment estimates.
///
/// Gradients accumulate across [`Param::grad`] mutations until
/// [`Param::zero_grad`]; [`Param::adam_step`] applies one bias-corrected
/// Adam update.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
    /// Adam's first and second moments, allocated zeroed by the first
    /// [`Param::adam_step`]: a model that is only loaded, evaluated or
    /// deployed never trains, so it (and every clone of it) carries
    /// `value` and `grad` alone.
    moments: Option<(Matrix, Matrix)>,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self {
            value,
            grad: Matrix::zeros(r, c),
            moments: None,
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        for g in self.grad.as_mut_slice() {
            *g = 0.0;
        }
    }

    /// Sum of squared gradient entries (for global-norm clipping).
    pub fn grad_sq_sum(&self) -> f64 {
        self.grad
            .as_slice()
            .iter()
            .map(|&g| (g as f64) * (g as f64))
            .sum()
    }

    /// Scales the gradient in place (used by global-norm clipping).
    pub fn scale_grad(&mut self, s: f32) {
        self.grad.scale_assign(s);
    }

    /// One Adam update with bias correction.
    ///
    /// `t` is the 1-based global step count.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or `lr <= 0`.
    pub fn adam_step(&mut self, lr: f32, beta1: f32, beta2: f32, eps: f32, t: u64) {
        assert!(t > 0, "adam step count is 1-based");
        assert!(lr > 0.0, "learning rate must be positive");
        let bc1 = 1.0 - beta1.powi(t.min(1_000_000) as i32);
        let bc2 = 1.0 - beta2.powi(t.min(1_000_000) as i32);
        let (r, c) = self.value.shape();
        let (m, v) = self
            .moments
            .get_or_insert_with(|| (Matrix::zeros(r, c), Matrix::zeros(r, c)));
        let value = self.value.as_mut_slice();
        let grad = self.grad.as_slice();
        let m = m.as_mut_slice();
        let v = v.as_mut_slice();
        for i in 0..value.len() {
            let g = grad[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            value[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        p.grad[(0, 0)] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimise f(w) = (w - 3)² by gradient descent with Adam.
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        for t in 1..=500 {
            let w = p.value[(0, 0)];
            p.zero_grad();
            p.grad[(0, 0)] = 2.0 * (w - 3.0);
            p.adam_step(0.05, 0.9, 0.999, 1e-8, t);
        }
        assert!(
            (p.value[(0, 0)] - 3.0).abs() < 0.05,
            "w {}",
            p.value[(0, 0)]
        );
    }

    #[test]
    fn grad_norm_helpers() {
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.grad[(0, 0)] = 3.0;
        p.grad[(0, 1)] = 4.0;
        assert!((p.grad_sq_sum() - 25.0).abs() < 1e-9);
        p.scale_grad(0.5);
        assert_eq!(p.grad.as_slice(), &[1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn adam_step_zero_panics() {
        let mut p = Param::new(Matrix::zeros(1, 1));
        p.adam_step(0.1, 0.9, 0.999, 1e-8, 0);
    }
}

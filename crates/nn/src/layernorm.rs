//! Layer normalisation with manual backprop.

use crate::param::Param;
use nora_tensor::Matrix;

/// Per-row layer normalisation `y = γ ⊙ (x − µ)/σ + β`.
///
/// The learned gain `γ` is the lever the model-zoo outlier injection uses:
/// scaling `γ_c` by a factor `f` (and compensating in the consumer linears)
/// plants an LLM-style outlier channel at the input of the analog linears
/// without changing the network function.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Gain `γ`, shape `(1 × d)`.
    pub gain: Param,
    /// Bias `β`, shape `(1 × d)`.
    pub bias: Param,
    eps: f32,
    /// Cache of the last forward: normalised input and 1/σ per row.
    cache: Option<(Matrix, Vec<f32>)>,
}

impl LayerNorm {
    /// Creates a layer norm over `d` channels (γ = 1, β = 0).
    pub fn new(d: usize) -> Self {
        Self::from_values(Matrix::full(1, d, 1.0), Matrix::zeros(1, d))
    }

    /// Wraps a given gain and bias, each `(1 × d)`.
    pub(crate) fn from_values(gain: Matrix, bias: Matrix) -> Self {
        Self {
            gain: Param::new(gain),
            bias: Param::new(bias),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Channel count.
    pub fn dim(&self) -> usize {
        self.gain.value.cols()
    }

    /// Forward pass over `(n × d)`, caching intermediates for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim(), "layernorm width mismatch");
        let d = self.dim();
        let mut x_hat = Matrix::zeros(x.rows(), d);
        let mut inv_std = Vec::with_capacity(x.rows());
        let g = self.gain.value.row(0).to_vec();
        let b = self.bias.value.row(0).to_vec();
        let mut y = Matrix::zeros(x.rows(), d);
        for i in 0..x.rows() {
            let row = x.row(i);
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.push(istd);
            let xh = x_hat.row_mut(i);
            let yr = y.row_mut(i);
            for k in 0..d {
                let h = (row[k] - mean) * istd;
                xh[k] = h;
                yr[k] = g[k] * h + b[k];
            }
        }
        self.cache = Some((x_hat, inv_std));
        y
    }

    /// Forward without caching (inference-only path).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim(), "layernorm width mismatch");
        let d = self.dim();
        let g = self.gain.value.row(0);
        let b = self.bias.value.row(0);
        let mut y = Matrix::zeros(x.rows(), d);
        for i in 0..x.rows() {
            let row = x.row(i);
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + self.eps).sqrt();
            let yr = y.row_mut(i);
            for k in 0..d {
                yr[k] = g[k] * (row[k] - mean) * istd + b[k];
            }
        }
        y
    }

    /// Backward pass; must follow a caching [`LayerNorm::forward`].
    ///
    /// # Panics
    ///
    /// Panics if no forward cache is present.
    #[allow(clippy::needless_range_loop)] // rows of four matrices in lockstep
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (x_hat, inv_std) = self
            .cache
            .take()
            .expect("LayerNorm::backward without forward");
        let d = self.dim();
        let g = self.gain.value.row(0).to_vec();
        let mut dx = Matrix::zeros(dy.rows(), d);
        for i in 0..dy.rows() {
            let dyr = dy.row(i);
            let xhr = x_hat.row(i);
            // Parameter grads.
            {
                let gg = self.gain.grad.row_mut(0);
                for k in 0..d {
                    gg[k] += dyr[k] * xhr[k];
                }
                let gb = self.bias.grad.row_mut(0);
                for k in 0..d {
                    gb[k] += dyr[k];
                }
            }
            // Input grad: dx = (istd/d) * (d·dŷ − Σdŷ − x̂·Σ(dŷ⊙x̂))
            // with dŷ = γ ⊙ dy.
            let mut sum_dyh = 0.0f32;
            let mut sum_dyh_xh = 0.0f32;
            for k in 0..d {
                let dyh = dyr[k] * g[k];
                sum_dyh += dyh;
                sum_dyh_xh += dyh * xhr[k];
            }
            let istd = inv_std[i];
            let dxr = dx.row_mut(i);
            for k in 0..d {
                let dyh = dyr[k] * g[k];
                dxr[k] = istd / d as f32 * (d as f32 * dyh - sum_dyh - xhr[k] * sum_dyh_xh);
            }
        }
        dx
    }

    /// Mutable access to both parameters (for the optimizer).
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.gain, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nora_tensor::rng::Rng;
    use nora_tensor::stats;

    #[test]
    fn output_rows_are_normalised() {
        let mut rng = Rng::seed_from(1);
        let mut ln = LayerNorm::new(64);
        let x = Matrix::random_normal(4, 64, 3.0, 2.0, &mut rng);
        let y = ln.forward(&x);
        for i in 0..4 {
            let m = stats::mean(y.row(i));
            let s = stats::std_dev(y.row(i));
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((s - 1.0).abs() < 1e-3, "std {s}");
        }
    }

    #[test]
    fn forward_and_inference_agree() {
        let mut rng = Rng::seed_from(2);
        let mut ln = LayerNorm::new(16);
        ln.gain.value = Matrix::random_normal(1, 16, 1.0, 0.2, &mut rng);
        ln.bias.value = Matrix::random_normal(1, 16, 0.0, 0.2, &mut rng);
        let x = Matrix::random_normal(3, 16, 0.0, 1.0, &mut rng);
        let a = ln.forward(&x);
        let b = ln.forward_inference(&x);
        assert!(a.mse(&b) < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(3);
        let mut ln = LayerNorm::new(6);
        ln.gain.value = Matrix::random_normal(1, 6, 1.0, 0.3, &mut rng);
        let x = Matrix::random_normal(2, 6, 0.5, 1.5, &mut rng);

        let loss = |ln: &LayerNorm, x: &Matrix| -> f64 {
            ln.forward_inference(x)
                .as_slice()
                .iter()
                .map(|&v| (v as f64) * (v as f64) / 2.0)
                .sum()
        };
        let y = ln.forward(&x);
        let dx = ln.backward(&y); // dL/dy = y for the quadratic loss
        let eps = 1e-3f32;

        for &(r, c) in &[(0usize, 0usize), (1, 3), (0, 5)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let num = (loss(&ln, &xp) - loss(&ln, &xm)) / (2.0 * eps as f64);
            let ana = dx[(r, c)] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dx[{r},{c}] num {num} ana {ana}"
            );
        }
        // Gain gradient at one coordinate.
        let k = 2;
        let mut lp = ln.clone();
        lp.gain.value[(0, k)] += eps;
        let mut lm = ln.clone();
        lm.gain.value[(0, k)] -= eps;
        let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps as f64);
        let ana = ln.gain.grad[(0, k)] as f64;
        assert!(
            (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
            "dγ[{k}] num {num} ana {ana}"
        );
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_without_forward_panics() {
        let mut ln = LayerNorm::new(4);
        ln.backward(&Matrix::zeros(1, 4));
    }

    #[test]
    fn scaled_gain_scales_output_channel() {
        let mut ln = LayerNorm::new(8);
        let mut rng = Rng::seed_from(5);
        let x = Matrix::random_normal(2, 8, 0.0, 1.0, &mut rng);
        let base = ln.forward_inference(&x);
        ln.gain.value[(0, 3)] *= 10.0;
        ln.bias.value[(0, 3)] *= 10.0;
        let scaled = ln.forward_inference(&x);
        for i in 0..2 {
            assert!((scaled[(i, 3)] - 10.0 * base[(i, 3)]).abs() < 1e-4);
            assert_eq!(scaled[(i, 0)], base[(i, 0)]);
        }
    }
}

//! Digital (FP32) linear layer with manual backprop.

use crate::param::Param;
use nora_tensor::rng::Rng;
use nora_tensor::{Matrix, NmPattern, PackedNmMatrix};

/// A fully-connected layer `y = x · W + b` with weight shape
/// `(d_in × d_out)` — the activation-side orientation used across the
/// workspace (and by the analog tiles, where `x` rows stream into the
/// wordlines).
#[derive(Debug, Clone)]
pub struct DigitalLinear {
    /// Weight parameter, `(d_in × d_out)`.
    pub weight: Param,
    /// Bias parameter, `(1 × d_out)`.
    pub bias: Param,
    /// Packed block-wise N:M replica of `weight`, installed by
    /// [`DigitalLinear::apply_sparsity`]. When present, [`forward`]
    /// dispatches to the sparse kernel — bit-identical to the dense kernel
    /// on the (masked) `weight`, just skipping the pruned rows. The
    /// replica is a post-training deployment artifact: parameter updates
    /// do not refresh it, so re-apply after any weight mutation.
    ///
    /// [`forward`]: DigitalLinear::forward
    pub sparse: Option<PackedNmMatrix>,
    /// Deploy-grid fake quantization of this layer's *inputs*, installed by
    /// [`crate::ste::train_ste`] for hardware-aware training. When present,
    /// [`forward`] runs activations through the analog DAC mid-rise grid
    /// before the product, and [`backward`] passes gradients straight
    /// through the quantizer — exact at interior grid points, zeroed where
    /// the DAC clipped at the rails. A training-time attachment only: it is
    /// transient (never serialized) and takes precedence over `sparse`.
    ///
    /// [`forward`]: DigitalLinear::forward
    /// [`backward`]: DigitalLinear::backward
    pub ste: Option<crate::ste::SteQuant>,
}

impl DigitalLinear {
    /// Creates a layer with scaled-normal init (`std = 1/sqrt(d_in)`).
    pub fn new(d_in: usize, d_out: usize, rng: &mut Rng) -> Self {
        let std = 1.0 / (d_in as f32).sqrt();
        Self::from_values(
            Matrix::random_normal(d_in, d_out, 0.0, std, rng),
            Matrix::zeros(1, d_out),
        )
    }

    /// Wraps a given weight `(d_in × d_out)` and bias `(1 × d_out)`.
    pub(crate) fn from_values(weight: Matrix, bias: Matrix) -> Self {
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            sparse: None,
            ste: None,
        }
    }

    /// Prunes `weight` in place to the block-wise `pattern` and installs
    /// the packed sparse replica the forward pass will use.
    ///
    /// `row_importance` (length `d_in`, typically the calibrated
    /// per-channel activation scale) biases kept-row selection toward
    /// channels that carry outlier activations. The masked dense weights
    /// are written back to `weight`, so every other consumer — analog
    /// deployment, the analytic evaluator, training checkpoints — sees
    /// exactly the weights the sparse kernel computes with.
    /// [`NmPattern::Dense`] removes any installed replica and leaves the
    /// weights untouched.
    pub fn apply_sparsity(&mut self, pattern: NmPattern, row_importance: Option<&[f32]>) {
        if pattern == NmPattern::Dense {
            self.sparse = None;
            return;
        }
        let packed = PackedNmMatrix::pack(&self.weight.value, pattern, row_importance);
        self.weight.value = packed.to_dense();
        self.sparse = Some(packed);
    }

    /// Input dimension.
    pub fn d_in(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimension.
    pub fn d_out(&self) -> usize {
        self.weight.value.cols()
    }

    /// Forward pass: `x` is `(n × d_in)`, result `(n × d_out)`.
    ///
    /// With a sparse replica installed the product runs through the packed
    /// N:M kernel (bit-identical to the dense product on the masked
    /// `weight`, at the pattern's fraction of the multiply–accumulates).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = match (&self.ste, &self.sparse) {
            (Some(ste), _) => ste.fake_quantize(x).matmul(&self.weight.value),
            (None, Some(packed)) => packed.matmul(x),
            (None, None) => x.matmul(&self.weight.value),
        };
        let b = self.bias.value.row(0);
        for i in 0..y.rows() {
            for (v, &bv) in y.row_mut(i).iter_mut().zip(b) {
                *v += bv;
            }
        }
        y
    }

    /// Backward pass.
    ///
    /// Accumulates `dW = xᵀ · dy` and `db = Σ rows(dy)` into the parameter
    /// gradients and returns `dx = dy · Wᵀ`.
    ///
    /// With an [`SteQuant`](crate::ste::SteQuant) installed, `dW` is taken
    /// at the fake-quantized input the forward actually used (`dW = x̃ᵀ ·
    /// dy`), and `dx` is the straight-through gradient: identical to the
    /// clean `dy · Wᵀ` at interior grid points, zeroed exactly where the
    /// DAC clipped the corresponding input at the rails.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `x`/`dy` disagree with the layer.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.d_in(), "x width mismatch");
        assert_eq!(dy.cols(), self.d_out(), "dy width mismatch");
        assert_eq!(x.rows(), dy.rows(), "batch mismatch");
        let dw = match &self.ste {
            // The quantizer is deterministic, so recomputing x̃ here is
            // bit-identical to caching it in the forward.
            Some(ste) => ste.fake_quantize(x).transpose().matmul(dy),
            None => x.transpose().matmul(dy),
        };
        self.weight.grad.add_assign(&dw);
        for i in 0..dy.rows() {
            for (g, &d) in self.bias.grad.row_mut(0).iter_mut().zip(dy.row(i)) {
                *g += d;
            }
        }
        let mut dx = dy.matmul(&self.weight.value.transpose());
        if let Some(ste) = &self.ste {
            ste.mask_clipped(x, &mut dx);
        }
        dx
    }

    /// Mutable access to both parameters (for the optimizer).
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(seed: u64) {
        let mut rng = Rng::seed_from(seed);
        let mut lin = DigitalLinear::new(4, 3, &mut rng);
        let x = Matrix::random_normal(2, 4, 0.0, 1.0, &mut rng);
        // Scalar loss: sum of outputs squared / 2 → dy = y.
        let y = lin.forward(&x);
        let dx = lin.backward(&x, &y);

        let loss = |lin: &DigitalLinear, x: &Matrix| -> f64 {
            lin.forward(x)
                .as_slice()
                .iter()
                .map(|&v| (v as f64) * (v as f64) / 2.0)
                .sum()
        };
        let eps = 1e-3f32;

        // Check dW numerically at a few entries.
        for &(r, c) in &[(0usize, 0usize), (1, 2), (3, 1)] {
            let mut plus = lin.clone();
            plus.weight.value[(r, c)] += eps;
            let mut minus = lin.clone();
            minus.weight.value[(r, c)] -= eps;
            let num = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * eps as f64);
            let ana = lin.weight.grad[(r, c)] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dW[{r},{c}] num {num} ana {ana}"
            );
        }
        // Check dx numerically.
        for &(r, c) in &[(0usize, 0usize), (1, 3)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let num = (loss(&lin, &xp) - loss(&lin, &xm)) / (2.0 * eps as f64);
            let ana = dx[(r, c)] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dx[{r},{c}] num {num} ana {ana}"
            );
        }
    }

    #[test]
    fn forward_applies_bias() {
        let mut rng = Rng::seed_from(0);
        let mut lin = DigitalLinear::new(2, 2, &mut rng);
        lin.weight.value = Matrix::identity(2);
        lin.bias.value = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let y = lin.forward(&Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(y.row(0), &[4.0, 3.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        finite_diff_check(1);
        finite_diff_check(2);
    }

    #[test]
    fn bias_gradient_sums_rows() {
        let mut rng = Rng::seed_from(3);
        let mut lin = DigitalLinear::new(2, 2, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let dy = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        lin.backward(&x, &dy);
        assert_eq!(lin.bias.grad.row(0), &[4.0, 6.0]);
    }

    /// The sparse decode contract at the layer level: after
    /// `apply_sparsity`, the packed forward is bit-identical to the dense
    /// forward on the masked weights, and `Dense` uninstalls the replica.
    #[test]
    fn sparse_forward_matches_dense_on_masked_weights() {
        let mut rng = Rng::seed_from(5);
        let mut lin = DigitalLinear::new(64, 48, &mut rng);
        let dense_before = lin.weight.value.clone();
        lin.apply_sparsity(NmPattern::N2M4, None);
        assert!(lin.sparse.is_some());
        assert_ne!(lin.weight.value, dense_before, "weights must be masked");
        let x = Matrix::random_normal(3, 64, 0.0, 1.0, &mut rng);
        let sparse_y = lin.forward(&x);
        let mut dense_path = lin.clone();
        dense_path.sparse = None;
        assert_eq!(sparse_y.as_slice(), dense_path.forward(&x).as_slice());
        // Dense pattern removes the replica without touching weights.
        let masked = lin.weight.value.clone();
        lin.apply_sparsity(NmPattern::Dense, None);
        assert!(lin.sparse.is_none());
        assert_eq!(lin.weight.value, masked);
    }

    #[test]
    fn gradients_accumulate_until_cleared() {
        let mut rng = Rng::seed_from(4);
        let mut lin = DigitalLinear::new(2, 2, &mut rng);
        let x = Matrix::identity(2);
        let dy = Matrix::identity(2);
        lin.backward(&x, &dy);
        let once = lin.weight.grad.clone();
        lin.backward(&x, &dy);
        assert_eq!(lin.weight.grad, once.scale(2.0));
        for p in lin.params_mut() {
            p.zero_grad();
        }
        assert_eq!(lin.weight.grad.as_slice().iter().sum::<f32>(), 0.0);
    }
}

//! Pre-LayerNorm transformer decoder block.

use crate::attention::MultiHeadAttention;
use crate::layernorm::LayerNorm;
use crate::linear::DigitalLinear;
use crate::model::{KvCache, LinearId, LinearKind};
use crate::param::Param;
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

/// One decoder block: `x + Attn(LN1(x))` then `x + FFN(LN2(x))`.
///
/// The FFN uses **ReLU** (as in OPT): ReLU is positively homogeneous
/// (`ReLU(f·z) = f·ReLU(z)` for `f > 0`), which lets the model zoo plant
/// outliers on the FFN hidden channels with exact function preservation.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    /// Pre-attention LayerNorm.
    pub ln1: LayerNorm,
    /// Causal self-attention.
    pub attn: MultiHeadAttention,
    /// Pre-FFN LayerNorm.
    pub ln2: LayerNorm,
    /// FFN up-projection (`d → d_ff`).
    pub fc1: DigitalLinear,
    /// FFN down-projection (`d_ff → d`).
    pub fc2: DigitalLinear,
    cache: Option<Cache>,
}

/// Where a block's attention finds the keys and values its rows attend
/// over.
pub(crate) enum Attend<'a> {
    /// Among the pass's own rows, causally (row `i` over rows `0..=i`),
    /// through the batched core.
    Causal,
    /// Behind the rows `cache` holds: every row's K/V is written to the
    /// cache, and row `i` attends over the cached rows plus rows `0..=i`.
    /// With `answer_only`, only the last row goes on past K/V (the answer
    /// cone: in the last block the other rows would only feed logits that
    /// nobody reads).
    Cached {
        cache: &'a mut KvCache,
        answer_only: bool,
    },
}

#[derive(Debug, Clone)]
struct Cache {
    ln2_out: Matrix,
    /// Pre-activation of the FFN hidden layer.
    h_pre: Matrix,
    /// Post-ReLU hidden activations (input of `fc2`).
    h_act: Matrix,
}

impl TransformerBlock {
    /// Creates a block with model dim `d`, `heads` heads, and FFN width
    /// `d_ff`.
    pub fn new(d: usize, heads: usize, d_ff: usize, rng: &mut Rng) -> Self {
        Self {
            ln1: LayerNorm::new(d),
            attn: MultiHeadAttention::new(d, heads, rng),
            ln2: LayerNorm::new(d),
            fc1: DigitalLinear::new(d, d_ff, rng),
            fc2: DigitalLinear::new(d_ff, d, rng),
            cache: None,
        }
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        self.fc1.d_in()
    }

    /// FFN hidden width.
    pub fn d_ff(&self) -> usize {
        self.fc1.d_out()
    }

    /// Forward pass with caching for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let ln1_out = self.ln1.forward(x);
        let attn_out = self.attn.forward(&ln1_out);
        let x1 = x.add(&attn_out);

        let ln2_out = self.ln2.forward(&x1);
        let h_pre = self.fc1.forward(&ln2_out);
        let h_act = h_pre.map(|v| v.max(0.0));
        let ffn_out = self.fc2.forward(&h_act);
        let y = x1.add(&ffn_out);

        self.cache = Some(Cache {
            ln2_out,
            h_pre,
            h_act,
        });
        y
    }

    /// Forward without caching using the digital linears: the inference
    /// block body, with the rows of `x` attending causally among themselves.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut digital = |id: LinearId, x: &Matrix| self.linear(id.kind).forward(x);
        self.infer(0, x.clone(), Attend::Causal, &mut digital)
    }

    /// The inference block body every forward, calibration and decode path
    /// runs, as block `b` of its model: LN1 → Q, K, V → attention → Out →
    /// residual → LN2 → FC1 → ReLU → FC2 → residual. `project` runs each
    /// linear once (digital, observing or analog), Q before K and V. Only
    /// the rows that go on past K/V come back (see [`Attend::Cached`]).
    pub(crate) fn infer(
        &self,
        b: usize,
        x: Matrix,
        attend: Attend<'_>,
        project: &mut impl FnMut(LinearId, &Matrix) -> Matrix,
    ) -> Matrix {
        let id = |kind| LinearId::new(b, kind);
        let (n, d) = x.shape();
        // Rows `first..n` go on past K/V: all of them, except in the answer
        // cone, where only the last row does.
        let first = match attend {
            Attend::Cached {
                answer_only: true, ..
            } => n - 1,
            _ => 0,
        };
        let ln1_out = self.ln1.forward_inference(&x);
        let (mut x1, q) = if first == 0 {
            (x, project(id(LinearKind::Q), &ln1_out))
        } else {
            let q_in = ln1_out.submatrix(first, n, 0, d);
            (
                x.submatrix(first, n, 0, d),
                project(id(LinearKind::Q), &q_in),
            )
        };
        let k = project(id(LinearKind::K), &ln1_out);
        let v = project(id(LinearKind::V), &ln1_out);
        let context = match attend {
            Attend::Causal => self.attn.attend(&q, &k, &v),
            Attend::Cached { cache, .. } => {
                cache.write_rows(b, &k, &v);
                let mut context = Matrix::zeros(q.rows(), d);
                for i in 0..q.rows() {
                    let (kc, vc) = cache.view_rows(b, first + i + 1);
                    self.attn.attend_one(q.row(i), kc, vc, context.row_mut(i));
                }
                context
            }
        };
        x1.add_assign(&project(id(LinearKind::Out), &context));
        let ln2_out = self.ln2.forward_inference(&x1);
        let mut h = project(id(LinearKind::Fc1), &ln2_out);
        h.map_assign(|v| v.max(0.0));
        x1.add_assign(&project(id(LinearKind::Fc2), &h));
        x1
    }

    /// Borrow of one of the block's six analog-mappable linears.
    pub(crate) fn linear(&self, kind: LinearKind) -> &DigitalLinear {
        match kind {
            LinearKind::Q => &self.attn.wq,
            LinearKind::K => &self.attn.wk,
            LinearKind::V => &self.attn.wv,
            LinearKind::Out => &self.attn.wo,
            LinearKind::Fc1 => &self.fc1,
            LinearKind::Fc2 => &self.fc2,
        }
    }

    /// Mutable borrow of one of the block's six analog-mappable linears.
    pub(crate) fn linear_mut(&mut self, kind: LinearKind) -> &mut DigitalLinear {
        match kind {
            LinearKind::Q => &mut self.attn.wq,
            LinearKind::K => &mut self.attn.wk,
            LinearKind::V => &mut self.attn.wv,
            LinearKind::Out => &mut self.attn.wo,
            LinearKind::Fc1 => &mut self.fc1,
            LinearKind::Fc2 => &mut self.fc2,
        }
    }

    /// Backward pass; must follow a caching [`TransformerBlock::forward`].
    ///
    /// # Panics
    ///
    /// Panics if no forward cache is present.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self
            .cache
            .take()
            .expect("TransformerBlock::backward without forward");

        // FFN branch.
        let dh_act = self.fc2.backward(&cache.h_act, dy);
        let mut dh_pre = dh_act;
        for (g, &pre) in dh_pre.as_mut_slice().iter_mut().zip(cache.h_pre.as_slice()) {
            if pre <= 0.0 {
                *g = 0.0;
            }
        }
        let dln2 = self.fc1.backward(&cache.ln2_out, &dh_pre);
        let dx1_ffn = self.ln2.backward(&dln2);
        // Residual: dx1 = dy + d(ffn path).
        let dx1 = dy.add(&dx1_ffn);

        // Attention branch.
        let dattn = self.attn.backward(&dx1);
        let dx_attn = self.ln1.backward(&dattn);
        dx1.add(&dx_attn)
    }

    /// Mutable access to all block parameters (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        out.extend(self.ln1.params_mut());
        out.extend(self.attn.params_mut());
        out.extend(self.ln2.params_mut());
        out.extend(self.fc1.params_mut());
        out.extend(self.fc2.params_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_agreement() {
        let mut rng = Rng::seed_from(1);
        let mut block = TransformerBlock::new(8, 2, 32, &mut rng);
        let x = Matrix::random_normal(5, 8, 0.0, 1.0, &mut rng);
        let y = block.forward(&x);
        assert_eq!(y.shape(), (5, 8));
        let y2 = block.forward_inference(&x);
        assert!(y.mse(&y2) < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(2);
        let mut block = TransformerBlock::new(6, 2, 12, &mut rng);
        let x = Matrix::random_normal(3, 6, 0.0, 1.0, &mut rng);
        let quad = |m: &Matrix| -> f64 {
            m.as_slice()
                .iter()
                .map(|&v| (v as f64) * (v as f64) / 2.0)
                .sum()
        };
        let y = block.forward(&x);
        let dx = block.backward(&y);
        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 5)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let num = (quad(&block.forward_inference(&xp)) - quad(&block.forward_inference(&xm)))
                / (2.0 * eps as f64);
            let ana = dx[(r, c)] as f64;
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
                "dx[{r},{c}] num {num} ana {ana}"
            );
        }
        // One FFN weight gradient.
        let ana = block.fc1.weight.grad[(2, 4)] as f64;
        let mut bp = block.clone();
        bp.fc1.weight.value[(2, 4)] += eps;
        let mut bm = block.clone();
        bm.fc1.weight.value[(2, 4)] -= eps;
        let num = (quad(&bp.forward_inference(&x)) - quad(&bm.forward_inference(&x)))
            / (2.0 * eps as f64);
        assert!(
            (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
            "fc1 num {num} ana {ana}"
        );
    }

    #[test]
    fn residual_keeps_input_information() {
        // Zeroing all weights must reduce the block to (almost) identity.
        let mut rng = Rng::seed_from(3);
        let mut block = TransformerBlock::new(4, 1, 8, &mut rng);
        for p in block.params_mut() {
            if p.value.rows() == 1 {
                continue; // keep LN gains/biases
            }
            p.value.scale_assign(0.0);
        }
        let x = Matrix::random_normal(2, 4, 0.0, 1.0, &mut rng);
        let y = block.forward_inference(&x);
        assert!(y.mse(&x) < 1e-10);
    }

    #[test]
    fn params_count() {
        let mut block = TransformerBlock::new(8, 2, 16, &mut Rng::seed_from(0));
        // ln1(2) + attn(8) + ln2(2) + fc1(2) + fc2(2)
        assert_eq!(block.params_mut().len(), 16);
    }
}

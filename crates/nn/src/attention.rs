//! Causal multi-head self-attention with manual backprop.

use crate::linear::DigitalLinear;
use crate::model::KvView;
use crate::param::Param;
use crate::softmax::softmax_rows;
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

/// Causal multi-head self-attention over a single sequence.
///
/// The four projections (`q`, `k`, `v`, `out`) are the analog-mappable
/// linears; the score computation, masking, and softmax stay digital, as on
/// the paper's hybrid tiles (Fig. 2: "the self-attention is deployed on
/// digital tiles or digital cores").
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: DigitalLinear,
    /// Key projection.
    pub wk: DigitalLinear,
    /// Value projection.
    pub wv: DigitalLinear,
    /// Output projection.
    pub wo: DigitalLinear,
    heads: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head post-softmax attention probabilities.
    probs: Vec<Matrix>,
    /// Concatenated per-head context (input of `wo`).
    context: Matrix,
}

impl MultiHeadAttention {
    /// Creates an attention block with `heads` heads over dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `d`.
    pub fn new(d: usize, heads: usize, rng: &mut Rng) -> Self {
        assert!(heads > 0 && d.is_multiple_of(heads), "heads must divide d");
        Self {
            wq: DigitalLinear::new(d, d, rng),
            wk: DigitalLinear::new(d, d, rng),
            wv: DigitalLinear::new(d, d, rng),
            wo: DigitalLinear::new(d, d, rng),
            heads,
            cache: None,
        }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        self.wq.d_in()
    }

    fn head_slice(m: &Matrix, h: usize, hd: usize) -> Matrix {
        m.submatrix(0, m.rows(), h * hd, (h + 1) * hd)
    }

    /// The batched causal attention core: given the projected `q`, `k`, `v`
    /// of one sequence (each `seq × d`), returns the concatenated per-head
    /// context (`seq × d`, the input of `wo`), row `i` attending over rows
    /// `0..=i`. The training [`MultiHeadAttention::forward`] and every
    /// inference pass without a KV cache run it.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn attend(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        self.attend_with_probs(q, k, v).1
    }

    /// [`MultiHeadAttention::attend`] that also returns the per-head
    /// probabilities backward needs.
    fn attend_with_probs(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> (Vec<Matrix>, Matrix) {
        let seq = q.rows();
        let d = self.dim();
        let hd = d / self.heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut probs = Vec::with_capacity(self.heads);
        let mut context = Matrix::zeros(seq, d);
        for h in 0..self.heads {
            let qh = Self::head_slice(q, h, hd);
            let kh = Self::head_slice(k, h, hd);
            let vh = Self::head_slice(v, h, hd);
            let mut scores = qh.matmul(&kh.transpose());
            scores.scale_assign(scale);
            // Causal mask: position i attends to j <= i.
            for i in 0..seq {
                for j in (i + 1)..seq {
                    scores[(i, j)] = f32::NEG_INFINITY;
                }
            }
            let p = softmax_rows(&scores);
            let oh = p.matmul(&vh);
            context.set_submatrix(0, h * hd, &oh);
            probs.push(p);
        }
        (probs, context)
    }

    /// Forward pass over `(seq × d)`, caching intermediates for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let (probs, context) = self.attend_with_probs(&q, &k, &v);
        let y = self.wo.forward(&context);
        self.cache = Some(Cache {
            x: x.clone(),
            q,
            k,
            v,
            probs,
            context,
        });
        y
    }

    /// Single-query attention over cached keys/values (the KV-cache decode
    /// path): `q` is the projected query of the newest token (length `d`),
    /// `k_cache`/`v_cache` hold the projected keys/values of all tokens so
    /// far **including** the newest (each `t × d`, in logical oldest-first
    /// order). Writes the attention context (length `d`) for the newest
    /// position into `context`, overwriting it. Accepts [`KvView`]s so a
    /// ring-buffered [`crate::KvCache`] can expose its window without
    /// copying; use [`KvView::full`] to attend over a plain matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn attend_one(
        &self,
        q: &[f32],
        k_cache: KvView<'_>,
        v_cache: KvView<'_>,
        context: &mut [f32],
    ) {
        let d = self.dim();
        assert_eq!(q.len(), d, "query width mismatch");
        assert_eq!(context.len(), d, "context width mismatch");
        assert_eq!(k_cache.len(), v_cache.len(), "cache length mismatch");
        assert_eq!(k_cache.cols(), d, "cache width mismatch");
        assert_eq!(v_cache.cols(), d, "cache width mismatch");
        let t = k_cache.len();
        assert!(t > 0, "empty kv cache");
        let hd = d / self.heads;
        let scale = 1.0 / (hd as f32).sqrt();
        context.fill(0.0);
        for h in 0..self.heads {
            let qh = &q[h * hd..(h + 1) * hd];
            // Scores against every cached key (causality is implicit: the
            // cache only contains past-and-current tokens).
            let mut scores = Vec::with_capacity(t);
            let mut max = f32::NEG_INFINITY;
            for i in 0..t {
                let kh = &k_cache.row(i)[h * hd..(h + 1) * hd];
                let s: f32 = qh.iter().zip(kh).map(|(&a, &b)| a * b).sum::<f32>() * scale;
                max = max.max(s);
                scores.push(s);
            }
            let mut denom = 0.0f32;
            for s in &mut scores {
                *s = (*s - max).exp();
                denom += *s;
            }
            let ctx = &mut context[h * hd..(h + 1) * hd];
            for (i, &p) in scores.iter().enumerate() {
                let vh = &v_cache.row(i)[h * hd..(h + 1) * hd];
                let w = p / denom;
                for (c, &v) in ctx.iter_mut().zip(vh) {
                    *c += w * v;
                }
            }
        }
    }

    /// Backward pass; must follow a caching [`MultiHeadAttention::forward`].
    ///
    /// # Panics
    ///
    /// Panics if no forward cache is present.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self
            .cache
            .take()
            .expect("MultiHeadAttention::backward without forward");
        let seq = cache.x.rows();
        let d = self.dim();
        let hd = d / self.heads;
        let scale = 1.0 / (hd as f32).sqrt();

        let d_context = self.wo.backward(&cache.context, dy);

        let mut dq = Matrix::zeros(seq, d);
        let mut dk = Matrix::zeros(seq, d);
        let mut dv = Matrix::zeros(seq, d);
        for h in 0..self.heads {
            let p = &cache.probs[h];
            let qh = Self::head_slice(&cache.q, h, hd);
            let kh = Self::head_slice(&cache.k, h, hd);
            let vh = Self::head_slice(&cache.v, h, hd);
            let doh = Self::head_slice(&d_context, h, hd);

            let dvh = p.transpose().matmul(&doh);
            let dp = doh.matmul(&vh.transpose());
            // Softmax backward per row: dA = P ⊙ (dP − Σ_j dP⊙P).
            let mut da = Matrix::zeros(seq, seq);
            for i in 0..seq {
                let pr = p.row(i);
                let dpr = dp.row(i);
                let dot: f32 = pr.iter().zip(dpr).map(|(&a, &b)| a * b).sum();
                let dar = da.row_mut(i);
                for j in 0..seq {
                    dar[j] = pr[j] * (dpr[j] - dot);
                }
            }
            da.scale_assign(scale);
            let dqh = da.matmul(&kh);
            let dkh = da.transpose().matmul(&qh);
            dq.set_submatrix(0, h * hd, &dqh);
            dk.set_submatrix(0, h * hd, &dkh);
            dv.set_submatrix(0, h * hd, &dvh);
        }

        let dx_q = self.wq.backward(&cache.x, &dq);
        let dx_k = self.wk.backward(&cache.x, &dk);
        let dx_v = self.wv.backward(&cache.x, &dv);
        dx_q.add(&dx_k).add(&dx_v)
    }

    /// Mutable access to all eight parameters (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::with_capacity(8);
        out.extend(self.wq.params_mut());
        out.extend(self.wk.params_mut());
        out.extend(self.wv.params_mut());
        out.extend(self.wo.params_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_loss(y: &Matrix) -> f64 {
        y.as_slice()
            .iter()
            .map(|&v| (v as f64) * (v as f64) / 2.0)
            .sum()
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = Rng::seed_from(1);
        let mut attn = MultiHeadAttention::new(16, 4, &mut rng);
        let x = Matrix::random_normal(6, 16, 0.0, 1.0, &mut rng);
        let y = attn.forward(&x);
        assert_eq!(y.shape(), (6, 16));
    }

    #[test]
    fn causality_later_tokens_do_not_affect_earlier_outputs() {
        let mut rng = Rng::seed_from(2);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Matrix::random_normal(5, 8, 0.0, 1.0, &mut rng);
        let y_full = attn.clone().forward(&x);
        // Perturb the last token; outputs at earlier positions must not move.
        let mut x2 = x.clone();
        for v in x2.row_mut(4) {
            *v += 10.0;
        }
        let y_pert = attn.clone().forward(&x2);
        for i in 0..4 {
            for k in 0..8 {
                assert!(
                    (y_full[(i, k)] - y_pert[(i, k)]).abs() < 1e-6,
                    "row {i} changed"
                );
            }
        }
    }

    #[test]
    fn forward_runs_the_batched_core() {
        let mut rng = Rng::seed_from(3);
        let mut attn = MultiHeadAttention::new(12, 3, &mut rng);
        let x = Matrix::random_normal(4, 12, 0.0, 1.0, &mut rng);
        let (q, k, v) = (
            attn.wq.forward(&x),
            attn.wk.forward(&x),
            attn.wv.forward(&x),
        );
        let want = attn.wo.forward(&attn.attend(&q, &k, &v));
        assert_eq!(attn.forward(&x), want);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(5);
        let mut attn = MultiHeadAttention::new(6, 2, &mut rng);
        let x = Matrix::random_normal(3, 6, 0.0, 1.0, &mut rng);
        let y = attn.forward(&x);
        let dx = attn.backward(&y);
        let eps = 1e-3f32;

        // Input gradient.
        for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 5)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let num = (quad_loss(&attn.clone().forward(&xp))
                - quad_loss(&attn.clone().forward(&xm)))
                / (2.0 * eps as f64);
            let ana = dx[(r, c)] as f64;
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                "dx[{r},{c}] num {num} ana {ana}"
            );
        }

        // A weight gradient from each projection.
        let grads = [
            ("wq", attn.wq.weight.grad[(1, 2)] as f64),
            ("wk", attn.wk.weight.grad[(1, 2)] as f64),
            ("wv", attn.wv.weight.grad[(1, 2)] as f64),
            ("wo", attn.wo.weight.grad[(1, 2)] as f64),
        ];
        for (name, ana) in grads {
            let mut plus = attn.clone();
            let mut minus = attn.clone();
            fn pick_by<'a>(a: &'a mut MultiHeadAttention, name: &str) -> &'a mut DigitalLinear {
                match name {
                    "wq" => &mut a.wq,
                    "wk" => &mut a.wk,
                    "wv" => &mut a.wv,
                    _ => &mut a.wo,
                }
            }
            pick_by(&mut plus, name).weight.value[(1, 2)] += eps;
            pick_by(&mut minus, name).weight.value[(1, 2)] -= eps;
            let num =
                (quad_loss(&plus.forward(&x)) - quad_loss(&minus.forward(&x))) / (2.0 * eps as f64);
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                "{name} num {num} ana {ana}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn bad_head_count_panics() {
        MultiHeadAttention::new(10, 3, &mut Rng::seed_from(0));
    }

    #[test]
    fn params_mut_exposes_eight() {
        let mut attn = MultiHeadAttention::new(8, 2, &mut Rng::seed_from(0));
        assert_eq!(attn.params_mut().len(), 8);
    }
}

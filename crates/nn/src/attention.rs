//! Causal multi-head self-attention with manual backprop.

use crate::linear::DigitalLinear;
use crate::model::KvView;
use crate::param::Param;
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
        Self::from_projections(
            [
                DigitalLinear::new(d, d, rng),
                DigitalLinear::new(d, d, rng),
                DigitalLinear::new(d, d, rng),
                DigitalLinear::new(d, d, rng),
            ],
            heads,
        )
    }

    /// Assembles the attention from its `[q, k, v, out]` projections (each
    /// `d × d`, with `heads` dividing `d`).
    pub(crate) fn from_projections(projections: [DigitalLinear; 4], heads: usize) -> Self {
        let [wq, wk, wv, wo] = projections;
        Self {
            wq,
            wk,
            wv,
            wo,
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

    /// The causal attention core, which training, every inference pass and
    /// the analytic evaluator run. The rows of `q` (`m × d`, projected) are
    /// the last `m` positions of the `len` key/value rows in `k` and `v`;
    /// query row `i` attends over the first `len − m + i + 1` of them. One
    /// rule covers a pass without a cache (`m = len`, [`KvView::full`] over
    /// the pass's own K/V), a cached refill, the answer cone (`m = 1`) and
    /// a full ring. Returns the concatenated per-head context (`m × d`, the
    /// input of `wo`). With `probs`, it also fills one `m × len` matrix of
    /// post-softmax probabilities per head, zero above the diagonal.
    ///
    /// Per head and query row: each score is `acc = 0.0`, then `acc +=
    /// q[t]·key[t]` with `t` ascending (the row kernel's chain), times
    /// `1/√d_head`; then the row max, `exp(s − max)` and their sum in key
    /// order, `w = e / sum`, and `ctx += w·value` in key order from `0.0`.
    /// Only the keys a row sees are computed.
    ///
    /// # Panics
    ///
    /// Panics if the widths disagree, `k` and `v` differ in length, or `q`
    /// has more rows than there are keys.
    pub fn attend(
        &self,
        q: &Matrix,
        k: KvView<'_>,
        v: KvView<'_>,
        mut probs: Option<&mut Vec<Matrix>>,
    ) -> Matrix {
        let (m, d) = q.shape();
        let len = k.len();
        assert_eq!(d, self.dim(), "query width mismatch");
        assert!(k.cols() == d && v.cols() == d, "key/value width mismatch");
        assert_eq!(v.len(), len, "key/value length mismatch");
        assert!(m <= len, "{m} query rows over {len} keys");
        let hd = d / self.heads;
        let scale = 1.0 / (hd as f32).sqrt();
        // Resolve the ring once per call, not once per row read.
        let keys: Vec<&[f32]> = k.rows().collect();
        let values: Vec<&[f32]> = v.rows().collect();
        if let Some(probs) = probs.as_deref_mut() {
            *probs = vec![Matrix::zeros(m, len); self.heads];
        }
        let mut context = Matrix::zeros(m, d);
        let mut scores = vec![0.0f32; len];
        for i in 0..m {
            let seen = len - m + i + 1;
            let s = &mut scores[..seen];
            for h in 0..self.heads {
                let cols = h * hd..(h + 1) * hd;
                head_scores(&q.row(i)[cols.clone()], &keys[..seen], cols.start, s);
                let mut max = f32::NEG_INFINITY;
                for x in s.iter_mut() {
                    *x *= scale;
                    max = max.max(*x);
                }
                let mut denom = 0.0f32;
                for x in s.iter_mut() {
                    *x = (*x - max).exp();
                    denom += *x;
                }
                let ctx = &mut context.row_mut(i)[cols.clone()];
                for (x, value) in s.iter_mut().zip(&values) {
                    *x /= denom;
                    for (c, &val) in ctx.iter_mut().zip(&value[cols.clone()]) {
                        *c += *x * val;
                    }
                }
                if let Some(probs) = probs.as_deref_mut() {
                    probs[h].row_mut(i)[..seen].copy_from_slice(s);
                }
            }
        }
        context
    }

    /// Forward pass over `(seq × d)`, caching intermediates for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let mut probs = Vec::new();
        let context = self.attend(&q, KvView::full(&k), KvView::full(&v), Some(&mut probs));
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

/// `out[j] = q · keys[j][c0..c0 + q.len()]` for every key, each a
/// `t`-ascending chain from `0.0`. Eight keys go per step, so eight
/// independent chains overlap instead of each add waiting on the last.
fn head_scores(q: &[f32], keys: &[&[f32]], c0: usize, out: &mut [f32]) {
    const KEYS: usize = 8;
    let hd = q.len();
    let mut groups = keys.chunks_exact(KEYS);
    let mut outs = out.chunks_exact_mut(KEYS);
    for (group, out) in (&mut groups).zip(&mut outs) {
        let rows: [&[f32]; KEYS] = std::array::from_fn(|j| &group[j][c0..c0 + hd]);
        let mut acc = [0.0f32; KEYS];
        for (t, &a) in q.iter().enumerate() {
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += a * row[t];
            }
        }
        out.copy_from_slice(&acc);
    }
    for (key, out) in groups.remainder().iter().zip(outs.into_remainder()) {
        let key = &key[c0..c0 + hd];
        *out = q.iter().zip(key).fold(0.0, |acc, (&a, &b)| acc + a * b);
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
    fn forward_runs_the_core() {
        let mut rng = Rng::seed_from(3);
        let mut attn = MultiHeadAttention::new(12, 3, &mut rng);
        let x = Matrix::random_normal(4, 12, 0.0, 1.0, &mut rng);
        let (q, k, v) = (
            attn.wq.forward(&x),
            attn.wk.forward(&x),
            attn.wv.forward(&x),
        );
        let context = attn.attend(&q, KvView::full(&k), KvView::full(&v), None);
        assert_eq!(attn.forward(&x), attn.wo.forward(&context));
    }

    /// A pass over every row, a refill of the last rows, and one-row calls
    /// over each prefix, plain or wrapped in a ring, give the same bits;
    /// the kept probabilities are causal rows that sum to one.
    #[test]
    fn one_rule_covers_passes_refills_single_rows_and_rings() {
        let mut rng = Rng::seed_from(4);
        let (n, d, start) = (11, 16, 4);
        let attn = MultiHeadAttention::new(d, 2, &mut rng);
        let [q, k, v] = [0; 3].map(|_| Matrix::random_normal(n, d, 0.0, 1.0, &mut rng));
        let mut probs = Vec::new();
        let full = attn.attend(&q, KvView::full(&k), KvView::full(&v), Some(&mut probs));
        let tail = q.submatrix(n - 3, n, 0, d);
        let refill = attn.attend(&tail, KvView::full(&k), KvView::full(&v), None);
        assert_eq!(refill, full.submatrix(n - 3, n, 0, d));
        // The same rows in a ring whose oldest row sits at physical `start`.
        let ring = |m: &Matrix| {
            let rows: Vec<&[f32]> = (0..n).map(|r| m.row((r + n - start) % n)).collect();
            Matrix::from_rows(&rows)
        };
        let (kr, vr) = (ring(&k), ring(&v));
        for i in 0..n {
            let qi = q.submatrix(i, i + 1, 0, d);
            let view = |m, start| KvView::new(m, start, i + 1);
            let plain = attn.attend(&qi, view(&k, 0), view(&v, 0), None);
            let wrapped = attn.attend(&qi, view(&kr, start), view(&vr, start), None);
            assert_eq!(plain.row(0), full.row(i), "row {i}");
            assert_eq!(wrapped.row(0), full.row(i), "ring row {i}");
        }
        assert_eq!(probs.len(), 2);
        for p in &probs {
            for i in 0..n {
                assert!(p.row(i)[i + 1..].iter().all(|&x| x == 0.0));
                let sum: f32 = p.row(i).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
            }
        }
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

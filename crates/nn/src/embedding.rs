//! Token and positional embeddings.

use crate::param::Param;
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

/// Learned token + positional embedding table.
///
/// `forward(tokens)` returns `(seq × d)` with
/// `row_t = tok_table[tokens[t]] + pos_table[t]`.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Token table, `(vocab × d)`.
    pub tokens: Param,
    /// Positional table, `(max_seq × d)`.
    pub positions: Param,
    last_tokens: Vec<usize>,
}

impl Embedding {
    /// Creates tables with small normal init.
    pub fn new(vocab: usize, max_seq: usize, d: usize, rng: &mut Rng) -> Self {
        Self {
            tokens: Param::new(Matrix::random_normal(vocab, d, 0.0, 0.02, rng)),
            positions: Param::new(Matrix::random_normal(max_seq, d, 0.0, 0.02, rng)),
            last_tokens: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.tokens.value.rows()
    }

    /// Maximum sequence length.
    pub fn max_seq(&self) -> usize {
        self.positions.value.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.tokens.value.cols()
    }

    /// Embeds a token sequence, caching it for backward.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is longer than `max_seq` or a token is out of
    /// vocabulary.
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        self.last_tokens = tokens.to_vec();
        self.forward_inference(tokens)
    }

    /// Embeds without caching (inference-only).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Embedding::forward`].
    pub fn forward_inference(&self, tokens: &[usize]) -> Matrix {
        self.embed_at(tokens, 0)
    }

    /// Embeds `tokens` at consecutive positions from `pos0` (a decode pass
    /// continues after the positions its KV cache holds).
    pub(crate) fn embed_at(&self, tokens: &[usize], pos0: usize) -> Matrix {
        let end = pos0 + tokens.len();
        assert!(
            end <= self.max_seq(),
            "sequence {end} exceeds max_seq {}",
            self.max_seq()
        );
        let d = self.dim();
        let mut out = Matrix::zeros(tokens.len(), d);
        for (t, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.vocab(), "token {tok} out of vocab");
            let row = out.row_mut(t);
            let te = self.tokens.value.row(tok);
            let pe = self.positions.value.row(pos0 + t);
            for k in 0..d {
                row[k] = te[k] + pe[k];
            }
        }
        out
    }

    /// Scatter-adds `dy` into the token/position gradients.
    ///
    /// # Panics
    ///
    /// Panics if no forward cache is present or shapes disagree.
    pub fn backward(&mut self, dy: &Matrix) {
        assert_eq!(
            dy.rows(),
            self.last_tokens.len(),
            "Embedding::backward without matching forward"
        );
        assert!(!self.last_tokens.is_empty(), "no cached forward");
        for (t, &tok) in self.last_tokens.clone().iter().enumerate() {
            let dr = dy.row(t).to_vec();
            for (g, &d) in self.tokens.grad.row_mut(tok).iter_mut().zip(&dr) {
                *g += d;
            }
            for (g, &d) in self.positions.grad.row_mut(t).iter_mut().zip(&dr) {
                *g += d;
            }
        }
    }

    /// Mutable access to both tables (for the optimizer).
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.tokens, &mut self.positions]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_sums_token_and_position() {
        let mut rng = Rng::seed_from(1);
        let mut emb = Embedding::new(10, 8, 4, &mut rng);
        let y = emb.forward(&[3, 7]);
        for k in 0..4 {
            assert_eq!(
                y[(0, k)],
                emb.tokens.value[(3, k)] + emb.positions.value[(0, k)]
            );
            assert_eq!(
                y[(1, k)],
                emb.tokens.value[(7, k)] + emb.positions.value[(1, k)]
            );
        }
    }

    #[test]
    fn backward_scatter_adds() {
        let mut rng = Rng::seed_from(2);
        let mut emb = Embedding::new(5, 4, 2, &mut rng);
        emb.forward(&[1, 1, 3]);
        let dy = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[0.0, 5.0]]);
        emb.backward(&dy);
        // token 1 appears twice: grads add
        assert_eq!(emb.tokens.grad[(1, 0)], 3.0);
        assert_eq!(emb.tokens.grad[(3, 1)], 5.0);
        assert_eq!(emb.positions.grad[(0, 0)], 1.0);
        assert_eq!(emb.positions.grad[(2, 1)], 5.0);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn out_of_vocab_panics() {
        let mut rng = Rng::seed_from(3);
        let mut emb = Embedding::new(5, 4, 2, &mut rng);
        emb.forward(&[5]);
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn too_long_panics() {
        let mut rng = Rng::seed_from(4);
        let mut emb = Embedding::new(5, 2, 2, &mut rng);
        emb.forward(&[0, 1, 2]);
    }
}

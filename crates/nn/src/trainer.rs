//! Training loop: Adam with global-norm gradient clipping.

use crate::corpus::Corpus;
use crate::model::{LinearId, TransformerLm};
use nora_tensor::Matrix;

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of optimizer steps.
    pub steps: u64,
    /// Sequences per step (gradients are averaged).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Linear warmup steps for the learning rate.
    pub warmup: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            steps: 300,
            batch_size: 8,
            lr: 3e-3,
            grad_clip: 1.0,
            warmup: 20,
        }
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of the first step.
    pub first_loss: f64,
    /// Mean loss of the final step.
    pub final_loss: f64,
    /// Loss trace (one entry per step).
    pub losses: Vec<f64>,
}

/// Trains `model` on episodes drawn from `corpus`.
///
/// Deterministic given the model/corpus states. Returns the loss trace.
///
/// # Panics
///
/// Panics if `steps` or `batch_size` is zero.
///
/// # Example
///
/// ```
/// use nora_nn::corpus::{Corpus, CorpusConfig};
/// use nora_nn::trainer::{train, TrainConfig};
/// use nora_nn::{ModelConfig, TransformerLm};
/// use nora_tensor::rng::Rng;
///
/// let mut corpus = Corpus::new(CorpusConfig::new(16, 16, 0));
/// let mut model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(0));
/// let report = train(&mut model, &mut corpus, &TrainConfig { steps: 5, ..TrainConfig::default() });
/// assert_eq!(report.losses.len(), 5);
/// ```
pub fn train(model: &mut TransformerLm, corpus: &mut Corpus, cfg: &TrainConfig) -> TrainReport {
    assert!(cfg.steps > 0, "steps must be positive");
    assert!(cfg.batch_size > 0, "batch_size must be positive");
    let mut losses = Vec::with_capacity(cfg.steps as usize);
    for t in 1..=cfg.steps {
        model.zero_grad();
        let mut step_loss = 0.0f64;
        for _ in 0..cfg.batch_size {
            let ep = corpus.episode();
            step_loss += model.loss_and_backward(&ep.tokens);
        }
        step_loss /= cfg.batch_size as f64;
        optimizer_step(model, cfg, t);
        losses.push(step_loss);
    }
    TrainReport {
        first_loss: losses[0],
        final_loss: *losses.last().unwrap(),
        losses,
    }
}

/// Applies optimizer step `t` to the gradients a batch of
/// `cfg.batch_size` episodes accumulated: batch average, global-norm clip,
/// linear warmup, then Adam. Shared by [`train`] and
/// [`crate::ste::train_ste`], so both trainers update identically.
pub(crate) fn optimizer_step(model: &mut TransformerLm, cfg: &TrainConfig, t: u64) {
    // Average gradients over the batch.
    let inv = 1.0 / cfg.batch_size as f32;
    for p in model.params_mut() {
        p.scale_grad(inv);
    }
    // Global-norm clipping.
    if cfg.grad_clip > 0.0 {
        let norm: f64 = model
            .params_mut()
            .iter()
            .map(|p| p.grad_sq_sum())
            .sum::<f64>()
            .sqrt();
        if norm > cfg.grad_clip as f64 {
            let scale = (cfg.grad_clip as f64 / norm) as f32;
            for p in model.params_mut() {
                p.scale_grad(scale);
            }
        }
    }
    // Linear warmup then constant LR.
    let lr = if t <= cfg.warmup {
        cfg.lr * t as f32 / cfg.warmup.max(1) as f32
    } else {
        cfg.lr
    };
    for p in model.params_mut() {
        p.adam_step(lr, 0.9, 0.999, 1e-8, t);
    }
}

/// Scope guard that restores a stashed set of linear weights when it goes
/// out of scope — **including by panic**. The noise-injection trainer
/// ([`crate::ste::train_ste`]) perturbs weights for the duration of one
/// batch; wrapping the perturb-and-batch section in this guard guarantees a
/// poisoned episode (e.g. an out-of-vocab token panicking mid-batch) cannot
/// leave perturbed weights behind in the caller's model.
pub struct WeightRestore<'a> {
    model: &'a mut TransformerLm,
    ids: &'a [LinearId],
    clean: Vec<Matrix>,
}

impl<'a> WeightRestore<'a> {
    /// Stashes the current (clean) weights of `ids`, to be restored — in
    /// `ids` order — when the guard drops.
    pub fn stash(model: &'a mut TransformerLm, ids: &'a [LinearId]) -> Self {
        let clean = ids
            .iter()
            .map(|&id| model.linear(id).weight.value.clone())
            .collect();
        Self { model, ids, clean }
    }

    /// The guarded model: perturb weights and run batches through this.
    pub fn model(&mut self) -> &mut TransformerLm {
        self.model
    }
}

impl Drop for WeightRestore<'_> {
    fn drop(&mut self) {
        for (&id, w) in self.ids.iter().zip(self.clean.drain(..)) {
            self.model.linear_mut(id).weight.value = w;
        }
    }
}

/// Last-token prediction accuracy over held-out episodes — the workspace's
/// "Lambada accuracy". The model sees every token but the last and must
/// predict it.
pub fn eval_accuracy(model: &TransformerLm, episodes: &[crate::corpus::Episode]) -> f64 {
    if episodes.is_empty() {
        return 0.0;
    }
    let correct = episodes
        .iter()
        .filter(|ep| {
            let ctx = &ep.tokens[..ep.tokens.len() - 1];
            model.predict_next(ctx) == ep.key
        })
        .count();
    correct as f64 / episodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::model::ModelConfig;
    use nora_tensor::rng::Rng;

    #[test]
    fn training_reduces_loss_and_learns_induction() {
        let corpus_cfg = CorpusConfig::new(16, 16, 11);
        let mut corpus = Corpus::new(corpus_cfg);
        let model_cfg = ModelConfig {
            vocab: 16,
            max_seq: 16,
            d_model: 32,
            heads: 2,
            d_ff: 64,
            layers: 2,
        };
        let mut model = TransformerLm::new(model_cfg, &mut Rng::seed_from(12));
        let report = train(
            &mut model,
            &mut corpus,
            &TrainConfig {
                steps: 400,
                batch_size: 8,
                lr: 3e-3,
                grad_clip: 1.0,
                warmup: 20,
            },
        );
        assert!(
            report.final_loss < report.first_loss * 0.7,
            "loss {} → {}",
            report.first_loss,
            report.final_loss
        );
        let eval = corpus.episodes(100);
        let acc = eval_accuracy(&model, &eval);
        assert!(acc > 0.5, "induction accuracy {acc}");
    }

    /// Pins the bits of a short training run: every parameter value and
    /// the loss trace, hashed with FNV-1a. The expected hash was taken
    /// from a run of the code, so any change to the training forward
    /// (attention included), backward or optimizer shows up here.
    #[test]
    fn training_run_is_pinned_bit_for_bit() {
        let mut corpus = Corpus::new(CorpusConfig::new(16, 16, 5));
        let model_cfg = ModelConfig {
            d_model: 32,
            heads: 4,
            layers: 2,
            ..ModelConfig::tiny_for_tests()
        };
        let mut model = TransformerLm::new(model_cfg, &mut Rng::seed_from(6));
        let report = train(
            &mut model,
            &mut corpus,
            &TrainConfig {
                steps: 30,
                batch_size: 2,
                warmup: 5,
                ..TrainConfig::default()
            },
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
        for p in model.params() {
            for v in p.value.as_slice() {
                word(u64::from(v.to_bits()));
            }
        }
        for loss in &report.losses {
            word(loss.to_bits());
        }
        assert_eq!(format!("{h:016x}"), "4379e0b88ee37533");
    }

    #[test]
    fn eval_accuracy_of_empty_is_zero() {
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(0));
        assert_eq!(eval_accuracy(&model, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "steps must be positive")]
    fn zero_steps_panics() {
        let mut corpus = Corpus::new(CorpusConfig::new(16, 16, 0));
        let mut model =
            TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(0));
        train(
            &mut model,
            &mut corpus,
            &TrainConfig {
                steps: 0,
                ..TrainConfig::default()
            },
        );
    }
}

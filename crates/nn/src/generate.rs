//! Token sampling and the FP32 reference generation loops.
//!
//! NORA targets *inference*: the ultimate consumer of an analog-deployed LM
//! is a token-by-token decode loop. That loop is the serving engine
//! (`nora_serve::GenerationEngine`), which decodes an analog deployment
//! through [`crate::deploy::AnalogTransformerLm::decode_step_keyed`]. This
//! module holds the sampler it shares and the two digital loops the engine
//! is tested against: the uncached truncation reference and its KV-cached
//! equivalent.

use crate::model::TransformerLm;
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

/// Token-sampling strategy for the decode loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Always pick the argmax token.
    Greedy,
    /// Softmax sampling at the given temperature (must be positive).
    Temperature(f32),
}

/// Samples the next token id from a logit row under `sampling`.
///
/// Greedy ignores `rng` entirely (ties break toward the lower id);
/// temperature sampling draws one index from the softmax of
/// `logits / t`. Shared by the decode loops here and by the serving
/// engine's per-request samplers.
pub fn sample_logits(last_logits: &[f32], sampling: Sampling, rng: &mut Rng) -> usize {
    match sampling {
        Sampling::Greedy => last_logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0),
        Sampling::Temperature(t) => {
            assert!(t > 0.0, "temperature must be positive");
            let scaled = Matrix::from_vec(
                1,
                last_logits.len(),
                last_logits.iter().map(|&v| v / t).collect(),
            );
            let probs = crate::softmax::softmax_rows(&scaled);
            rng.weighted_index(probs.row(0))
        }
    }
}

/// Generates `new_tokens` continuation tokens from `prompt` with the FP32
/// digital model.
///
/// The context is truncated to the model's `max_seq` as it grows.
///
/// # Panics
///
/// Panics if `prompt` is empty.
pub fn generate_digital(
    model: &TransformerLm,
    prompt: &[usize],
    new_tokens: usize,
    sampling: Sampling,
    rng: &mut Rng,
) -> Vec<usize> {
    assert!(!prompt.is_empty(), "empty prompt");
    let max_seq = model.config().max_seq;
    let mut tokens = prompt.to_vec();
    for _ in 0..new_tokens {
        let start = tokens.len().saturating_sub(max_seq);
        let logits = model.forward(&tokens[start..]);
        let next = sample_logits(logits.row(logits.rows() - 1), sampling, rng);
        tokens.push(next);
    }
    tokens
}

/// KV-cached greedy/temperature generation with the FP32 digital model:
/// `O(L)` per token instead of `O(L²)` while the context fits the window.
///
/// Matches [`generate_digital`] exactly, including *past* `max_seq`: once
/// the context outgrows the window, each step rebases the cache — reset and
/// re-decode the last `max_seq − 1` tokens before decoding the newest — so
/// every token sees exactly the truncated context `generate_digital` would
/// forward. Rebasing costs `O(max_seq)` decode steps per token, the same
/// asymptotics as the uncached loop; pure ring eviction (just calling
/// [`TransformerLm::decode_step`] on a full cache) would stay `O(1)` but
/// keeps evicted-era positional phases and diverges from truncation.
///
/// # Panics
///
/// Panics if `prompt` is empty.
pub fn generate_digital_cached(
    model: &TransformerLm,
    prompt: &[usize],
    new_tokens: usize,
    sampling: Sampling,
    rng: &mut Rng,
) -> Vec<usize> {
    assert!(!prompt.is_empty(), "empty prompt");
    let window = model.config().max_seq;
    let mut cache = crate::model::KvCache::new(model);
    let mut tokens = prompt.to_vec();
    let mut logits = Vec::new();
    // Prefill with the last `window` prompt tokens — all generate_digital's
    // first forward would see.
    for &t in &tokens[tokens.len().saturating_sub(window)..] {
        logits = model.decode_step(t, &mut cache);
    }
    for _ in 0..new_tokens {
        let next = sample_logits(&logits, sampling, rng);
        tokens.push(next);
        if !cache.has_capacity() {
            // Window full: rebase onto the truncated context so `next`
            // decodes against exactly tokens[len-window..len-1].
            cache.reset();
            let len = tokens.len();
            for &t in &tokens[len - window..len - 1] {
                model.decode_step(t, &mut cache);
            }
        }
        logits = model.decode_step(next, &mut cache);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    fn model() -> TransformerLm {
        TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(1))
    }

    #[test]
    fn greedy_generation_extends_prompt() {
        let m = model();
        let mut rng = Rng::seed_from(2);
        let out = generate_digital(&m, &[1, 2, 3], 5, Sampling::Greedy, &mut rng);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < 16));
    }

    #[test]
    fn greedy_is_deterministic_temperature_is_not_degenerate() {
        let m = model();
        let a = generate_digital(&m, &[5], 10, Sampling::Greedy, &mut Rng::seed_from(3));
        let b = generate_digital(&m, &[5], 10, Sampling::Greedy, &mut Rng::seed_from(99));
        assert_eq!(a, b, "greedy must not depend on the rng");
        // High temperature should (with overwhelming probability) diverge
        // between seeds.
        let c = generate_digital(&m, &[5], 24, Sampling::Temperature(3.0), &mut Rng::seed_from(4));
        let d = generate_digital(&m, &[5], 24, Sampling::Temperature(3.0), &mut Rng::seed_from(5));
        assert_ne!(c, d);
    }

    #[test]
    fn cached_generation_matches_uncached_greedy() {
        let m = model();
        let mut rng = Rng::seed_from(11);
        let full = generate_digital(&m, &[2, 7, 1], 9, Sampling::Greedy, &mut rng.clone());
        let cached =
            generate_digital_cached(&m, &[2, 7, 1], 9, Sampling::Greedy, &mut rng);
        assert_eq!(full, cached);
    }

    #[test]
    fn cached_generation_slides_past_max_seq_matching_truncation() {
        // max_seq 16: prompt 10 + 30 new tokens runs well past the window.
        // The cached loop must keep matching generate_digital's truncation
        // semantics instead of panicking.
        let m = model();
        let mut rng = Rng::seed_from(13);
        let full = generate_digital(&m, &[1; 10], 30, Sampling::Greedy, &mut rng.clone());
        let cached = generate_digital_cached(&m, &[1; 10], 30, Sampling::Greedy, &mut rng);
        assert_eq!(full.len(), 40);
        assert_eq!(full, cached);
    }

    #[test]
    fn cached_generation_slides_with_long_prompt_and_temperature() {
        // Prompt longer than max_seq: prefill must truncate to the window,
        // and the shared rng must stay in lockstep under sampling.
        let m = model(); // max_seq 16
        let prompt: Vec<usize> = (0..24).map(|i| i % 16).collect();
        let mut rng = Rng::seed_from(14);
        let full =
            generate_digital(&m, &prompt, 12, Sampling::Temperature(1.3), &mut rng.clone());
        let cached =
            generate_digital_cached(&m, &prompt, 12, Sampling::Temperature(1.3), &mut rng);
        assert_eq!(full, cached);
    }

    #[test]
    fn context_truncates_at_max_seq() {
        let m = model(); // max_seq 16
        let mut rng = Rng::seed_from(8);
        let out = generate_digital(&m, &[1], 40, Sampling::Greedy, &mut rng);
        assert_eq!(out.len(), 41);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_panics() {
        let m = model();
        generate_digital(&m, &[1], 1, Sampling::Temperature(0.0), &mut Rng::seed_from(0));
    }
}

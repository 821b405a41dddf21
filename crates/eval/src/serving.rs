//! Batched multi-request serving workloads.
//!
//! The serving engine's correctness story is *consistency*: continuous
//! batching, slot reuse, and sliding-window eviction must not change any
//! request's tokens relative to decoding it alone. This module builds
//! corpus-derived workloads, serves them through a
//! [`nora_serve::GenerationEngine`], and scores exactly that property,
//! alongside the aggregate throughput accounting.

use nora_nn::corpus::Corpus;
use nora_nn::deploy::AnalogTransformerLm;
use nora_nn::generate::{generate_digital_cached, Sampling};
use nora_nn::TransformerLm;
use nora_serve::{
    AnalogBackend, Backend, DigitalBackend, EngineConfig, GenRequest, GenResult, GenerationEngine,
};
use nora_tensor::rng::Rng;

/// A reproducible batch of generation requests.
#[derive(Debug, Clone)]
pub struct ServingWorkload {
    /// The requests, in submission order.
    pub requests: Vec<GenRequest>,
}

impl ServingWorkload {
    /// Derives `n` requests from corpus episodes: each takes the first
    /// `prompt_len` episode tokens as its prompt and asks for `new_tokens`
    /// continuation tokens; request `i` samples with seed `i`.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_len` is zero or exceeds the corpus episode length.
    pub fn from_corpus(
        corpus: &mut Corpus,
        n: usize,
        prompt_len: usize,
        new_tokens: usize,
        sampling: Sampling,
    ) -> Self {
        assert!(prompt_len >= 1, "prompt_len must be at least 1");
        let requests = (0..n)
            .map(|i| {
                let tokens = corpus.episode().tokens;
                assert!(prompt_len <= tokens.len(), "prompt_len beyond episode");
                GenRequest::new(tokens[..prompt_len].to_vec(), new_tokens)
                    .with_sampling(sampling)
                    .with_seed(i as u64)
            })
            .collect();
        Self { requests }
    }

    /// Derives `n` requests mixing tenants, priorities, deadlines, and
    /// generation lengths — an admission-frontend stress shape. Request `i`
    /// belongs to tenant `i % tenants`, asks for `lengths[i % lengths.len()]`
    /// tokens at priority `i % 3`, carries a deadline hint on every fifth
    /// request, and samples with seed `i`. Fully deterministic: the same corpus
    /// state and arguments always build the same workload.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_len` or `tenants` is zero, `lengths` is empty, or
    /// `prompt_len` exceeds the corpus episode length.
    pub fn mixed_from_corpus(
        corpus: &mut Corpus,
        n: usize,
        prompt_len: usize,
        lengths: &[usize],
        tenants: u32,
        sampling: Sampling,
    ) -> Self {
        assert!(prompt_len >= 1, "prompt_len must be at least 1");
        assert!(tenants >= 1, "tenants must be at least 1");
        assert!(!lengths.is_empty(), "lengths must be non-empty");
        let requests = (0..n)
            .map(|i| {
                let tokens = corpus.episode().tokens;
                assert!(prompt_len <= tokens.len(), "prompt_len beyond episode");
                let mut request = GenRequest::new(
                    tokens[..prompt_len].to_vec(),
                    lengths[i % lengths.len()],
                )
                .with_sampling(sampling)
                .with_seed(i as u64)
                .with_tenant(i as u32 % tenants)
                .with_priority((i % 3) as u8);
                if i % 5 == 0 {
                    request = request.with_deadline(i as u64);
                }
                request
            })
            .collect();
        Self { requests }
    }
}

/// Outcome of serving one workload.
#[derive(Debug, Clone, Copy)]
pub struct ServingSummary {
    /// Completed requests.
    pub requests: u64,
    /// Tokens generated across all requests.
    pub generated_tokens: u64,
    /// Model decode steps spent (prefill + decode + window rebase).
    pub decode_steps: u64,
    /// Requests whose engine output differed from its solo reference run
    /// (0 for a correct engine).
    pub mismatches: usize,
    /// Aggregate generated tokens per second of engine busy time.
    pub tokens_per_sec: f64,
}

/// Serves `workload` through a fresh engine over `backend` and returns the
/// per-request results in submission order.
fn serve_workload<B: Backend>(
    backend: B,
    workload: &ServingWorkload,
    max_batch: usize,
) -> (Vec<GenResult>, ServingSummary) {
    let mut engine = GenerationEngine::new(backend, EngineConfig::with_max_batch(max_batch));
    for request in &workload.requests {
        engine.submit(request.clone());
    }
    let results = engine.run_to_completion();
    let report = engine.report();
    let summary = ServingSummary {
        requests: report.requests,
        generated_tokens: report.generated_tokens,
        decode_steps: report.decode_steps,
        mismatches: 0,
        tokens_per_sec: report.tokens_per_sec(),
    };
    (results, summary)
}

/// Serves `workload` on the FP32 digital model and verifies every request
/// against its solo [`generate_digital_cached`] run (same sampling, same
/// seed). A correct engine reports `mismatches == 0` at any batch width and
/// any `NORA_THREADS`.
pub fn digital_serving_consistency(
    model: &TransformerLm,
    workload: &ServingWorkload,
    max_batch: usize,
) -> ServingSummary {
    let (results, mut summary) = serve_workload(DigitalBackend::new(model), workload, max_batch);
    summary.mismatches = results
        .iter()
        .zip(&workload.requests)
        .filter(|(result, request)| {
            let solo = generate_digital_cached(
                model,
                &request.prompt,
                request.max_new_tokens,
                request.sampling,
                &mut Rng::seed_from(request.seed),
            );
            result.tokens != solo
        })
        .count();
    summary
}

/// Serves `workload` on the analog deployment with counter-keyed noise
/// streams and verifies every request against its own solo run (batch of
/// one) on the same deployment. Under the keyed contract each request's
/// noise is a pure function of its own identity, so batching must not
/// change a single bit — `mismatches == 0` at any batch width and any
/// `NORA_THREADS`.
pub fn analog_serving_consistency(
    analog: &mut AnalogTransformerLm,
    workload: &ServingWorkload,
    max_batch: usize,
) -> ServingSummary {
    let (batched, mut summary) = serve_workload(AnalogBackend::new(analog), workload, max_batch);
    summary.mismatches = batched
        .iter()
        .zip(&workload.requests)
        .filter(|(result, request)| {
            let solo_workload = ServingWorkload {
                requests: vec![(*request).clone()],
            };
            let (solo, _) = serve_workload(AnalogBackend::new(analog), &solo_workload, 1);
            result.tokens != solo[0].tokens
        })
        .count();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use nora_nn::corpus::CorpusConfig;
    use nora_nn::ModelConfig;

    #[test]
    fn corpus_workload_serves_consistently() {
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(2));
        let mut corpus = Corpus::new(CorpusConfig::new(16, 16, 5));
        let workload = ServingWorkload::from_corpus(
            &mut corpus,
            9,
            4,
            20, // slides past max_seq 16
            Sampling::Temperature(1.2),
        );
        let summary = digital_serving_consistency(&model, &workload, 4);
        assert_eq!(summary.requests, 9);
        assert_eq!(summary.generated_tokens, 9 * 20);
        assert_eq!(summary.mismatches, 0);
        assert!(summary.decode_steps >= summary.generated_tokens);
    }
}

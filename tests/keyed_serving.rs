//! Counter-keyed analog serving: per-request noise is a pure function of
//! the request's own identity `(deployment, tile, request seed, position)`,
//! so its bits must be invariant to admission order, batch composition,
//! thread count, and observation.

use nora::cim::TileConfig;
use nora::core::RescalePlan;
use nora::nn::deploy::AnalogTransformerLm;
use nora::nn::generate::Sampling;
use nora::nn::{ModelConfig, TransformerLm};
use nora::parallel::with_threads;
use nora::serve::{
    AnalogBackend, DigitalBackend, EngineConfig, GenRequest, GenerationEngine, RequestOutcome,
};
use nora::tensor::rng::Rng;

fn model() -> TransformerLm {
    TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(60))
}

fn deploy(m: &TransformerLm) -> AnalogTransformerLm {
    RescalePlan::naive().deploy(m, TileConfig::paper_default(), 61)
}

/// Mixed-sampling requests long enough to slide past `max_seq` 16 —
/// exercising refill (rebase) positions, not just fresh decode positions.
fn requests() -> Vec<GenRequest> {
    (0..6)
        .map(|i| {
            GenRequest::new(vec![1 + i % 7, (2 * i + 3) % 16], 17 + i % 5)
                .with_sampling(if i % 2 == 0 {
                    Sampling::Greedy
                } else {
                    Sampling::Temperature(1.3)
                })
                .with_seed(300 + i as u64)
        })
        .collect()
}

fn serve_keyed(m: &TransformerLm, requests: Vec<GenRequest>, max_batch: usize) -> Vec<(u64, Vec<usize>)> {
    let mut analog = deploy(m);
    let mut engine = GenerationEngine::new(
        AnalogBackend::new(&mut analog),
        EngineConfig::with_max_batch(max_batch),
    );
    for request in requests {
        engine.submit(request);
    }
    engine
        .run_to_completion()
        .into_iter()
        .map(|r| (r.id, r.tokens))
        .collect()
}

/// Co-batched keyed serving produces, request for request, the very same
/// bits as serving each request alone on a fresh identical deployment.
#[test]
fn keyed_outputs_identical_solo_vs_cobatched() {
    let m = model();
    let batched = serve_keyed(&m, requests(), 6);
    assert_eq!(batched.len(), 6);
    for (i, request) in requests().into_iter().enumerate() {
        let solo = serve_keyed(&m, vec![request], 1);
        assert_eq!(batched[i].1, solo[0].1, "request {i} solo vs co-batched");
    }
}

/// Submission (queue-position) order must not leak into any request's
/// noise: serving the same request set in reverse order — through a narrow
/// batch that forces queueing — yields the same bits per request.
#[test]
fn keyed_outputs_invariant_to_queue_position() {
    let m = model();
    let forward = serve_keyed(&m, requests(), 2);
    let mut reversed_requests = requests();
    reversed_requests.reverse();
    let reversed = serve_keyed(&m, reversed_requests, 2);
    // Match by sampler seed (the request identity); engine ids differ.
    for (i, request) in requests().iter().enumerate() {
        let rev_pos = reversed.len() - 1 - i;
        assert_eq!(
            forward[i].1, reversed[rev_pos].1,
            "request seed {} differs across queue positions",
            request.seed
        );
    }
}

/// Thread-count invariance of the parallel keyed round: token streams AND
/// absorbed tile statistics are bit-identical at NORA_THREADS = 1/2/4/8.
#[test]
fn keyed_round_bit_identical_across_thread_counts() {
    let m = model();
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut analog = deploy(&m);
            let mut engine = GenerationEngine::new(
                AnalogBackend::new(&mut analog),
                EngineConfig::with_max_batch(4),
            );
            for request in requests() {
                engine.submit(request);
            }
            let tokens: Vec<Vec<usize>> = engine
                .run_to_completion()
                .into_iter()
                .map(|r| r.tokens)
                .collect();
            drop(engine);
            (tokens, analog.stats())
        })
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let par = run(threads);
        assert_eq!(serial.0, par.0, "token streams, threads={threads}");
        assert_eq!(serial.1, par.1, "tile stats, threads={threads}");
    }
}

/// Backpressure and cancellation: a depth-bounded queue sheds newcomers
/// (no model work, `serve.shed` counts), and a queued request can be
/// cancelled before admission (`serve.cancelled` counts). Completed
/// requests are unaffected.
#[test]
fn shed_and_cancel_retire_without_model_work() {
    let m = model();
    let mut engine = GenerationEngine::new(
        DigitalBackend::new(&m),
        EngineConfig::with_max_batch(1).with_queue_depth(2),
    );
    let a = engine.submit(GenRequest::new(vec![1, 2], 4));
    let b = engine.submit(GenRequest::new(vec![3], 4));
    let c = engine.submit(GenRequest::new(vec![4], 4)); // queue full: shed
    assert!(engine.cancel(b), "queued request should cancel");
    assert!(!engine.cancel(b), "double-cancel returns false");
    let results = engine.run_to_completion();
    assert_eq!(results.len(), 3);
    let by_id = |id: u64| results.iter().find(|r| r.id == id).unwrap();
    assert_eq!(by_id(a).outcome, RequestOutcome::Completed);
    assert_eq!(by_id(b).outcome, RequestOutcome::Cancelled);
    assert_eq!(by_id(c).outcome, RequestOutcome::Shed);
    assert_eq!(by_id(b).decode_steps, 0);
    assert_eq!(by_id(c).decode_steps, 0);
    assert!(by_id(b).generated().is_empty());
    assert!(by_id(c).generated().is_empty());
    assert_eq!(engine.metrics().counter("serve.shed"), 1);
    assert_eq!(engine.metrics().counter("serve.cancelled"), 1);
    assert_eq!(engine.metrics().counter("serve.requests"), 1);
}

/// Priority classes are strict: with one decode slot, a backlogged queue
/// admits (and therefore completes) higher-priority requests first.
#[test]
fn priority_overrides_submission_order() {
    let m = model();
    let mut engine =
        GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::with_max_batch(1));
    let lo = engine.submit(GenRequest::new(vec![1], 3).with_priority(0));
    let hi = engine.submit(GenRequest::new(vec![2], 3).with_priority(2));
    let mid = engine.submit(GenRequest::new(vec![3], 3).with_priority(1));
    let mut completion_order = Vec::new();
    loop {
        let more = engine.step();
        completion_order.extend(engine.take_results().into_iter().map(|r| r.id));
        if !more {
            break;
        }
    }
    assert_eq!(completion_order, vec![hi, mid, lo]);
}

/// Per-tenant queue-wait histograms appear in the engine metrics under
/// `serve.tenant.{id}.queue_wait_secs`, one observation per admission.
#[test]
fn tenant_queue_wait_histograms_are_recorded() {
    let m = model();
    let mut engine = GenerationEngine::new(
        DigitalBackend::new(&m),
        EngineConfig::with_max_batch(2).with_tenant_weight(1, 2.0),
    );
    for i in 0..6u32 {
        engine.submit(GenRequest::new(vec![1 + i as usize % 4], 3).with_tenant(i % 2));
    }
    engine.run_to_completion();
    let metrics = engine.metrics();
    for tenant in 0..2 {
        let hist = metrics
            .histogram(&format!("serve.tenant.{tenant}.queue_wait_secs"))
            .unwrap_or_else(|| panic!("missing tenant {tenant} histogram"));
        assert_eq!(hist.count(), 3, "tenant {tenant} admissions");
    }
}

/// Observation transparency on the *parallel* keyed round: attaching a
/// recorder and exporting metrics changes not a single output bit, and the
/// deterministic counters match the unobserved run.
#[test]
fn recorder_on_keyed_round_changes_no_bit() {
    let m = model();
    let run = |observe: bool| {
        with_threads(4, || {
            let mut analog = deploy(&m);
            let mut engine = GenerationEngine::new(
                AnalogBackend::new(&mut analog),
                EngineConfig::with_max_batch(4),
            );
            if observe {
                engine.set_recorder(Box::new(nora::obs::MemoryRecorder::default()));
            }
            for request in requests() {
                engine.submit(request);
            }
            let tokens: Vec<Vec<usize>> = engine
                .run_to_completion()
                .into_iter()
                .map(|r| r.tokens)
                .collect();
            let counters: Vec<(String, u64)> = engine
                .metrics()
                .counters()
                .map(|(n, v)| (n.to_string(), v))
                .collect();
            (tokens, counters)
        })
    };
    let (tokens_plain, counters_plain) = run(false);
    let (tokens_observed, counters_observed) = run(true);
    assert_eq!(tokens_plain, tokens_observed, "recorder changed the tokens");
    assert_eq!(counters_plain, counters_observed, "recorder changed counters");
}

/// End-to-end mixed-tenant keyed consistency through the eval layer: a
/// workload mixing tenants, priorities, deadlines, and lengths serves with
/// zero mismatches against each request's solo run.
#[test]
fn mixed_tenant_workload_is_batch_consistent() {
    use nora::eval::serving::{analog_serving_consistency, ServingWorkload};
    use nora::nn::corpus::{Corpus, CorpusConfig};
    let m = model();
    let mut corpus = Corpus::new(CorpusConfig::new(16, 16, 9));
    let workload = ServingWorkload::mixed_from_corpus(
        &mut corpus,
        8,
        3,
        &[6, 14, 19],
        3,
        Sampling::Temperature(1.1),
    );
    let mut analog = deploy(&m);
    let summary = analog_serving_consistency(&mut analog, &workload, 4);
    assert_eq!(summary.requests, 8);
    assert_eq!(summary.mismatches, 0);
}

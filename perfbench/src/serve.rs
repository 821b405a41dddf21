//! The serving workloads: closed loops of clients over one
//! `GenerationEngine`.
//!
//! Each client sends its next request as soon as its last one completes.
//! In a closed loop the round in which each request is admitted, and so
//! the whole batch schedule, depends only on token counts; wall-clock
//! timing moves only the round durations. An open loop near saturation
//! let queueing amplify small speed changes instead (three identical runs
//! at 400 req/s gave `ttft_p50` of 0.22, 0.40 and 0.93 ms).
//!
//! A pass serves a fixed number of requests from the same seed-made
//! inputs; a run repeats passes until its window is full. Every pass must
//! reproduce the first (reference) pass token for token.

use crate::inputs::{mix, Inputs};
use crate::report::Report;
use crate::setup::{self, Ready, Stage};
use crate::stats::{self, Digest};
use crate::trace::Trace;
use nora_cim::{DriftCompensation, ForwardStats, TileConfig};
use nora_nn::deploy::AnalogTransformerLm;
use nora_nn::generate::{generate_digital_cached, Sampling};
use nora_nn::TransformerLm;
use nora_serve::{
    AnalogBackend, Backend, DigitalBackend, EngineConfig, EngineReport, GenRequest,
    GenerationEngine, RequestOutcome, SlotStep, TileRef,
};
use nora_tensor::rng::Rng;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Sampling temperature of every request.
const TEMPERATURE: f32 = 0.8;

/// Requests per run re-checked against the oracle.
const ORACLE_SAMPLE: usize = 8;

/// Shape of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Closed-loop clients.
    pub clients: usize,
    /// Engine batch width.
    pub max_batch: usize,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Mean new tokens per request.
    pub new_tokens: usize,
    /// Each request asks for `new_tokens ± new_tokens_spread` new tokens, a
    /// fixed function of its index in the pass, so every seed runs the same
    /// batch schedule. Unequal lengths stagger the requests: with
    /// equal ones every batch moved in lockstep, all its requests shared
    /// one time to first token, and a pass held a handful of distinct
    /// latencies.
    pub new_tokens_spread: usize,
    /// Requests per pass.
    pub requests: usize,
    /// WFQ weight of each tenant; client `c` belongs to tenant
    /// `c % tenant_weights.len()`.
    pub tenant_weights: &'static [f64],
    /// Whether every fourth request of each client runs at raised
    /// priority.
    pub mixed_priority: bool,
    /// NORA deployment on `paper_default` tiles, or the FP32 model.
    pub analog: bool,
}

/// serve-analog: 16 clients, twice the batch width, so 8 requests always
/// wait; 8-token prompts and 12–20 new tokens fit the 32-token window.
pub const SERVE_ANALOG: Shape = Shape {
    clients: 16,
    max_batch: 8,
    prompt_len: 8,
    new_tokens: 16,
    new_tokens_spread: 4,
    requests: 96,
    tenant_weights: &[1.0],
    mixed_priority: false,
    analog: true,
};

/// serve-long: 16-token prompts and 40–56 new tokens overrun the 32-token
/// window after 16 tokens, so most of a request's steps rebase 31 tokens;
/// four tenants with unequal weights and mixed priorities contend for
/// admission.
pub const SERVE_LONG: Shape = Shape {
    clients: 16,
    max_batch: 8,
    prompt_len: 16,
    new_tokens: 48,
    new_tokens_spread: 8,
    requests: 96,
    tenant_weights: &[4.0, 2.0, 1.0, 1.0],
    mixed_priority: true,
    analog: false,
};

impl Shape {
    fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::with_max_batch(self.max_batch);
        for (t, &w) in self.tenant_weights.iter().enumerate() {
            cfg = cfg.with_tenant_weight(t as u32, w);
        }
        cfg
    }

    /// The set-up stage this workload needs.
    pub fn stage(&self, seed: u64) -> Stage {
        if self.analog {
            Stage::Deploy {
                tile: Box::new(TileConfig::paper_default()),
                seed: mix(seed ^ 0xde91),
                engine: self.engine_config(),
            }
        } else {
            Stage::Digital {
                engine: self.engine_config(),
            }
        }
    }

    fn request(
        &self,
        prompts: &[Vec<usize>],
        seed: u64,
        id: usize,
        client: usize,
        nth: usize,
    ) -> GenRequest {
        let tenant = (client % self.tenant_weights.len()) as u32;
        let priority = u8::from(self.mixed_priority && (client + nth).is_multiple_of(4));
        let request_seed = mix(seed ^ mix(id as u64 + 1));
        let choices = 2 * self.new_tokens_spread as u64 + 1;
        let new_tokens =
            self.new_tokens - self.new_tokens_spread + (mix(id as u64) % choices) as usize;
        GenRequest::new(prompts[id].clone(), new_tokens)
            .with_sampling(Sampling::Temperature(TEMPERATURE))
            .with_seed(request_seed)
            .with_tenant(tenant)
            .with_priority(priority)
    }
}

/// What serves the requests: the NORA deployment or the FP32 model.
trait Deployment {
    type B<'a>: Backend
    where
        Self: 'a;

    fn backend(&mut self) -> Self::B<'_>;

    /// Aggregate tile statistics so far (zero for the FP32 model).
    fn tile_stats(&self) -> ForwardStats;

    /// The oracle's tokens for `request` (prompt included).
    fn oracle(&mut self, request: &GenRequest) -> Vec<usize>;
}

struct Analog(AnalogTransformerLm);

impl Deployment for Analog {
    type B<'a> = AnalogBackend<'a>;

    fn backend(&mut self) -> AnalogBackend<'_> {
        AnalogBackend::new(&mut self.0)
    }

    fn tile_stats(&self) -> ForwardStats {
        self.0.stats()
    }

    /// Keyed noise makes a request's tokens independent of its batch, so
    /// serving it alone on a batch-1 engine must reproduce them.
    fn oracle(&mut self, request: &GenRequest) -> Vec<usize> {
        let mut solo = GenerationEngine::new(self.backend(), EngineConfig::with_max_batch(1));
        solo.submit(request.clone());
        solo.run_to_completion()
            .pop()
            .map(|r| r.tokens)
            .unwrap_or_default()
    }
}

struct Digital(TransformerLm);

impl Deployment for Digital {
    type B<'a> = DigitalBackend<'a>;

    fn backend(&mut self) -> DigitalBackend<'_> {
        DigitalBackend::new(&self.0)
    }

    fn tile_stats(&self) -> ForwardStats {
        ForwardStats::default()
    }

    fn oracle(&mut self, request: &GenRequest) -> Vec<usize> {
        generate_digital_cached(
            &self.0,
            &request.prompt,
            request.max_new_tokens,
            request.sampling,
            &mut Rng::seed_from(request.seed),
        )
    }
}

/// One `Backend::run_round` call as seen by the traced run.
#[derive(Debug, Clone, Copy)]
struct Round {
    start: Instant,
    dur: Duration,
    decoded: u64,
    refill: bool,
}

/// Wraps a backend to time `run_round` from outside the crate; every other
/// call passes straight through, so traced and untraced passes do the same
/// work.
struct Timed<'r, B> {
    inner: B,
    rounds: &'r RefCell<Vec<Round>>,
}

impl<B: Backend> Backend for Timed<'_, B> {
    fn model(&self) -> &TransformerLm {
        self.inner.model()
    }

    fn run_round(&mut self, steps: &mut [SlotStep<'_>]) {
        let refill = steps.iter().any(|s| s.refill.is_some());
        let start = Instant::now();
        self.inner.run_round(steps);
        let dur = start.elapsed();
        let decoded = steps.iter().map(|s| s.decoded).sum();
        self.rounds.borrow_mut().push(Round {
            start,
            dur,
            decoded,
            refill,
        });
    }

    fn begin_maintenance(&mut self) {
        self.inner.begin_maintenance();
    }

    fn drift_to(&mut self, now_seconds: f64, compensation: DriftCompensation) {
        self.inner.drift_to(now_seconds, compensation);
    }

    fn recalibrate(&mut self) -> usize {
        self.inner.recalibrate()
    }

    fn suspect_tiles(&mut self) -> Vec<TileRef> {
        self.inner.suspect_tiles()
    }

    fn rotate_tile(&mut self, tile: TileRef, now_seconds: f64) -> bool {
        self.inner.rotate_tile(tile, now_seconds)
    }
}

/// One served request of a pass.
#[derive(Debug, Clone)]
struct Served {
    request: GenRequest,
    tokens: Vec<usize>,
    decode_steps: u64,
    /// Engine step (from the pass's first) that admitted the request.
    admitted: usize,
    complete: bool,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
struct Pass {
    wall: f64,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    step_start: Vec<Instant>,
    step_ms: Vec<f64>,
    /// Per step: step time minus the wrapped `run_round` (traced passes).
    self_ms: Vec<f64>,
    rounds: Vec<Round>,
    served: Vec<Served>,
    report: Option<EngineReport>,
    tiles: ForwardStats,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Requests submitted so far in a pass, indexed by engine id.
struct Submissions<'a> {
    shape: &'a Shape,
    prompts: &'a [Vec<usize>],
    seed: u64,
    requests: Vec<GenRequest>,
    at: Vec<Instant>,
    client: Vec<usize>,
    /// Requests each client has sent.
    sent: Vec<usize>,
}

impl Submissions<'_> {
    fn submit<B: Backend>(&mut self, engine: &mut GenerationEngine<B>, client: usize) {
        let id = self.requests.len();
        let request = self
            .shape
            .request(self.prompts, self.seed, id, client, self.sent[client]);
        self.sent[client] += 1;
        self.client.push(client);
        self.requests.push(request.clone());
        self.at.push(Instant::now());
        let assigned = engine.submit(request);
        debug_assert_eq!(assigned, id as u64, "engine ids follow submission order");
    }
}

/// Runs one closed-loop pass on `engine`.
///
/// A request retires in the step that samples its last token, and every
/// step after admission samples exactly one of its tokens, so a request
/// of `n` tokens finishing in step `f` was admitted in step `f - n` and
/// sampled token `k` at the start of step `f - n + k`.
fn closed_loop<B: Backend>(
    engine: &mut GenerationEngine<B>,
    shape: &Shape,
    prompts: &[Vec<usize>],
    seed: u64,
    rounds: Option<&RefCell<Vec<Round>>>,
) -> Pass {
    let mut pass = Pass::default();
    let mut subs = Submissions {
        shape,
        prompts,
        seed,
        requests: Vec::with_capacity(shape.requests),
        at: Vec::with_capacity(shape.requests),
        client: Vec::with_capacity(shape.requests),
        sent: vec![0; shape.clients],
    };
    let mut served: Vec<Option<Served>> = vec![None; shape.requests];

    let start = Instant::now();
    for client in 0..shape.clients.min(shape.requests) {
        subs.submit(engine, client);
    }
    let mut step_start: Vec<Instant> = Vec::new();
    while engine.in_flight() > 0 {
        let step = step_start.len();
        let t = Instant::now();
        step_start.push(t);
        let rounds_before = rounds.map_or(0, |r| r.borrow().len());
        engine.step();
        let step_ms = ms(t.elapsed());
        pass.step_ms.push(step_ms);
        if let Some(r) = rounds {
            let round_ms: f64 = r.borrow()[rounds_before..].iter().map(|x| ms(x.dur)).sum();
            pass.self_ms.push(step_ms - round_ms);
        }
        for result in engine.take_results() {
            let id = result.id as usize;
            let n = subs.requests[id].max_new_tokens;
            let complete = result.outcome == RequestOutcome::Completed
                && result.generated().len() == n
                && step >= n;
            let admitted = step.saturating_sub(n);
            if complete {
                pass.ttft_ms
                    .push(ms(step_start[admitted + 1] - subs.at[id]));
                for k in 2..=n {
                    pass.itl_ms
                        .push(ms(step_start[admitted + k] - step_start[admitted + k - 1]));
                }
                pass.queue_wait_ms.push(ms(result.latency.queue_wait));
            }
            served[id] = Some(Served {
                request: subs.requests[id].clone(),
                tokens: result.tokens,
                decode_steps: result.decode_steps,
                admitted,
                complete,
            });
            if subs.requests.len() < shape.requests {
                subs.submit(engine, subs.client[id]);
            }
        }
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass.step_start = step_start;
    pass.report = Some(engine.report());
    pass.served = served.into_iter().flatten().collect();
    if let Some(r) = rounds {
        pass.rounds = r.borrow_mut().drain(..).collect();
    }
    pass
}

fn run_pass<D: Deployment>(
    dep: &mut D,
    shape: &Shape,
    prompts: &[Vec<usize>],
    seed: u64,
    traced: bool,
) -> Pass {
    let before = dep.tile_stats();
    let mut pass = if traced {
        let rounds = RefCell::new(Vec::new());
        let backend = Timed {
            inner: dep.backend(),
            rounds: &rounds,
        };
        let mut engine = GenerationEngine::new(backend, shape.engine_config());
        closed_loop(&mut engine, shape, prompts, seed, Some(&rounds))
    } else {
        let mut engine = GenerationEngine::new(dep.backend(), shape.engine_config());
        closed_loop(&mut engine, shape, prompts, seed, None)
    };
    let after = dep.tile_stats();
    pass.tiles = ForwardStats {
        samples: after.samples - before.samples,
        read_repeats: after.read_repeats - before.read_repeats,
        bound_mgmt_retries: after.bound_mgmt_retries - before.bound_mgmt_retries,
        ..ForwardStats::default()
    };
    pass
}

/// Runs a serving workload and fills `report`.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    mut trace: Option<&mut Trace>,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = Inputs::new(seed, shape.requests);
    let prompts = inputs.prompts(shape.prompt_len);
    let (ready, setup_times) = setup::run(&shape.stage(seed), &inputs, trace.as_deref_mut())?;
    let Ready { model, analog, .. } = ready;
    let measured = match analog {
        Some(a) => measure(
            &mut Analog(a),
            shape,
            &prompts,
            seed,
            seconds,
            trace.is_some(),
            report,
        ),
        None => measure(
            &mut Digital(model),
            shape,
            &prompts,
            seed,
            seconds,
            trace.is_some(),
            report,
        ),
    };
    match trace {
        None => end_to_end(shape, &setup_times, &measured, report),
        Some(tr) => per_layer(&setup_times, &measured, tr, report),
    }
    Ok(())
}

/// The reference pass and the measured passes of one run.
struct Measured {
    reference: Pass,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    /// High-water RSS after set-up and the reference pass.
    peak_rss_mb: f64,
}

/// Serves the reference pass, then measured passes until the window is
/// full, then the oracle sample; records operations and checks.
fn measure<D: Deployment>(
    dep: &mut D,
    shape: &Shape,
    prompts: &[Vec<usize>],
    seed: u64,
    seconds: f64,
    traced_run: bool,
    report: &mut Report,
) -> Measured {
    // The reference pass warms the process up and fixes the outputs every
    // later pass must reproduce.
    let reference = run_pass(dep, shape, prompts, seed, false);
    let reference_ok =
        reference.served.len() == shape.requests && reference.served.iter().all(|s| s.complete);
    report.check(
        "reference pass completes every request at full length",
        reference_ok,
    );
    // Read before the measured window: the samples kept from every pass
    // grow with the number of passes a faster build fits in the window.
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(f64::NAN);

    // Passes until the window is full and the tail percentiles have at
    // least ten samples above them; a traced run alternates untraced and
    // traced passes so both see the same host conditions.
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let window = Instant::now();
    loop {
        let is_traced = traced_run && untraced.len() > traced.len();
        let pass = run_pass(dep, shape, prompts, seed, is_traced);
        report.attempted += shape.requests as u64;
        report.failed += mismatches(&reference, &pass, shape.requests);
        let pass = Pass {
            served: Vec::new(),
            ..pass
        };
        if is_traced {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        let enough = untraced.len() * shape.requests >= stats::CHUNK_SAMPLES
            && (!traced_run || traced.len() >= 2);
        if enough && window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // The oracle runs outside the measured window, on a seed-chosen sample
    // of the reference pass.
    let mut rng = Rng::seed_from(mix(seed ^ 0x0acc));
    let sample = rng.sample_indices(
        reference.served.len(),
        ORACLE_SAMPLE.min(reference.served.len()),
    );
    let misses = sample
        .into_iter()
        .filter(|&i| dep.oracle(&reference.served[i].request) != reference.served[i].tokens)
        .count() as u64;
    report.check(
        format!("{ORACLE_SAMPLE} sampled requests match their oracle ({misses} misses)"),
        misses == 0,
    );
    report.failed += misses;

    let rep = reference.report.expect("every pass reports");
    let mut tokens = Digest::default();
    let mut admissions = Digest::default();
    for s in &reference.served {
        s.tokens.iter().for_each(|&t| tokens.push(t as u64));
        admissions.push(s.admitted as u64);
    }
    report.notes.push(format!(
        "deterministic token_digest={:#018x} admission_digest={:#018x} requests={} \
         generated_tokens={} decode_steps={} rounds={} tile_samples={}",
        tokens.value(),
        admissions.value(),
        reference.served.len(),
        rep.generated_tokens,
        rep.decode_steps,
        rep.rounds,
        reference.tiles.samples
    ));
    report.notes.push(format!(
        "passes untraced={} traced={} requests_per_pass={} clients={} max_batch={}",
        untraced.len(),
        traced.len(),
        shape.requests,
        shape.clients,
        shape.max_batch
    ));
    Measured {
        reference,
        untraced,
        traced,
        peak_rss_mb,
    }
}

/// Concatenates one per-pass sample over `passes`.
fn pool(passes: &[Pass], f: fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(|p| f(p).iter().copied()).collect()
}

fn end_to_end(shape: &Shape, setup_times: &setup::Times, m: &Measured, report: &mut Report) {
    let rates: Vec<f64> = m
        .untraced
        .iter()
        .map(|p| p.report.map_or(0, |r| r.generated_tokens) as f64 / p.wall)
        .collect();
    report.notes.push(format!(
        "tokens_per_s over passes: min {:.0} p50 {:.0} max {:.0}",
        stats::percentile(&rates, 0.0).map_or(0.0, |v| v.0),
        stats::median(&rates),
        stats::percentile(&rates, 100.0).map_or(0.0, |v| v.0),
    ));
    setup_times.report(report);
    report.metric("peak_rss_mb", m.peak_rss_mb, "MB", 1);
    report.metric("tokens_per_s", stats::median(&rates), "1/s", rates.len());
    let ttft = || m.untraced.iter().map(|p| &p.ttft_ms[..]);
    let itl = || m.untraced.iter().map(|p| &p.itl_ms[..]);
    // Every request in a round sees that round's duration as a token gap,
    // so an ITL chunk needs `max_batch` times the samples to hold as many
    // distinct steps.
    let itl_chunk = stats::CHUNK_SAMPLES * shape.max_batch;
    report.percentile("ttft_p50_ms", "ms", ttft(), 50.0, stats::CHUNK_SAMPLES);
    report.percentile("ttft_p90_ms", "ms", ttft(), 90.0, stats::CHUNK_SAMPLES);
    report.percentile("itl_p50_ms", "ms", itl(), 50.0, itl_chunk);
    report.percentile("itl_p90_ms", "ms", itl(), 90.0, itl_chunk);
}

fn per_layer(setup_times: &setup::Times, m: &Measured, trace: &mut Trace, report: &mut Report) {
    // Spans: one per engine step and one per wrapped round, sharing the
    // step's id.
    for (pi, p) in m.traced.iter().enumerate() {
        let base = (pi as u64) << 32;
        for (s, (&start, &dur)) in p.step_start.iter().zip(&p.step_ms).enumerate() {
            trace.push(
                "serve.step",
                base | s as u64,
                start,
                Duration::from_secs_f64(dur / 1e3),
            );
        }
        for r in &p.rounds {
            let step = p
                .step_start
                .partition_point(|&t| t <= r.start)
                .saturating_sub(1);
            trace.push("nn.round", base | step as u64, r.start, r.dur);
        }
    }
    let rep = m.reference.report.expect("every pass reports");
    let rounds: Vec<Round> = m
        .traced
        .iter()
        .flat_map(|p| p.rounds.iter().copied())
        .collect();
    let steps = trace.ms("serve.step");
    let round_ms = trace.ms("nn.round");
    let self_ms = pool(&m.traced, |p| &p.self_ms);
    let step_us: Vec<f64> = rounds
        .iter()
        .filter(|r| r.decoded > 0)
        .map(|r| r.dur.as_secs_f64() * 1e6 / r.decoded as f64)
        .collect();
    let waits = pool(&m.traced, |p| &p.queue_wait_ms);

    let mut layer = crate::PerLayer::new(report);
    layer.setup(trace, setup_times);
    layer.set("serve.step_ms_p50", stats::median(&steps), steps.len());
    layer.set(
        "serve.step_ms_p99",
        stats::percentile(&steps, 99.0).map_or(0.0, |(v, _)| v),
        steps.len(),
    );
    layer.set("serve.self_ms_p50", stats::median(&self_ms), self_ms.len());
    layer.set(
        "serve.queue_wait_ms_p50",
        stats::median(&waits),
        waits.len(),
    );
    layer.set(
        "serve.batch_occupancy",
        rep.generated_tokens as f64 / rep.rounds as f64,
        1,
    );
    layer.set(
        "serve.useful_step_share",
        rep.generated_tokens as f64 / rep.decode_steps as f64,
        1,
    );
    layer.set("nn.round_ms_p50", stats::median(&round_ms), round_ms.len());
    layer.set("nn.step_us_p50", stats::median(&step_us), step_us.len());
    let refills = rounds.iter().filter(|r| r.refill).count();
    layer.set(
        "nn.refill_round_share",
        refills as f64 / rounds.len().max(1) as f64,
        rounds.len(),
    );
    let tiles = &m.reference.tiles;
    layer.set("cim.tile_samples", tiles.samples as f64, 1);
    layer.set("cim.read_repeats", tiles.read_repeats as f64, 1);
    layer.set("cim.bm_retries", tiles.bound_mgmt_retries as f64, 1);
    let traced_samples: u64 = m.traced.iter().map(|p| p.tiles.samples).sum();
    if traced_samples > 0 {
        let round_ns = round_ms.iter().sum::<f64>() * 1e6;
        layer.set(
            "cim.ns_per_tile_sample",
            round_ns / traced_samples as f64,
            round_ms.len(),
        );
    }

    // Per step, the engine's own time plus the wrapped round must come
    // within 10% of an untraced step. Passes alternate untraced and traced,
    // so each traced pass pairs with the untraced pass run just before it.
    // `serve.self_ms` is the step minus its rounds, so the sum is the traced
    // step itself: this check is the tracing-overhead bound.
    let mut overhead = Vec::new();
    let mut sums = Vec::new();
    for (u, t) in m.untraced.iter().zip(&m.traced) {
        let untraced_step = stats::mean(&u.step_ms);
        let rounds: f64 = t.rounds.iter().map(|r| ms(r.dur)).sum();
        let parts = stats::mean(&t.self_ms) + rounds / t.step_ms.len().max(1) as f64;
        overhead.push((stats::mean(&t.step_ms), untraced_step));
        sums.push((parts, untraced_step));
    }
    layer.overhead(&overhead);
    layer.sum_check(
        "per step: serve.self + nn.round (= traced step, the overhead bound)",
        &sums,
    );
    layer.finish();
}

/// Requests of `pass` that did not complete or differ from `reference`.
fn mismatches(reference: &Pass, pass: &Pass, requests: usize) -> u64 {
    let bad = pass
        .served
        .iter()
        .zip(&reference.served)
        .filter(|(s, r)| {
            !s.complete
                || s.tokens != r.tokens
                || s.decode_steps != r.decode_steps
                || s.admitted != r.admitted
        })
        .count();
    (bad + requests.saturating_sub(pass.served.len())) as u64
}

//! Continuous-batching generation engine over a shared deployment.

use std::time::Duration;

use nora_cim::DriftCompensation;
use nora_nn::generate::{sample_logits, Sampling};
use nora_nn::KvCache;
use nora_obs::{edges, Metrics, Recorder, Stopwatch};
use nora_tensor::rng::Rng;

use crate::backend::{Backend, SlotStep, TileRef};
use crate::queue::{AdmissionQueue, QueueConfig};

/// One generation request: a prompt to continue for `max_new_tokens`.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// Prompt token ids (must be non-empty, all within the model vocab).
    pub prompt: Vec<usize>,
    /// Number of tokens to generate.
    pub max_new_tokens: usize,
    /// Sampling strategy (default greedy).
    pub sampling: Sampling,
    /// Seed of the request's private sampler RNG, and the request-identity
    /// component of the analog backend's counter-keyed noise streams.
    /// Greedy sampling ignores it for token choice; temperature sampling
    /// with the same seed reproduces
    /// [`nora_nn::generate::generate_digital_cached`] run with
    /// `Rng::seed_from(seed)`.
    pub seed: u64,
    /// Tenant id for weighted fair admission (default 0). Tenants share
    /// the queue per their [`QueueConfig`] weights.
    pub tenant: u32,
    /// Admission priority (default 0); higher values are admitted strictly
    /// first.
    pub priority: u8,
    /// Optional deadline hint (opaque units, lower = more urgent), used as
    /// an admission tiebreak among equally scheduled requests. The engine
    /// never drops a request for missing its deadline.
    pub deadline: Option<u64>,
}

impl GenRequest {
    /// A greedy request with sampler seed 0, tenant 0 and priority 0.
    pub fn new(prompt: Vec<usize>, max_new_tokens: usize) -> Self {
        Self {
            prompt,
            max_new_tokens,
            sampling: Sampling::Greedy,
            seed: 0,
            tenant: 0,
            priority: 0,
            deadline: None,
        }
    }

    /// Sets the sampling strategy.
    pub fn with_sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Sets the sampler RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tenant id for weighted fair admission.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the admission priority (higher = admitted first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deadline hint (admission tiebreak, lower = more urgent).
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum number of concurrently decoding sequences; further requests
    /// queue FIFO until a slot frees up.
    pub max_batch: usize,
    /// Sliding-window length of each sequence's KV cache. `None` (default)
    /// uses the model's `max_seq` — the window that makes the engine match
    /// [`nora_nn::generate::generate_digital`]'s truncation exactly.
    pub window: Option<usize>,
    /// Drift-aware maintenance schedule. `None` (default) serves frozen
    /// conductances, exactly as before.
    pub maintenance: Option<MaintenanceConfig>,
    /// Admission queue discipline: depth bound (backpressure) and
    /// per-tenant fair-share weights. The default is unbounded with
    /// uniform weights — exact FIFO for single-tenant workloads.
    pub queue: QueueConfig,
}

impl EngineConfig {
    /// Config with the given batch width and the default window.
    pub fn with_max_batch(max_batch: usize) -> Self {
        Self {
            max_batch,
            window: None,
            maintenance: None,
            queue: QueueConfig::new(),
        }
    }

    /// Overrides the per-sequence KV window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = Some(window);
        self
    }

    /// Enables the drift-aware maintenance scheduler.
    pub fn with_maintenance(mut self, maintenance: MaintenanceConfig) -> Self {
        self.maintenance = Some(maintenance);
        self
    }

    /// Bounds the admission queue to `depth` pending requests; further
    /// submissions are shed ([`RequestOutcome::Shed`]).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue = self.queue.with_depth(depth);
        self
    }

    /// Sets a tenant's fair-share admission weight (default 1.0).
    pub fn with_tenant_weight(mut self, tenant: u32, weight: f64) -> Self {
        self.queue = self.queue.with_tenant_weight(tenant, weight);
        self
    }
}

/// Virtual-time maintenance schedule for drift-aware serving.
///
/// The engine keeps a deterministic virtual clock: every model decode step
/// advances it by `secs_per_decode_step` virtual seconds, so the schedule
/// is a pure function of the served token counts — the same workload
/// produces the same drift/recalibration/rotation timeline at any
/// `NORA_THREADS`, with or without a recorder attached.
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// Virtual seconds each model decode step advances the clock by.
    pub secs_per_decode_step: f64,
    /// Interval between conductance drift re-reads (virtual seconds). The
    /// physics run regardless of mitigation: disabling recalibration and
    /// rotation models an *unmitigated* engine, not a drift-free one.
    pub drift_interval: f64,
    /// Compensation mode applied at each drift re-read.
    /// [`DriftCompensation::None`] (default) leaves mitigation entirely to
    /// the online ladder — `GlobalScale` would assume oracle knowledge of
    /// the programmed state that field hardware does not have.
    pub compensation: DriftCompensation,
    /// Interval between α̂ probe recalibration passes (virtual seconds);
    /// `None` disables online recalibration.
    pub recalibration_interval: Option<f64>,
    /// Virtual latency of one background spare-tile rotation; flagged
    /// tiles keep serving (degraded) until their rotation completes. `None`
    /// disables rotation entirely.
    pub rotation_latency: Option<f64>,
}

impl MaintenanceConfig {
    /// A schedule with the given clock mapping and drift cadence, and all
    /// mitigation (recalibration, rotation) disabled.
    pub fn new(secs_per_decode_step: f64, drift_interval: f64) -> Self {
        Self {
            secs_per_decode_step,
            drift_interval,
            compensation: DriftCompensation::None,
            recalibration_interval: None,
            rotation_latency: None,
        }
    }

    /// Enables periodic α̂ probe recalibration every `interval` virtual
    /// seconds.
    pub fn with_recalibration(mut self, interval: f64) -> Self {
        self.recalibration_interval = Some(interval);
        self
    }

    /// Enables background spare-tile rotation with the given virtual
    /// completion latency.
    pub fn with_rotation(mut self, latency: f64) -> Self {
        self.rotation_latency = Some(latency);
        self
    }

    fn validate(&self) {
        assert!(
            self.secs_per_decode_step > 0.0 && self.secs_per_decode_step.is_finite(),
            "secs_per_decode_step must be positive and finite"
        );
        assert!(
            self.drift_interval > 0.0 && self.drift_interval.is_finite(),
            "drift_interval must be positive and finite"
        );
        if let Some(r) = self.recalibration_interval {
            assert!(r > 0.0 && r.is_finite(), "recalibration_interval must be positive");
        }
        if let Some(l) = self.rotation_latency {
            assert!(l >= 0.0 && l.is_finite(), "rotation_latency must be non-negative");
        }
    }
}

/// Resumable state of the maintenance scheduler: the virtual clock, the
/// next due times, and the in-flight background rotations. Detach it with
/// [`GenerationEngine::take_maintenance_state`] when an engine is dropped
/// mid-horizon (e.g. between workload segments that re-borrow the analog
/// deployment) and hand it to the next engine via
/// [`GenerationEngine::resume_maintenance`] — the schedule then continues
/// as if it were one long serve.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceState {
    now: f64,
    next_drift: f64,
    next_recal: f64,
    /// In-flight background rotations as (tile, completion time), in
    /// schedule order.
    pending: Vec<(TileRef, f64)>,
    started: bool,
}

impl MaintenanceState {
    /// Virtual seconds served so far.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Background rotations currently in flight.
    pub fn pending_rotations(&self) -> usize {
        self.pending.len()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::with_max_batch(8)
    }
}

/// Wall-clock latency breakdown of one completed request.
///
/// Telemetry only: timings vary run to run, while the token outputs stay
/// deterministic.
#[derive(Debug, Clone, Copy)]
pub struct RequestLatency {
    /// Submission → admission into a decode slot.
    pub queue_wait: Duration,
    /// Admission → final token.
    pub service: Duration,
}

impl RequestLatency {
    /// Submission → final token.
    pub fn total(&self) -> Duration {
        self.queue_wait + self.service
    }
}

/// How a request left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestOutcome {
    /// Served to completion: `tokens` holds the full continuation.
    #[default]
    Completed,
    /// Rejected at submission because the admission queue was at its depth
    /// bound (backpressure). No model work was done.
    Shed,
    /// Cancelled while queued, before reaching a decode slot. No model
    /// work was done.
    Cancelled,
}

/// One retired request (completed, shed, or cancelled).
#[derive(Debug, Clone)]
pub struct GenResult {
    /// Engine-assigned request id (submission order, starting at 0).
    pub id: u64,
    /// Prompt followed by the generated continuation (just the prompt for
    /// shed/cancelled requests).
    pub tokens: Vec<usize>,
    /// Length of the prompt prefix of `tokens`.
    pub prompt_len: usize,
    /// Wall-clock latency breakdown.
    pub latency: RequestLatency,
    /// Rows appended to this request's cache: 1 per round plus the refill
    /// length (prefill and sliding-window rebase work). A refill counts
    /// its rows even where it runs as one multi-row pass.
    pub decode_steps: u64,
    /// How the request left the engine.
    pub outcome: RequestOutcome,
}

impl GenResult {
    /// The generated continuation (without the prompt).
    pub fn generated(&self) -> &[usize] {
        &self.tokens[self.prompt_len..]
    }
}

/// Aggregate engine telemetry.
#[derive(Debug, Clone, Copy)]
pub struct EngineReport {
    /// Completed requests.
    pub requests: u64,
    /// Generated (sampled) tokens across completed and in-flight requests.
    pub generated_tokens: u64,
    /// Rows appended to KV caches (decode + prefill + rebase): 1 per slot
    /// per round plus each refill's length, not full-stack steps.
    pub decode_steps: u64,
    /// Batched decode rounds run.
    pub rounds: u64,
    /// Wall-clock time spent inside [`GenerationEngine::step`], including
    /// admission bookkeeping and steps where nothing decoded.
    pub busy: Duration,
    /// Wall-clock time spent in rounds that actually ran model work —
    /// the throughput denominator.
    pub service: Duration,
}

impl EngineReport {
    /// Aggregate generated tokens per second of engine *service* time.
    ///
    /// Service time only counts rounds that ran model work: idle `step`
    /// calls and the admission-queue bookkeeping of requests that never
    /// reached a slot don't dilute the rate.
    pub fn tokens_per_sec(&self) -> f64 {
        let secs = self.service.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.generated_tokens as f64 / secs
        }
    }
}

struct Pending {
    request: GenRequest,
    queued: Stopwatch,
}

struct Slot {
    id: u64,
    tokens: Vec<usize>,
    prompt_len: usize,
    remaining: usize,
    sampling: Sampling,
    rng: Rng,
    /// Request identity component of the analog backend's counter-keyed
    /// noise streams (the request's `seed`).
    noise_seed: u64,
    cache: KvCache,
    /// Next-token logits; empty until the slot's prefill round ran.
    logits: Vec<f32>,
    /// Token sampled this round, awaiting its decode.
    sampled: Option<usize>,
    /// Submission → admission (measured at admit time).
    queue_wait: Duration,
    /// Span running since admission.
    service: Stopwatch,
    /// Admission → first logits, once the prefill round completed.
    prefill: Option<Duration>,
    decode_steps: u64,
}

/// Continuous-batching engine: admits queued requests into up to
/// `max_batch` slots, runs lockstep decode rounds over a shared backend,
/// and retires requests the moment their last token is sampled.
///
/// Each [`GenerationEngine::step`] call performs one round: admit (prefill
/// new slots), sample, retire, decode. Admission runs through the
/// [`AdmissionQueue`] discipline — strict priorities, weighted per-tenant
/// fair scheduling, deadline tiebreaks, optional depth-bound shedding and
/// cancellation — which degenerates to exact FIFO for a single-tenant
/// uniform-priority workload. Token outputs are deterministic — a fixed
/// submission/cancellation sequence yields the same results at any
/// `NORA_THREADS` and any interleaving of `submit` with `step` (admission
/// order is a pure function of the submission sequence, and each slot owns
/// its cache, sampler RNG, and counter-keyed noise identity).
pub struct GenerationEngine<B: Backend> {
    backend: B,
    config: EngineConfig,
    queue: AdmissionQueue<Pending>,
    slots: Vec<Slot>,
    finished: Vec<GenResult>,
    next_id: u64,
    generated_tokens: u64,
    decode_steps: u64,
    rounds: u64,
    busy: Duration,
    service: Duration,
    completed: u64,
    metrics: Metrics,
    recorder: Option<Box<dyn Recorder>>,
    maintenance: Option<MaintenanceState>,
}

impl<B: Backend> GenerationEngine<B> {
    /// An idle engine over `backend`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or the configured window exceeds the
    /// model's `max_seq`.
    pub fn new(backend: B, config: EngineConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        if let Some(w) = config.window {
            let max_seq = backend.model().config().max_seq;
            assert!(
                w >= 1 && w <= max_seq,
                "window must be in 1..=max_seq ({max_seq}), got {w}"
            );
        }
        let maintenance = config.maintenance.as_ref().map(|m| {
            m.validate();
            MaintenanceState::default()
        });
        let queue = AdmissionQueue::new(config.queue.clone());
        Self {
            backend,
            config,
            queue,
            slots: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            generated_tokens: 0,
            decode_steps: 0,
            rounds: 0,
            busy: Duration::ZERO,
            service: Duration::ZERO,
            completed: 0,
            metrics: Metrics::new(),
            recorder: None,
            maintenance,
        }
    }

    /// Virtual seconds served so far under the maintenance clock (0 when
    /// maintenance is off or no round ran yet).
    pub fn virtual_now(&self) -> f64 {
        self.maintenance.as_ref().map_or(0.0, |s| s.now)
    }

    /// Detaches the maintenance scheduler state so a later engine over the
    /// same deployment can continue the virtual timeline (see
    /// [`MaintenanceState`]). Maintenance stops in this engine afterwards.
    pub fn take_maintenance_state(&mut self) -> Option<MaintenanceState> {
        self.maintenance.take()
    }

    /// Resumes a maintenance timeline detached from a previous engine.
    ///
    /// # Panics
    ///
    /// Panics if this engine's config has no maintenance schedule.
    pub fn resume_maintenance(&mut self, state: MaintenanceState) {
        assert!(
            self.config.maintenance.is_some(),
            "resume_maintenance requires a maintenance config"
        );
        self.maintenance = Some(state);
    }

    /// Attaches a streaming [`Recorder`] receiving per-request span events
    /// as requests finish (in the engine's deterministic retirement
    /// order). Token outputs are unaffected: observation draws no RNG and
    /// never reorders work — see the `nora-obs` bit-identity contract.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the streaming recorder, if one was attached.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// The engine's aggregated metrics so far: `serve.*` counters (request
    /// and token totals — deterministic at any `NORA_THREADS`) and latency
    /// histograms (wall-clock telemetry).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Emits the aggregated metrics into `rec` (counters then histograms,
    /// in name order).
    pub fn export_metrics(&self, rec: &mut dyn Recorder) {
        self.metrics.emit(rec);
    }

    /// Enqueues `request` and returns its engine-assigned id.
    ///
    /// When the admission queue is at its configured depth bound the
    /// request is **shed** instead of queued: it retires immediately with
    /// [`RequestOutcome::Shed`] (tokens = prompt, nothing generated) and
    /// the `serve.shed` counter increments.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or contains out-of-vocab tokens.
    pub fn submit(&mut self, request: GenRequest) -> u64 {
        assert!(!request.prompt.is_empty(), "empty prompt");
        let vocab = self.backend.model().config().vocab;
        assert!(
            request.prompt.iter().all(|&t| t < vocab),
            "prompt token out of vocab ({vocab})"
        );
        let id = self.next_id;
        self.next_id += 1;
        let pending = Pending {
            request,
            queued: Stopwatch::start(),
        };
        let (tenant, priority, deadline, cost) = (
            pending.request.tenant,
            pending.request.priority,
            pending.request.deadline,
            pending.request.max_new_tokens as u64,
        );
        if let Err(shed) = self.queue.push(id, tenant, priority, deadline, cost, pending) {
            self.metrics.add("serve.shed", 1);
            self.retire_unserved(id, shed, RequestOutcome::Shed);
        }
        id
    }

    /// Cancels a queued request by id. Returns `true` if the request was
    /// still pending: it retires with [`RequestOutcome::Cancelled`] and the
    /// `serve.cancelled` counter increments. Requests already decoding (or
    /// already retired) are not interrupted and return `false`.
    pub fn cancel(&mut self, id: u64) -> bool {
        let Some(pending) = self.queue.cancel(id) else {
            return false;
        };
        self.metrics.add("serve.cancelled", 1);
        self.retire_unserved(id, pending, RequestOutcome::Cancelled);
        true
    }

    /// Retires a request that never reached a decode slot (shed at submit
    /// or cancelled while queued).
    fn retire_unserved(&mut self, id: u64, pending: Pending, outcome: RequestOutcome) {
        let prompt_len = pending.request.prompt.len();
        self.finished.push(GenResult {
            id,
            tokens: pending.request.prompt,
            prompt_len,
            latency: RequestLatency {
                queue_wait: pending.queued.elapsed(),
                service: Duration::ZERO,
            },
            decode_steps: 0,
            outcome,
        });
    }

    /// Requests admitted or queued but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.slots.len() + self.queue.len()
    }

    /// One admit → sample → retire → decode round. Returns `true` if any
    /// work remains in flight afterwards.
    pub fn step(&mut self) -> bool {
        let round_start = Stopwatch::start();
        self.admit();
        let service_start = Stopwatch::start();

        // Sample one token for every slot whose logits are ready, then
        // retire the requests that just produced their final token (their
        // slot frees up for the next round's admissions).
        for slot in &mut self.slots {
            if slot.logits.is_empty() {
                continue; // freshly admitted: prefill happens this round
            }
            let next = sample_logits(&slot.logits, slot.sampling, &mut slot.rng);
            slot.tokens.push(next);
            slot.remaining -= 1;
            slot.sampled = Some(next);
            self.generated_tokens += 1;
        }
        let mut i = 0;
        while i < self.slots.len() {
            if self.slots[i].remaining == 0 {
                let slot = self.slots.remove(i);
                self.finish(slot);
            } else {
                i += 1;
            }
        }

        // Decode round: freshly admitted slots prefill (refill from an
        // empty cache), slots whose window is full rebase onto the
        // truncated context — both through the same refill mechanism, so
        // every sequence follows generate_digital_cached exactly.
        let window = self
            .config
            .window
            .unwrap_or(self.backend.model().config().max_seq);
        let mut steps: Vec<SlotStep<'_>> = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            let len = slot.tokens.len();
            let (token, refill) = if slot.logits.is_empty() {
                let start = len.saturating_sub(window);
                (slot.tokens[len - 1], Some(&slot.tokens[start..len - 1]))
            } else {
                let token = slot.sampled.take().expect("sampled token");
                let refill = if slot.cache.has_capacity() {
                    None
                } else {
                    Some(&slot.tokens[len - window..len - 1])
                };
                (token, refill)
            };
            steps.push(SlotStep {
                token,
                refill,
                cache: &mut slot.cache,
                logits: Vec::new(),
                decoded: 0,
                noise_seed: slot.noise_seed,
                // Cumulative decode steps before this round: the request's
                // position counter, independent of batch composition.
                pos0: slot.decode_steps,
            });
        }
        let ran_round = !steps.is_empty();
        if ran_round {
            self.backend.run_round(&mut steps);
            self.rounds += 1;
        }
        let outcomes: Vec<(Vec<f32>, u64)> =
            steps.into_iter().map(|s| (s.logits, s.decoded)).collect();
        let mut round_decoded = 0u64;
        for (slot, (logits, decoded)) in self.slots.iter_mut().zip(outcomes) {
            debug_assert!(!logits.is_empty(), "backend must fill logits");
            slot.logits = logits;
            slot.decode_steps += decoded;
            self.decode_steps += decoded;
            round_decoded += decoded;
            if slot.prefill.is_none() {
                // This round produced the slot's first logits.
                let prefill = slot.service.elapsed();
                slot.prefill = Some(prefill);
                self.metrics.observe(
                    "serve.prefill_secs",
                    edges::LATENCY_SECS,
                    prefill.as_secs_f64(),
                );
            }
        }
        if ran_round {
            // Maintenance runs between decode rounds on the same hardware,
            // so its cost lands inside the service window — the tokens/sec
            // curve honestly reflects recalibration and rotation overhead.
            self.run_maintenance(round_decoded);
            // Only rounds that ran model work count towards service time
            // (and so towards the tokens/sec denominator).
            let service = service_start.elapsed();
            self.service += service;
            self.metrics.add("serve.rounds", 1);
            self.metrics
                .observe("serve.round_secs", edges::LATENCY_SECS, service.as_secs_f64());
        }

        self.busy += round_start.elapsed();
        !self.slots.is_empty() || !self.queue.is_empty()
    }

    /// Runs rounds until every submitted request completed, then returns
    /// all accumulated results in submission order.
    pub fn run_to_completion(&mut self) -> Vec<GenResult> {
        while self.step() {}
        self.take_results()
    }

    /// Drains completed requests accumulated so far, in submission order.
    pub fn take_results(&mut self) -> Vec<GenResult> {
        let mut results = std::mem::take(&mut self.finished);
        results.sort_by_key(|r| r.id);
        results
    }

    /// Aggregate telemetry snapshot.
    pub fn report(&self) -> EngineReport {
        EngineReport {
            requests: self.completed,
            generated_tokens: self.generated_tokens,
            decode_steps: self.decode_steps,
            rounds: self.rounds,
            busy: self.busy,
            service: self.service,
        }
    }

    fn admit(&mut self) {
        while self.slots.len() < self.config.max_batch {
            let Some((id, pending)) = self.queue.pop() else {
                break;
            };
            let Pending { request, queued } = pending;
            let queue_wait = queued.elapsed();
            self.metrics.observe(
                &format!("serve.tenant.{}.queue_wait_secs", request.tenant),
                edges::LATENCY_SECS,
                queue_wait.as_secs_f64(),
            );
            if request.max_new_tokens == 0 {
                let prompt_len = request.prompt.len();
                let latency = RequestLatency {
                    queue_wait,
                    service: Duration::ZERO,
                };
                self.record_finish(&latency, 0, 0);
                self.finished.push(GenResult {
                    id,
                    tokens: request.prompt,
                    prompt_len,
                    latency,
                    decode_steps: 0,
                    outcome: RequestOutcome::Completed,
                });
                self.completed += 1;
                continue;
            }
            let cache = match self.config.window {
                Some(w) => KvCache::with_capacity(self.backend.model(), w),
                None => KvCache::new(self.backend.model()),
            };
            self.slots.push(Slot {
                id,
                prompt_len: request.prompt.len(),
                tokens: request.prompt,
                remaining: request.max_new_tokens,
                sampling: request.sampling,
                rng: Rng::seed_from(request.seed),
                noise_seed: request.seed,
                cache,
                logits: Vec::new(),
                sampled: None,
                queue_wait,
                service: Stopwatch::start(),
                prefill: None,
                decode_steps: 0,
            });
        }
    }

    fn finish(&mut self, slot: Slot) {
        let latency = RequestLatency {
            queue_wait: slot.queue_wait,
            service: slot.service.elapsed(),
        };
        let generated = (slot.tokens.len() - slot.prompt_len) as u64;
        self.record_finish(&latency, generated, slot.decode_steps);
        if let Some(prefill) = slot.prefill {
            let decode = latency.service.saturating_sub(prefill);
            self.metrics
                .observe("serve.decode_secs", edges::LATENCY_SECS, decode.as_secs_f64());
        }
        self.finished.push(GenResult {
            id: slot.id,
            tokens: slot.tokens,
            prompt_len: slot.prompt_len,
            latency,
            decode_steps: slot.decode_steps,
            outcome: RequestOutcome::Completed,
        });
        self.completed += 1;
    }

    /// One maintenance pass after a decode round: advance the virtual
    /// clock by the round's decode steps, then run whatever the schedule
    /// made due, in a fixed order — drift physics, rotation completions,
    /// recalibration, new rotation scheduling. Everything here is a pure
    /// function of token counts and deterministic tile state, so the
    /// timeline is bit-identical at any `NORA_THREADS` and unaffected by
    /// an attached recorder.
    fn run_maintenance(&mut self, round_decoded: u64) {
        let Some(mcfg) = self.config.maintenance else {
            return;
        };
        let Some(state) = self.maintenance.as_mut() else {
            return;
        };
        if !state.started {
            state.started = true;
            state.next_drift = mcfg.drift_interval;
            state.next_recal = mcfg.recalibration_interval.unwrap_or(f64::INFINITY);
            self.backend.begin_maintenance();
        }
        state.now += round_decoded as f64 * mcfg.secs_per_decode_step;

        // Drift physics: one catch-up re-read at the current clock when a
        // step (or several) became due — the tile state depends on absolute
        // time, not on the number of intermediate reads.
        if state.now >= state.next_drift {
            self.backend.drift_to(state.now, mcfg.compensation);
            self.metrics.add("serve.maint.drift_steps", 1);
            while state.next_drift <= state.now {
                state.next_drift += mcfg.drift_interval;
            }
        }

        // Background rotations whose virtual latency elapsed complete now,
        // in schedule order.
        let mut i = 0;
        while i < state.pending.len() {
            if state.pending[i].1 <= state.now {
                let (tile, _) = state.pending.remove(i);
                let restored = self.backend.rotate_tile(tile, state.now);
                self.metrics.add("serve.maint.rotations", 1);
                if !restored {
                    self.metrics.add("serve.maint.rotation_fallbacks", 1);
                }
            } else {
                i += 1;
            }
        }

        // Periodic α̂ probe recalibration.
        if state.now >= state.next_recal {
            let layers = self.backend.recalibrate();
            self.metrics.add("serve.maint.recalibrations", 1);
            self.metrics.add("serve.maint.recalibrated_layers", layers as u64);
            while state.next_recal <= state.now {
                state.next_recal += mcfg
                    .recalibration_interval
                    .expect("recalibration was scheduled");
            }
        }

        // Newly flagged tiles enter the rotation queue (when rotation is
        // enabled); a tile already awaiting rotation is not re-queued.
        let suspects = self.backend.suspect_tiles();
        if let Some(latency) = mcfg.rotation_latency {
            for tile in &suspects {
                if !state.pending.iter().any(|(t, _)| t == tile) {
                    state.pending.push((*tile, state.now + latency));
                    self.metrics.add("serve.maint.rotations_scheduled", 1);
                }
            }
        }

        // Degraded-mode accounting: this round was served while flagged
        // tiles were still in the batch (awaiting rotation, or unmitigated).
        if !state.pending.is_empty() || !suspects.is_empty() {
            self.metrics.add("serve.maint.degraded_rounds", 1);
        }
    }

    /// Aggregates one retirement into the engine metrics and streams the
    /// request's spans to the attached recorder, if any.
    fn record_finish(&mut self, latency: &RequestLatency, generated: u64, decode_steps: u64) {
        self.metrics.add("serve.requests", 1);
        self.metrics.add("serve.generated_tokens", generated);
        self.metrics.observe(
            "serve.queue_wait_secs",
            edges::LATENCY_SECS,
            latency.queue_wait.as_secs_f64(),
        );
        self.metrics.observe(
            "serve.service_secs",
            edges::LATENCY_SECS,
            latency.service.as_secs_f64(),
        );
        self.metrics
            .observe("serve.decode_steps", edges::COUNT, decode_steps as f64);
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.span(
                "serve.request.queue_wait",
                latency.queue_wait.as_nanos() as u64,
            );
            rec.span("serve.request.service", latency.service.as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DigitalBackend;
    use nora_nn::generate::generate_digital_cached;
    use nora_nn::{ModelConfig, TransformerLm};

    fn model() -> TransformerLm {
        TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(1))
    }

    #[test]
    fn batch_of_one_matches_generate_digital_cached() {
        let m = model();
        for sampling in [Sampling::Greedy, Sampling::Temperature(1.1)] {
            let reference = generate_digital_cached(
                &m,
                &[2, 7, 1],
                24, // runs past max_seq 16: exercises the sliding window
                sampling,
                &mut Rng::seed_from(9),
            );
            let mut engine =
                GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::with_max_batch(1));
            engine.submit(
                GenRequest::new(vec![2, 7, 1], 24)
                    .with_sampling(sampling)
                    .with_seed(9),
            );
            let results = engine.run_to_completion();
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].tokens, reference, "{sampling:?}");
        }
    }

    #[test]
    fn batched_requests_match_their_solo_runs() {
        // Continuous batching must not leak state between sequences: each
        // request's output equals its own single-request run.
        let m = model();
        let prompts: Vec<Vec<usize>> = (0..10)
            .map(|i| vec![(i * 3 + 1) % 16, (i * 5 + 2) % 16])
            .collect();
        let mut engine =
            GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::with_max_batch(4));
        for (i, p) in prompts.iter().enumerate() {
            engine.submit(
                GenRequest::new(p.clone(), 6 + i % 5)
                    .with_sampling(Sampling::Temperature(1.4))
                    .with_seed(100 + i as u64),
            );
        }
        let results = engine.run_to_completion();
        assert_eq!(results.len(), prompts.len());
        for (i, r) in results.iter().enumerate() {
            let solo = generate_digital_cached(
                &m,
                &prompts[i],
                6 + i % 5,
                Sampling::Temperature(1.4),
                &mut Rng::seed_from(100 + i as u64),
            );
            assert_eq!(r.tokens, solo, "request {i}");
            assert_eq!(r.prompt_len, prompts[i].len());
            assert_eq!(r.generated().len(), 6 + i % 5);
        }
    }

    #[test]
    fn queueing_past_max_batch_is_fifo_and_complete() {
        let m = model();
        let mut engine =
            GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::with_max_batch(2));
        let ids: Vec<u64> = (0..7)
            .map(|i| engine.submit(GenRequest::new(vec![1 + i % 4], 3)))
            .collect();
        assert_eq!(engine.in_flight(), 7);
        let results = engine.run_to_completion();
        assert_eq!(results.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
        assert_eq!(engine.in_flight(), 0);
        let report = engine.report();
        assert_eq!(report.requests, 7);
        assert_eq!(report.generated_tokens, 7 * 3);
        assert!(report.decode_steps >= report.generated_tokens);
    }

    #[test]
    fn mid_flight_submission_is_served() {
        let m = model();
        let mut engine =
            GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::default());
        engine.submit(GenRequest::new(vec![3, 1], 8));
        engine.step();
        engine.step();
        engine.submit(GenRequest::new(vec![5], 2));
        let results = engine.run_to_completion();
        assert_eq!(results.len(), 2);
        let solo = generate_digital_cached(&m, &[5], 2, Sampling::Greedy, &mut Rng::seed_from(0));
        assert_eq!(results[1].tokens, solo);
    }

    #[test]
    fn zero_token_request_completes_immediately() {
        let m = model();
        let mut engine =
            GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::default());
        engine.submit(GenRequest::new(vec![4, 2], 0));
        let results = engine.run_to_completion();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].tokens, vec![4, 2]);
        assert!(results[0].generated().is_empty());
    }

    #[test]
    fn short_window_engine_stays_consistent() {
        // A window below max_seq still serves without panicking and stays
        // deterministic across identical runs.
        let m = model();
        let run = || {
            let mut engine = GenerationEngine::new(
                DigitalBackend::new(&m),
                EngineConfig::with_max_batch(3).with_window(5),
            );
            for i in 0..5 {
                engine.submit(GenRequest::new(vec![1 + i, 2], 12));
            }
            engine
                .run_to_completion()
                .into_iter()
                .map(|r| r.tokens)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tokens_per_sec_counts_service_time_only() {
        // max_batch = 1 with 3 queued requests: while request 0 decodes,
        // requests 1 and 2 sit in the admission queue. Their queue-wait —
        // and any idle `step` call — must not dilute the throughput
        // denominator.
        let m = model();
        let mut engine =
            GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::with_max_batch(1));
        for i in 0..3 {
            engine.submit(GenRequest::new(vec![1 + i], 5));
        }
        let results = engine.run_to_completion();
        assert_eq!(results.len(), 3);
        let report = engine.report();
        assert!(report.service <= report.busy);
        assert!(report.service > Duration::ZERO);
        let tps = report.tokens_per_sec();
        assert!(tps > 0.0);
        assert!(
            (tps - report.generated_tokens as f64 / report.service.as_secs_f64()).abs() < 1e-9
        );
        // Regression: idle steps used to grow `busy` (the old denominator),
        // shrinking the reported rate with every drained-engine poll.
        for _ in 0..64 {
            engine.step();
        }
        let after = engine.report();
        assert!(after.busy > report.busy, "idle steps still accrue busy");
        assert_eq!(after.service, report.service);
        assert_eq!(after.tokens_per_sec(), tps);
    }

    /// A clonable handle to a shared in-memory recorder, so the test can
    /// inspect what the engine streamed after handing ownership over.
    #[derive(Default, Clone)]
    struct SharedRecorder(std::rc::Rc<std::cell::RefCell<nora_obs::MemoryRecorder>>);

    impl Recorder for SharedRecorder {
        fn span(&mut self, name: &str, nanos: u64) {
            self.0.borrow_mut().span(name, nanos);
        }
    }

    #[test]
    fn metrics_aggregate_requests_and_latency_spans() {
        let m = model();
        let mut engine =
            GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::with_max_batch(2));
        let shared = SharedRecorder::default();
        engine.set_recorder(Box::new(shared.clone()));
        engine.submit(GenRequest::new(vec![1, 2], 4));
        engine.submit(GenRequest::new(vec![3], 6));
        engine.submit(GenRequest::new(vec![4], 0)); // completes at admit
        engine.run_to_completion();
        let metrics = engine.metrics();
        assert_eq!(metrics.counter("serve.requests"), 3);
        assert_eq!(metrics.counter("serve.generated_tokens"), 10);
        assert!(metrics.counter("serve.rounds") >= 6);
        assert_eq!(metrics.histogram("serve.queue_wait_secs").unwrap().count(), 3);
        assert_eq!(metrics.histogram("serve.service_secs").unwrap().count(), 3);
        // Only the two decoding requests have a prefill/decode split.
        assert_eq!(metrics.histogram("serve.prefill_secs").unwrap().count(), 2);
        assert_eq!(metrics.histogram("serve.decode_secs").unwrap().count(), 2);
        assert!(engine.take_recorder().is_some());
        let mem = shared.0.borrow();
        // Two spans (queue_wait + service) per finished request.
        assert_eq!(mem.spans.len(), 6);
        assert!(mem.spans.iter().any(|(n, _)| n == "serve.request.service"));
    }

    #[test]
    fn maintenance_clock_tracks_decode_steps() {
        // The virtual clock is a pure function of decode work: on a digital
        // backend (maintenance hooks are no-ops) it still advances by
        // decode_steps × secs_per_decode_step, and detach/resume continues
        // the timeline instead of restarting it.
        let m = model();
        let mcfg = MaintenanceConfig::new(250.0, 1000.0);
        let mut engine = GenerationEngine::new(
            DigitalBackend::new(&m),
            EngineConfig::with_max_batch(2).with_maintenance(mcfg),
        );
        engine.submit(GenRequest::new(vec![1, 2, 3], 6));
        engine.submit(GenRequest::new(vec![4], 9));
        engine.run_to_completion();
        let report = engine.report();
        let expected = report.decode_steps as f64 * 250.0;
        assert!((engine.virtual_now() - expected).abs() < 1e-6 * expected.max(1.0));
        let state = engine.take_maintenance_state().expect("maintenance on");
        assert_eq!(state.pending_rotations(), 0);
        let mut next = GenerationEngine::new(
            DigitalBackend::new(&m),
            EngineConfig::with_max_batch(2).with_maintenance(mcfg),
        );
        next.resume_maintenance(state);
        next.submit(GenRequest::new(vec![2], 4));
        next.run_to_completion();
        assert!(next.virtual_now() > expected);
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn empty_prompt_rejected_at_submit() {
        let m = model();
        let mut engine =
            GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::default());
        engine.submit(GenRequest::new(vec![], 4));
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn out_of_vocab_prompt_rejected_at_submit() {
        let m = model();
        let mut engine =
            GenerationEngine::new(DigitalBackend::new(&m), EngineConfig::default());
        engine.submit(GenRequest::new(vec![999], 4));
    }
}

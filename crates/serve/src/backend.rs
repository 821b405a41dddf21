//! Decode backends: how one batched round of per-sequence steps executes.

use nora_cim::{DriftCompensation, TileEffect};
use nora_nn::deploy::{AnalogTransformerLm, DecodeCtx};
use nora_nn::{KvCache, LinearId, TransformerLm};

/// Handle naming one analog tile slot for maintenance operations: the
/// owning linear layer and the slot's grid index within it.
pub type TileRef = (LinearId, usize);

/// One sequence's work item for a batched decode round.
///
/// `refill` (when present) rebases the cache before the step: the cache is
/// reset and the listed tokens are re-decoded so that `token` executes
/// against exactly that truncated context. This is how both prompt prefill
/// and sliding-window eviction are expressed — admission refills with the
/// prompt head, a full cache refills with the last `window − 1` context
/// tokens, matching [`nora_nn::generate::generate_digital_cached`]. The
/// digital backend decodes the refill and `token` in one
/// [`TransformerLm::decode_rows`] pass; the analog backend decodes them one
/// keyed step at a time.
pub struct SlotStep<'a> {
    /// Token to decode last; its logits are the step's output.
    pub token: usize,
    /// Context to re-decode from a reset cache before `token`, if any.
    pub refill: Option<&'a [usize]>,
    /// The sequence's private KV cache.
    pub cache: &'a mut KvCache,
    /// Next-token logits, filled in by the backend.
    pub logits: Vec<f32>,
    /// Rows appended to the cache for this item (1 + refill length), filled
    /// in by the backend, whether they ran as one pass or one step each;
    /// feeds per-request accounting and the drift clock.
    pub decoded: u64,
    /// Request identity component of the counter-keyed noise streams
    /// (the request's sampling seed). Ignored by the digital backend.
    pub noise_seed: u64,
    /// The request's cumulative decode-step counter before this round
    /// (prefill and rebase refills included): refill token `i` decodes at
    /// position `pos0 + i`, `token` at `pos0 + refill_len`. Ignored by the
    /// digital backend.
    pub pos0: u64,
}

impl SlotStep<'_> {
    fn run_digital(&mut self, model: &TransformerLm) {
        self.logits = match self.refill {
            Some(context) => {
                self.cache.reset();
                let rows: Vec<usize> = context.iter().copied().chain([self.token]).collect();
                model.decode_rows(&rows, self.cache)
            }
            None => model.decode_step(self.token, self.cache),
        };
        self.decoded = 1 + self.refill.map_or(0, <[usize]>::len) as u64;
    }

    /// Analog variant of `run_digital` against a *shared* deployment:
    /// every decode step derives its noise streams from
    /// `(deployment, tile, noise_seed, position)`, so concurrent slots
    /// never contend on RNG state. Deferred tile effects are returned for
    /// the caller to absorb in slot order.
    fn run_analog_keyed(
        &mut self,
        analog: &AnalogTransformerLm,
        ctx: &mut DecodeCtx,
    ) -> Vec<(LinearId, TileEffect)> {
        let mut effects = Vec::new();
        let mut decoded = 0u64;
        let mut pos = self.pos0;
        if let Some(context) = self.refill {
            self.cache.reset();
            for &t in context {
                analog.decode_step_keyed(t, self.cache, self.noise_seed, pos, ctx, &mut effects);
                decoded += 1;
                pos += 1;
            }
        }
        self.logits =
            analog.decode_step_keyed(self.token, self.cache, self.noise_seed, pos, ctx, &mut effects);
        self.decoded = decoded + 1;
        effects
    }
}

/// Executes batched decode rounds against a shared model deployment.
pub trait Backend {
    /// The digital architecture being served (used by the engine to size
    /// KV caches and validate tokens).
    fn model(&self) -> &TransformerLm;

    /// Runs every step of one round, filling each item's `logits` and
    /// `decoded`. Implementations must be deterministic in slot order:
    /// identical inputs produce identical outputs at any thread count.
    fn run_round(&mut self, steps: &mut [SlotStep<'_>]);

    /// Prepares the deployment for drift-aware serving: switches tile
    /// recovery to deferred mode (flags are recorded, the batch is never
    /// blocked by an inline ladder) and captures the recalibration probe
    /// references. Called once by the engine's maintenance scheduler before
    /// the first maintained round. Default no-op — digital backends have no
    /// conductances to maintain.
    fn begin_maintenance(&mut self) {}

    /// Advances conductance drift to virtual time `now_seconds`. Default
    /// no-op.
    fn drift_to(&mut self, _now_seconds: f64, _compensation: DriftCompensation) {}

    /// Runs one α̂ probe recalibration pass; returns the number of layers
    /// that produced an estimate. Default 0.
    fn recalibrate(&mut self) -> usize {
        0
    }

    /// Tile slots currently flagged Suspect, in deterministic (layer, grid)
    /// order. Default empty.
    fn suspect_tiles(&mut self) -> Vec<TileRef> {
        Vec::new()
    }

    /// Completes a background rotation of `tile` at virtual time
    /// `now_seconds`; returns `true` iff the slot is served by a healthy
    /// analog tile afterwards. Default `false`.
    fn rotate_tile(&mut self, _tile: TileRef, _now_seconds: f64) -> bool {
        false
    }
}

/// FP32 digital backend: steps are independent pure functions of the shared
/// `&TransformerLm`, so the round fans out across [`nora_parallel`] workers.
/// Results land in slot order whatever the schedule, keeping the workspace
/// bit-identity contract (same outputs at any `NORA_THREADS`).
pub struct DigitalBackend<'m> {
    model: &'m TransformerLm,
}

impl<'m> DigitalBackend<'m> {
    /// A backend serving `model`.
    pub fn new(model: &'m TransformerLm) -> Self {
        Self { model }
    }
}

impl Backend for DigitalBackend<'_> {
    fn model(&self) -> &TransformerLm {
        self.model
    }

    fn run_round(&mut self, steps: &mut [SlotStep<'_>]) {
        let model = self.model;
        nora_parallel::map_slice_mut(steps, |_, step| step.run_digital(model));
    }
}

/// Analog backend over a tile deployment.
///
/// Slot steps are independent pure functions of the shared
/// `&AnalogTransformerLm`: every noise draw sequence is a pure function of
/// `(deployment seed, tile grid coordinates, request seed, decode
/// position)`, so a request's noise is independent of admission order,
/// batch composition and thread count. The round therefore fans out across
/// [`nora_parallel`] workers with one scratch arena per slot, and the
/// deferred tile effects (statistics, ABFT flags) are absorbed serially in
/// (slot, traversal) order afterwards, keeping the nora-obs transparency
/// contract.
pub struct AnalogBackend<'m> {
    analog: &'m mut AnalogTransformerLm,
    /// Per-slot scratch arenas for keyed rounds, grown to the widest round
    /// seen and reused across rounds.
    arenas: Vec<DecodeCtx>,
}

impl<'m> AnalogBackend<'m> {
    /// A backend serving the analog deployment `analog`.
    pub fn new(analog: &'m mut AnalogTransformerLm) -> Self {
        Self {
            analog,
            arenas: Vec::new(),
        }
    }
}

impl Backend for AnalogBackend<'_> {
    fn model(&self) -> &TransformerLm {
        self.analog.digital_model()
    }

    fn run_round(&mut self, steps: &mut [SlotStep<'_>]) {
        if self.arenas.len() < steps.len() {
            self.arenas.resize_with(steps.len(), DecodeCtx::default);
        }
        let analog = &*self.analog;
        // Fan the slots out; zipping each with its own arena keeps the
        // parallel closure free of shared mutable state.
        let mut work: Vec<(&mut SlotStep<'_>, &mut DecodeCtx)> =
            steps.iter_mut().zip(self.arenas.iter_mut()).collect();
        let effects = nora_parallel::map_slice_mut(&mut work, |_, (step, ctx)| {
            step.run_analog_keyed(analog, ctx)
        });
        // Deferred tile effects replay serially in (slot, traversal) order
        // — deterministic at any thread count.
        for slot_effects in &effects {
            self.analog.absorb_effects(slot_effects);
        }
    }

    fn begin_maintenance(&mut self) {
        self.analog.set_deferred_recovery(true);
        self.analog.capture_probe_references();
    }

    fn drift_to(&mut self, now_seconds: f64, compensation: DriftCompensation) {
        self.analog.drift_to(now_seconds, compensation);
    }

    fn recalibrate(&mut self) -> usize {
        self.analog.recalibrate().len()
    }

    fn suspect_tiles(&mut self) -> Vec<TileRef> {
        self.analog.suspect_tiles()
    }

    fn rotate_tile(&mut self, (id, idx): TileRef, now_seconds: f64) -> bool {
        self.analog.rotate_tile(id, idx, now_seconds)
    }
}

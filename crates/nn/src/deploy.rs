//! Hybrid analog/digital deployment of a transformer LM.
//!
//! Mirrors the paper's Fig. 2 mapping: the six linears of every block run on
//! analog CIM tiles ([`nora_cim::AnalogLinear`]), while LayerNorm, the
//! attention core (scores/softmax), residuals, embeddings and the LM head
//! stay digital at full precision ("Normalization, activation functions,
//! and self-attention are executed on digital units with full precision",
//! paper §V).
//!
//! A per-layer smoothing map (produced by `nora-core`) turns a naive
//! deployment into a NORA deployment.

use crate::model::{KvCache, LinearId, TransformerLm};
use nora_cim::{
    AnalogLinear, CimError, DriftCompensation, ForwardStats, KeyedCtx, TileConfig, TileEffect,
    TileEvent, TileHealth,
};
use nora_tensor::Matrix;
use std::collections::{BTreeMap, HashMap};

/// Per-layer NORA smoothing vectors keyed by linear id.
///
/// Layers absent from the map deploy naively (`s = 1`).
pub type SmoothingMap = HashMap<LinearId, Vec<f32>>;

/// Per-slot scratch arena for [`AnalogTransformerLm::decode_step_keyed`]:
/// the tile-level conversion scratch plus the per-layer effect sink. One
/// per concurrent serving slot, reused across layers and decode steps.
#[derive(Debug, Clone, Default)]
pub struct DecodeCtx {
    cim: KeyedCtx,
    fx: Vec<TileEffect>,
}

/// A transformer LM whose linears execute on simulated analog CIM tiles.
///
/// # Example
///
/// ```
/// use nora_nn::{ModelConfig, TransformerLm};
/// use nora_nn::deploy::AnalogTransformerLm;
/// use nora_cim::TileConfig;
/// use nora_tensor::rng::Rng;
///
/// let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(0));
/// let mut analog = AnalogTransformerLm::new(&model, TileConfig::ideal(), &Default::default(), 1);
/// let digital = model.forward(&[1, 2, 3]);
/// let noisy = analog.forward(&[1, 2, 3]);
/// assert!(noisy.mse(&digital) < 1e-9); // ideal tiles ⇒ exact
/// ```
#[derive(Debug, Clone)]
pub struct AnalogTransformerLm {
    model: TransformerLm,
    /// The analog layers in [`LinearId`] (forward) order, so every walk
    /// over them, and every float sum it merges, runs in one order.
    analog: BTreeMap<LinearId, AnalogLinear>,
    degraded: Vec<(LinearId, CimError)>,
}

impl AnalogTransformerLm {
    /// Deploys `model` onto analog tiles with the given tile configuration
    /// and smoothing map.
    ///
    /// The digital parts of the model are cloned; the analog linears are
    /// programmed once at construction (weights × smoothing → conductances).
    ///
    /// Deployment degrades rather than aborts: a linear whose tiles cannot
    /// be programmed (e.g. unrecoverable [`nora_cim::FaultPlan`]
    /// programming failures) is left on the exact digital path and recorded
    /// in [`AnalogTransformerLm::degraded_layers`]. Use
    /// [`AnalogTransformerLm::try_new`] for strict all-or-nothing semantics.
    pub fn new(
        model: &TransformerLm,
        config: TileConfig,
        smoothing: &SmoothingMap,
        seed: u64,
    ) -> Self {
        Self::with_layer_filter(model, config, smoothing, seed, |_| true)
    }

    /// Strict variant of [`AnalogTransformerLm::new`]: returns the first
    /// per-layer construction error instead of degrading that layer to
    /// digital execution.
    ///
    /// # Errors
    ///
    /// Returns the [`CimError`] of the first linear that failed to deploy.
    pub fn try_new(
        model: &TransformerLm,
        config: TileConfig,
        smoothing: &SmoothingMap,
        seed: u64,
    ) -> Result<Self, CimError> {
        Self::deploy(model, config, smoothing, seed, |_| true, true)
    }

    /// Like [`AnalogTransformerLm::new`], but maps only the linears for
    /// which `filter` returns `true` onto analog tiles; the rest execute
    /// digitally at full precision. Used by the per-layer sensitivity study
    /// (paper §VII: "per-layer evaluation").
    pub fn with_layer_filter(
        model: &TransformerLm,
        config: TileConfig,
        smoothing: &SmoothingMap,
        seed: u64,
        filter: impl Fn(LinearId) -> bool,
    ) -> Self {
        match Self::deploy(model, config, smoothing, seed, filter, false) {
            Ok(deployed) => deployed,
            Err(err) => panic!("{err}"),
        }
    }

    /// Shared deployment loop. Every selected linear is programmed in one
    /// [`AnalogLinear::try_with_smoothing_batch`] (whole layers in parallel,
    /// each on its own layer seed), and the results are taken in id order.
    /// In lenient mode (`strict = false`), a layer whose physical tiles
    /// cannot be programmed degrades to the digital path with the failure
    /// recorded; *configuration* errors (invalid tile config, mismatched
    /// smoothing, empty weights) still surface, because they indicate
    /// caller bugs rather than hardware faults.
    fn deploy(
        model: &TransformerLm,
        config: TileConfig,
        smoothing: &SmoothingMap,
        seed: u64,
        filter: impl Fn(LinearId) -> bool,
        strict: bool,
    ) -> Result<Self, CimError> {
        let mut ids = model.linear_ids();
        ids.retain(|&id| filter(id));
        let layers = ids
            .iter()
            .map(|&id| {
                let lin = model.linear(id);
                let weights = lin.weight.value.clone();
                let bias = lin.bias.value.row(0).to_vec();
                let s = smoothing.get(&id).map(|v| v.as_slice());
                let layer_seed = seed ^ ((id.block as u64 + 1) << 20) ^ ((id.kind as u64 + 1) << 8);
                (weights, Some(bias), s, layer_seed)
            })
            .collect();
        let programmed = AnalogLinear::try_with_smoothing_batch(layers, &config);
        let mut analog = BTreeMap::new();
        let mut degraded = Vec::new();
        for (id, result) in ids.into_iter().zip(programmed) {
            match result {
                Ok(layer) => {
                    analog.insert(id, layer);
                }
                Err(err) if !strict && matches!(err, CimError::ProgrammingFailed { .. }) => {
                    // Graceful degradation: the layer stays on the exact
                    // digital path (forward already falls back for unmapped
                    // ids) and the failure is recorded instead of aborting.
                    degraded.push((id, err));
                }
                Err(err) => return Err(err),
            }
        }
        Ok(Self {
            model: model.clone(),
            analog,
            degraded,
        })
    }

    /// Number of linears actually mapped to analog tiles.
    pub fn analog_layer_count(&self) -> usize {
        self.analog.len()
    }

    /// Linears that could not be programmed at deployment and run digitally
    /// instead, with the error that condemned them (construction order).
    pub fn degraded_layers(&self) -> &[(LinearId, CimError)] {
        &self.degraded
    }

    /// All tile degradation events recorded so far across the analog
    /// layers (checksum flags, re-programmings, remaps, fallbacks), sorted
    /// by (block, kind) and within a layer in occurrence order.
    pub fn fault_events(&self) -> Vec<(LinearId, TileEvent)> {
        self.analog
            .iter()
            .flat_map(|(&id, layer)| layer.events().iter().map(move |&event| (id, event)))
            .collect()
    }

    /// Tile health trackers of every analog layer, keyed by linear id and
    /// listed in the layer's grid order.
    pub fn tile_health(&self) -> Vec<(LinearId, Vec<TileHealth>)> {
        self.analog
            .iter()
            .map(|(&id, layer)| (id, layer.tile_health()))
            .collect()
    }

    /// Spare physical tiles consumed by remapping, summed over layers.
    pub fn spares_used(&self) -> u32 {
        self.analog.values().map(AnalogLinear::spares_used).sum()
    }

    /// Tile slots currently served by exact digital fallback, summed over
    /// layers (deployment-degraded layers from
    /// [`AnalogTransformerLm::degraded_layers`] are *not* counted — they
    /// have no tiles at all).
    pub fn digital_fallback_count(&self) -> usize {
        self.analog
            .values()
            .map(AnalogLinear::digital_fallback_count)
            .sum()
    }

    /// The underlying digital model (used for the digital sub-operations).
    pub fn digital_model(&self) -> &TransformerLm {
        &self.model
    }

    /// Forward pass: logits `(seq × vocab)` with analog linears.
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        // Split borrows: the pass reads `model`, analog layers mutate.
        let (model, analog) = (&self.model, &mut self.analog);
        model.pass(tokens, None, &mut |id, x| match analog.get_mut(&id) {
            Some(layer) => layer.forward(x),
            None => model.linear(id).forward(x),
        })
    }

    /// One incremental decode step on the analog deployment, on
    /// **counter-keyed** noise streams: the model's inference pass over one
    /// row, as [`TransformerLm::decode_step`] (see it for the cache
    /// contract), with the keyed tiles as its linears. Linears left digital
    /// give `decode_step`'s bits. The K/V rows appended to the cache are the
    /// *analog* projections — the cache holds what the hardware actually
    /// computed. The deployment is shared immutably across concurrent
    /// serving slots, and every tile's noise sequence is a pure function of
    /// `(layer seed, tile grid coordinates, noise_seed, position)` —
    /// independent of admission order, batch composition and thread count.
    ///
    /// `noise_seed` identifies the request (its sampling seed), `position`
    /// is the request's cumulative decode-step counter (prefill and rebase
    /// refills included), so successive steps of one request draw distinct
    /// streams. Tile statistics and ABFT flags are *not* applied to the
    /// deployment here: they are appended to `effects` (tagged with the
    /// layer id, in traversal order) for the caller to replay serially via
    /// [`AnalogTransformerLm::absorb_effects`] after the parallel round.
    ///
    /// # Panics
    ///
    /// Panics if the cache is mismatched or `token` is out of vocabulary.
    pub fn decode_step_keyed(
        &self,
        token: usize,
        cache: &mut KvCache,
        noise_seed: u64,
        position: u64,
        ctx: &mut DecodeCtx,
        effects: &mut Vec<(LinearId, TileEffect)>,
    ) -> Vec<f32> {
        let model = &self.model;
        let mut keyed = |id: LinearId, x: &Matrix| match self.analog.get(&id) {
            Some(layer) => {
                let mut out = Matrix::zeros(1, layer.d_out());
                ctx.fx.clear();
                layer.forward_single_keyed(
                    x.row(0),
                    out.row_mut(0),
                    noise_seed,
                    position,
                    &mut ctx.cim,
                    &mut ctx.fx,
                );
                effects.extend(ctx.fx.drain(..).map(|e| (id, e)));
                out
            }
            None => model.linear(id).forward(x),
        };
        model.pass(&[token], Some(cache), &mut keyed).into_vec()
    }

    /// Replays the deferred tile effects of one or more keyed decode steps
    /// into the deployment: statistics deltas merge into their tiles and
    /// ABFT flags feed the maintenance work list. Callers invoke this
    /// serially after a parallel round, in (slot, traversal) order, so the
    /// deployment state — and everything exported from it — is
    /// thread-count invariant.
    pub fn absorb_effects(&mut self, effects: &[(LinearId, TileEffect)]) {
        for (id, effect) in effects {
            if let Some(layer) = self.analog.get_mut(id) {
                layer.absorb_tile_effect(effect);
            }
        }
    }

    /// Greedy argmax prediction at the last position.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn predict_next(&mut self, tokens: &[usize]) -> usize {
        assert!(!tokens.is_empty(), "empty context");
        let logits = self.forward(tokens);
        let last = logits.row(logits.rows() - 1);
        last.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Aggregated tile statistics over all analog layers.
    pub fn stats(&self) -> ForwardStats {
        let mut total = ForwardStats::default();
        for layer in self.analog.values() {
            total.merge(&layer.stats());
        }
        total
    }

    /// Per-layer statistics, sorted by (block, kind) order.
    pub fn per_layer_stats(&self) -> Vec<(LinearId, ForwardStats)> {
        self.analog
            .iter()
            .map(|(&id, layer)| (id, layer.stats()))
            .collect()
    }

    /// Resets all tile statistics.
    pub fn reset_stats(&mut self) {
        for layer in self.analog.values_mut() {
            layer.reset_stats();
        }
    }

    /// Exports the deployment's observability metrics into `m`:
    /// conversion stats merged in (block, kind) layer order then grid
    /// order, ladder transitions in occurrence order, the slot health
    /// census, spares, and deployment-time digital degradations.
    pub fn export_metrics(&self, m: &mut nora_obs::Metrics) {
        let mut total = ForwardStats::default();
        for (_, stats) in self.per_layer_stats() {
            total.merge(&stats);
        }
        total.export_metrics(m);
        for (_, event) in self.fault_events() {
            m.add(event.kind.metric_name(), 1);
        }
        for (_, health) in self.tile_health() {
            nora_cim::export_health(&health, m);
        }
        m.add(
            "cim.health.digital_fallback_slots",
            self.digital_fallback_count() as u64,
        );
        m.add("cim.health.spares_used", u64::from(self.spares_used()));
        m.add("nn.deploy.degraded_layers", self.degraded.len() as u64);
    }

    /// Applies conductance drift at `t_seconds` to every analog layer.
    pub fn apply_drift(&mut self, t_seconds: f64, compensation: DriftCompensation) {
        for layer in self.analog.values_mut() {
            layer.apply_drift(t_seconds, compensation);
        }
    }

    /// Online field-drift step: advances every analog layer to virtual time
    /// `now` (each tile re-reads relative to its own programming epoch, see
    /// [`AnalogLinear::drift_to`]). Iteration order is irrelevant — every
    /// tile owns its RNG stream.
    pub fn drift_to(&mut self, now: f64, compensation: DriftCompensation) {
        for layer in self.analog.values_mut() {
            layer.drift_to(now, compensation);
        }
    }

    /// Switches every analog layer between inline and deferred recovery
    /// (see [`AnalogLinear::set_deferred_recovery`]).
    pub fn set_deferred_recovery(&mut self, deferred: bool) {
        for layer in self.analog.values_mut() {
            layer.set_deferred_recovery(deferred);
        }
    }

    /// Captures per-tile recalibration references on every analog layer
    /// (idempotent per tile).
    pub fn capture_probe_references(&mut self) {
        for layer in self.analog.values_mut() {
            layer.capture_probe_references();
        }
    }

    /// Runs the probe recalibration pass on every analog layer, in (block,
    /// kind) layer order, and returns each layer's outcome (layers with no
    /// probe-able healthy tile are skipped).
    pub fn recalibrate(&mut self) -> Vec<(LinearId, nora_cim::RecalOutcome)> {
        self.analog
            .iter_mut()
            .filter_map(|(&id, layer)| layer.recalibrate().map(|outcome| (id, outcome)))
            .collect()
    }

    /// Tile slots currently flagged Suspect across all analog layers, as
    /// (layer id, grid index) pairs in (block, kind) then grid order — the
    /// maintenance scheduler's rotation work list.
    pub fn suspect_tiles(&self) -> Vec<(LinearId, usize)> {
        self.analog
            .iter()
            .flat_map(|(&id, layer)| layer.suspect_tiles().into_iter().map(move |idx| (id, idx)))
            .collect()
    }

    /// Completes a background rotation of tile `idx` of layer `id` at
    /// virtual time `now` (see [`AnalogLinear::rotate_tile`]). Returns
    /// `true` iff the slot is served by a healthy analog tile afterwards.
    pub fn rotate_tile(&mut self, id: LinearId, idx: usize, now: f64) -> bool {
        self.analog
            .get_mut(&id)
            .is_some_and(|layer| layer.rotate_tile(idx, now))
    }

    /// First-order analog energy/latency estimate summed over all layers
    /// (see [`nora_cim::energy`]).
    pub fn energy(&self, model: &nora_cim::EnergyModel) -> nora_cim::EnergyReport {
        let mut total = nora_cim::EnergyReport::default();
        for layer in self.analog.values() {
            total.merge(&layer.energy(model));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearKind, ModelConfig};
    use nora_tensor::rng::Rng;

    fn tiny_model(seed: u64) -> TransformerLm {
        TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(seed))
    }

    #[test]
    fn ideal_deployment_matches_digital_exactly() {
        let model = tiny_model(1);
        let mut analog =
            AnalogTransformerLm::new(&model, TileConfig::ideal(), &SmoothingMap::new(), 2);
        let tokens = [1usize, 4, 9, 2, 2, 7];
        let d = model.forward(&tokens);
        let a = analog.forward(&tokens);
        assert!(a.mse(&d) < 1e-9, "mse {}", a.mse(&d));
    }

    #[test]
    fn ideal_deployment_with_smoothing_still_exact() {
        let model = tiny_model(3);
        let mut smoothing = SmoothingMap::new();
        for id in model.linear_ids() {
            let d_in = model.linear(id).d_in();
            smoothing.insert(id, (0..d_in).map(|i| 0.5 + (i % 3) as f32).collect());
        }
        let mut analog = AnalogTransformerLm::new(&model, TileConfig::ideal(), &smoothing, 4);
        let tokens = [3usize, 1, 4, 1, 5];
        let d = model.forward(&tokens);
        let a = analog.forward(&tokens);
        assert!(a.mse(&d) < 1e-8, "mse {}", a.mse(&d));
    }

    #[test]
    fn noisy_deployment_perturbs_but_tracks() {
        let model = tiny_model(5);
        let cfg = TileConfig::paper_default().with_tile_size(64, 64);
        let mut analog = AnalogTransformerLm::new(&model, cfg, &SmoothingMap::new(), 6);
        let tokens = [2usize, 8, 3, 3, 1];
        let d = model.forward(&tokens);
        let a = analog.forward(&tokens);
        let mse = a.mse(&d);
        assert!(mse > 0.0, "noise should perturb logits");
        let var = nora_tensor::stats::variance(d.as_slice());
        assert!(mse < var * 5.0, "mse {mse} vs logit var {var}");
    }

    #[test]
    fn stats_cover_all_layers() {
        let model = tiny_model(7);
        let mut analog = AnalogTransformerLm::new(
            &model,
            TileConfig::paper_default().with_tile_size(64, 64),
            &SmoothingMap::new(),
            8,
        );
        analog.forward(&[1, 2, 3, 4]);
        let per_layer = analog.per_layer_stats();
        assert_eq!(per_layer.len(), 6); // 1 block × 6 linears
        assert!(per_layer.iter().all(|(_, s)| s.samples > 0));
        let total = analog.stats();
        assert_eq!(
            total.samples,
            per_layer.iter().map(|(_, s)| s.samples).sum::<u64>()
        );
        analog.reset_stats();
        assert_eq!(analog.stats().samples, 0);
    }

    #[test]
    fn layer_filter_maps_only_selected_layers() {
        let model = tiny_model(11);
        let only = LinearId::new(0, LinearKind::Fc1);
        let mut partial = AnalogTransformerLm::with_layer_filter(
            &model,
            TileConfig::ideal(),
            &SmoothingMap::new(),
            12,
            |id| id == only,
        );
        assert_eq!(partial.analog_layer_count(), 1);
        // Ideal tiles + digital fallback ⇒ still exact.
        let tokens = [1usize, 5, 9];
        let d = model.forward(&tokens);
        assert!(partial.forward(&tokens).mse(&d) < 1e-10);
        assert_eq!(partial.per_layer_stats().len(), 1);
        assert_eq!(partial.per_layer_stats()[0].0, only);
    }

    #[test]
    fn empty_filter_is_fully_digital() {
        let model = tiny_model(13);
        let mut none = AnalogTransformerLm::with_layer_filter(
            &model,
            TileConfig::paper_default(),
            &SmoothingMap::new(),
            14,
            |_| false,
        );
        assert_eq!(none.analog_layer_count(), 0);
        let tokens = [3usize, 1, 4];
        // No analog layer: forward must be bit-exact digital.
        assert_eq!(none.forward(&tokens), model.forward(&tokens));
    }

    #[test]
    fn keyed_step_without_analog_layers_is_the_digital_step() {
        let cfg = ModelConfig {
            layers: 2,
            ..ModelConfig::tiny_for_tests()
        };
        let model = TransformerLm::new(cfg, &mut Rng::seed_from(29));
        let none = AnalogTransformerLm::with_layer_filter(
            &model,
            TileConfig::paper_default(),
            &SmoothingMap::new(),
            30,
            |_| false,
        );
        // A window shorter than the sequence, so the ring evicts.
        let window = 5;
        let mut keyed = KvCache::with_capacity(&model, window);
        let mut digital = KvCache::with_capacity(&model, window);
        let (mut ctx, mut effects) = (DecodeCtx::default(), Vec::new());
        for pos in 0..12 {
            let token = (pos * 7 + 3) % cfg.vocab;
            let got =
                none.decode_step_keyed(token, &mut keyed, 31, pos as u64, &mut ctx, &mut effects);
            let want = model.decode_step(token, &mut digital);
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "position {pos}");
        }
        assert!(effects.is_empty());
        assert_eq!(keyed.evicted(), 7);
        assert_eq!(digital.evicted(), 7);
    }

    #[test]
    fn unprogrammable_layers_degrade_to_digital_instead_of_aborting() {
        let model = tiny_model(15);
        let mut cfg = TileConfig::paper_default().with_tile_size(64, 64);
        cfg.fault_plan = Some(nora_cim::FaultPlan {
            seed: 1,
            programming_failure: 1.0, // every attempt fails, no recovery policy
            ..nora_cim::FaultPlan::none()
        });
        let mut analog = AnalogTransformerLm::new(&model, cfg.clone(), &SmoothingMap::new(), 16);
        assert_eq!(analog.analog_layer_count(), 0);
        assert_eq!(analog.degraded_layers().len(), 6);
        assert!(analog
            .degraded_layers()
            .iter()
            .all(|(_, e)| matches!(e, CimError::ProgrammingFailed { .. })));
        // Fully degraded ⇒ bit-exact digital execution.
        let tokens = [2usize, 7, 1];
        assert_eq!(analog.forward(&tokens), model.forward(&tokens));
        // Strict construction surfaces the same failure as an error.
        assert!(matches!(
            AnalogTransformerLm::try_new(&model, cfg, &SmoothingMap::new(), 16),
            Err(CimError::ProgrammingFailed { .. })
        ));
    }

    #[test]
    fn protected_deployment_recovers_dead_tiles_in_field() {
        let model = tiny_model(17);
        let mut cfg = TileConfig::paper_default().with_tile_size(16, 17);
        cfg.fault_plan = Some(nora_cim::FaultPlan {
            seed: 2,
            tile_dropout: 1.0, // every physical tile is dead
            ..nora_cim::FaultPlan::none()
        });
        cfg.fault_tolerance = nora_cim::FaultTolerance::protected();
        let mut analog = AnalogTransformerLm::new(&model, cfg, &SmoothingMap::new(), 18);
        assert_eq!(analog.analog_layer_count(), 6);
        assert!(analog.degraded_layers().is_empty());
        let tokens = [1usize, 3, 5, 2];
        let y = analog.forward(&tokens);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        // The silent-tile detector must have condemned every slot to exact
        // digital fallback, so a second forward matches the digital model.
        let events = analog.fault_events();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e.kind, nora_cim::TileEventKind::DigitalFallback)));
        assert!(analog.digital_fallback_count() > 0);
        let d = model.forward(&tokens);
        assert!(analog.forward(&tokens).mse(&d) < 1e-9);
        assert!(analog
            .tile_health()
            .iter()
            .flat_map(|(_, hs)| hs.iter())
            .any(|h| h.state == nora_cim::HealthState::Condemned));
    }

    #[test]
    fn healthy_deployment_records_no_fault_events() {
        let model = tiny_model(19);
        let mut cfg = TileConfig::paper_default().with_tile_size(64, 65);
        cfg.fault_tolerance = nora_cim::FaultTolerance::protected();
        let mut analog = AnalogTransformerLm::new(&model, cfg, &SmoothingMap::new(), 20);
        analog.forward(&[4usize, 2, 6, 1]);
        assert!(analog.degraded_layers().is_empty());
        assert!(analog.fault_events().is_empty());
        assert_eq!(analog.spares_used(), 0);
        assert_eq!(analog.digital_fallback_count(), 0);
    }

    #[test]
    fn repeated_deployments_report_identical_energy_and_stats() {
        // Every deployment merges its layers' float sums in one order, so
        // twenty identical deployments in one process report one value.
        let model = TransformerLm::new(
            ModelConfig {
                layers: 2,
                ..ModelConfig::tiny_for_tests()
            },
            &mut Rng::seed_from(21),
        );
        let cfg = TileConfig::paper_default().with_tile_size(64, 64);
        let energy = nora_cim::EnergyModel::default();
        let run = || {
            let mut analog =
                AnalogTransformerLm::new(&model, cfg.clone(), &SmoothingMap::new(), 511);
            for tokens in [[1usize, 5, 2, 7], [3, 3, 8, 1], [6, 2, 9, 4], [2, 7, 7, 5]] {
                analog.forward(&tokens);
            }
            (analog.energy(&energy), analog.stats())
        };
        let first = run();
        for i in 1..20 {
            assert_eq!(run(), first, "deployment {i}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let model = tiny_model(9);
        let cfg = TileConfig::paper_default().with_tile_size(64, 64);
        let tokens = [1usize, 2, 3];
        let mut a = AnalogTransformerLm::new(&model, cfg.clone(), &SmoothingMap::new(), 10);
        let mut b = AnalogTransformerLm::new(&model, cfg, &SmoothingMap::new(), 10);
        assert_eq!(a.forward(&tokens), b.forward(&tokens));
    }
}

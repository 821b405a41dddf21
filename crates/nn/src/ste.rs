//! Straight-through hardware-aware (STE) fine-tuning.
//!
//! NORA rescales a *frozen* model around analog non-idealities; this module
//! implements the competing (and composable) recipe: train the model *into*
//! the noise. Every analog-mappable linear's training forward runs its
//! activations through the deploy-path DAC mid-rise grid and its weights
//! through the programming grid, with per-step programming and read noise
//! sampled from the same [`nora_cim`] noise laws the tile simulator uses.
//! Gradients pass straight through the quantizers (Bengio et al.'s
//! straight-through estimator), with clip-aware masking: exact at interior
//! grid points, zeroed where the DAC clipped an input at the rails.
//!
//! Grid sharing is structural, not by convention: the DAC comes from
//! [`TileConfig::input_dac`] and the weight grid from
//! [`TileConfig::weight_quantizer`] — the very constructors
//! [`nora_cim::AnalogTile`] programs and converts with — so the
//! fake-quantized training forward is bit-identical to the deploy grids on
//! the same inputs, with no duplicated constants.
//!
//! # Determinism contract
//!
//! Training is bit-identical at any `NORA_THREADS` setting and under any
//! attached recorder: the per-step weight noise is drawn from counter-keyed
//! streams (`Rng::from_key([seed, STE_STREAM, step, layer])`), a pure
//! function of the draw site rather than of execution order, and every
//! matmul in the forward/backward obeys the workspace's ordered-merge
//! parallel contract.

use crate::corpus::Corpus;
use crate::model::{LinearId, TransformerLm};
use crate::trainer::{optimizer_step, TrainConfig, TrainReport, WeightRestore};
use nora_cim::converter::Dac;
use nora_cim::{NoiseManagement, TileConfig};
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

/// Domain-separation constant for the counter-keyed STE noise streams.
pub const STE_STREAM: u64 = 0x5354_4531; // "STE1"

/// Deploy-grid fake quantization of a linear layer's inputs.
///
/// Carries the tile's input DAC and noise-management law; attached to
/// [`crate::DigitalLinear::ste`] during [`train_ste`] so the training
/// forward sees exactly the conversion the analog deployment applies:
/// per-row `α` from the configured noise management, `x̃ = α · f_dac(x/α)`.
#[derive(Debug, Clone)]
pub struct SteQuant {
    dac: Dac,
    nm: NoiseManagement,
}

impl SteQuant {
    /// Builds the fake quantizer from a tile configuration, sharing the
    /// DAC grid and `α` law with the simulator.
    pub fn from_tile(config: &TileConfig) -> Self {
        Self {
            dac: config.input_dac(),
            nm: config.noise_management,
        }
    }

    /// The shared input DAC.
    pub fn dac(&self) -> &Dac {
        &self.dac
    }

    /// Fake-quantizes a batch of activations through the deploy DAC grid.
    ///
    /// Per row: `α = nm.alpha(row)`, divide, [`Dac::convert_slice`],
    /// multiply back by `α`. Rows with `α ≤ 0` (all-zero under `AbsMax`) or
    /// NaN `α` convert to zero, mirroring the tile's short-circuit.
    pub fn fake_quantize(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            let alpha = self.nm.alpha(row);
            if alpha.is_nan() || alpha <= 0.0 {
                for v in row.iter_mut() {
                    *v = 0.0;
                }
                continue;
            }
            for v in row.iter_mut() {
                *v /= alpha;
            }
            self.dac.convert_slice(row);
            for v in row.iter_mut() {
                *v *= alpha;
            }
        }
        out
    }

    /// Zeroes the entries of `dx` whose corresponding input the DAC
    /// clipped — the STE masking rule. Interior points are left untouched.
    ///
    /// The clip predicate is evaluated on the same scaled value the
    /// forward converted (`x/α` against the DAC bound, NaN counts as
    /// clipped), so mask and conversion can never disagree on a borderline
    /// ulp. Rows that short-circuited to zero (`α ≤ 0`) pass gradients
    /// straight through.
    pub fn mask_clipped(&self, x: &Matrix, dx: &mut Matrix) {
        assert_eq!(x.shape(), dx.shape(), "mask shape mismatch");
        let bound = self.dac.bound();
        for i in 0..x.rows() {
            let alpha = self.nm.alpha(x.row(i));
            if alpha.is_nan() || alpha <= 0.0 {
                continue;
            }
            for (g, &v) in dx.row_mut(i).iter_mut().zip(x.row(i)) {
                let xh = v / alpha;
                if xh.is_nan() || xh.abs() > bound {
                    *g = 0.0;
                }
            }
        }
    }
}

/// Hyper-parameters of hardware-aware STE fine-tuning.
#[derive(Debug, Clone)]
pub struct SteConfig {
    /// Underlying optimizer/loop settings.
    pub base: TrainConfig,
    /// Tile configuration supplying the DAC grid, the weight-programming
    /// grid, and the programming/read noise laws (default: the paper's
    /// Table II).
    pub tile: TileConfig,
    /// Sample per-step programming noise from
    /// [`nora_cim::NoiseBudget::prog_moments`] (the censored device law).
    pub prog_noise: bool,
    /// Sample per-step short-term read noise
    /// ([`nora_cim::NoiseBudget::read_sigma`], per weight, in normalised
    /// units — the σ the tile aggregates analytically per forward).
    pub read_noise: bool,
    /// Multiplier on the sampled noise σ (1.0 = deploy-exact exposure;
    /// larger values train against exaggerated noise).
    pub noise_scale: f32,
}

impl Default for SteConfig {
    fn default() -> Self {
        Self {
            base: TrainConfig::default(),
            tile: TileConfig::paper_default(),
            prog_noise: true,
            read_noise: true,
            noise_scale: 1.0,
        }
    }
}

/// Replaces each analog-mappable linear's weights, in place, with the
/// hardware view the tile would program this step: columns normalised by
/// `γ_j = max|w_j|`, snapped to the weight-programming grid, perturbed by
/// the sampled programming/read noise, then rescaled by `γ_j`.
fn apply_hardware_weights(
    model: &mut TransformerLm,
    ids: &[LinearId],
    cfg: &SteConfig,
    budgets: &[nora_cim::NoiseBudget],
    seed: u64,
    step: u64,
    xi: &mut Vec<f32>,
) {
    let wq = cfg.tile.weight_quantizer();
    let sample = cfg.prog_noise || cfg.read_noise;
    for (li, &id) in ids.iter().enumerate() {
        let budget = &budgets[li];
        let read_var = if cfg.read_noise {
            f64::from(budget.read_sigma) * f64::from(budget.read_sigma)
        } else {
            0.0
        };
        let lin = model.linear_mut(id);
        let w = &mut lin.weight.value;
        // The tile's mapping: normalise each column by γ_j (all-zero
        // columns stay zero), then quantize onto the programming grid.
        let gamma = w.col_abs_max();
        for (j, &g) in gamma.iter().enumerate() {
            if g > 0.0 {
                w.scale_col(j, 1.0 / g);
            }
        }
        if let Some(q) = &wq {
            q.quantize_slice(w.as_mut_slice());
        }
        if sample {
            // Counter-keyed noise: one stream per (run, step, layer), so
            // the draw is a pure function of its site — bit-identical at
            // any thread count, and immune to observation.
            let n = w.as_slice().len();
            xi.resize(n, 0.0);
            let mut rng = Rng::from_key(&[seed, STE_STREAM, step, li as u64]);
            rng.fill_normal_icdf(xi, 0.0, 1.0);
            let scale = f64::from(cfg.noise_scale);
            for (v, &z) in w.as_mut_slice().iter_mut().zip(xi.iter()) {
                let (mean, prog_var) = if cfg.prog_noise {
                    budget.prog_moments(*v)
                } else {
                    (f64::from(*v), 0.0)
                };
                let sigma = (prog_var + read_var).sqrt() * scale;
                *v = (mean + sigma * f64::from(z)) as f32;
            }
        }
        for (j, &g) in gamma.iter().enumerate() {
            if g > 0.0 {
                w.scale_col(j, g);
            }
        }
    }
}

/// Hardware-aware STE fine-tuning: like [`crate::trainer::train`], but each
/// analog-mappable linear's forward runs activations through the deploy DAC
/// grid (straight-through gradients, rail clipping masked) and weights
/// through the programming grid with per-step sampled programming/read
/// noise. Gradients apply to the clean weights.
///
/// The quantizer attachments and the per-step weight perturbation are both
/// guarded: if a batch panics mid-step, the model is left with its clean
/// weights and no attachments.
///
/// # Panics
///
/// Panics if `noise_scale` is negative/non-finite, or on
/// [`crate::trainer::train`]'s conditions.
pub fn train_ste(
    model: &mut TransformerLm,
    corpus: &mut Corpus,
    cfg: &SteConfig,
    seed: u64,
) -> TrainReport {
    assert!(
        cfg.noise_scale.is_finite() && cfg.noise_scale >= 0.0,
        "noise_scale must be finite and >= 0"
    );
    assert!(cfg.base.steps > 0, "steps must be positive");
    assert!(cfg.base.batch_size > 0, "batch_size must be positive");
    let ids = model.linear_ids();
    for &id in &ids {
        model.linear_mut(id).ste = Some(SteQuant::from_tile(&cfg.tile));
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        train_ste_loop(model, corpus, cfg, seed, &ids)
    }));
    // Detach on both exits: the attachments are training-time only.
    for &id in &ids {
        model.linear_mut(id).ste = None;
    }
    match result {
        Ok(report) => report,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

fn train_ste_loop(
    model: &mut TransformerLm,
    corpus: &mut Corpus,
    cfg: &SteConfig,
    seed: u64,
    ids: &[LinearId],
) -> TrainReport {
    let budgets: Vec<nora_cim::NoiseBudget> = ids
        .iter()
        .map(|&id| cfg.tile.noise_budget(model.linear(id).d_in()))
        .collect();
    let mut xi: Vec<f32> = Vec::new();
    let mut losses = Vec::with_capacity(cfg.base.steps as usize);
    for t in 1..=cfg.base.steps {
        model.zero_grad();
        let mut step_loss = 0.0f64;
        {
            // Stash clean weights; the guard restores them when the scope
            // ends — including by panic, so a poisoned episode cannot
            // leave hardware-view weights behind.
            let mut guard = WeightRestore::stash(model, ids);
            apply_hardware_weights(guard.model(), ids, cfg, &budgets, seed, t, &mut xi);
            for _ in 0..cfg.base.batch_size {
                let ep = corpus.episode();
                step_loss += guard.model().loss_and_backward(&ep.tokens);
            }
        }
        step_loss /= cfg.base.batch_size as f64;
        // Straight-through update: gradients taken at the hardware view
        // apply to the clean weights.
        optimizer_step(model, &cfg.base, t);
        losses.push(step_loss);
    }
    TrainReport {
        first_loss: losses[0],
        final_loss: *losses.last().unwrap(),
        losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::model::ModelConfig;
    use crate::trainer::eval_accuracy;
    use nora_cim::Resolution;

    fn tiny_tile() -> TileConfig {
        TileConfig::paper_default().with_tile_size(64, 64)
    }

    #[test]
    fn fake_quantize_is_idempotent_and_preserves_zero_rows() {
        let q = SteQuant::from_tile(&tiny_tile());
        let x = Matrix::from_rows(&[&[0.3, -1.7, 0.0, 0.02], &[0.0, 0.0, 0.0, 0.0]]);
        let once = q.fake_quantize(&x);
        assert_eq!(once.row(1), &[0.0; 4], "zero row short-circuits");
        // α is preserved by the grid (the max element sits at full scale up
        // to the rail snap), so quantizing the result moves nothing far.
        let twice = q.fake_quantize(&once);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() <= 2.0 * 2.0 / 128.0, "{a} vs {b}");
        }
    }

    #[test]
    fn mask_zeroes_exactly_the_clipped_entries() {
        // `NoiseManagement::None` fixes α = 1: entries with |x| > dac_bound
        // clip.
        let mut cfg = tiny_tile();
        cfg.noise_management = NoiseManagement::None;
        let q = SteQuant::from_tile(&cfg);
        let x = Matrix::from_rows(&[&[0.5, 1.5, -2.0, 1.0], &[f32::NAN, 0.1, -0.9, 0.99]]);
        let mut dx = Matrix::from_vec(2, 4, vec![1.0; 8]);
        q.mask_clipped(&x, &mut dx);
        assert_eq!(dx.row(0), &[1.0, 0.0, 0.0, 1.0], "rails masked, bound kept");
        assert_eq!(dx.row(1), &[0.0, 1.0, 1.0, 1.0], "NaN masked");
    }

    #[test]
    fn ste_training_learns_and_stays_clean_on_exit() {
        let corpus_cfg = CorpusConfig::new(16, 16, 21);
        let mut corpus = Corpus::new(corpus_cfg);
        let mut model = TransformerLm::new(
            ModelConfig {
                vocab: 16,
                max_seq: 16,
                d_model: 32,
                heads: 2,
                d_ff: 64,
                layers: 2,
            },
            &mut Rng::seed_from(22),
        );
        let cfg = SteConfig {
            base: TrainConfig {
                steps: 300,
                ..TrainConfig::default()
            },
            tile: tiny_tile(),
            ..SteConfig::default()
        };
        let report = train_ste(&mut model, &mut corpus, &cfg, 5);
        assert!(
            report.final_loss < report.first_loss * 0.8,
            "loss {} → {}",
            report.first_loss,
            report.final_loss
        );
        // Attachments are gone: the trained model is a plain digital model.
        for id in model.linear_ids() {
            assert!(model.linear(id).ste.is_none(), "{id:?} still attached");
        }
        let eval = corpus.episodes(80);
        assert!(eval_accuracy(&model, &eval) > 0.4);
    }

    /// A batch that panics mid-step (here: an out-of-vocab token from a
    /// corpus wider than the model's vocabulary) must leave every linear
    /// with its clean weights and no quantizer attached: the
    /// [`WeightRestore`] guard restores the weights during unwinding, and
    /// [`train_ste`] detaches the attachments before resuming the panic.
    #[test]
    fn poisoned_batch_cannot_leave_perturbed_weights_behind() {
        let mut model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(8));
        // Model vocab is 16; a vocab-32 corpus emits tokens the embedding
        // rejects, poisoning the very first batch.
        let mut corpus = Corpus::new(CorpusConfig::new(32, 16, 3));
        let before: Vec<_> = model
            .linear_ids()
            .iter()
            .map(|&id| model.linear(id).weight.value.clone())
            .collect();
        let cfg = SteConfig {
            base: TrainConfig {
                steps: 1,
                ..TrainConfig::default()
            },
            tile: tiny_tile(),
            ..SteConfig::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            train_ste(&mut model, &mut corpus, &cfg, 1)
        }));
        assert!(result.is_err(), "out-of-vocab token must panic the batch");
        for (&id, w) in model.linear_ids().iter().zip(&before) {
            let lin = model.linear(id);
            assert_eq!(
                lin.weight.value.as_slice(),
                w.as_slice(),
                "{id:?} left perturbed after a poisoned batch"
            );
            assert!(lin.ste.is_none(), "{id:?} still attached after the panic");
        }
    }

    #[test]
    fn prog_noise_with_ideal_source_is_pure_fake_quantization() {
        // WeightSource::Ideal has zero programming error, so two runs with
        // prog noise on/off (read noise off) are bit-identical.
        let corpus_cfg = CorpusConfig::new(16, 16, 31);
        let mut tile = tiny_tile();
        tile.weight_source = nora_cim::WeightSource::Ideal;
        tile.weight_quant = Resolution::bits(6);
        let mk = || TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(3));
        let run = |prog: bool| {
            let mut model = mk();
            let mut corpus = Corpus::new(corpus_cfg);
            let cfg = SteConfig {
                base: TrainConfig {
                    steps: 3,
                    ..TrainConfig::default()
                },
                tile: tile.clone(),
                prog_noise: prog,
                read_noise: false,
                noise_scale: 1.0,
            };
            train_ste(&mut model, &mut corpus, &cfg, 9);
            model
        };
        let a = run(true);
        let b = run(false);
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(pa.value.as_slice(), pb.value.as_slice());
        }
    }
}

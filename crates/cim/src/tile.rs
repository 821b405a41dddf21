//! A single analog crossbar tile.

use crate::config::TileConfig;
use crate::converter::{Adc, Dac};
use crate::error::CimError;
use crate::health::{AbftReport, TileSite};
use crate::ir_drop::IrDropModel;
use crate::management::BoundManagement;
use nora_device::{
    program_matrix_sliced, program_matrix_verified, read_matrix, read_matrix_mean, read_sliced,
    ProgrammedMatrix, SlicedMatrix, TileFaultMap,
};
use nora_tensor::rng::Rng;
use nora_tensor::simd::{self, Kernel};
use nora_tensor::Matrix;

/// Time (seconds after programming) at which a tile's reference weights are
/// established — the PCM drift model's calibration point `t_c`.
const REFERENCE_READ_TIME: f64 = 20.0;

/// How to correct for conductance drift when re-reading a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftCompensation {
    /// Use the drifted conductances as-is.
    None,
    /// Rescale the whole tile by a single factor estimated from the ratio of
    /// summed absolute conductance before and after drift — the simple
    /// global compensation the paper refers to ("drift could be simply
    /// compensated").
    GlobalScale,
}

/// Accumulated observability counters of tile forwards.
///
/// The experiment harness uses these for the input-clipping, ADC-saturation
/// and output-current analyses (Fig. 6c plots `mean_rescale`, the average
/// `α_i · γ_j · g_max` factor — smaller means more bitline current and
/// better SNR).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ForwardStats {
    /// Number of sample vectors processed.
    pub samples: u64,
    /// DAC inputs that clipped at the rails (final bound-management round).
    pub clipped_inputs: u64,
    /// Total DAC inputs presented.
    pub total_inputs: u64,
    /// ADC outputs that saturated (final round).
    pub saturated_outputs: u64,
    /// Total ADC outputs produced.
    pub total_outputs: u64,
    /// Extra conversion rounds forced by bound management.
    pub bound_mgmt_retries: u64,
    /// Physical conversion repeats executed: `read_averaging` per
    /// conversion round, summed over rounds (bound-management retries
    /// included) — the operational cost knob behind the `1/√n` noise
    /// suppression.
    pub read_repeats: u64,
    /// Sum over all outputs of the rescale factor `α_i · γ_j`.
    pub rescale_sum: f64,
    /// Number of rescale factors accumulated.
    pub rescale_count: u64,
}

impl ForwardStats {
    /// Fraction of DAC inputs that clipped.
    pub fn input_clip_rate(&self) -> f64 {
        if self.total_inputs == 0 {
            0.0
        } else {
            self.clipped_inputs as f64 / self.total_inputs as f64
        }
    }

    /// Fraction of ADC outputs that saturated.
    pub fn adc_saturation_rate(&self) -> f64 {
        if self.total_outputs == 0 {
            0.0
        } else {
            self.saturated_outputs as f64 / self.total_outputs as f64
        }
    }

    /// Mean output rescale factor `α_i · γ_j` (the paper's
    /// `α_i γ_j · g_max` in normalised units).
    pub fn mean_rescale(&self) -> f64 {
        if self.rescale_count == 0 {
            0.0
        } else {
            self.rescale_sum / self.rescale_count as f64
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &ForwardStats) {
        self.samples += other.samples;
        self.clipped_inputs += other.clipped_inputs;
        self.total_inputs += other.total_inputs;
        self.saturated_outputs += other.saturated_outputs;
        self.total_outputs += other.total_outputs;
        self.bound_mgmt_retries += other.bound_mgmt_retries;
        self.read_repeats += other.read_repeats;
        self.rescale_sum += other.rescale_sum;
        self.rescale_count += other.rescale_count;
    }

    /// Exports these counters into `m` under the canonical `cim.*` metric
    /// names (see [`crate::converter::metrics`] and [`crate::management`]).
    ///
    /// Every exported value derives from the deterministic counters above,
    /// so registries built from stats merged in grid order compare equal at
    /// any `NORA_THREADS` level.
    pub fn export_metrics(&self, m: &mut nora_obs::Metrics) {
        use crate::converter::metrics as names;
        m.add("cim.forward.samples", self.samples);
        m.add(names::DAC_CLIPPED, self.clipped_inputs);
        m.add(names::DAC_TOTAL, self.total_inputs);
        m.add(names::ADC_SATURATED, self.saturated_outputs);
        m.add(names::ADC_TOTAL, self.total_outputs);
        m.add(names::READ_REPEATS, self.read_repeats);
        m.observe(names::DAC_CLIP_RATE, nora_obs::edges::RATE, self.input_clip_rate());
        m.observe(
            names::ADC_SATURATION_RATE,
            nora_obs::edges::RATE,
            self.adc_saturation_rate(),
        );
        crate::management::export_bound_management(self.bound_mgmt_retries, m);
    }
}

/// Device-accurate programmed weight state (single pair per weight, or
/// multi-cell significance slices).
#[derive(Debug, Clone)]
enum ProgrammedWeights {
    Plain(ProgrammedMatrix),
    Sliced(SlicedMatrix),
}

/// ABFT checksum state of a tile.
///
/// The tile's last column stores the row-sums of the data columns, so in
/// rescaled output units `Σ_j y_j = y_checksum` holds exactly for a healthy
/// ideal tile. `static_corr` captures the per-row mismatch
/// `d_k = Σ_j γ_j ŵ_kj − γ_c ŵ_kc` of the *clean* post-programming weights
/// (quantization + programming error), measured by a deployment-time
/// calibration read; subtracting `x_s · d` from the residual leaves only
/// stochastic noise — and any hard fault that develops in the field.
#[derive(Debug, Clone)]
struct AbftState {
    static_corr: Vec<f32>,
    /// `Σ γ_j² + γ_c²` — the residual's noise-gain factor.
    gamma_sq: f32,
    /// Clean checksum-column weights in rescaled units (`γ_c ŵ_kc`), used
    /// by the silent-tile detector to predict the checksum output a live
    /// tile would produce for a given input.
    check_w: Vec<f32>,
}

impl AbftState {
    fn calibrate(w_eff: &Matrix, gamma: &[f32], data_cols: usize) -> Self {
        let rows = w_eff.rows();
        let mut static_corr = vec![0.0f32; rows];
        let mut check_w = vec![0.0f32; rows];
        for (k, (d, c)) in static_corr.iter_mut().zip(check_w.iter_mut()).enumerate() {
            let row = w_eff.row(k);
            let mut acc = 0.0f64;
            for j in 0..data_cols {
                acc += (gamma[j] * row[j]) as f64;
            }
            let checksum = (gamma[data_cols] * row[data_cols]) as f64;
            acc -= checksum;
            *d = acc as f32;
            *c = checksum as f32;
        }
        let gamma_sq = gamma.iter().map(|&g| g * g).sum();
        Self {
            static_corr,
            gamma_sq,
            check_w,
        }
    }
}

/// One analog crossbar tile holding a (≤ `tile_rows` × ≤ `tile_cols`) weight
/// block and executing noisy GEMV batches against it.
///
/// The tile owns its converters, noise streams, and per-column scaling
/// factors `γ_j`; an optional per-row smoothing vector `s` implements the
/// NORA rescaling of Eq. (6)–(8).
///
/// # Example
///
/// ```
/// use nora_cim::{AnalogTile, TileConfig};
/// use nora_tensor::{Matrix, rng::Rng};
///
/// let w = Matrix::from_rows(&[&[0.5, -0.25], &[0.1, 0.8]]);
/// let mut tile = AnalogTile::new(w, None, TileConfig::ideal(), Rng::seed_from(1));
/// let x = Matrix::from_rows(&[&[1.0, 2.0]]);
/// let y = tile.forward(&x);
/// assert!((y[(0, 0)] - 0.7).abs() < 1e-4); // exact GEMV when ideal
/// ```
#[derive(Debug, Clone)]
pub struct AnalogTile {
    config: TileConfig,
    dac: Dac,
    adc: Adc,
    ir: IrDropModel,
    /// Per-column normalised scale `γ_j = max_k |w_kj · s_k|` (data columns
    /// first; with ABFT on, the checksum column's `γ_c` is last).
    gamma: Vec<f32>,
    /// Per-row smoothing factors (all 1 when NORA is off).
    s: Vec<f32>,
    /// Effective normalised weights in `[-1, 1]` including programming
    /// error (and drift after [`AnalogTile::apply_drift`]), plus any
    /// imprinted hard faults.
    w_eff: Matrix,
    /// Device-accurate programmed state, kept for drift re-reads.
    programmed: Option<ProgrammedWeights>,
    /// Reference Σ|ŵ| right after programming (for drift compensation).
    prog_abs_sum: f64,
    /// Per-column IR-drop factors (cached; depend only on weights).
    ir_factors: Vec<f32>,
    /// Data (output) columns; `w_eff` has one more when ABFT is on.
    data_cols: usize,
    /// ABFT checksum calibration, when enabled.
    abft: Option<AbftState>,
    /// Hard defects of the physical array this tile occupies.
    fault_map: Option<TileFaultMap>,
    /// Physical placement (drives the defect draw).
    site: TileSite,
    /// Virtual time (seconds) at which the conductances were programmed;
    /// [`AnalogTile::drift_to`] reads at `now − programmed_at`. Zero for
    /// deployment-time programming.
    programmed_at: f64,
    /// Cumulative output correction installed by probe recalibration
    /// ([`AnalogTile::apply_recal_scale`]); reapplied after every drift
    /// re-read so online compensation survives [`AnalogTile::drift_to`].
    recal_scale: f32,
    /// Reference probe magnitude captured by
    /// [`AnalogTile::capture_probe_reference`], if any.
    probe_ref: Option<f64>,
    /// ADC step size in normalised accumulation units (0 when ideal).
    adc_lsb: f32,
    rng: Rng,
    stats: ForwardStats,
    /// Reusable temporaries for the conversion hot loop (no behavioral
    /// effect — every buffer is cleared or fully overwritten before use).
    scratch: Scratch,
    /// Test-only switch routing conversions through the naive, unfused
    /// per-stage reference implementation. The equivalence tests flip it on
    /// a cloned tile to prove the fast path bit-identical.
    #[cfg(test)]
    reference_path: bool,
}

/// Scratch arena for [`AnalogTile::forward_checked`] and the conversion
/// chain: one allocation per buffer for the lifetime of the tile instead of
/// one per sample (or per read-averaging repeat / bit plane).
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Smoothed input `x / s` (length `rows`).
    x_s: Vec<f32>,
    /// DAC output in the analog path (length `rows`).
    x_hat: Vec<f32>,
    /// Averaged/combined conversion output (length `w_eff.cols()`).
    z: Vec<f32>,
    /// Single-repeat output during read averaging.
    z_rep: Vec<f32>,
    /// Hoisted DAC output under read averaging (length `rows`).
    x_dac: Vec<f32>,
    /// Hoisted clean MVM result under read averaging (length
    /// `w_eff.cols()`).
    z_clean: Vec<f32>,
    /// Buffered short-term read-noise draws for the fused epilogue.
    wn: Vec<f32>,
    /// Buffered output-noise draws for the fused epilogue.
    on: Vec<f32>,
    /// One ±1/0 wordline plane in bit-serial mode (length `rows`).
    plane: Vec<f32>,
    /// Per-plane MAC output in bit-serial mode.
    zk: Vec<f32>,
    /// Quantized signed input levels in bit-serial mode.
    levels: Vec<i32>,
}

/// Silent-tile detector accumulators over a forward batch, in rescaled
/// output units: the checksum output a clean tile would have produced, the
/// checksum output actually observed, and the noise allowance.
#[derive(Debug, Default)]
struct SilentAcc {
    pred: f64,
    actual: f64,
    noise: f64,
}

/// The noise generator of one conversion chain, bundling the draw source
/// with the Gaussian sampler it uses:
///
/// * legacy streams (`icdf == false`) draw through the bit-pinned
///   Box–Muller [`Rng::fill_normal`] sequence that all pre-existing
///   results reproduce;
/// * counter-keyed streams (`icdf == true`) are *new* sequences derived per
///   `(deployment, tile, request, position)` key, free to use the ~4×
///   cheaper inverse-CDF sampler.
struct NoiseStream<'a> {
    rng: &'a mut Rng,
    icdf: bool,
}

impl NoiseStream<'_> {
    fn fill_normal(&mut self, buf: &mut [f32], mean: f32, std: f32) {
        if self.icdf {
            self.rng.fill_normal_icdf(buf, mean, std);
        } else {
            self.rng.fill_normal(buf, mean, std);
        }
    }

    /// Scalar draw for the unfused reference chain — same value, same
    /// stream position, as a one-element [`NoiseStream::fill_normal`].
    #[cfg(test)]
    fn normal(&mut self, mean: f32, std: f32) -> f32 {
        if self.icdf {
            mean + std * self.rng.standard_normal_icdf()
        } else {
            self.rng.normal(mean, std)
        }
    }
}

/// The analog stages of [`AnalogTile::fused_epilogue_ex`] as a [`Kernel`]:
/// per element, read-noise add (`has_w`), IR-drop droop (when `ir` is on)
/// and output-noise add (`has_o`). The ADC pass follows as its own kernel
/// ([`Adc::convert_slice`]); split this way, both loops vectorize.
///
/// `wn`, `on` and `ir_factors` are at least as long as `z`; a stage that is
/// off leaves the element untouched, exactly as in the unfused chain. The
/// IR-drop model is held by value, so the loop reads it from locals.
struct ReadoutStages<'a> {
    z: &'a mut [f32],
    wn: &'a [f32],
    on: &'a [f32],
    ir_factors: &'a [f32],
    has_w: bool,
    has_o: bool,
    ir: IrDropModel,
    u: f32,
}

impl Kernel for ReadoutStages<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            z,
            wn,
            on,
            ir_factors,
            has_w,
            has_o,
            ir,
            u,
        } = self;
        assert!(wn.len() >= z.len() && on.len() >= z.len() && ir_factors.len() >= z.len());
        let has_ir = !ir.is_off();
        for (((v, &w), &f), &o) in z.iter_mut().zip(wn).zip(ir_factors).zip(on) {
            let mut r = *v;
            if has_w {
                r += w;
            }
            if has_ir {
                r *= ir.multiplier(f, u);
            }
            if has_o {
                r += o;
            }
            *v = r;
        }
    }
}

/// Reusable scratch arena for the **stateless keyed** forward path
/// ([`AnalogTile::forward_row_keyed`]): the tile is shared immutably across
/// callers, so each concurrent caller owns one of these instead of the
/// tile's built-in scratch. Buffers grow to the largest tile they serve and
/// are reused across tiles and decode steps.
#[derive(Debug, Clone, Default)]
pub struct TileCtx {
    scratch: Scratch,
}

impl AnalogTile {
    /// Programs `weights` (shape `rows × cols`, arbitrary real values) onto
    /// a tile, optionally with a NORA smoothing vector `s` of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics on any [`AnalogTile::try_new`] error.
    pub fn new(weights: Matrix, s: Option<&[f32]>, config: TileConfig, rng: Rng) -> Self {
        Self::try_new(weights, s, config, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`AnalogTile::new`] at the default physical site
    /// (physical tile 0, programming attempt 0).
    ///
    /// # Errors
    ///
    /// See [`AnalogTile::try_new_at`].
    pub fn try_new(
        weights: Matrix,
        s: Option<&[f32]>,
        config: TileConfig,
        rng: Rng,
    ) -> Result<Self, CimError> {
        Self::try_new_at(weights, s, config, rng, TileSite::default())
    }

    /// Programs `weights` onto the physical tile identified by `site`.
    ///
    /// The site determines which hard defects (if any) the tile inherits
    /// from the config's [`nora_device::FaultPlan`]: defect maps are drawn
    /// per `site.physical_id`, so re-programming the same array reproduces
    /// its stuck cells while a spare array draws an independent set. Hard
    /// faults are imprinted *after* the ABFT calibration read — they model
    /// in-field failures that develop after deployment-time calibration.
    ///
    /// # Errors
    ///
    /// * [`CimError::InvalidConfig`] — the config fails validation.
    /// * [`CimError::OversizedBlock`] — the block (plus the checksum column
    ///   when ABFT is on) does not fit the physical tile.
    /// * [`CimError::SmoothingLength`] / [`CimError::SmoothingNotPositive`]
    ///   — a malformed smoothing vector.
    /// * [`CimError::ProgrammingFailed`] — the fault plan made this
    ///   programming attempt fail; the caller may retry with a bumped
    ///   `site.programming_attempt` or fall back.
    pub fn try_new_at(
        weights: Matrix,
        s: Option<&[f32]>,
        config: TileConfig,
        mut rng: Rng,
        site: TileSite,
    ) -> Result<Self, CimError> {
        config.validate().map_err(CimError::InvalidConfig)?;
        let abft_cols = usize::from(config.fault_tolerance.abft);
        if weights.rows() > config.tile_rows || weights.cols() + abft_cols > config.tile_cols {
            return Err(CimError::OversizedBlock {
                rows: weights.rows(),
                cols: weights.cols() + abft_cols,
                tile_rows: config.tile_rows,
                tile_cols: config.tile_cols,
            });
        }
        let rows = weights.rows();
        let data_cols = weights.cols();
        let s: Vec<f32> = match s {
            Some(s) => {
                if s.len() != rows {
                    return Err(CimError::SmoothingLength {
                        expected: rows,
                        got: s.len(),
                    });
                }
                if !s.iter().all(|&v| v.is_finite() && v > 0.0) {
                    return Err(CimError::SmoothingNotPositive);
                }
                s.to_vec()
            }
            None => vec![1.0; rows],
        };

        // Append the ABFT checksum column (row-sums of the data columns)
        // before any scaling: downstream it is treated exactly like a data
        // column, which is what makes the checksum identity hold in output
        // units independent of γ.
        let mut w_scaled = if abft_cols == 1 {
            let mut w2 = Matrix::zeros(rows, data_cols + 1);
            for k in 0..rows {
                let src = weights.row(k);
                let dst = w2.row_mut(k);
                dst[..data_cols].copy_from_slice(src);
                dst[data_cols] = src.iter().sum();
            }
            w2
        } else {
            weights
        };
        // Scale rows by s, then normalise each column by γ_j.
        w_scaled.scale_rows(&s);
        let gamma = w_scaled.col_abs_max();
        let mut w_hat = w_scaled;
        for (j, &g) in gamma.iter().enumerate() {
            if g > 0.0 {
                w_hat.scale_col(j, 1.0 / g);
            }
            // all-zero column stays zero
        }

        // Digital weight quantization (if configured) snaps the normalised
        // mapping to discrete levels before any device effects.
        if let Some(q) = config.weight_quantizer() {
            q.quantize_slice(w_hat.as_mut_slice());
        }

        // Pass through the device model if requested.
        let (w_eff, programmed) = match config.device_model() {
            None => (w_hat, None),
            Some(device) => {
                let mut dev_rng = rng.fork(0x9d0e);
                // Effective weights are taken at the reference read time,
                // without the stochastic read-noise part (short-term read
                // noise is injected separately per forward).
                if config.weight_slices > 1 {
                    let prog = program_matrix_sliced(
                        &w_hat,
                        device.as_ref(),
                        config.weight_slices,
                        config.slice_radix,
                        &mut dev_rng,
                    );
                    let eff =
                        nora_device::read_sliced_mean(&prog, device.as_ref(), REFERENCE_READ_TIME);
                    (eff, Some(ProgrammedWeights::Sliced(prog)))
                } else {
                    // Pruned N:M cells (exact-zero normalised weights) stay
                    // genuinely unprogrammed when the config opts in: no
                    // device draw, zero conductance at every read time.
                    let prog = if config.prune_zero_cells {
                        nora_device::program_matrix_pruned(
                            &w_hat,
                            device.as_ref(),
                            config.write_verify_iters,
                            &mut dev_rng,
                        )
                    } else {
                        program_matrix_verified(
                            &w_hat,
                            device.as_ref(),
                            config.write_verify_iters,
                            &mut dev_rng,
                        )
                    };
                    let eff = read_matrix_mean(&prog, device.as_ref(), REFERENCE_READ_TIME);
                    (eff, Some(ProgrammedWeights::Plain(prog)))
                }
            }
        };

        // ABFT static-mismatch calibration from the *clean* post-programming
        // weights (deployment-time calibration read).
        let abft = (abft_cols == 1).then(|| AbftState::calibrate(&w_eff, &gamma, data_cols));

        // Imprint the physical array's hard defects. These are drawn over
        // the full physical tile dimensions and persist across
        // re-programming of the same `site.physical_id`.
        let mut w_eff = w_eff;
        let fault_map = match &config.fault_plan {
            Some(plan) if !plan.is_trivial() => {
                let map = plan.instantiate(site.physical_id, config.tile_rows, config.tile_cols);
                if map.programming_attempt_fails(site.programming_attempt) {
                    return Err(CimError::ProgrammingFailed {
                        physical_id: site.physical_id,
                        attempt: site.programming_attempt,
                    });
                }
                map.apply_to_weights(&mut w_eff);
                Some(map)
            }
            _ => None,
        };

        let prog_abs_sum = w_eff.as_slice().iter().map(|&v| v.abs() as f64).sum();
        let ir = IrDropModel::new(config.ir_drop);
        let col_mean_rel_g: Vec<f32> = (0..w_eff.cols())
            .map(|j| {
                let col = w_eff.col(j);
                col.iter().map(|v| v.abs()).sum::<f32>() / col.len().max(1) as f32
            })
            .collect();
        let ir_factors = ir.column_factors(&col_mean_rel_g, rows);

        let dac = config.input_dac();
        let adc = Adc::new(config.adc, config.adc_bound);
        // Single source of truth for the stage constants: the queryable
        // budget — analytic consumers read the identical f32 values.
        let adc_lsb = config.noise_budget(rows).adc_step;
        Ok(Self {
            dac,
            adc,
            ir,
            gamma,
            s,
            w_eff,
            programmed,
            prog_abs_sum,
            ir_factors,
            data_cols,
            abft,
            fault_map,
            site,
            programmed_at: 0.0,
            recal_scale: 1.0,
            probe_ref: None,
            adc_lsb,
            rng,
            stats: ForwardStats::default(),
            scratch: Scratch::default(),
            #[cfg(test)]
            reference_path: false,
            config,
        })
    }

    /// Number of input channels (rows) of the programmed block.
    pub fn rows(&self) -> usize {
        self.w_eff.rows()
    }

    /// Number of output channels (data columns) of the programmed block.
    /// With ABFT on, the physical tile holds one extra checksum column that
    /// is not part of the output.
    pub fn cols(&self) -> usize {
        self.data_cols
    }

    /// Per-column scale factors `γ_j` (data columns first; the checksum
    /// column's `γ_c`, if any, is last).
    pub fn gamma(&self) -> &[f32] {
        &self.gamma
    }

    /// Physical placement of this tile.
    pub fn site(&self) -> TileSite {
        self.site
    }

    /// The hard-defect map of the physical array, if a fault plan is active.
    pub fn fault_map(&self) -> Option<&TileFaultMap> {
        self.fault_map.as_ref()
    }

    /// Effective normalised weights currently on the tile.
    pub fn effective_weights(&self) -> &Matrix {
        &self.w_eff
    }

    /// Accumulated forward statistics.
    pub fn stats(&self) -> &ForwardStats {
        &self.stats
    }

    /// Resets the forward statistics.
    pub fn reset_stats(&mut self) {
        self.stats = ForwardStats::default();
    }

    /// Exports the tile's accumulated conversion stats into `m` under the
    /// canonical `cim.*` names. Read-only and RNG-free: attaching
    /// observation never perturbs the tile's outputs.
    pub fn export_metrics(&self, m: &mut nora_obs::Metrics) {
        self.stats.export_metrics(m);
    }

    /// Executes a noisy GEMV batch: `x` is `batch × rows`, the result is
    /// `batch × cols`, approximating `x · W` under the configured
    /// non-idealities.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.rows()`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_checked(x).0
    }

    /// Built-in self-test: runs a deterministic, sign-diverse probe batch
    /// through the tile and returns the ABFT verdict. Unlike checking a
    /// workload batch, the probe always carries strong signal on every
    /// input line, so a dead or heavily faulted tile cannot pass
    /// vacuously (e.g. when the triggering activations were near zero).
    /// The forward statistics are restored afterwards, so the probe does
    /// not pollute [`AnalogTile::stats`]. Returns a disabled report when
    /// the policy has ABFT off.
    pub fn self_test(&mut self) -> AbftReport {
        if self.abft.is_none() {
            return AbftReport::default();
        }
        let x = self.probe_batch();
        let saved = self.stats;
        // A one-off diagnostic can afford heavy read averaging: it divides
        // the stochastic part of the residual budget (and so the detection
        // threshold) by 4×, while the *systematic* residual of stuck cells
        // and dead lines is untouched — faults far too small to trip the
        // runtime 6σ check stand out clearly under the probe.
        let runtime_ra = self.config.read_averaging;
        self.config.read_averaging = runtime_ra.max(16);
        let (_, report) = self.forward_checked(&x);
        self.config.read_averaging = runtime_ra;
        self.stats = saved;
        report
    }

    /// The deterministic, sign-diverse probe batch shared by
    /// [`AnalogTile::self_test`] and [`AnalogTile::probe_magnitude`]: every
    /// input line carries strong signal on every row, so the response
    /// cannot be vacuously small.
    fn probe_batch(&self) -> Matrix {
        const PROBE_ROWS: usize = 16;
        let d = self.rows();
        let mut x = Matrix::zeros(PROBE_ROWS, d);
        for r in 0..PROBE_ROWS {
            let row = x.row_mut(r);
            for (k, v) in row.iter_mut().enumerate() {
                *v = match (k + 3 * r) % 4 {
                    0 => 1.0,
                    1 => -1.0,
                    2 => 0.5,
                    _ => -0.25,
                };
            }
        }
        x
    }

    /// Measured response magnitude `Σ|y|` of the deterministic probe batch
    /// over the data columns, through the full noisy conversion path at
    /// escalated read averaging. The ratio of two such measurements on the
    /// same tile tracks the global conductance decay between them (the
    /// systematic conversion offsets — quantization, IR-drop — cancel),
    /// which is what the online α̂ recalibration needs. Advances the tile's
    /// noise streams like any forward; the accumulated statistics are
    /// restored afterwards.
    pub fn probe_magnitude(&mut self) -> f64 {
        let x = self.probe_batch();
        let saved = self.stats;
        let runtime_ra = self.config.read_averaging;
        self.config.read_averaging = runtime_ra.max(16);
        let (y, _) = self.forward_checked(&x);
        self.config.read_averaging = runtime_ra;
        self.stats = saved;
        y.as_slice().iter().map(|&v| v.abs() as f64).sum()
    }

    /// Captures the current probe magnitude as the recalibration reference
    /// (idempotent: a reference already captured is kept, so the baseline
    /// stays anchored at programming time).
    pub fn capture_probe_reference(&mut self) {
        if self.probe_ref.is_none() {
            self.probe_ref = Some(self.probe_magnitude());
        }
    }

    /// The captured recalibration reference, if any.
    pub fn probe_reference(&self) -> Option<f64> {
        self.probe_ref
    }

    /// Virtual time (seconds) at which this tile's conductances were
    /// programmed. Zero for deployment-time programming; updated when a
    /// rotation re-programs the slot mid-serve.
    pub fn programmed_at(&self) -> f64 {
        self.programmed_at
    }

    /// Marks the conductances as programmed at virtual time `now`, so
    /// subsequent [`AnalogTile::drift_to`] calls read at `now − programmed_at`.
    pub fn set_programmed_at(&mut self, now: f64) {
        self.programmed_at = now;
    }

    /// Installs a multiplicative output correction `α̂` estimated by the
    /// probe recalibration pass: the effective weights are rescaled in
    /// place and the cumulative factor is remembered so drift re-reads
    /// ([`AnalogTile::drift_to`]) keep the correction. Non-finite or
    /// non-positive factors are ignored.
    pub fn apply_recal_scale(&mut self, alpha: f32) {
        if !alpha.is_finite() || alpha <= 0.0 {
            return;
        }
        self.recal_scale *= alpha;
        self.w_eff.scale_assign(alpha);
    }

    /// Like [`AnalogTile::forward`], additionally running the ABFT checksum
    /// (and silent-tile) check when the config enables it and returning the
    /// verdict. With fault tolerance off the report is all-zeros/disabled
    /// and the execution path is identical to `forward`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.rows()`.
    pub fn forward_checked(&mut self, x: &Matrix) -> (Matrix, AbftReport) {
        assert_eq!(
            x.cols(),
            self.rows(),
            "input width {} vs tile rows {}",
            x.cols(),
            self.rows()
        );
        let batch = x.rows();
        let mut y = Matrix::zeros(batch, self.cols());
        let mut report = AbftReport {
            enabled: self.abft.is_some(),
            ..AbftReport::default()
        };
        let mut silent = SilentAcc::default();
        // Detach the execution state (noise stream, scratch arena, stats)
        // so the conversion chain below is the same `&self` core the keyed
        // path uses; re-attaching afterwards makes this wrapper
        // bit-identical to the historical `&mut self` chain by
        // construction.
        let mut rng = std::mem::take(&mut self.rng);
        let mut sc = std::mem::take(&mut self.scratch);
        let mut stats = self.stats;
        {
            let mut ns = NoiseStream {
                rng: &mut rng,
                icdf: false,
            };
            for i in 0..batch {
                self.forward_row_ex(
                    &mut ns,
                    &mut sc,
                    &mut stats,
                    x.row(i),
                    y.row_mut(i),
                    &mut report,
                    &mut silent,
                );
            }
        }
        self.rng = rng;
        self.scratch = sc;
        self.stats = stats;
        self.finish_report(&mut report, &silent);
        (y, report)
    }

    /// Stateless single-sample forward for **counter-keyed** noise streams:
    /// the batched-serving fast path that shares the tile immutably across
    /// slot workers.
    ///
    /// The noise sequence for this row is a pure function of `key` —
    /// callers compose it from `(deployment layer seed, tile grid
    /// coordinates, request noise seed, decode position)` — so the output
    /// is independent of admission order, batch composition and thread
    /// count. Draws use the inverse-CDF Gaussian sampler (one `u64` per
    /// sample) rather than legacy Box–Muller: keyed streams are a new,
    /// documented bit-contract, distinct from the sequential streams of
    /// [`AnalogTile::forward_checked`] that the batched eval path draws.
    ///
    /// Nothing on the tile is touched: accumulated statistics come back as
    /// a delta for the caller to [`AnalogTile::absorb_stats`] in a
    /// deterministic (slot, grid) order, alongside the ABFT verdict.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn forward_row_keyed(
        &self,
        x: &[f32],
        out: &mut Vec<f32>,
        key: &[u64],
        ctx: &mut TileCtx,
    ) -> (ForwardStats, AbftReport) {
        assert_eq!(
            x.len(),
            self.rows(),
            "input width {} vs tile rows {}",
            x.len(),
            self.rows()
        );
        out.clear();
        out.resize(self.cols(), 0.0);
        let mut report = AbftReport {
            enabled: self.abft.is_some(),
            ..AbftReport::default()
        };
        let mut silent = SilentAcc::default();
        let mut stats = ForwardStats::default();
        let mut rng = Rng::from_key(key);
        let mut ns = NoiseStream {
            rng: &mut rng,
            icdf: true,
        };
        self.forward_row_ex(
            &mut ns,
            &mut ctx.scratch,
            &mut stats,
            x,
            out,
            &mut report,
            &mut silent,
        );
        self.finish_report(&mut report, &silent);
        (stats, report)
    }

    /// Folds a [`ForwardStats`] delta produced by the keyed forward path
    /// into the tile's accumulated statistics. Callers absorb deltas in a
    /// fixed (slot, grid) order after a parallel round, so the merged
    /// counters are bit-identical at any thread count.
    pub fn absorb_stats(&mut self, delta: &ForwardStats) {
        self.stats.merge(delta);
    }

    /// Runs one input row through the full conversion + bound-management
    /// chain, writing the rescaled outputs into `out` (length `cols`,
    /// pre-zeroed — an all-zero input leaves it untouched).
    ///
    /// This is the shared `&self` core: the noise stream, scratch arena and
    /// statistics accumulator travel as explicit parameters so the
    /// sequential wrappers (tile-owned state, legacy draw order) and the
    /// keyed path (per-caller state, derived streams) run the identical
    /// arithmetic.
    #[allow(clippy::too_many_arguments)]
    fn forward_row_ex(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        stats: &mut ForwardStats,
        xrow: &[f32],
        out: &mut [f32],
        report: &mut AbftReport,
        silent: &mut SilentAcc,
    ) {
        let cols = self.cols();
        let total_cols = self.w_eff.cols();
        let max_retries = match self.config.bound_management {
            BoundManagement::None => 0,
            BoundManagement::Iterative { max_rounds } => max_rounds,
        };
        let mut x_s = std::mem::take(&mut sc.x_s);
        x_s.clear();
        x_s.resize(self.rows(), 0.0);
        let mut z = std::mem::take(&mut sc.z);
        // Divide by the smoothing vector (Eq. 7: x / (α' s)).
        for (k, (&xv, &sv)) in xrow.iter().zip(&self.s).enumerate() {
            x_s[k] = xv / sv;
        }
        let mut alpha = self.config.noise_management.alpha(&x_s);
        stats.samples += 1;
        if alpha.is_nan() || alpha <= 0.0 {
            // All-zero input (or degenerate policy): output row stays zero.
            sc.x_s = x_s;
            sc.z = z;
            return;
        }

        let mut round = 0u32;
        loop {
            let (clipped, saturated) = self.convert_once_ex(ns, sc, &x_s, alpha, &mut z);
            stats.read_repeats += u64::from(self.config.read_averaging.max(1));
            let final_round = saturated == 0 || round >= max_retries;
            if final_round {
                stats.clipped_inputs += clipped as u64;
                stats.total_inputs += self.rows() as u64;
                stats.saturated_outputs += saturated as u64;
                stats.total_outputs += total_cols as u64;
                // Rescale back: y_ij = α_i γ_j ẑ_ij (Eq. 3 / Eq. 8).
                for j in 0..cols {
                    out[j] = z[j] * alpha * self.gamma[j];
                    stats.rescale_sum += (alpha * self.gamma[j]) as f64;
                }
                stats.rescale_count += cols as u64;
                if let Some(ab) = &self.abft {
                    let gamma_c = self.gamma[cols];
                    let pred: f64 = x_s
                        .iter()
                        .zip(&ab.check_w)
                        .map(|(&xv, &cv)| (xv as f64) * (cv as f64))
                        .sum();
                    // Noise floor of one averaged checksum code:
                    // quantisation contributes ±lsb/2 and the additive
                    // output noise is divided by the read averaging.
                    let ra = self.config.read_averaging.max(1) as f32;
                    let floor = (self.adc_lsb / 2.0)
                        .max(self.config.out_noise / ra.sqrt())
                        .max(1e-9);
                    // `pred` is already in rescaled output units: the α
                    // of the input normalisation cancels against the α
                    // of the output rescale.
                    silent.pred += pred.abs();
                    silent.actual += f64::from((z[cols] * alpha * gamma_c).abs());
                    silent.noise += f64::from(alpha * gamma_c * floor);
                    // A sample with rail-level ADC codes is unverifiable:
                    // clipping breaks the checksum identity without any
                    // hardware fault (bound management has already used
                    // its retries by this point), so checking it would
                    // condemn healthy tiles on saturating workloads.
                    if saturated == 0 {
                        self.abft_check_row(&x_s, alpha, &z, out, report);
                    }
                }
                break;
            }
            // Bound management: widen the input range and redo.
            alpha *= 2.0;
            round += 1;
            stats.bound_mgmt_retries += 1;
        }
        sc.x_s = x_s;
        sc.z = z;
    }

    /// Finalizes the silent-tile verdict over the batch's accumulators.
    fn finish_report(&self, report: &mut AbftReport, silent: &SilentAcc) {
        if self.abft.is_some() {
            let policy = &self.config.fault_tolerance;
            // Silent-tile detector: a fully dead tile has a *consistent*
            // checksum of zero, invisible to the residual test. Compare the
            // checksum output a clean tile would have produced for this
            // batch against what was observed: "dead" means the prediction
            // is well above the ADC/noise floor while the observation stays
            // near it. (Comparing energies rather than raw codes keeps
            // tiles with legitimately tiny outputs — e.g. naive deployments
            // whose γ is dominated by outlier channels — unflagged.)
            report.silent = silent.pred > 4.0 * silent.noise && silent.actual < 0.25 * silent.pred;
            let frac_flag = report.violations as f64
                > f64::from(policy.flag_fraction) * report.rows_checked as f64;
            report.suspicious = report.silent || (report.violations >= 1 && frac_flag);
        }
    }

    /// The per-sample ABFT residual test (see [`AbftState`]).
    fn abft_check_row(
        &self,
        x_s: &[f32],
        alpha: f32,
        z: &[f32],
        out: &[f32],
        report: &mut AbftReport,
    ) {
        let ab = self.abft.as_ref().expect("caller checked");
        let cfg = &self.config;
        let policy = &cfg.fault_tolerance;
        let dc = self.data_cols;
        let y_c = z[dc] * alpha * self.gamma[dc];
        let mut sum_y = 0.0f64;
        let mut sum_abs = y_c.abs() as f64;
        for &v in out.iter().take(dc) {
            sum_y += v as f64;
            sum_abs += v.abs() as f64;
        }
        let static_corr: f64 = x_s
            .iter()
            .zip(&ab.static_corr)
            .map(|(&xv, &dv)| (xv as f64) * (dv as f64))
            .sum();
        let residual = sum_y - y_c as f64 - static_corr;

        // Stochastic noise budget of the residual: per column, additive
        // output noise and ADC quantization scale by α·γ_j while short-term
        // read noise scales by γ_j·σ_w·‖x_s‖₂ (the α cancels); columns are
        // independent, so the variances sum with gain Γ² = Σγ². Read
        // averaging divides the stochastic part by n.
        let xs_l2 = x_s
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt();
        let a = alpha as f64;
        let out_var = (cfg.out_noise as f64).powi(2) + (self.adc_lsb as f64).powi(2) / 12.0;
        let w_var = (cfg.w_noise as f64).powi(2) * xs_l2 * xs_l2;
        let ra = f64::from(cfg.read_averaging.max(1));
        let sigma_r = (f64::from(ab.gamma_sq) * (a * a * out_var + w_var) / ra).sqrt();
        let tau = f64::from(policy.abft_threshold) * sigma_r
            + f64::from(policy.abft_rel_tol) * sum_abs
            + 1e-6;

        report.rows_checked += 1;
        let ratio = (residual.abs() / tau) as f32;
        report.worst_ratio = report.worst_ratio.max(ratio);
        if residual.abs() > tau {
            report.violations += 1;
        }
    }

    /// One DAC→MAC→ADC pass at a fixed `α`, averaged over `read_averaging`
    /// repeats. Writes the normalised outputs into `z` (cleared first) and
    /// returns the clip/saturation counts.
    ///
    /// Under read averaging the saturation count is the **per-repeat
    /// maximum**: a repeat that saturates means the physical read-out hit
    /// the rails, and bound management must widen the range even when the
    /// other repeats stayed in range. (Integer-averaging the counts would
    /// round 15 saturated reads out of 16 down to zero and silently skip
    /// the retry.)
    fn convert_once_ex(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        z: &mut Vec<f32>,
    ) -> (usize, usize) {
        #[cfg(test)]
        if self.reference_path {
            return self.convert_once_reference(ns, sc, x_s, alpha, z);
        }
        let repeats = self.config.read_averaging.max(1) as usize;
        let analog = matches!(
            self.config.input_encoding,
            crate::config::InputEncoding::Analog
        );
        let (clipped, saturated) = if repeats == 1 {
            self.convert_single_ex(ns, sc, x_s, alpha, z)
        } else if analog {
            self.convert_analog_averaged_ex(ns, sc, x_s, alpha, z, repeats)
        } else {
            // Bit-serial planes rebuild the full wordline sweep per repeat;
            // only the ADC-code accumulation is shared with the analog path.
            let (clipped, mut saturated) = self.convert_single_ex(ns, sc, x_s, alpha, z);
            let mut zr = std::mem::take(&mut sc.z_rep);
            for _ in 1..repeats {
                let (_, sat) = self.convert_single_ex(ns, sc, x_s, alpha, &mut zr);
                for (a, &b) in z.iter_mut().zip(&zr) {
                    *a += b;
                }
                saturated = saturated.max(sat);
            }
            sc.z_rep = zr;
            let inv = 1.0 / repeats as f32;
            for v in z.iter_mut() {
                *v *= inv;
            }
            (clipped, saturated)
        };
        // A stuck ADC channel reports its latched code regardless of the
        // bitline current (and of averaging — every repeat reads the same
        // code).
        if let Some(map) = &self.fault_map {
            map.apply_adc_stuck(z, self.config.adc_bound);
        }
        (clipped, saturated)
    }

    /// A single unaveraged conversion round, written into `z`.
    fn convert_single_ex(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        z: &mut Vec<f32>,
    ) -> (usize, usize) {
        match self.config.input_encoding {
            crate::config::InputEncoding::Analog => self.convert_analog_ex(ns, sc, x_s, alpha, z),
            crate::config::InputEncoding::BitSerial { bits } => {
                self.convert_bit_serial_ex(ns, sc, x_s, alpha, bits, z)
            }
        }
    }

    /// Adds `N(0, σ)` to every element of `xs`.
    ///
    /// The samples are drawn with the stream's batched fill into the `buf`
    /// scratch vector and then added — the same values, in the same draw
    /// order, as a per-element `*v += ns.normal(0.0, sigma)` loop.
    fn add_noise_ex(ns: &mut NoiseStream<'_>, buf: &mut Vec<f32>, xs: &mut [f32], sigma: f32) {
        buf.clear();
        buf.resize(xs.len(), 0.0);
        ns.fill_normal(buf, 0.0, sigma);
        for (v, &n) in xs.iter_mut().zip(buf.iter()) {
            *v += n;
        }
    }

    /// σ of the aggregated short-term read noise for drive vector `x_hat`:
    /// each cell's conductance jitters per read cycle, so output `j` picks
    /// up `Σ_k ξ_kj · x̂_k`, a Gaussian with std `σ_w · ‖x̂‖₂`. Sampling
    /// that aggregate directly is statistically exact and `O(cols)` instead
    /// of `O(rows × cols)`. Returns 0 when the stage is inactive.
    fn read_noise_sigma(&self, x_hat: &[f32]) -> f32 {
        if self.config.w_noise <= 0.0 {
            return 0.0;
        }
        let x_l2 = x_hat
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32;
        if x_l2 > 0.0 {
            self.config.w_noise * x_l2
        } else {
            0.0
        }
    }

    /// Mean `|x̂|` of the driven wordlines — the IR-drop model's congestion
    /// proxy. Returns 0 when IR drop is off (the value is unused then).
    fn mean_drive(&self, x_hat: &[f32]) -> f32 {
        if self.ir.is_off() {
            return 0.0;
        }
        x_hat.iter().map(|v| v.abs()).sum::<f32>() / x_hat.len().max(1) as f32
    }

    /// The stochastic back half of one conversion round: read-noise add,
    /// IR-drop droop, output-noise add, ADC saturate+quantize. Returns the
    /// saturation count.
    ///
    /// The noise is drawn into scratch buffers *before* the arithmetic
    /// passes — all read-noise draws first, then all output-noise draws —
    /// which preserves the exact RNG draw order of the unfused per-stage
    /// sweeps. Each element then sees the identical operation chain
    /// (`+ wn[j]`, `× droop_j`, `+ on[j]`, ADC) the sweeps would apply, so
    /// fusing changes nothing bitwise while touching `z` twice (the three
    /// analog stages in one [`ReadoutStages`] pass, then the ADC) instead
    /// of four times. Both passes run through [`simd::run`].
    fn fused_epilogue_ex(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        z: &mut [f32],
        sigma_w: f32,
        u: f32,
    ) -> usize {
        let n = z.len();
        let has_w = sigma_w > 0.0;
        let has_o = self.config.out_noise > 0.0;
        let Scratch { wn, on, .. } = sc;
        // Both buffers are as long as `z` even when their stage is off (the
        // pass then ignores them), so the pass needs no bounds checks.
        wn.resize(n, 0.0);
        on.resize(n, 0.0);
        if has_w {
            ns.fill_normal(wn, 0.0, sigma_w);
        }
        if has_o {
            ns.fill_normal(on, 0.0, self.config.out_noise);
        }
        simd::run(ReadoutStages {
            z,
            wn,
            on,
            ir_factors: &self.ir_factors,
            has_w,
            has_o,
            ir: self.ir,
            u,
        });
        self.adc.convert_slice(z)
    }

    /// Multi-level analog input drive: one DAC conversion per input.
    fn convert_analog_ex(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        z: &mut Vec<f32>,
    ) -> (usize, usize) {
        // DAC stage.
        let mut x_hat = std::mem::take(&mut sc.x_hat);
        x_hat.clear();
        x_hat.extend(x_s.iter().map(|&v| v / alpha));
        let clipped = self.dac.convert_slice(&mut x_hat);
        // Additive input noise (mixed-signal components after the DAC).
        if self.config.in_noise > 0.0 {
            let sigma = self.config.in_noise;
            Self::add_noise_ex(ns, &mut sc.wn, &mut x_hat, sigma);
        }
        // S-shape transfer of the input drivers.
        crate::nonlinearity::s_shape_slice(&mut x_hat, self.config.s_shape);

        // Analog MAC over the effective weights (dense kernel: activations
        // after DAC + noise + S-shape are almost never exact zeros).
        self.w_eff.vecmat_into(&x_hat, z);

        let sigma_w = self.read_noise_sigma(&x_hat);
        let u = self.mean_drive(&x_hat);
        sc.x_hat = x_hat;
        let saturated = self.fused_epilogue_ex(ns, sc, z, sigma_w, u);
        (clipped, saturated)
    }

    /// Read-averaged analog conversion with the deterministic stages
    /// hoisted out of the repeat loop.
    ///
    /// The DAC sees the same `x_s/α` every repeat and consumes no RNG
    /// draws, so its output (and clip count) is computed once. With no
    /// additive input noise the S-shaped drive vector — and therefore the
    /// clean MVM `ŵ·x̂`, the read-noise σ and the IR-drop congestion — are
    /// also repeat-invariant, collapsing each repeat to "clean z + fresh
    /// noise + IR droop + ADC". None of the hoisted stages draws from the
    /// RNG, and the per-repeat draw order (read noise, then output noise)
    /// matches the unhoisted chain, so the noise stream is untouched and
    /// the averaged codes are bit-identical to running the full chain
    /// `repeats` times.
    fn convert_analog_averaged_ex(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        z: &mut Vec<f32>,
        repeats: usize,
    ) -> (usize, usize) {
        let mut x_dac = std::mem::take(&mut sc.x_dac);
        x_dac.clear();
        x_dac.extend(x_s.iter().map(|&v| v / alpha));
        let clipped = self.dac.convert_slice(&mut x_dac);

        let mut zr = std::mem::take(&mut sc.z_rep);
        let mut saturated = 0usize;
        if self.config.in_noise > 0.0 {
            // Partial hoist: input noise makes the driven vector (and so
            // the MVM) stochastic, so each repeat rebuilds it from the
            // cached DAC output and runs a full MVM.
            let sigma_in = self.config.in_noise;
            for rep in 0..repeats {
                let mut x_hat = std::mem::take(&mut sc.x_hat);
                x_hat.clear();
                x_hat.extend_from_slice(&x_dac);
                Self::add_noise_ex(ns, &mut sc.wn, &mut x_hat, sigma_in);
                crate::nonlinearity::s_shape_slice(&mut x_hat, self.config.s_shape);
                self.w_eff.vecmat_into(&x_hat, &mut zr);
                let sigma_w = self.read_noise_sigma(&x_hat);
                let u = self.mean_drive(&x_hat);
                sc.x_hat = x_hat;
                let sat = self.fused_epilogue_ex(ns, sc, &mut zr, sigma_w, u);
                saturated = saturated.max(sat);
                Self::accumulate_repeat(z, &zr, rep);
            }
        } else {
            // Full hoist: S-shape, clean MVM, read-noise σ and mean drive
            // once; `read_averaging = n` costs one GEMV instead of `n`.
            crate::nonlinearity::s_shape_slice(&mut x_dac, self.config.s_shape);
            let mut z_clean = std::mem::take(&mut sc.z_clean);
            self.w_eff.vecmat_into(&x_dac, &mut z_clean);
            let sigma_w = self.read_noise_sigma(&x_dac);
            let u = self.mean_drive(&x_dac);
            for rep in 0..repeats {
                zr.clear();
                zr.extend_from_slice(&z_clean);
                let sat = self.fused_epilogue_ex(ns, sc, &mut zr, sigma_w, u);
                saturated = saturated.max(sat);
                Self::accumulate_repeat(z, &zr, rep);
            }
            sc.z_clean = z_clean;
        }
        sc.z_rep = zr;
        sc.x_dac = x_dac;
        let inv = 1.0 / repeats as f32;
        for v in z.iter_mut() {
            *v *= inv;
        }
        (clipped, saturated)
    }

    /// Adds repeat `rep`'s codes into the running sum `z`, in repeat order
    /// — the same `z = c₀; z += c₁; …` chain as the unhoisted loop.
    fn accumulate_repeat(z: &mut Vec<f32>, zr: &[f32], rep: usize) {
        if rep == 0 {
            z.clear();
            z.extend_from_slice(zr);
        } else {
            for (a, &b) in z.iter_mut().zip(zr) {
                *a += b;
            }
        }
    }

    /// Bit-serial input drive (ISAAC-style): the scaled input is quantized
    /// to `bits` signed levels and streamed as `bits − 1` binary ±1/0
    /// wordline planes; each plane runs the full analog chain (read noise,
    /// IR-drop, output noise, ADC) and the planes are combined by a digital
    /// shift-add. Binary drivers see the S-shape nonlinearity only as a
    /// single calibrated gain, so it cancels exactly.
    fn convert_bit_serial_ex(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        bits: u32,
        z: &mut Vec<f32>,
    ) -> (usize, usize) {
        let planes = bits - 1;
        let full_scale = ((1u32 << planes) - 1) as f32;
        // Quantize the scaled input to signed integers in [-full_scale,
        // full_scale]; values beyond the DAC bound clip, as in the analog
        // path.
        let bound = self.config.dac_bound;
        let mut clipped = 0usize;
        let mut levels = std::mem::take(&mut sc.levels);
        levels.clear();
        levels.extend(x_s.iter().map(|&v| {
            let scaled = v / alpha;
            if scaled.abs() > bound {
                clipped += 1;
            }
            let c = if scaled.is_nan() {
                0.0
            } else {
                scaled.clamp(-bound, bound)
            };
            (c / bound * full_scale).round() as i32
        }));

        // The calibrated gain of a binary driver under the S-shape transfer.
        let drive_gain = crate::nonlinearity::s_shape(1.0, self.config.s_shape);

        let cols = self.cols();
        z.clear();
        z.resize(cols, 0.0);
        let mut saturated = 0usize;
        let mut plane = std::mem::take(&mut sc.plane);
        plane.clear();
        plane.resize(levels.len(), 0.0);
        let mut zk = std::mem::take(&mut sc.zk);
        for k in 0..planes {
            let mask = 1i32 << k;
            for (p, &m) in plane.iter_mut().zip(&levels) {
                *p = if m.abs() & mask != 0 {
                    m.signum() as f32 * drive_gain
                } else {
                    0.0
                };
            }
            // Additive input noise perturbs every driven wordline phase
            // (batched draw — same per-line sequence as the scalar loop).
            if self.config.in_noise > 0.0 {
                let sigma = self.config.in_noise;
                Self::add_noise_ex(ns, &mut sc.wn, &mut plane, sigma);
            }
            // Wordline planes are genuinely sparse (≈half the lines idle per
            // bit position when in_noise is zero), so the sparse-aware
            // kernel wins here — unlike the dense analog path.
            self.w_eff.vecmat_sparse_into(&plane, &mut zk);
            // Per-plane read noise / IR droop / output noise / ADC, fused
            // exactly as in the analog path (the plane is the drive vector).
            let sigma_w = self.read_noise_sigma(&plane);
            let u = self.mean_drive(&plane);
            saturated += self.fused_epilogue_ex(ns, sc, &mut zk, sigma_w, u);
            // Digital shift-add, undoing the calibrated binary drive gain.
            let weight = (mask as f32) / full_scale * bound / drive_gain;
            for (acc, &v) in z.iter_mut().zip(&zk) {
                *acc += v * weight;
            }
        }
        sc.levels = levels;
        sc.plane = plane;
        sc.zk = zk;
        (clipped, saturated)
    }

    /// Mean relative programmed conductance `mean(|ŵ|)` — drives array
    /// read energy and IR-drop.
    pub fn mean_rel_conductance(&self) -> f32 {
        if self.w_eff.is_empty() {
            return 0.0;
        }
        self.w_eff.as_slice().iter().map(|v| v.abs()).sum::<f32>() / self.w_eff.len() as f32
    }

    /// First-order energy/latency estimate of all executions recorded in
    /// this tile's statistics (see [`crate::energy`]).
    pub fn energy(&self, model: &crate::energy::EnergyModel) -> crate::energy::EnergyReport {
        model.estimate(
            &self.stats,
            self.rows(),
            self.w_eff.cols(), // the checksum column, if any, costs energy too
            self.mean_rel_conductance(),
        )
    }

    /// Re-reads the tile's conductances `t_seconds` after programming,
    /// replacing the effective weights with their drifted values (PCM
    /// weight source only; a no-op for ideal weights).
    ///
    /// With [`DriftCompensation::GlobalScale`] the drifted weights are
    /// rescaled by one global factor so that the summed absolute weight
    /// matches its value at programming time.
    pub fn apply_drift(&mut self, t_seconds: f64, compensation: DriftCompensation) {
        // The offline study's drift re-read models a fresh deployment-time
        // calibration pass, so the ABFT static correction is re-measured.
        self.drift_read(t_seconds, compensation, true);
    }

    /// Online field-drift step: re-reads the conductances at virtual time
    /// `now`, i.e. `now − programmed_at` seconds after this tile was last
    /// programmed. Unlike [`AnalogTile::apply_drift`] the ABFT calibration
    /// is **not** refreshed — in the field nobody re-runs the deployment
    /// calibration, so the drift residual accrues against the stale
    /// correction and eventually trips the checksum ladder, which is
    /// exactly the trigger the maintenance scheduler listens for. Any
    /// installed recalibration scale is reapplied after the re-read.
    pub fn drift_to(&mut self, now: f64, compensation: DriftCompensation) {
        // Never read before the reference read time: effective weights are
        // defined at `REFERENCE_READ_TIME` and the drift factor clamps there
        // anyway, so a rotation followed by a drift step in the same round
        // re-reads the freshly programmed state.
        let elapsed = (now - self.programmed_at).max(REFERENCE_READ_TIME);
        self.drift_read(elapsed, compensation, false);
    }

    fn drift_read(&mut self, t_seconds: f64, compensation: DriftCompensation, recalibrate: bool) {
        let Some(prog) = &self.programmed else {
            return;
        };
        let device = self
            .config
            .device_model()
            .expect("programmed tile implies a device model");
        let mut dev_rng = self.rng.fork(0xd21f);
        self.w_eff = match prog {
            ProgrammedWeights::Plain(p) => read_matrix(p, device.as_ref(), t_seconds, &mut dev_rng),
            ProgrammedWeights::Sliced(s) => {
                read_sliced(s, device.as_ref(), t_seconds, &mut dev_rng)
            }
        };
        // When requested, the re-read models a fresh calibration pass: the
        // ABFT static correction is re-measured from the drifted (still
        // healthy) conductances before the array's hard defects are
        // re-imprinted — stuck cells do not drift away.
        if recalibrate {
            if let Some(ab) = &mut self.abft {
                *ab = AbftState::calibrate(&self.w_eff, &self.gamma, self.data_cols);
            }
        }
        if let Some(map) = &self.fault_map {
            map.apply_to_weights(&mut self.w_eff);
        }
        if compensation == DriftCompensation::GlobalScale {
            let now: f64 = self.w_eff.as_slice().iter().map(|&v| v.abs() as f64).sum();
            if now > 0.0 && self.prog_abs_sum > 0.0 {
                self.w_eff.scale_assign((self.prog_abs_sum / now) as f32);
            }
        }
        if self.recal_scale != 1.0 {
            self.w_eff.scale_assign(self.recal_scale);
        }
    }
}

/// Naive reference conversion path, used by the equivalence tests to prove
/// the hoisted/fused fast path bit-identical: one full per-stage chain per
/// read-averaging repeat, scalar per-element noise draws, no hoisting, no
/// fusing. This is the shipping implementation from before the fast path,
/// with the same per-repeat-maximum saturation accounting.
#[cfg(test)]
impl AnalogTile {
    /// Routes all subsequent conversions through the reference path.
    fn use_reference_path(&mut self) {
        self.reference_path = true;
    }

    fn convert_once_reference(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        z: &mut Vec<f32>,
    ) -> (usize, usize) {
        let repeats = self.config.read_averaging.max(1);
        let (clipped, mut saturated) = self.convert_single_reference(ns, sc, x_s, alpha, z);
        if repeats > 1 {
            let mut zr = std::mem::take(&mut sc.z_rep);
            for _ in 1..repeats {
                let (_, sat) = self.convert_single_reference(ns, sc, x_s, alpha, &mut zr);
                for (a, &b) in z.iter_mut().zip(&zr) {
                    *a += b;
                }
                saturated = saturated.max(sat);
            }
            sc.z_rep = zr;
            let inv = 1.0 / repeats as f32;
            for v in z.iter_mut() {
                *v *= inv;
            }
        }
        if let Some(map) = &self.fault_map {
            map.apply_adc_stuck(z, self.config.adc_bound);
        }
        (clipped, saturated)
    }

    fn convert_single_reference(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        z: &mut Vec<f32>,
    ) -> (usize, usize) {
        match self.config.input_encoding {
            crate::config::InputEncoding::Analog => {
                self.convert_analog_reference(ns, sc, x_s, alpha, z)
            }
            crate::config::InputEncoding::BitSerial { bits } => {
                self.convert_bit_serial_reference(ns, sc, x_s, alpha, bits, z)
            }
        }
    }

    fn convert_analog_reference(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        z: &mut Vec<f32>,
    ) -> (usize, usize) {
        let mut x_hat = std::mem::take(&mut sc.x_hat);
        x_hat.clear();
        x_hat.extend(x_s.iter().map(|&v| v / alpha));
        // Per-element DAC and a naive k-ascending MVM, not the dispatched
        // kernels: this chain is compiled without AVX2 in every test build,
        // so the fast path is checked against baseline code on AVX2 hosts.
        let bound = self.dac.bound();
        let mut clipped = 0usize;
        for v in &mut x_hat {
            if v.is_nan() || v.abs() > bound {
                clipped += 1;
            }
            *v = self.dac.convert(*v);
        }
        if self.config.in_noise > 0.0 {
            let sigma = self.config.in_noise;
            for v in &mut x_hat {
                *v += ns.normal(0.0, sigma);
            }
        }
        crate::nonlinearity::s_shape_slice(&mut x_hat, self.config.s_shape);
        // Each output starts at 0.0 and adds x[k]·w[k][j] in k order: the
        // chain of the tiled row kernel, so the bits are the same.
        z.clear();
        z.resize(self.w_eff.cols(), 0.0);
        for (k, &xk) in x_hat.iter().enumerate() {
            for (o, &w) in z.iter_mut().zip(self.w_eff.row(k)) {
                *o += xk * w;
            }
        }
        if self.config.w_noise > 0.0 {
            let x_l2 = x_hat
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>()
                .sqrt() as f32;
            if x_l2 > 0.0 {
                let sigma = self.config.w_noise * x_l2;
                for v in z.iter_mut() {
                    *v += ns.normal(0.0, sigma);
                }
            }
        }
        if !self.ir.is_off() {
            let u: f32 = x_hat.iter().map(|v| v.abs()).sum::<f32>() / x_hat.len().max(1) as f32;
            self.ir.apply(z, &self.ir_factors, u);
        }
        if self.config.out_noise > 0.0 {
            let sigma = self.config.out_noise;
            for v in z.iter_mut() {
                *v += ns.normal(0.0, sigma);
            }
        }
        let saturated = self.adc_reference(z);
        sc.x_hat = x_hat;
        (clipped, saturated)
    }

    /// Per-element ADC pass of the reference chain (baseline code, like
    /// the rest of it), with the accounting of [`Adc::convert_slice`].
    fn adc_reference(&self, z: &mut [f32]) -> usize {
        let mut saturated = 0;
        for v in z.iter_mut() {
            let (code, sat) = self.adc.convert(*v);
            saturated += sat as usize;
            *v = code;
        }
        saturated
    }

    fn convert_bit_serial_reference(
        &self,
        ns: &mut NoiseStream<'_>,
        sc: &mut Scratch,
        x_s: &[f32],
        alpha: f32,
        bits: u32,
        z: &mut Vec<f32>,
    ) -> (usize, usize) {
        let planes = bits - 1;
        let full_scale = ((1u32 << planes) - 1) as f32;
        let bound = self.config.dac_bound;
        let mut clipped = 0usize;
        let mut levels = std::mem::take(&mut sc.levels);
        levels.clear();
        levels.extend(x_s.iter().map(|&v| {
            let scaled = v / alpha;
            if scaled.abs() > bound {
                clipped += 1;
            }
            let c = if scaled.is_nan() {
                0.0
            } else {
                scaled.clamp(-bound, bound)
            };
            (c / bound * full_scale).round() as i32
        }));
        let drive_gain = crate::nonlinearity::s_shape(1.0, self.config.s_shape);
        let cols = self.cols();
        z.clear();
        z.resize(cols, 0.0);
        let mut saturated = 0usize;
        let mut plane = std::mem::take(&mut sc.plane);
        plane.clear();
        plane.resize(levels.len(), 0.0);
        let mut zk = std::mem::take(&mut sc.zk);
        for k in 0..planes {
            let mask = 1i32 << k;
            for (p, &m) in plane.iter_mut().zip(&levels) {
                *p = if m.abs() & mask != 0 {
                    m.signum() as f32 * drive_gain
                } else {
                    0.0
                };
                if self.config.in_noise > 0.0 {
                    *p += ns.normal(0.0, self.config.in_noise);
                }
            }
            self.w_eff.vecmat_sparse_into(&plane, &mut zk);
            if self.config.w_noise > 0.0 {
                let l2 = plane
                    .iter()
                    .map(|&v| (v as f64) * (v as f64))
                    .sum::<f64>()
                    .sqrt() as f32;
                if l2 > 0.0 {
                    let sigma = self.config.w_noise * l2;
                    for v in &mut zk {
                        *v += ns.normal(0.0, sigma);
                    }
                }
            }
            if !self.ir.is_off() {
                let u: f32 = plane.iter().map(|v| v.abs()).sum::<f32>() / plane.len().max(1) as f32;
                self.ir.apply(&mut zk, &self.ir_factors, u);
            }
            if self.config.out_noise > 0.0 {
                for v in &mut zk {
                    *v += ns.normal(0.0, self.config.out_noise);
                }
            }
            saturated += self.adc_reference(&mut zk);
            let weight = (mask as f32) / full_scale * bound / drive_gain;
            for (acc, &v) in z.iter_mut().zip(&zk) {
                *acc += v * weight;
            }
        }
        sc.levels = levels;
        sc.plane = plane;
        sc.zk = zk;
        (clipped, saturated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Resolution, WeightSource};
    use crate::management::NoiseManagement;
    use nora_tensor::stats;

    fn random_setup(seed: u64, rows: usize, cols: usize) -> (Matrix, Matrix) {
        let mut rng = Rng::seed_from(seed);
        let w = Matrix::random_normal(rows, cols, 0.0, 0.3, &mut rng);
        let x = Matrix::random_normal(8, rows, 0.0, 1.0, &mut rng);
        (w, x)
    }

    #[test]
    fn ideal_tile_computes_exact_gemv() {
        let (w, x) = random_setup(1, 32, 16);
        let mut tile = AnalogTile::new(w.clone(), None, TileConfig::ideal(), Rng::seed_from(2));
        let y = tile.forward(&x);
        let y_ref = x.matmul(&w);
        assert!(y.mse(&y_ref) < 1e-10, "mse {}", y.mse(&y_ref));
    }

    #[test]
    fn ideal_tile_with_smoothing_is_still_exact() {
        // NORA rescaling is mathematically exact absent non-idealities.
        let (w, x) = random_setup(3, 32, 16);
        let s: Vec<f32> = (0..32).map(|i| 0.25 + (i % 7) as f32 * 0.5).collect();
        let mut tile = AnalogTile::new(w.clone(), Some(&s), TileConfig::ideal(), Rng::seed_from(4));
        let y = tile.forward(&x);
        let y_ref = x.matmul(&w);
        assert!(y.mse(&y_ref) < 1e-9, "mse {}", y.mse(&y_ref));
    }

    #[test]
    fn paper_default_tile_is_noisy_but_close() {
        let (w, x) = random_setup(5, 64, 32);
        let mut cfg = TileConfig::paper_default();
        cfg.tile_rows = 64;
        cfg.tile_cols = 32;
        let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(6));
        let y = tile.forward(&x);
        let y_ref = x.matmul(&w);
        let rel = y.mse(&y_ref) / stats::variance(y_ref.as_slice());
        assert!(rel > 1e-6, "should not be exact, rel {rel}");
        assert!(rel < 0.2, "should be within 20% relative MSE, rel {rel}");
    }

    #[test]
    fn zero_input_row_gives_zero_output() {
        let (w, _) = random_setup(7, 16, 8);
        let mut tile = AnalogTile::new(w, None, TileConfig::paper_default(), Rng::seed_from(8));
        let x = Matrix::zeros(2, 16);
        let y = tile.forward(&x);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gamma_is_column_abs_max_of_scaled_weights() {
        let w = Matrix::from_rows(&[&[1.0, -4.0], &[-2.0, 3.0]]);
        let s = [2.0f32, 1.0];
        let tile = AnalogTile::new(w, Some(&s), TileConfig::ideal(), Rng::seed_from(0));
        // col 0: |1*2| vs |-2*1| → 2 ; col 1: |-4*2| vs |3*1| → 8
        assert_eq!(tile.gamma(), &[2.0, 8.0]);
    }

    #[test]
    fn effective_weights_are_normalised() {
        let (w, _) = random_setup(9, 20, 10);
        let tile = AnalogTile::new(w, None, TileConfig::ideal(), Rng::seed_from(1));
        assert!(tile.effective_weights().abs_max() <= 1.0 + 1e-6);
    }

    #[test]
    fn all_zero_column_stays_zero() {
        let mut w = Matrix::zeros(4, 3);
        w[(0, 0)] = 1.0;
        w[(2, 2)] = -1.0;
        let mut tile = AnalogTile::new(w, None, TileConfig::ideal(), Rng::seed_from(2));
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]);
        let y = tile.forward(&x);
        assert_eq!(y[(0, 1)], 0.0);
    }

    #[test]
    fn quantization_error_shrinks_with_resolution() {
        let (w, x) = random_setup(11, 48, 24);
        let y_ref = x.matmul(&w);
        let mse_at_bits = |bits: u32| {
            let mut cfg = TileConfig::ideal();
            cfg.dac = Resolution::bits(bits);
            cfg.adc = Resolution::bits(bits);
            cfg.adc_bound = 12.0;
            let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(12));
            tile.forward(&x).mse(&y_ref)
        };
        let coarse = mse_at_bits(4);
        let fine = mse_at_bits(9);
        assert!(
            fine < coarse / 10.0,
            "fine {fine} should be well below coarse {coarse}"
        );
    }

    #[test]
    fn output_noise_scales_mse() {
        let (w, x) = random_setup(13, 48, 24);
        let y_ref = x.matmul(&w);
        let mse_at = |sigma: f32| {
            let mut cfg = TileConfig::ideal();
            cfg.out_noise = sigma;
            let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(14));
            tile.forward(&x).mse(&y_ref)
        };
        let low = mse_at(0.01);
        let high = mse_at(0.1);
        // MSE should scale roughly with σ² (×100)
        let ratio = high / low;
        assert!((30.0..300.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn read_noise_aggregate_matches_statistics() {
        // Per-output read-noise std should be σ_w · ‖x̂‖₂ · α · γ.
        let rows = 64;
        let w = Matrix::full(rows, 1, 0.5);
        let mut cfg = TileConfig::ideal();
        cfg.w_noise = 0.02;
        cfg.noise_management = NoiseManagement::AbsMax;
        let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(15));
        let x = Matrix::full(1, rows, 1.0);
        let y_ref = x.matmul(&w)[(0, 0)];
        let n = 4000;
        let mut sum2 = 0.0f64;
        for _ in 0..n {
            let y = tile.forward(&x)[(0, 0)];
            sum2 += ((y - y_ref) as f64).powi(2);
        }
        let measured = (sum2 / n as f64).sqrt();
        // x̂ = 1 (α=1 per AbsMax? α = max|x| = 1). ‖x̂‖₂ = 8. γ = 0.5.
        let expect = 0.02 * (rows as f32).sqrt() * 1.0 * 0.5;
        assert!(
            (measured / expect as f64 - 1.0).abs() < 0.1,
            "measured {measured} expect {expect}"
        );
    }

    #[test]
    fn bound_management_recovers_saturation() {
        // Force heavy ADC saturation with a tiny bound; iterative BM should
        // recover most of the accuracy.
        let (w, x) = random_setup(17, 64, 16);
        let y_ref = x.matmul(&w);
        let run = |bm: BoundManagement| {
            let mut cfg = TileConfig::ideal();
            cfg.adc = Resolution::bits(9);
            cfg.adc_bound = 1.0; // far too small: outputs saturate
            cfg.bound_management = bm;
            let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(18));
            let y = tile.forward(&x);
            (y.mse(&y_ref), tile.stats().bound_mgmt_retries)
        };
        let (mse_none, retries_none) = run(BoundManagement::None);
        let (mse_bm, retries_bm) = run(BoundManagement::Iterative { max_rounds: 6 });
        assert_eq!(retries_none, 0);
        assert!(retries_bm > 0);
        assert!(
            mse_bm < mse_none / 5.0,
            "bm {mse_bm} should beat none {mse_none}"
        );
    }

    #[test]
    fn exact_full_scale_output_triggers_no_bound_management_retry() {
        // Regression for the ADC `>=` saturation boundary: a noiseless 1×1
        // tile with w = 1 and AbsMax noise management drives x̂ = 1, so the
        // pre-ADC read-out is exactly the ADC bound. Full scale is in
        // range — the iterative bound-management loop must accept it on
        // round 0 instead of burning α-doubling retries.
        let mut cfg = TileConfig::ideal();
        cfg.adc_bound = 1.0;
        cfg.bound_management = BoundManagement::Iterative { max_rounds: 4 };
        let w = Matrix::from_vec(1, 1, vec![1.0]);
        let mut tile = AnalogTile::new(w, None, cfg, Rng::seed_from(21));
        let x = Matrix::from_vec(2, 1, vec![0.75, -0.5]);
        let y = tile.forward(&x);
        // Ideal converters: the tile computes the exact product.
        assert_eq!(y[(0, 0)], 0.75);
        assert_eq!(y[(1, 0)], -0.5);
        assert_eq!(tile.stats().bound_mgmt_retries, 0);
        assert_eq!(tile.stats().saturated_outputs, 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let (w, x) = random_setup(19, 16, 8);
        let mut tile = AnalogTile::new(w, None, TileConfig::paper_default(), Rng::seed_from(20));
        tile.forward(&x);
        assert_eq!(tile.stats().samples, 8);
        assert!(tile.stats().mean_rescale() > 0.0);
        tile.reset_stats();
        assert_eq!(tile.stats(), &ForwardStats::default());
    }

    #[test]
    fn pcm_weights_add_programming_error() {
        let (w, x) = random_setup(21, 32, 16);
        let y_ref = x.matmul(&w);
        let mut cfg = TileConfig::ideal();
        cfg.weight_source = WeightSource::Pcm(1.0);
        let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(22));
        let y = tile.forward(&x);
        let mse = y.mse(&y_ref);
        assert!(mse > 1e-8, "programming noise should perturb output");
        assert!(mse < 0.5, "but not catastrophically: {mse}");
    }

    #[test]
    fn drift_degrades_then_compensation_recovers() {
        let (w, x) = random_setup(23, 48, 24);
        let y_ref = x.matmul(&w);
        let mut cfg = TileConfig::ideal();
        cfg.weight_source = WeightSource::Pcm(0.2);
        let make = || AnalogTile::new(w.clone(), None, cfg.clone(), Rng::seed_from(24));

        let mut fresh = make();
        let mse_fresh = fresh.forward(&x).mse(&y_ref);

        let mut drifted = make();
        drifted.apply_drift(86_400.0, DriftCompensation::None);
        let mse_drift = drifted.forward(&x).mse(&y_ref);

        let mut comp = make();
        comp.apply_drift(86_400.0, DriftCompensation::GlobalScale);
        let mse_comp = comp.forward(&x).mse(&y_ref);

        assert!(
            mse_drift > mse_fresh * 2.0,
            "drift should hurt: fresh {mse_fresh} drifted {mse_drift}"
        );
        assert!(
            mse_comp < mse_drift,
            "compensation should help: comp {mse_comp} drifted {mse_drift}"
        );
    }

    #[test]
    fn weight_quantization_snaps_levels_and_coarser_hurts_more() {
        let (w, x) = random_setup(41, 32, 16);
        let y_ref = x.matmul(&w);
        let mse_at_bits = |bits: u32| {
            let mut cfg = TileConfig::ideal();
            cfg.weight_quant = Resolution::bits(bits);
            let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(42));
            tile.forward(&x).mse(&y_ref)
        };
        let coarse = mse_at_bits(3);
        let fine = mse_at_bits(8);
        assert!(fine < coarse / 10.0, "fine {fine} coarse {coarse}");

        // Levels are actually discrete: with b bits, at most 2^b + 1 values.
        let mut cfg = TileConfig::ideal();
        cfg.weight_quant = Resolution::bits(3);
        let tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(43));
        let mut distinct: Vec<i64> = tile
            .effective_weights()
            .as_slice()
            .iter()
            .map(|&v| (v * 1e6).round() as i64)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 9, "{} distinct levels", distinct.len());
    }

    #[test]
    fn bit_serial_matches_analog_quantization_accuracy() {
        use crate::config::InputEncoding;
        let (w, x) = random_setup(61, 48, 24);
        let y_ref = x.matmul(&w);
        // 7-bit analog DAC vs 7-bit bit-serial: same information per input,
        // so the quantization error should be comparable.
        let mut analog_cfg = TileConfig::ideal();
        analog_cfg.dac = Resolution::bits(7);
        let mut analog = AnalogTile::new(w.clone(), None, analog_cfg, Rng::seed_from(62));
        let mse_analog = analog.forward(&x).mse(&y_ref);

        let mut serial_cfg = TileConfig::ideal();
        serial_cfg.input_encoding = InputEncoding::BitSerial { bits: 7 };
        let mut serial = AnalogTile::new(w.clone(), None, serial_cfg, Rng::seed_from(62));
        let mse_serial = serial.forward(&x).mse(&y_ref);
        assert!(mse_serial > 0.0, "quantized, not exact");
        assert!(
            (mse_serial / mse_analog).log10().abs() < 1.0,
            "analog {mse_analog} vs bit-serial {mse_serial}"
        );
    }

    #[test]
    fn bit_serial_is_immune_to_s_shape_nonlinearity() {
        use crate::config::InputEncoding;
        let (w, x) = random_setup(63, 48, 24);
        let y_ref = x.matmul(&w);
        let curvature = 2.0; // strong driver compression
        let mut analog_cfg = TileConfig::ideal();
        analog_cfg.dac = Resolution::bits(8);
        analog_cfg.s_shape = curvature;
        let mut analog = AnalogTile::new(w.clone(), None, analog_cfg, Rng::seed_from(64));
        let mse_analog = analog.forward(&x).mse(&y_ref);

        let mut serial_cfg = TileConfig::ideal();
        serial_cfg.input_encoding = InputEncoding::BitSerial { bits: 8 };
        serial_cfg.s_shape = curvature;
        let mut serial = AnalogTile::new(w.clone(), None, serial_cfg, Rng::seed_from(64));
        let mse_serial = serial.forward(&x).mse(&y_ref);
        assert!(
            mse_serial < mse_analog / 20.0,
            "binary drive should cancel the S-shape: analog {mse_analog} vs serial {mse_serial}"
        );
    }

    #[test]
    fn bit_serial_attenuates_output_noise_via_shift_add() {
        use crate::config::InputEncoding;
        // Each plane picks up its own σ_out, but the digital shift-add
        // scales plane k's noise by 2^k / full_scale, so the combined noise
        // std is √(Σ 4^k) / full_scale ≈ 0.58 of a single conversion.
        let (w, x) = random_setup(65, 48, 24);
        let y_ref = x.matmul(&w);
        let mut analog_cfg = TileConfig::ideal();
        analog_cfg.out_noise = 0.05;
        let mut analog = AnalogTile::new(w.clone(), None, analog_cfg, Rng::seed_from(66));
        let mse_analog = analog.forward(&x).mse(&y_ref);

        let mut serial_cfg = TileConfig::ideal();
        serial_cfg.out_noise = 0.05;
        serial_cfg.input_encoding = InputEncoding::BitSerial { bits: 8 };
        let mut serial = AnalogTile::new(w.clone(), None, serial_cfg, Rng::seed_from(66));
        let mse_serial = serial.forward(&x).mse(&y_ref);
        // Expect roughly 0.58² ≈ 1/3 of the analog noise MSE (plus the
        // bit-serial quantization floor).
        assert!(
            mse_serial < mse_analog && mse_serial > mse_analog / 10.0,
            "analog {mse_analog} vs serial {mse_serial}"
        );
    }

    #[test]
    fn write_verify_tightens_programmed_weights() {
        let (w, x) = random_setup(81, 48, 24);
        let y_ref = x.matmul(&w);
        let mse_with_iters = |iters: u32| {
            let mut cfg = TileConfig::ideal();
            cfg.weight_source = WeightSource::Pcm(1.0);
            cfg.write_verify_iters = iters;
            let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(82));
            tile.forward(&x).mse(&y_ref)
        };
        let single_shot = mse_with_iters(1);
        let verified = mse_with_iters(8);
        assert!(
            verified < single_shot / 2.0,
            "single-shot {single_shot} vs verified {verified}"
        );
    }

    #[test]
    fn read_averaging_suppresses_stochastic_noise_by_sqrt_n() {
        let (w, x) = random_setup(71, 48, 24);
        let y_ref = x.matmul(&w);
        let mse_with_reads = |n: u32| {
            let mut cfg = TileConfig::ideal();
            cfg.out_noise = 0.05;
            cfg.w_noise = 0.02;
            cfg.read_averaging = n;
            let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(72));
            tile.forward(&x).mse(&y_ref)
        };
        let single = mse_with_reads(1);
        let averaged = mse_with_reads(8);
        // Variance should drop ≈ 8×; allow Monte-Carlo slack.
        let ratio = single / averaged;
        assert!((4.0..16.0).contains(&ratio), "ratio {ratio}");
    }

    /// The epilogue's analog stages and its ADC pass, dispatched through
    /// `simd::run` (the AVX2 instance on an AVX2 host) against the same
    /// kernel called directly and a per-element ADC loop, both compiled
    /// into this baseline test body, for all 8 on/off combinations of read
    /// noise, IR drop and output noise, on edge and saturating readings.
    #[test]
    fn epilogue_instances_are_bit_identical() {
        let adc_bound = 12.0;
        let z0 = crate::converter::tests::edge_inputs(adc_bound, 5);
        let n = z0.len();
        let mut rng = Rng::seed_from(17);
        let mut wn = vec![0.0f32; n];
        let mut on = vec![0.0f32; n];
        rng.fill_normal_icdf(&mut wn, 0.0, 0.3);
        rng.fill_normal_icdf(&mut on, 0.0, 0.04);
        let ir_factors: Vec<f32> = (0..n).map(|_| rng.uniform(0.0, 0.9)).collect();
        for adc in [
            Adc::new(Resolution::bits(7), adc_bound),
            Adc::new(Resolution::Ideal, adc_bound),
        ] {
            for combo in 0..8u32 {
                let (has_w, has_ir, has_o) = (combo & 1 != 0, combo & 2 != 0, combo & 4 != 0);
                let ir = IrDropModel::new(if has_ir { 1.0 } else { 0.0 });
                let (mut base, mut dispatched) = (z0.clone(), z0.clone());
                ReadoutStages {
                    z: &mut base,
                    wn: &wn,
                    on: &on,
                    ir_factors: &ir_factors,
                    has_w,
                    has_o,
                    ir,
                    u: 0.6,
                }
                .run();
                simd::run(ReadoutStages {
                    z: &mut dispatched,
                    wn: &wn,
                    on: &on,
                    ir_factors: &ir_factors,
                    has_w,
                    has_o,
                    ir,
                    u: 0.6,
                });
                let ctx = format!("{adc:?} read {has_w} ir {has_ir} out {has_o}");
                let base_bits: Vec<u32> = base.iter().map(|v| v.to_bits()).collect();
                let dispatched_bits: Vec<u32> = dispatched.iter().map(|v| v.to_bits()).collect();
                assert_eq!(base_bits, dispatched_bits, "{ctx}: analog stages diverged");

                let mut sat_base = 0;
                for v in base.iter_mut() {
                    let (code, sat) = adc.convert(*v);
                    sat_base += sat as usize;
                    *v = code;
                }
                let sat_dispatched = adc.convert_slice(&mut dispatched);
                assert!(sat_base > 0, "{ctx}: no saturating reading");
                assert_eq!(sat_base, sat_dispatched, "{ctx}: saturation counts");
                let base_bits: Vec<u32> = base.iter().map(|v| v.to_bits()).collect();
                let dispatched_bits: Vec<u32> = dispatched.iter().map(|v| v.to_bits()).collect();
                assert_eq!(base_bits, dispatched_bits, "{ctx}: ADC codes diverged");
            }
        }
        if !simd::avx2_detected() {
            eprintln!("no AVX2 on this CPU: compared the baseline instance only");
        }
    }

    /// Runs `x` through a tile built from `cfg` on the fast path and
    /// through a clone switched to the naive reference chain; outputs and
    /// statistics must agree bit for bit. The clone starts from the same
    /// RNG state and programmed weights, so any divergence in RNG draw
    /// order or arithmetic shows up as a bit mismatch.
    fn assert_fast_path_matches_reference(w: &Matrix, x: &Matrix, cfg: TileConfig, ctx: &str) {
        let mut fast = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(202));
        let mut naive = fast.clone();
        naive.use_reference_path();
        let y_fast = fast.forward(x);
        let y_ref = naive.forward(x);
        for (i, (a, b)) in y_fast.as_slice().iter().zip(y_ref.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: output {i} diverged: fast {a} vs reference {b}"
            );
        }
        assert_eq!(fast.stats(), naive.stats(), "{ctx}: stats diverged");
    }

    /// The tentpole equivalence property: the hoisted/fused conversion fast
    /// path must be **bit-identical** to the naive reference (one full
    /// per-stage chain per read-averaging repeat, scalar noise draws) for
    /// every read-averaging depth, with and without input noise, hard
    /// faults, and bit-serial encoding. The ideal-ADC arm passes the
    /// readings through unquantized, so a 1-ulp divergence in the DAC or
    /// MVM cannot round away under the 7-bit grid.
    #[test]
    fn averaged_fast_path_matches_naive_reference() {
        use crate::config::InputEncoding;
        let (w, x) = random_setup(201, 48, 24);
        for adc in [Resolution::bits(7), Resolution::Ideal] {
            for encoding in [InputEncoding::Analog, InputEncoding::BitSerial { bits: 7 }] {
                for ra in [1u32, 4, 16] {
                    for in_noise in [0.0f32, 0.02] {
                        for faults in [false, true] {
                            let mut cfg = TileConfig::paper_default().with_tile_size(48, 24);
                            cfg.adc = adc;
                            cfg.input_encoding = encoding;
                            cfg.read_averaging = ra;
                            cfg.in_noise = in_noise;
                            if faults {
                                cfg.fault_plan = Some(FaultPlan {
                                    seed: 3,
                                    stuck_low: 0.01,
                                    stuck_high: 0.01,
                                    adc_stuck: 0.05,
                                    ..FaultPlan::none()
                                });
                            }
                            let ctx = format!(
                                "adc {adc:?} encoding {encoding:?} ra {ra} in_noise {in_noise} \
                                 faults {faults}"
                            );
                            assert_fast_path_matches_reference(&w, &x, cfg, &ctx);
                        }
                    }
                }
            }
        }
    }

    /// The equivalence sweep again, but with ABFT enabled: the checksum
    /// column rides through the fused epilogue and the per-row residual
    /// check, so fast and reference paths must agree on outputs, stats,
    /// and the report.
    #[test]
    fn abft_fast_path_matches_reference() {
        use crate::health::FaultTolerance;
        // Analog encoding only: ABFT + bit-serial is unsupported (the
        // checksum column is not carried through the plane sweep).
        let (w, x) = random_setup(211, 48, 24);
        for adc in [Resolution::bits(7), Resolution::Ideal] {
            for ra in [1u32, 4, 16] {
                for in_noise in [0.0f32, 0.02] {
                    let mut cfg = TileConfig::paper_default().with_tile_size(48, 25);
                    cfg.adc = adc;
                    cfg.read_averaging = ra;
                    cfg.in_noise = in_noise;
                    cfg.fault_tolerance = FaultTolerance::protected();
                    let ctx = format!("adc {adc:?} ra {ra} in_noise {in_noise}");
                    assert_fast_path_matches_reference(&w, &x, cfg, &ctx);
                }
            }
        }
    }

    /// ABFT equivalence under heavy saturation: outlier-scaled weights and
    /// inputs rail the ADC (checksum column included), so bound management
    /// retries on most samples and the saturated-sample skip of the
    /// residual check is exercised on both paths.
    #[test]
    fn saturating_abft_fast_path_matches_reference() {
        use crate::health::FaultTolerance;
        // Outlier-heavy weights + inputs: the checksum column and several
        // outputs saturate, driving bound-management retries every sample.
        let mut rng = Rng::seed_from(91);
        let rows = 64;
        let cols = 32;
        let mut wv = vec![0.0f32; rows * cols];
        rng.fill_normal(&mut wv, 0.0, 1.0);
        for (i, v) in wv.iter_mut().enumerate() {
            if i % 37 == 0 {
                *v *= 40.0;
            }
        }
        let w = Matrix::from_vec(rows, cols, wv);
        let mut xv = vec![0.0f32; 16 * rows];
        rng.fill_normal(&mut xv, 0.0, 1.0);
        for (i, v) in xv.iter_mut().enumerate() {
            if i % 23 == 0 {
                *v *= 60.0;
            }
        }
        let x = Matrix::from_vec(16, rows, xv);
        let mut cfg = TileConfig::paper_default().with_tile_size(rows, cols + 1);
        cfg.fault_tolerance = FaultTolerance::protected();
        let mut fast = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(92));
        let mut naive_t = fast.clone();
        naive_t.use_reference_path();
        let (yf, rf) = fast.forward_checked(&x);
        let (yr, rr) = naive_t.forward_checked(&x);
        for (i, (a, b)) in yf.as_slice().iter().zip(yr.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "output {i}: fast {a} vs ref {b}");
        }
        assert_eq!(fast.stats(), naive_t.stats(), "stats diverged");
        assert_eq!(
            (rf.violations, rf.rows_checked, rf.suspicious),
            (rr.violations, rr.rows_checked, rr.suspicious)
        );
    }

    /// Regression for the read-averaging saturation bug: the per-conversion
    /// saturation count used to be integer-averaged over the repeats
    /// (`saturated /= repeats`), so e.g. 4 saturated repeats out of 8
    /// reported 0 and bound management never retried. The count is now the
    /// per-repeat maximum. This tile's clean read-out sits exactly at the
    /// ADC rail, so with σ_out = 0.5 roughly half the repeats saturate —
    /// under the old accounting the α-doubling retry was silently skipped.
    #[test]
    fn read_averaging_saturation_triggers_bound_management() {
        let mut cfg = TileConfig::ideal();
        cfg.out_noise = 0.5;
        cfg.adc = Resolution::bits(9);
        cfg.adc_bound = 1.0;
        cfg.read_averaging = 8;
        cfg.bound_management = BoundManagement::Iterative { max_rounds: 3 };
        cfg.noise_management = NoiseManagement::AbsMax;
        let w = Matrix::from_vec(1, 1, vec![0.5]);
        let mut tile = AnalogTile::new(w, None, cfg, Rng::seed_from(303));
        // α = |x| = 0.9 under AbsMax, so x̂ = 1 and the clean read-out is
        // exactly the ADC bound; every saturation event is noise-driven.
        let x = Matrix::from_vec(1, 1, vec![0.9]);
        tile.forward(&x);
        assert!(
            tile.stats().bound_mgmt_retries >= 1,
            "noise-driven per-repeat saturation must trigger a retry: {:?}",
            tile.stats()
        );
    }

    #[test]
    fn read_averaging_does_not_help_quantization() {
        let (w, x) = random_setup(73, 48, 24);
        let y_ref = x.matmul(&w);
        let mse_with_reads = |n: u32| {
            let mut cfg = TileConfig::ideal();
            cfg.dac = Resolution::bits(5);
            cfg.read_averaging = n;
            let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(74));
            tile.forward(&x).mse(&y_ref)
        };
        let single = mse_with_reads(1);
        let averaged = mse_with_reads(8);
        // Deterministic quantization error: averaging identical rounds is
        // a no-op.
        assert!(
            (averaged / single - 1.0).abs() < 1e-6,
            "{single} vs {averaged}"
        );
    }

    #[test]
    fn weight_slicing_cuts_programming_error_on_tile() {
        let (w, x) = random_setup(51, 48, 24);
        let y_ref = x.matmul(&w);
        let mse_with_slices = |slices: u32| {
            let mut cfg = TileConfig::ideal();
            cfg.weight_source = WeightSource::Pcm(1.0);
            cfg.weight_slices = slices;
            let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(52));
            tile.forward(&x).mse(&y_ref)
        };
        let single = mse_with_slices(1);
        let sliced = mse_with_slices(2);
        assert!(
            sliced < single / 5.0,
            "1 slice {single} vs 2 slices {sliced}"
        );
    }

    #[test]
    fn sliced_tile_supports_drift() {
        let (w, x) = random_setup(53, 32, 16);
        let y_ref = x.matmul(&w);
        let mut cfg = TileConfig::ideal();
        cfg.weight_source = WeightSource::Pcm(1.0);
        cfg.weight_slices = 2;
        let mut tile = AnalogTile::new(w, None, cfg, Rng::seed_from(54));
        let fresh = tile.forward(&x).mse(&y_ref);
        tile.apply_drift(86_400.0, DriftCompensation::None);
        let drifted = tile.forward(&x).mse(&y_ref);
        assert!(
            drifted > fresh,
            "drift should still degrade: {fresh} vs {drifted}"
        );
    }

    #[test]
    fn digital_quant_config_has_no_analog_noise() {
        let cfg = TileConfig::digital_quant(8);
        assert_eq!(cfg.out_noise, 0.0);
        assert_eq!(cfg.w_noise, 0.0);
        assert_eq!(cfg.weight_source, WeightSource::Ideal);
        assert_eq!(cfg.weight_quant.steps(), Some(256));
        assert_eq!(cfg.dac.steps(), Some(256));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn reram_weights_program_with_lognormal_error_and_do_not_drift() {
        let (w, x) = random_setup(31, 32, 16);
        let y_ref = x.matmul(&w);
        let mut cfg = TileConfig::ideal();
        cfg.weight_source = WeightSource::Reram(0.05);
        let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(32));
        let mse_fresh = tile.forward(&x).mse(&y_ref);
        assert!(mse_fresh > 1e-9, "programming error expected");
        // ReRAM has no inference-scale drift: a year changes nothing
        // deterministic (read noise off in the tile's device model).
        tile.apply_drift(3.15e7, DriftCompensation::None);
        let mse_year = tile.forward(&x).mse(&y_ref);
        assert!(
            (mse_year / mse_fresh).log10().abs() < 1.0,
            "fresh {mse_fresh} vs year {mse_year}"
        );
    }

    #[test]
    fn drift_is_noop_for_ideal_weights() {
        let (w, x) = random_setup(25, 16, 8);
        let mut tile = AnalogTile::new(w.clone(), None, TileConfig::ideal(), Rng::seed_from(26));
        tile.apply_drift(1e6, DriftCompensation::None);
        let y = tile.forward(&x);
        assert!(y.mse(&x.matmul(&w)) < 1e-10);
    }

    // ---- fault injection + ABFT -------------------------------------

    use crate::health::FaultTolerance;
    use nora_device::FaultPlan;

    /// A realistically noisy small-tile config with ABFT enabled.
    fn protected_cfg(rows: usize, cols: usize) -> TileConfig {
        let mut cfg = TileConfig::paper_default();
        cfg.tile_rows = rows;
        cfg.tile_cols = cols;
        cfg.fault_tolerance = FaultTolerance::protected();
        cfg
    }

    #[test]
    fn abft_ideal_tile_stays_exact_and_clean() {
        let (w, x) = random_setup(101, 32, 16);
        let mut cfg = TileConfig::ideal().with_tile_size(32, 17);
        cfg.fault_tolerance = FaultTolerance::protected();
        let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(102));
        assert_eq!(tile.cols(), 16, "checksum column hidden from output");
        let (y, report) = tile.forward_checked(&x);
        assert!(y.mse(&x.matmul(&w)) < 1e-9, "outputs unaffected by ABFT");
        assert!(report.enabled);
        assert_eq!(report.rows_checked, 8);
        assert_eq!(report.violations, 0);
        assert!(!report.suspicious);
    }

    #[test]
    fn abft_healthy_noisy_tile_is_not_flagged() {
        // No false positives across many batches under the full paper noise
        // inventory (programming noise, read noise, output noise, ADC, IR).
        let (w, x) = random_setup(103, 64, 32);
        let mut tile = AnalogTile::new(w, None, protected_cfg(64, 33), Rng::seed_from(104));
        for _ in 0..20 {
            let (_, report) = tile.forward_checked(&x);
            assert!(
                !report.suspicious,
                "false positive: {report:?} (worst ratio {})",
                report.worst_ratio
            );
        }
    }

    #[test]
    fn abft_flags_stuck_cells() {
        let (w, x) = random_setup(105, 64, 32);
        let mut cfg = protected_cfg(64, 33);
        cfg.fault_plan = Some(FaultPlan {
            seed: 1,
            stuck_low: 0.02,
            stuck_high: 0.02,
            ..FaultPlan::none()
        });
        let mut tile = AnalogTile::new(w, None, cfg, Rng::seed_from(106));
        assert!(tile.fault_map().unwrap().stuck_cell_count() > 0);
        let (y, report) = tile.forward_checked(&x);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert!(report.suspicious, "stuck cells must be flagged: {report:?}");
    }

    #[test]
    fn abft_flags_dead_column() {
        let (w, x) = random_setup(107, 64, 32);
        let mut cfg = protected_cfg(64, 33);
        cfg.fault_plan = Some(FaultPlan {
            seed: 4, // draws at least one dead column in the block extent
            dead_col: 0.1,
            ..FaultPlan::none()
        });
        let mut tile = AnalogTile::new(w, None, cfg, Rng::seed_from(108));
        let dead = tile.fault_map().unwrap().dead_cols().to_vec();
        assert!(
            dead.iter().any(|&c| c < 32),
            "seed must kill a data column, got {dead:?}"
        );
        let (_, report) = tile.forward_checked(&x);
        assert!(report.suspicious, "dead column must be flagged: {report:?}");
    }

    #[test]
    fn abft_flags_stuck_adc_channel() {
        let (w, x) = random_setup(109, 64, 32);
        let mut cfg = protected_cfg(64, 33);
        cfg.fault_plan = Some(FaultPlan {
            seed: 2,
            adc_stuck: 0.1,
            ..FaultPlan::none()
        });
        let mut tile = AnalogTile::new(w, None, cfg, Rng::seed_from(110));
        let stuck = tile.fault_map().unwrap().adc_stuck().to_vec();
        assert!(
            stuck.iter().any(|&(c, _)| c < 33),
            "seed must stick a converter channel, got {stuck:?}"
        );
        let (_, report) = tile.forward_checked(&x);
        assert!(report.suspicious, "stuck ADC must be flagged: {report:?}");
    }

    #[test]
    fn silent_detector_catches_tile_dropout() {
        let (w, x) = random_setup(111, 64, 32);
        let mut cfg = protected_cfg(64, 33);
        cfg.fault_plan = Some(FaultPlan {
            seed: 3,
            tile_dropout: 1.0,
            ..FaultPlan::none()
        });
        let mut tile = AnalogTile::new(w, None, cfg, Rng::seed_from(112));
        assert!(tile.fault_map().unwrap().is_dropped());
        let (y, report) = tile.forward_checked(&x);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert!(report.silent, "dropout must trip the silent detector");
        assert!(report.suspicious);
    }

    #[test]
    fn unprotected_faulty_tile_returns_finite_garbage() {
        // Without ABFT the tile silently computes with its defects: outputs
        // must stay finite (no panic) even under heavy fault rates.
        let (w, x) = random_setup(113, 64, 32);
        let mut cfg = TileConfig::paper_default().with_tile_size(64, 32);
        cfg.fault_plan = Some(FaultPlan::uniform(0.05, 0.05, 9));
        let mut tile = AnalogTile::new(w.clone(), None, cfg, Rng::seed_from(114));
        let y = tile.forward(&x);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let y_ref = x.matmul(&w);
        assert!(y.mse(&y_ref) > 0.0);
    }

    #[test]
    fn abft_survives_drift_recalibration() {
        // apply_drift re-reads conductances; the ABFT calibration must be
        // refreshed or healthy drifted tiles would flag as faulty.
        let (w, x) = random_setup(115, 64, 32);
        let mut cfg = protected_cfg(64, 33);
        cfg.weight_source = WeightSource::Pcm(1.0);
        let mut tile = AnalogTile::new(w, None, cfg, Rng::seed_from(116));
        tile.apply_drift(86_400.0, DriftCompensation::GlobalScale);
        let (_, report) = tile.forward_checked(&x);
        assert!(
            !report.suspicious,
            "healthy drifted tile flagged: {report:?}"
        );
    }

    #[test]
    fn programming_failure_is_reported_not_panicked() {
        let (w, _) = random_setup(117, 16, 8);
        let mut cfg = TileConfig::paper_default().with_tile_size(16, 8);
        cfg.fault_plan = Some(FaultPlan {
            seed: 5,
            programming_failure: 1.0,
            ..FaultPlan::none()
        });
        let err = AnalogTile::try_new_at(
            w,
            None,
            cfg,
            Rng::seed_from(118),
            crate::health::TileSite {
                physical_id: 7,
                programming_attempt: 2,
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            crate::error::CimError::ProgrammingFailed {
                physical_id: 7,
                attempt: 2
            }
        );
    }

    #[test]
    fn fault_maps_differ_across_physical_tiles() {
        let (w, x) = random_setup(119, 32, 16);
        let mut cfg = TileConfig::ideal().with_tile_size(32, 16);
        cfg.fault_plan = Some(FaultPlan::uniform(0.05, 0.0, 11));
        let site = |id| crate::health::TileSite {
            physical_id: id,
            programming_attempt: 0,
        };
        let mut a =
            AnalogTile::try_new_at(w.clone(), None, cfg.clone(), Rng::seed_from(120), site(0))
                .unwrap();
        let mut b =
            AnalogTile::try_new_at(w.clone(), None, cfg.clone(), Rng::seed_from(120), site(1))
                .unwrap();
        let mut a2 = AnalogTile::try_new_at(w, None, cfg, Rng::seed_from(120), site(0)).unwrap();
        let ya = a.forward(&x);
        assert_eq!(ya, a2.forward(&x), "same physical id → same defects");
        assert_ne!(
            ya,
            b.forward(&x),
            "different physical id → different defects"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds tile size")]
    fn oversized_block_panics() {
        let w = Matrix::zeros(600, 10);
        AnalogTile::new(w, None, TileConfig::paper_default(), Rng::seed_from(0));
    }

    #[test]
    #[should_panic(expected = "smoothing vector length")]
    fn wrong_smoothing_length_panics() {
        let w = Matrix::zeros(4, 4);
        AnalogTile::new(w, Some(&[1.0, 2.0]), TileConfig::ideal(), Rng::seed_from(0));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_smoothing_panics() {
        let w = Matrix::zeros(2, 2);
        AnalogTile::new(w, Some(&[1.0, 0.0]), TileConfig::ideal(), Rng::seed_from(0));
    }
}

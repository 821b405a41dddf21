//! Closed-form per-layer noise/quantization-error propagation.
//!
//! The Monte-Carlo evaluators in [`crate::tasks`] score a deployment by
//! running every episode through the full tile simulator — faithful, but far
//! too slow for design-space sweeps over thousands of configurations. This
//! module predicts the same numbers analytically:
//!
//! * [`layer_error_moments`] computes the first two moments of one
//!   [`AnalogLinear`](nora_cim::AnalogLinear)'s output error without
//!   building a tile: the deterministic part of the forward chain
//!   (smoothing, α-normalisation, DAC mid-rise grid, S-shape, IR droop,
//!   bound-management rescale, ADC) is replicated exactly with the same
//!   `f32` kernels the simulator uses, and every stochastic stage
//!   (programming error from the exact censored device laws via
//!   [`NoiseBudget::prog_moments`], additive input/read/output noise, ADC
//!   dither) contributes a per-element variance in closed form.
//! * [`AnalyticEvaluator`] runs the *digital* model once over a set of
//!   episodes, records per-linear calibration inputs plus the propagation
//!   statistics of every transformer block (LayerNorm renormalisation
//!   gains, attention softmax sensitivities, ReLU pass-through fractions),
//!   and then [`AnalyticEvaluator::predict`]s the analog eval accuracy of
//!   any `(RescalePlan, TileConfig)` pair from the per-layer injected
//!   error moments — no tile forwards at all.
//!
//! # Variance propagation model
//!
//! Each analog linear injects a *channel-resolved* error profile measured
//! by [`layer_error_moments`] on captured clean inputs: a per-output-channel
//! incoherent power `col_power` (bias² + variance) plus a per-channel
//! *signed* coherent shift `col_shift` (systematic offsets — e.g. censored
//! programming bias or S-shape flattening — that survive averaging over
//! rows). The residual-stream state is therefore a triple
//! `(u: per-channel variance, b: per-channel signed shift, a: clean-margin
//! attenuation scalar)` propagated through one block as
//!
//! ```text
//! u_q  = W(W_q, L₁(u)) + û_q            (same for k, v; W = col-wise ΣW²
//!                                        transform, L the LN transfer)
//! ctx  = F_attn·u_v + sat₂(J_soft·(K_k·u_q + K_q·u_k))·msq(V)
//! u₁   = u + W(W_o, ctx) + û_o          (residual add; shifts b follow the
//!                                        signed mean-transform of the same
//!                                        path, scaled by each stage's
//!                                        clean-signal gain)
//! h    = g_relu²·(W(W_f1, L₂(u₁)) + û_f1)
//! u_out= u₁ + W(W_f2, h) + û_f2
//! ```
//!
//! The LayerNorm transfer `L` divides every channel by the *shared*
//! inflated row denominator `v̄ + mean(u)` — signal and error renormalise
//! jointly, so the clean margins attenuate by the matching factor tracked
//! in `a`, and a stream that is pure noise still leaves with the fixed
//! output power `mean(g²)`. `F_attn = mean Σ_j p_ij²`, `J_soft =
//! mean‖∂p/∂s‖²_F`, `K_q/K_k` the mean per-head squared query/key norms,
//! `sat₂(s) = 2s/(2+s)` the softmax saturation cap, `r_attn` the clean
//! context retained under score noise, and `g_relu` the pooled regression
//! slope of noisy-vs-clean ReLU outputs (Gaussian rectification). At the
//! head, clean margins carry `κ = a·√(v̄_f/(a²v̄_f + ē_f))` while the error
//! lands as a per-class logit variance profile `σ²_j` plus a coherent
//! logit shift; accuracy follows by Gaussian quadrature over the
//! vocabulary:
//!
//! ```text
//! P(correct) = ∫ φ(z) · Π_{j≠key} Φ((κ·l_key − κ·l_j + δ + σ_key·z)/σ_j) dz
//! ```
//!
//! which recovers the digital argmax indicator as `σ → 0` and the `1/V`
//! chance floor as `κ → 0`.
//!
//! # Calibrated interface response
//!
//! The diagonal-covariance propagation above tracks error *power*
//! faithfully (validated against the simulator's measured stream errors)
//! but cannot see how the downstream digital network responds to an
//! error's full covariance structure. [`AnalyticEvaluator::new`] therefore
//! calibrates, per residual-stream interface (each block's output and the
//! final-LN input), the digital network's measured response to injected
//! white noise across a ladder of power levels: a pooled margin-regression
//! slope `κ(p)` and per-class residual logit second moments. `predict`
//! scores each interface's *fresh* injected power against these curves and
//! combines them multiplicatively (verified against jointly-injected
//! noise). One systematic gap remains: real analog stream error damages
//! the downstream network several-fold less per unit measured power than
//! fresh white noise (its structure lies closer to the activation
//! manifold). This *manifold discount* is not modelled structurally — it
//! is measured once at construction by simulating a single reference
//! configuration and solving for the scalar `s` that reconciles the
//! white-noise curves with the observed κ, then applied to every
//! prediction. The final prediction takes the more pessimistic of the
//! analytic and calibrated κ, and per class the larger of the calibrated
//! residual and the analytic logit-profile variance.
//!
//! # Exact vs. approximate
//!
//! Exact (bit-identical to the simulator on noise-free configurations):
//! smoothing/α/γ rescaling, DAC and weight-quantizer mid-rise grids,
//! S-shape transfer, IR droop of the deterministic signal, deterministic
//! bound-management retries, ADC saturation/quantization of the
//! deterministic signal. Exact in distribution: programming error
//! (censored normal/lognormal device laws), additive input/read/output
//! noise to first order, read-averaging variance reduction. Approximate or
//! out of scope (see DESIGN.md §9): *noise-triggered* bound-management
//! retries, fault ladders and ABFT correction, S-shape × noise cross terms
//! beyond linearisation, bit-serial per-plane IR interaction, write–verify
//! residuals, multi-slice mappings.

use nora_cim::budget::{normal_cdf, phi};
use nora_cim::converter::{Adc, Dac};
use nora_cim::nonlinearity::{s_shape, s_shape_slice};
use nora_cim::{BoundManagement, NoiseBudget, NoiseManagement, TileConfig};
use nora_core::RescalePlan;
use nora_nn::corpus::Episode;
use nora_nn::{softmax_rows, LinearId, LinearKind, TransformerLm};
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

/// First two moments of one analog linear's output, plus the error powers
/// against the ideal (digital) product.
#[derive(Debug, Clone)]
pub struct LayerMoments {
    /// Predicted `E[y_analog]` per element (bias excluded — it is added
    /// digitally in both deployments and cancels in the error).
    pub mean: Matrix,
    /// Predicted `Var[y_analog]` per element.
    pub var: Matrix,
    /// Mean squared deterministic error `mean((E[y] − y_ideal)²)`.
    pub bias_power: f64,
    /// Mean stochastic variance `mean(Var[y])`.
    pub var_power: f64,
    /// Per-output-channel mean error power `bias² + variance` — the
    /// channel-resolved injection profile used by the block propagation.
    pub col_power: Vec<f64>,
    /// Per-output-channel *signed* mean error, averaged over calibration
    /// rows, after attributing the signal-gain deficit to
    /// [`LayerMoments::signal_gain`]: `mean(E[y]) − g·mean(y_ideal)`.
    /// This is the systematic component shared by every forward through
    /// the layer (quantization/clipping bias); it propagates coherently
    /// and shifts the logits deterministically, unlike the zero-mean
    /// residual in `col_noise`.
    pub col_mean: Vec<f64>,
    /// Per-output-channel incoherent error power: the variance of the
    /// residual after regressing `E[y]` on `g·y_ideal + bias` across
    /// calibration rows, plus the mean device variance.
    pub col_noise: Vec<f64>,
    /// Pooled signal transmission gain `g = Cov(E[y], y_ideal)/Var(y_ideal)`
    /// across calibration rows (clamped to `[0, 1]`). Converter range
    /// clipping under a noisy input flattens the *row-varying* part of the
    /// output — `E[clip(z+n)]` has slope `≈ P(|z+n| < bound)` in `z` — so
    /// a clipped layer attenuates the clean signal multiplicatively
    /// instead of merely adding error. Booking that deficit as noise
    /// power (the pre-gain model) predicts survivable margins where the
    /// simulator shows total collapse of the clean-logit correlation.
    pub signal_gain: f64,
}

impl LayerMoments {
    /// Predicted per-element MSE against the digital product:
    /// `bias² + variance`.
    pub fn mse(&self) -> f64 {
        self.bias_power + self.var_power
    }
}

/// Analytic model of one tile block of the [`AnalogLinear`] grid: the
/// deterministic construction chain replicated exactly, plus per-element
/// programming-error moments from the exact device laws.
struct BlockModel {
    /// `E[w_eff]` per element (γ-normalised, post weight-quant, post
    /// censored programming law).
    w_det: Matrix,
    /// `w_det²` per element (drives the input-noise variance vecmat).
    w_sq: Matrix,
    /// Programming variance per element.
    prog_var: Matrix,
    /// Per-column sum of `w_det²` (bit-serial input-noise path).
    col_sq_sum: Vec<f32>,
    gamma: Vec<f32>,
    ir_factors: Vec<f32>,
    budget: NoiseBudget,
    dac: Dac,
    adc: Adc,
    s: Vec<f32>,
    max_retries: u32,
    cfg: TileConfig,
}

/// Scratch for one deterministic conversion round.
struct RoundOut {
    /// Deterministic pre-ADC accumulation per column (IR droop applied).
    z: Vec<f32>,
    /// Per-repeat stochastic variance at the ADC input per column
    /// (input + read + output noise; excludes programming error).
    stoch: Vec<f64>,
    /// Programming-error variance contribution per column (frozen across
    /// repeats — the same programmed cells serve every read).
    prog: Vec<f64>,
    /// Deterministic ADC saturation count.
    saturated: usize,
}

impl BlockModel {
    fn new(block: &Matrix, s_slice: &[f32], cfg: &TileConfig) -> Self {
        let rows = block.rows();
        let cols = block.cols();
        let budget = cfg.noise_budget(rows);
        // Construction chain, replicated: smoothing row scale, per-column
        // γ normalisation, weight quantization on the unit grid.
        let mut w_hat = block.clone();
        w_hat.scale_rows(s_slice);
        let gamma = w_hat.col_abs_max();
        for (j, &g) in gamma.iter().enumerate() {
            if g > 0.0 {
                w_hat.scale_col(j, 1.0 / g);
            }
        }
        if let Some(steps) = cfg.weight_quant.steps() {
            nora_tensor::quant::Quantizer::new(steps, 1.0).quantize_slice(w_hat.as_mut_slice());
        }
        // Programming law: per-element mean and variance of the effective
        // weight, from the exact censored single-shot device moments.
        let mut w_det = Matrix::zeros(rows, cols);
        let mut prog_var = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let (m, v) = budget.prog_moments(w_hat[(r, c)]);
                w_det[(r, c)] = m as f32;
                prog_var[(r, c)] = v as f32;
            }
        }
        let mut w_sq = w_det.clone();
        for v in w_sq.as_mut_slice() {
            *v *= *v;
        }
        let mut col_sq_sum = vec![0.0f32; cols];
        for r in 0..rows {
            for (c, acc) in col_sq_sum.iter_mut().enumerate() {
                *acc += w_sq[(r, c)];
            }
        }
        // IR-drop column factors from the mean relative conductance of the
        // *expected* programmed array (exact for ideal weights; the mean
        // over device draws otherwise).
        let col_mean_rel_g: Vec<f32> = (0..cols)
            .map(|c| (0..rows).map(|r| w_det[(r, c)].abs()).sum::<f32>() / rows.max(1) as f32)
            .collect();
        let ir_factors = budget.ir_column_factors(&col_mean_rel_g);
        let max_retries = match cfg.bound_management {
            BoundManagement::None => 0,
            BoundManagement::Iterative { max_rounds } => max_rounds,
        };
        Self {
            w_det,
            w_sq,
            prog_var,
            col_sq_sum,
            gamma,
            ir_factors,
            dac: Dac::new(cfg.dac, cfg.dac_bound),
            adc: Adc::new(cfg.adc, cfg.adc_bound),
            budget,
            s: s_slice.to_vec(),
            max_retries,
            cfg: cfg.clone(),
        }
    }

    /// One deterministic analog conversion round at input scale `alpha`.
    /// `u_s` is the propagated input-noise variance per line (in `x_s`
    /// units): noisy lines are censored at the DAC bound (coherent
    /// compression of out-of-range excursions) and their transmitted
    /// variance rides the `w²` path into the output.
    fn analog_round(&self, x_s: &[f32], u_s: Option<&[f64]>, alpha: f32) -> RoundOut {
        let cols = self.gamma.len();
        let b = &self.budget;
        let mut x_hat: Vec<f32> = x_s.iter().map(|&v| v / alpha).collect();
        let mut prop_pv: Option<Vec<f32>> = None;
        if let Some(u) = u_s {
            let mut pv = vec![0.0f32; x_hat.len()];
            let mut any = false;
            for ((xh, &uv), p) in x_hat.iter_mut().zip(u).zip(pv.iter_mut()) {
                if uv > 0.0 {
                    any = true;
                    let sigma = uv.sqrt() / f64::from(alpha);
                    let (m, v) =
                        censored_moments(f64::from(*xh), sigma, f64::from(b.dac_bound));
                    *xh = m as f32;
                    *p = v as f32;
                }
            }
            if any {
                prop_pv = Some(pv);
            }
        }
        self.dac.convert_slice(&mut x_hat);
        // Input noise is injected after the DAC and passes through the
        // S-shape: linearise with f'(x) = 1 − (k·f(x))² (tanh identity).
        s_shape_slice(&mut x_hat, b.s_shape);
        let mut z = vec![0.0f32; cols];
        self.w_det.vecmat_into(&x_hat, &mut z);
        let mut var_in = vec![0.0f32; cols];
        if b.in_sigma > 0.0 {
            let d_sq: Vec<f32> = x_hat
                .iter()
                .map(|&f| {
                    let d = if b.s_shape > 0.0 { 1.0 - (b.s_shape * f) * (b.s_shape * f) } else { 1.0 };
                    d * d
                })
                .collect();
            self.w_sq.vecmat_into(&d_sq, &mut var_in);
        }
        let mut var_prop = vec![0.0f32; cols];
        if let Some(pv) = &prop_pv {
            let pv_d: Vec<f32> = pv
                .iter()
                .zip(&x_hat)
                .map(|(&v, &f)| {
                    let d = if b.s_shape > 0.0 { 1.0 - (b.s_shape * f) * (b.s_shape * f) } else { 1.0 };
                    v * d * d
                })
                .collect();
            self.w_sq.vecmat_into(&pv_d, &mut var_prop);
        }
        let mut prog = vec![0.0f32; cols];
        let x_hat_sq: Vec<f32> = x_hat.iter().map(|&v| v * v).collect();
        self.prog_var.vecmat_into(&x_hat_sq, &mut prog);
        let sigma_w = if b.read_sigma > 0.0 {
            let l2 = x_hat.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>().sqrt() as f32;
            if l2 > 0.0 {
                b.read_sigma * l2
            } else {
                0.0
            }
        } else {
            0.0
        };
        let u = if b.ir.is_off() {
            0.0
        } else {
            x_hat.iter().map(|v| v.abs()).sum::<f32>() / x_hat.len().max(1) as f32
        };
        let mut stoch = vec![0.0f64; cols];
        let mut prog64 = vec![0.0f64; cols];
        let mut saturated = 0usize;
        for j in 0..cols {
            let m = self.budget.ir.multiplier(self.ir_factors[j], u);
            z[j] *= m;
            let m2 = f64::from(m) * f64::from(m);
            stoch[j] = m2 * (f64::from(var_in[j]) * f64::from(b.in_sigma) * f64::from(b.in_sigma)
                + f64::from(var_prop[j])
                + f64::from(sigma_w) * f64::from(sigma_w))
                + f64::from(b.out_sigma) * f64::from(b.out_sigma);
            prog64[j] = m2 * f64::from(prog[j]);
            if self.adc.convert(z[j]).1 {
                saturated += 1;
            }
        }
        RoundOut { z, stoch, prog: prog64, saturated }
    }

    /// One deterministic bit-serial conversion round at input scale
    /// `alpha`: exact per-plane shift-add of the deterministic signal,
    /// per-plane noise variances accumulated with the shift-add weights.
    fn bit_serial_round(&self, x_s: &[f32], u_s: Option<&[f64]>, alpha: f32, bits: u32) -> RoundOut {
        let cols = self.gamma.len();
        let b = &self.budget;
        let planes = bits - 1;
        let full_scale = ((1u32 << planes) - 1) as f32;
        let bound = b.dac_bound;
        // Propagated input noise: censor each noisy line at the DAC bound,
        // drive the planes from the censored mean, and carry the
        // transmitted variance through `w²` (coherent per-plane split not
        // modelled — the reconstruction weights sum back to the full
        // value, so the aggregate transfer is the same).
        let mut prop_pv: Option<Vec<f32>> = None;
        let mut drive: Vec<f32> = x_s.iter().map(|&v| v / alpha).collect();
        if let Some(u) = u_s {
            let mut pv = vec![0.0f32; drive.len()];
            let mut any = false;
            for ((d, &uv), p) in drive.iter_mut().zip(u).zip(pv.iter_mut()) {
                if uv > 0.0 {
                    any = true;
                    let sigma = uv.sqrt() / f64::from(alpha);
                    let (m, v) = censored_moments(f64::from(*d), sigma, f64::from(bound));
                    *d = m as f32;
                    *p = v as f32;
                }
            }
            if any {
                prop_pv = Some(pv);
            }
        }
        let levels: Vec<i32> = drive
            .iter()
            .map(|&scaled| {
                let c = if scaled.is_nan() { 0.0 } else { scaled.clamp(-bound, bound) };
                (c / bound * full_scale).round() as i32
            })
            .collect();
        let drive_gain = s_shape(1.0, b.s_shape);
        let n_lines = levels.len() as f64;
        let mut z = vec![0.0f32; cols];
        let mut stoch = vec![0.0f64; cols];
        let mut saturated = 0usize;
        let mut plane = vec![0.0f32; levels.len()];
        let mut zk = vec![0.0f32; cols];
        for k in 0..planes {
            let mask = 1i32 << k;
            for (p, &m) in plane.iter_mut().zip(&levels) {
                *p = if m.abs() & mask != 0 { m.signum() as f32 * drive_gain } else { 0.0 };
            }
            self.w_det.vecmat_into(&plane, &mut zk);
            // The simulator measures the read-noise norm on the *noisy*
            // plane; fold the input-noise power into the expectation.
            let plane_l2_sq =
                plane.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
            let sigma_w = if b.read_sigma > 0.0 {
                f64::from(b.read_sigma)
                    * (plane_l2_sq + n_lines * f64::from(b.in_sigma) * f64::from(b.in_sigma)).sqrt()
            } else {
                0.0
            };
            let u = if b.ir.is_off() {
                0.0
            } else {
                plane.iter().map(|v| v.abs()).sum::<f32>() / plane.len().max(1) as f32
            };
            let weight = (mask as f32) / full_scale * bound / drive_gain;
            let w2 = f64::from(weight) * f64::from(weight);
            for j in 0..cols {
                let m = b.ir.multiplier(self.ir_factors[j], u);
                let v = zk[j] * m;
                if self.adc.convert(v).1 {
                    saturated += 1;
                }
                let m2 = f64::from(m) * f64::from(m);
                let var_in = f64::from(b.in_sigma).powi(2) * f64::from(self.col_sq_sum[j]);
                // Dithered-ADC error per plane rides the shift-add too.
                let v_adc = if b.adc_step > 0.0 {
                    f64::from(b.adc_step).powi(2) / 12.0
                } else {
                    0.0
                };
                stoch[j] += w2 * (m2 * (var_in + sigma_w * sigma_w)
                    + f64::from(b.out_sigma).powi(2)
                    + v_adc);
                z[j] += weight * v;
            }
        }
        // Programming error is frozen across planes: the plane amplitudes
        // add coherently back to the reconstructed quantized input.
        let x_quant: Vec<f32> =
            levels.iter().map(|&l| l as f32 * bound / full_scale).collect();
        let u_bar = if b.ir.is_off() {
            0.0
        } else {
            x_quant.iter().map(|v| v.abs()).sum::<f32>() / x_quant.len().max(1) as f32
        };
        let xq_sq: Vec<f32> = x_quant.iter().map(|&v| v * v).collect();
        let mut prog_raw = vec![0.0f32; cols];
        self.prog_var.vecmat_into(&xq_sq, &mut prog_raw);
        if let Some(pv) = &prop_pv {
            let mut var_prop = vec![0.0f32; cols];
            self.w_sq.vecmat_into(pv, &mut var_prop);
            for (s, &v) in stoch.iter_mut().zip(&var_prop) {
                *s += f64::from(v);
            }
        }
        let prog = (0..cols)
            .map(|j| {
                let m = b.ir.multiplier(self.ir_factors[j], u_bar);
                f64::from(m) * f64::from(m) * f64::from(prog_raw[j])
            })
            .collect();
        RoundOut { z, stoch, prog, saturated }
    }

    /// Accumulates the output mean and variance of one input row into
    /// `out_mean` / `out_var` (block partial sums — caller owns the grid).
    /// `u_slice` is the propagated input-noise variance per line (model
    /// units, pre-smoothing), `None` for a clean input.
    fn forward_moments(
        &self,
        x_slice: &[f32],
        u_slice: Option<&[f64]>,
        out_mean: &mut [f32],
        out_var: &mut [f64],
    ) {
        let b = &self.budget;
        let mut x_s = vec![0.0f32; x_slice.len()];
        for (k, (&xv, &sv)) in x_slice.iter().zip(&self.s).enumerate() {
            x_s[k] = xv / sv;
        }
        // Input noise in smoothed units rides 1/s² like the signal.
        let u_xs: Option<Vec<f64>> = u_slice.map(|u| {
            u.iter()
                .zip(&self.s)
                .map(|(&uv, &sv)| uv / (f64::from(sv) * f64::from(sv)))
                .collect()
        });
        let mut alpha = self.cfg.noise_management.alpha(&x_s);
        // AbsMax reads the *runtime* row, noise included: once the stream
        // noise rivals the clean activations the runtime α is set by the
        // noise excursions, every multiplicative error term downstream
        // scales with that inflated α, and the fresh injection is amplified
        // by the noise already present — the superlinear joint collapse a
        // clean-α model misses entirely. Expected noisy-row max via the
        // Gaussian max-order statistic `σ·√(2 ln 2d)` per line, combined
        // with the clean value in quadrature.
        if let (Some(u), NoiseManagement::AbsMax) =
            (u_xs.as_deref(), self.cfg.noise_management)
        {
            let d = x_s.len().max(2) as f64;
            let c2 = 2.0 * (2.0 * d).ln();
            let noisy_max = x_s
                .iter()
                .zip(u)
                .map(|(&xv, &uv)| (f64::from(xv) * f64::from(xv) + c2 * uv).sqrt())
                .fold(0.0f64, f64::max);
            alpha = alpha.max(noisy_max as f32);
        }
        if alpha.is_nan() || alpha <= 0.0 {
            return; // all-zero row: the tile outputs exact zeros.
        }
        let mut round = 0u32;
        let out = loop {
            let out = match b.bit_serial_bits {
                Some(bits) => self.bit_serial_round(&x_s, u_xs.as_deref(), alpha, bits),
                None => self.analog_round(&x_s, u_xs.as_deref(), alpha),
            };
            if out.saturated == 0 || round >= self.max_retries {
                break out;
            }
            alpha *= 2.0;
            round += 1;
        };
        let ra = f64::from(b.read_averaging.max(1));
        let bit_serial = b.bit_serial_bits.is_some();
        for j in 0..self.gamma.len() {
            let ag = alpha * self.gamma[j];
            let sigma = out.stoch[j].sqrt();
            // ADC regime: with per-repeat noise below half an LSB the
            // deterministic code is exact and the converter adds no
            // variance; above it the noise dithers across code boundaries,
            // the mean tracks the *censored* analog value (the converter
            // range clips the noise excursions — a coherent compression of
            // large outputs), and the quantization error contributes the
            // uniform Δ²/12.
            let mut var_scale = 1.0f64;
            let (det, v_adc) = if bit_serial {
                // Per-plane conversion already handled inside the round.
                (out.z[j], 0.0)
            } else if b.adc_step > 0.0 && sigma > f64::from(b.adc_step) / 2.0 {
                let s_tot_sq = out.stoch[j] + out.prog[j];
                let (cm, cv) =
                    censored_moments(f64::from(out.z[j]), s_tot_sq.sqrt(), f64::from(b.adc_bound));
                if s_tot_sq > 0.0 {
                    var_scale = (cv / s_tot_sq).min(1.0);
                }
                (cm as f32, f64::from(b.adc_step).powi(2) / 12.0)
            } else {
                (self.adc.convert(out.z[j]).0, 0.0)
            };
            out_mean[j] += ag * det;
            let ag2 = f64::from(ag) * f64::from(ag);
            out_var[j] += ag2 * ((out.stoch[j] * var_scale + v_adc) / ra + out.prog[j] * var_scale);
        }
    }
}

/// Closed-form output moments of one analog linear layer on inputs `x`.
///
/// Replicates the [`AnalogLinear`](nora_cim::AnalogLinear) tile grid
/// (`tile_rows × tile_cols` blocks, digital partial-sum accumulation) and
/// evaluates each block with `BlockModel`. `smoothing` is the NORA
/// rescale vector for this layer (length `d_in`), `None` for the naïve
/// deployment. The layer bias is excluded — it is digital in both
/// deployments and cancels in the error.
///
/// ABFT checksum columns are not modelled (the analytic model targets
/// fault-free configurations); the grid geometry still accounts for the
/// reserved column so block boundaries match the simulator.
///
/// `u_in` is the propagated incoherent error variance per input channel
/// (`None` for a clean input): it is censored at the DAC bound, carried
/// through `w²` into the output variance, and folded into the ADC
/// censoring — the range/precision interaction that makes a joint noisy
/// deployment strictly worse than the sum of its per-layer errors.
pub fn layer_error_moments(
    weights: &Matrix,
    smoothing: Option<&[f32]>,
    x: &Matrix,
    cfg: &TileConfig,
    u_in: Option<&[f64]>,
) -> LayerMoments {
    let d_in = weights.rows();
    let d_out = weights.cols();
    let ones;
    let s_full: &[f32] = match smoothing {
        Some(s) => s,
        None => {
            ones = vec![1.0f32; d_in];
            &ones
        }
    };
    assert_eq!(s_full.len(), d_in, "smoothing length mismatch");
    if let Some(u) = u_in {
        assert_eq!(u.len(), d_in, "input-noise profile length mismatch");
    }
    let tr = cfg.tile_rows;
    let tc = cfg.tile_cols - usize::from(cfg.fault_tolerance.abft);
    let mut mean = Matrix::zeros(x.rows(), d_out);
    let mut var = vec![0.0f64; x.rows() * d_out];
    let mut r0 = 0;
    while r0 < d_in {
        let r1 = (r0 + tr).min(d_in);
        let mut c0 = 0;
        while c0 < d_out {
            let c1 = (c0 + tc).min(d_out);
            let block = weights.submatrix(r0, r1, c0, c1);
            let bm = BlockModel::new(&block, &s_full[r0..r1], cfg);
            let mut row_mean = vec![0.0f32; c1 - c0];
            let mut row_var = vec![0.0f64; c1 - c0];
            for i in 0..x.rows() {
                row_mean.iter_mut().for_each(|v| *v = 0.0);
                row_var.iter_mut().for_each(|v| *v = 0.0);
                bm.forward_moments(
                    &x.row(i)[r0..r1],
                    u_in.map(|u| &u[r0..r1]),
                    &mut row_mean,
                    &mut row_var,
                );
                for (j, (&m, &v)) in row_mean.iter().zip(&row_var).enumerate() {
                    mean[(i, c0 + j)] += m;
                    var[i * d_out + c0 + j] += v;
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
    let ideal = x.matmul(weights);
    let rows_n = x.rows().max(1) as f64;
    let n = (x.rows() * d_out).max(1) as f64;
    let mut col_power = vec![0.0f64; d_out];
    let mut bias_power = 0.0f64;
    // Per-column means of the predicted and ideal outputs, for the pooled
    // signal-gain regression across calibration rows.
    let mut mm = vec![0.0f64; d_out];
    let mut mi = vec![0.0f64; d_out];
    for i in 0..x.rows() {
        for (j, (&m, &y)) in mean.row(i).iter().zip(ideal.row(i)).enumerate() {
            let d = f64::from(m) - f64::from(y);
            bias_power += d * d;
            col_power[j] += (d * d + var[i * d_out + j]) / rows_n;
            mm[j] += f64::from(m) / rows_n;
            mi[j] += f64::from(y) / rows_n;
        }
    }
    let mut cov = 0.0f64;
    let mut sig = 0.0f64;
    for i in 0..x.rows() {
        for (j, (&m, &y)) in mean.row(i).iter().zip(ideal.row(i)).enumerate() {
            cov += (f64::from(m) - mm[j]) * (f64::from(y) - mi[j]);
            sig += (f64::from(y) - mi[j]) * (f64::from(y) - mi[j]);
        }
    }
    // Single calibration row (or a constant column) carries no row-varying
    // signal to regress on; fall back to unit gain there.
    let signal_gain = if sig > 1e-12 {
        (cov / sig).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let mut col_mean = vec![0.0f64; d_out];
    let mut col_noise = vec![0.0f64; d_out];
    for j in 0..d_out {
        col_mean[j] = mm[j] - signal_gain * mi[j];
    }
    for i in 0..x.rows() {
        for (j, (&m, &y)) in mean.row(i).iter().zip(ideal.row(i)).enumerate() {
            let r = f64::from(m) - signal_gain * f64::from(y) - col_mean[j];
            col_noise[j] += (r * r + var[i * d_out + j]) / rows_n;
        }
    }
    bias_power /= n;
    let var_power = var.iter().sum::<f64>() / n;
    let var_mat = Matrix::from_vec(x.rows(), d_out, var.iter().map(|&v| v as f32).collect());
    LayerMoments {
        mean,
        var: var_mat,
        bias_power,
        var_power,
        col_power,
        col_mean,
        col_noise,
        signal_gain,
    }
}

/// Energy/latency/area cost of decoding one token through one analog
/// linear (one input row per tile block).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    /// Total energy, pJ per decoded token.
    pub energy_pj: f64,
    /// Critical-path latency, ns per decoded token (tile blocks convert in
    /// parallel; the slowest block gates the layer).
    pub latency_ns: f64,
    /// Silicon area of the occupied tile slots, µm².
    pub area_um2: f64,
}

impl LayerCost {
    /// Element-wise accumulation of another layer's cost: energies and
    /// areas add; latencies add too (layers execute sequentially).
    pub fn accumulate(&mut self, other: LayerCost) {
        self.energy_pj += other.energy_pj;
        self.latency_ns += other.latency_ns;
        self.area_um2 += other.area_um2;
    }
}

/// Per-decode-token energy/latency/area of one analog linear under `cfg`,
/// from the first-order [`EnergyModel`](nora_cim::EnergyModel) /
/// [`AreaModel`](nora_cim::AreaModel) laws — no tile construction.
///
/// Each tile block is charged one conversion round of a single input row
/// (`read_averaging` physical repeats, times the wordline-plane count
/// under bit-serial input encoding); the array term uses the mean
/// relative conductance of the γ-normalised, quantized weight block (the
/// programming-law mean shift is a second-order correction to energy and
/// is skipped here). Bound-management retries are load-dependent and
/// excluded — the estimate is the retry-free floor, consistent across the
/// whole design grid.
///
/// Pruned (all-zero) weight rows are never streamed: their DACs stay idle
/// in every bit-serial plane and their unprogrammed cells draw no array
/// current, so the DAC term charges only the active rows while the array
/// term keeps charging exactly the programmed conductance mass `Σ|ŵ|` —
/// for dense blocks both reduce to the unpruned estimate, so sparse-aware
/// accounting is a strict refinement, not a recalibration.
pub fn layer_decode_cost(
    weights: &Matrix,
    smoothing: Option<&[f32]>,
    cfg: &TileConfig,
    energy: &nora_cim::EnergyModel,
    area: &nora_cim::AreaModel,
) -> LayerCost {
    let d_in = weights.rows();
    let d_out = weights.cols();
    let ones;
    let s_full: &[f32] = match smoothing {
        Some(s) => s,
        None => {
            ones = vec![1.0f32; d_in];
            &ones
        }
    };
    let tr = cfg.tile_rows;
    let tc = cfg.tile_cols - usize::from(cfg.fault_tolerance.abft);
    // Bit-serial encoding rebuilds the full conversion chain once per
    // wordline plane (`bits − 1` planes, matching the tile forward).
    let planes = match cfg.input_encoding {
        nora_cim::InputEncoding::BitSerial { bits } => u64::from(bits.max(2) - 1),
        _ => 1,
    };
    let stats = nora_cim::ForwardStats {
        samples: 1,
        read_repeats: planes * u64::from(cfg.read_averaging.max(1)),
        ..Default::default()
    };
    let mut cost = LayerCost::default();
    let mut r0 = 0;
    while r0 < d_in {
        let r1 = (r0 + tr).min(d_in);
        let mut c0 = 0;
        while c0 < d_out {
            let c1 = (c0 + tc).min(d_out);
            let mut w_hat = weights.submatrix(r0, r1, c0, c1);
            w_hat.scale_rows(&s_full[r0..r1]);
            let gamma = w_hat.col_abs_max();
            for (j, &g) in gamma.iter().enumerate() {
                if g > 0.0 {
                    w_hat.scale_col(j, 1.0 / g);
                }
            }
            if let Some(steps) = cfg.weight_quant.steps() {
                nora_tensor::quant::Quantizer::new(steps, 1.0)
                    .quantize_slice(w_hat.as_mut_slice());
            }
            let active_rows = (0..w_hat.rows())
                .filter(|&i| w_hat.row(i).iter().any(|&v| v != 0.0))
                .count();
            let abs_sum = w_hat.as_slice().iter().map(|v| v.abs()).sum::<f32>();
            // Charge DACs for active rows only; renormalise the mean
            // conductance over those rows so the array term still sees the
            // full programmed mass Σ|ŵ| (identical to the dense estimate
            // when no row is pruned).
            let mean_rel_g = abs_sum / (active_rows * (c1 - c0)).max(1) as f32;
            let report = energy.estimate(&stats, active_rows, c1 - c0, mean_rel_g);
            cost.energy_pj += report.total_pj();
            cost.latency_ns = cost.latency_ns.max(report.latency_ns);
            cost.area_um2 +=
                area.tile_area_um2(cfg.tile_rows, cfg.tile_cols, cfg.weight_slices);
            c0 = c1;
        }
        r0 = r1;
    }
    cost
}

/// Empirically calibrated white-noise response of the *digital* network
/// downstream of one residual-stream interface (a block input, or the
/// final-LayerNorm input).
///
/// The diagonal-covariance propagation underpredicts the logit damage of
/// stream noise by more than an order of magnitude: a clean transformer
/// block converts white residual noise into *correlated* logit error
/// (softmax re-ranking, ReLU gate flips, LayerNorm common-mode coupling)
/// that the per-channel profile cannot represent. Instead of modelling
/// those cross-channel terms, the evaluator measures them once at
/// construction: white noise of a few log-spaced powers is injected at
/// each interface of the captured *digital* forwards and the pooled
/// clean→noisy logit regression slope (margin attenuation `κ`) plus the
/// per-class residual second moment are recorded. The curves are a
/// property of the trained network alone — independent of the tile
/// configuration and rescale plan — so one calibration serves every
/// config of a design-space sweep.
struct InterfaceResponse {
    /// Injected white-noise powers (absolute per-channel variance at the
    /// interface), ascending.
    levels: Vec<f64>,
    /// Pooled centered regression slope of noisy on clean logits, per
    /// level.
    kappa: Vec<f64>,
    /// Per-class second moment of the residual `L − κ·l`, per level
    /// (`levels × classes`).
    resid: Vec<Vec<f64>>,
}

impl InterfaceResponse {
    /// Margin attenuation at injected power `p` (log-linear interpolation,
    /// linear-in-power below the smallest measured level, clamped at the
    /// largest — the top level pins the decorrelation plateau).
    fn kappa_at(&self, p: f64) -> f64 {
        if p <= 0.0 || self.levels.is_empty() {
            return 1.0;
        }
        let k = &self.kappa;
        if p <= self.levels[0] {
            return 1.0 - (1.0 - k[0]) * (p / self.levels[0]);
        }
        if p >= *self.levels.last().unwrap() {
            return *k.last().unwrap();
        }
        let i = self.levels.partition_point(|&l| l < p).max(1);
        let (l0, l1) = (self.levels[i - 1], self.levels[i]);
        let t = (p.ln() - l0.ln()) / (l1.ln() - l0.ln());
        k[i - 1] + (k[i] - k[i - 1]) * t
    }

    /// Per-class residual logit variance at injected power `p` (same
    /// interpolation scheme as [`InterfaceResponse::kappa_at`]).
    fn resid_at(&self, p: f64, out: &mut [f64]) {
        if p <= 0.0 || self.levels.is_empty() {
            return;
        }
        if p <= self.levels[0] {
            let f = p / self.levels[0];
            for (o, &r) in out.iter_mut().zip(&self.resid[0]) {
                *o += r * f;
            }
            return;
        }
        if p >= *self.levels.last().unwrap() {
            for (o, &r) in out.iter_mut().zip(self.resid.last().unwrap()) {
                *o += r;
            }
            return;
        }
        let i = self.levels.partition_point(|&l| l < p).max(1);
        let (l0, l1) = (self.levels[i - 1], self.levels[i]);
        let t = (p.ln() - l0.ln()) / (l1.ln() - l0.ln());
        for (j, o) in out.iter_mut().enumerate() {
            let (r0, r1) = (self.resid[i - 1][j].max(1e-12), self.resid[i][j].max(1e-12));
            *o += (r0.ln() + (r1.ln() - r0.ln()) * t).exp();
        }
    }
}

/// Episodes used for the white-noise interface calibration (capped — the
/// response curves need pooled class statistics, not the full eval set).
const CAL_EPISODES: usize = 48;

/// Injected noise powers relative to the interface's clean row variance.
/// Log-spaced from the linear small-noise regime up past the
/// decorrelation plateau.
const CAL_REL_LEVELS: [f64; 6] = [0.002, 0.01, 0.05, 0.25, 1.25, 6.25];

/// Runs the digital model from the input of block `from_block` (or from
/// the final LayerNorm when `from_block == blocks`) and returns the
/// final-position logits.
fn digital_tail(model: &TransformerLm, mut x: Matrix, from_block: usize) -> Vec<f32> {
    for block in &model.blocks[from_block..] {
        x = block.forward_inference(&x);
    }
    let xf = model.final_ln.forward_inference(&x);
    let logits = model.head.forward(&xf);
    logits.row(logits.rows() - 1).to_vec()
}

/// Per-block propagation statistics measured on the digital model.
#[derive(Debug, Clone, Default)]
struct BlockStats {
    /// LayerNorm-1 mean clean row variance `mean_rows[pop_var(x_row)]`.
    ln1_var: f64,
    /// LayerNorm-2 mean clean row variance.
    ln2_var: f64,
    /// Mean `Σ_j p_ij²` over positions × heads.
    f_attn: f64,
    /// Mean softmax Jacobian Frobenius norm² per score row.
    softmax_jac: f64,
    /// Mean per-head `‖q_i‖²/d_head` (multiplies key-side error).
    kappa_q: f64,
    /// Mean per-head `‖k_j‖²/d_head` (multiplies query-side error).
    kappa_k: f64,
    /// Per-channel mean square value-projection entry (the score-noise
    /// path injects context error with this channel profile).
    msq_v: Vec<f64>,
    /// Per-channel fraction of positive FFN pre-activations (ReLU
    /// pass-through).
    p_act: Vec<f64>,
    /// Per-channel mean FFN pre-activation (drives the ReLU rectification
    /// shift under the Gaussian channel model).
    act_mean: Vec<f64>,
    /// Per-channel mean-square FFN pre-activation.
    act_sq: Vec<f64>,
}

/// One analog linear's contribution to a prediction.
#[derive(Debug, Clone)]
pub struct LayerInjection {
    /// Which linear.
    pub id: LinearId,
    /// Injected error power `bias² + variance` (per element, averaged).
    pub power: f64,
    /// Per-element MSE decomposition of the layer.
    pub bias_power: f64,
    /// Stochastic share of the injected power.
    pub var_power: f64,
}

/// The analytic accuracy/MSE prediction for one deployment configuration.
#[derive(Debug, Clone)]
pub struct AnalyticPrediction {
    /// Predicted root-mean-square logit error (mean over classes).
    pub sigma_logit: f64,
    /// Per-class predicted logit error variance. The error is strongly
    /// concentrated on the classes whose head rows read corrupted
    /// channels, so accuracy uses this profile, not the scalar mean.
    pub logit_var: Vec<f64>,
    /// Per-class predicted *signed* systematic logit shift — the coherent
    /// deployment bias shared by every episode.
    pub logit_shift: Vec<f64>,
    /// Predicted eval accuracy over the evaluator's episodes.
    pub accuracy: f64,
    /// Final-residual error variance before the head.
    pub residual_var: f64,
    /// Per-layer injected error powers, forward order.
    pub layers: Vec<LayerInjection>,
}

/// LayerNorm epsilon (mirrors the private constant in `nora-nn`).
const LN_EPS: f32 = 1e-5;

/// Fast analytic accuracy predictor: digital statistics captured once,
/// arbitrary `(plan, tile config)` pairs scored without tile forwards.
pub struct AnalyticEvaluator {
    /// Captured clean inputs per linear (row-capped).
    inputs: Vec<Matrix>,
    block_stats: Vec<BlockStats>,
    final_ln_var: f64,
    /// Final-position logits and planted key per episode.
    logits: Vec<(Vec<f32>, usize)>,
    /// Calibrated white-noise response per residual-stream interface
    /// (index `b` → input of block `b+1`; the last entry is the
    /// final-LayerNorm input).
    interfaces: Vec<InterfaceResponse>,
    /// Manifold discount: real analog stream error (born inside the
    /// analog layers — γ-shaped, attention-mixed, partially
    /// signal-correlated) damages the downstream digital network
    /// several-fold less per unit measured power than the fresh white
    /// noise the response curves were measured with. Self-calibrated in
    /// [`AnalyticEvaluator::new`] against a single simulated reference
    /// config; interface powers are divided by this before curve lookup.
    discount: f64,
}

impl AnalyticEvaluator {
    /// Runs the digital model over `episodes`, capturing per-linear inputs
    /// (at most `max_capture_rows` stacked rows per linear) and the block
    /// propagation statistics.
    pub fn new(model: &TransformerLm, episodes: &[Episode], max_capture_rows: usize) -> Self {
        let blocks = model.blocks.len();
        let mut captures: Vec<Vec<Vec<f32>>> = vec![Vec::new(); blocks * 6];
        let mut stats = vec![BlockStats::default(); blocks];
        let mut final_ln_sum = 0.0f64;
        let mut final_ln_n = 0usize;
        let mut logits_out = Vec::with_capacity(episodes.len());
        let mut counts = vec![0usize; blocks]; // row count per block for means
        let cal_eps = episodes.len().min(CAL_EPISODES);
        // Residual streams entering block b+1 (final-LN input for the last
        // block), per calibration episode — the injection points of the
        // white-noise interface calibration.
        let mut cal_streams: Vec<Vec<Matrix>> = vec![Vec::with_capacity(cal_eps); blocks];

        for (ep_idx, ep) in episodes.iter().enumerate() {
            let ctx = &ep.tokens[..ep.tokens.len() - 1];
            let mut x = model.embedding.forward_inference(ctx);
            for (b, block) in model.blocks.iter().enumerate() {
                let st = &mut stats[b];
                let rows = x.rows();
                // LayerNorm-1 factor on this block's residual input.
                st.ln1_var += ln_mean_var(&x) * rows as f64;
                let ln1_out = block.ln1.forward_inference(&x);
                // Attention statistics from the digital projections.
                let q = block.attn.wq.forward(&ln1_out);
                let k = block.attn.wk.forward(&ln1_out);
                let v = block.attn.wv.forward(&ln1_out);
                accumulate_attn_stats(st, &q, &k, block.attn.heads());
                if st.msq_v.is_empty() {
                    st.msq_v = vec![0.0; v.cols()];
                }
                for r in 0..v.rows() {
                    for (c, &t) in v.row(r).iter().enumerate() {
                        st.msq_v[c] += f64::from(t) * f64::from(t);
                    }
                }
                // The block forward itself uses the model's own kernels and
                // attention core, so the captured logits are bit-identical
                // to `model.forward`.
                let context = block.attn.attend(&q, &k, &v);
                let x1 = x.add(&block.attn.wo.forward(&context));
                st.ln2_var += ln_mean_var(&x1) * rows as f64;
                let ln2_out = block.ln2.forward_inference(&x1);
                let h_pre = block.fc1.forward(&ln2_out);
                if st.p_act.is_empty() {
                    st.p_act = vec![0.0; h_pre.cols()];
                    st.act_mean = vec![0.0; h_pre.cols()];
                    st.act_sq = vec![0.0; h_pre.cols()];
                }
                for r in 0..h_pre.rows() {
                    for (c, &t) in h_pre.row(r).iter().enumerate() {
                        if t > 0.0 {
                            st.p_act[c] += 1.0;
                        }
                        st.act_mean[c] += f64::from(t);
                        st.act_sq[c] += f64::from(t) * f64::from(t);
                    }
                }
                let h = h_pre.map(|v| v.max(0.0));
                capture_rows(&mut captures[b * 6], &ln1_out, max_capture_rows);
                capture_rows(&mut captures[b * 6 + 3], &context, max_capture_rows);
                capture_rows(&mut captures[b * 6 + 4], &ln2_out, max_capture_rows);
                capture_rows(&mut captures[b * 6 + 5], &h, max_capture_rows);
                x = x1.add(&block.fc2.forward(&h));
                if ep_idx < cal_eps {
                    cal_streams[b].push(x.clone());
                }
                counts[b] += rows;
            }
            final_ln_sum += ln_mean_var(&x) * x.rows() as f64;
            final_ln_n += x.rows();
            let xf = model.final_ln.forward_inference(&x);
            let logits = model.head.forward(&xf);
            logits_out.push((logits.row(logits.rows() - 1).to_vec(), ep.key));
        }

        for (b, st) in stats.iter_mut().enumerate() {
            let n = counts[b].max(1) as f64;
            st.ln1_var /= n;
            st.ln2_var /= n;
            st.p_act.iter_mut().for_each(|p| *p /= n);
            st.act_mean.iter_mut().for_each(|m| *m /= n);
            st.act_sq.iter_mut().for_each(|m| *m /= n);
            st.msq_v.iter_mut().for_each(|m| *m /= n);
            // Attention accumulators were normalised per row×head inside
            // `accumulate_attn_stats`; divide by episode count.
            let eps = episodes.len().max(1) as f64;
            st.f_attn /= eps;
            st.softmax_jac /= eps;
            st.kappa_q /= eps;
            st.kappa_k /= eps;
        }

        // Q/K/V share the ln1 capture (one copy each keeps indexing flat).
        let mut inputs = Vec::with_capacity(blocks * 6);
        for b in 0..blocks {
            let ln1 = rows_to_matrix(&captures[b * 6]);
            inputs.push(ln1.clone()); // Q
            inputs.push(ln1.clone()); // K
            inputs.push(ln1); // V
            inputs.push(rows_to_matrix(&captures[b * 6 + 3]));
            inputs.push(rows_to_matrix(&captures[b * 6 + 4]));
            inputs.push(rows_to_matrix(&captures[b * 6 + 5]));
        }

        let final_ln_var = final_ln_sum / final_ln_n.max(1) as f64;

        // White-noise interface calibration: measure the digital network's
        // true stream-noise → logit response once (see
        // [`InterfaceResponse`]). Serial and counter-seeded, so the curves
        // are bit-identical at any thread count.
        let classes = logits_out.first().map_or(0, |(l, _)| l.len());
        let mut interfaces = Vec::with_capacity(blocks);
        for i in 1..=blocks {
            let vbar = if i < blocks {
                stats[i].ln1_var
            } else {
                final_ln_var
            }
            .max(1e-12);
            let mut levels = Vec::with_capacity(CAL_REL_LEVELS.len());
            let mut kappas = Vec::with_capacity(CAL_REL_LEVELS.len());
            let mut resids = Vec::with_capacity(CAL_REL_LEVELS.len());
            for (li, rel) in CAL_REL_LEVELS.iter().enumerate() {
                let power = rel * vbar;
                let sigma = power.sqrt() as f32;
                let mut noisy: Vec<Vec<f32>> = Vec::with_capacity(cal_eps);
                let mut buf = Vec::new();
                for (ep, streams) in cal_streams[i - 1].iter().enumerate() {
                    let mut xn = streams.clone();
                    buf.resize(xn.as_mut_slice().len(), 0.0);
                    let mut rng =
                        Rng::from_key(&[0xCA11_B7A7, i as u64, li as u64, ep as u64]);
                    rng.fill_normal(&mut buf, 0.0, sigma);
                    for (t, n) in xn.as_mut_slice().iter_mut().zip(&buf) {
                        *t += *n;
                    }
                    noisy.push(digital_tail(model, xn, i));
                }
                // Pooled centered regression of noisy on clean logits.
                let n = noisy.len().max(1) as f64;
                let mut clean_mean = vec![0.0f64; classes];
                let mut noisy_mean = vec![0.0f64; classes];
                for (ep, nl) in noisy.iter().enumerate() {
                    for j in 0..classes {
                        clean_mean[j] += f64::from(logits_out[ep].0[j]) / n;
                        noisy_mean[j] += f64::from(nl[j]) / n;
                    }
                }
                let (mut num, mut den) = (0.0f64, 0.0f64);
                for (ep, nl) in noisy.iter().enumerate() {
                    for j in 0..classes {
                        let lc = f64::from(logits_out[ep].0[j]) - clean_mean[j];
                        let ln = f64::from(nl[j]) - noisy_mean[j];
                        num += lc * ln;
                        den += lc * lc;
                    }
                }
                let k = if den > 1e-12 {
                    (num / den).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                // Per-class second moment of the residual about `κ·l` —
                // episode-varying noise plus any noise-induced coherent
                // shift (ReLU rectification of the injected power).
                let mut resid = vec![0.0f64; classes];
                for (ep, nl) in noisy.iter().enumerate() {
                    for (j, r) in resid.iter_mut().enumerate() {
                        let d = f64::from(nl[j]) - k * f64::from(logits_out[ep].0[j]);
                        *r += d * d / n;
                    }
                }
                levels.push(power);
                kappas.push(k);
                resids.push(resid);
            }
            interfaces.push(InterfaceResponse {
                levels,
                kappa: kappas,
                resid: resids,
            });
        }

        let mut ev = Self {
            inputs,
            block_stats: stats,
            final_ln_var,
            logits: logits_out,
            interfaces,
            discount: 1.0,
        };

        // Manifold-discount self-calibration. Fresh white noise injected
        // straight into the residual stream is the most damaging error of a
        // given power: one clean block turns it into correlated,
        // head-aligned logit error (softmax re-ranking, ReLU gate flips).
        // Error born *inside* the analog layers arrives already shaped and
        // partially signal-correlated, and empirically costs ~4-5× less per
        // unit measured stream power — a gap none of the cheap structural
        // surrogates (channel profile, `WᵀW` covariance shaping, row-gain)
        // reproduces. So it is measured, not assumed: simulate one
        // mid-severity reference deployment, regress its logits on the
        // clean captures, and bisect for the power discount that makes the
        // white-curve κ-product match the measured slope.
        let cal_n = episodes.len().min(32);
        if cal_n >= 8 && !ev.interfaces.is_empty() {
            let cfg_ref = nora_cim::NonIdeality::AdditiveOutputNoise.configure(0.021);
            let plan_ref = RescalePlan::naive();
            let classes = ev.logits.first().map_or(0, |(l, _)| l.len());
            // Pooled regression over several deployment seeds: a single
            // 20-episode realization scatters the measured slope by ±0.1.
            let (mut num, mut den) = (0.0f64, 0.0f64);
            for seed in [0x0CA1_1B2A_u64, 0x0CA1_1B2B, 0x0CA1_1B2C] {
                let mut analog = nora_nn::deploy::AnalogTransformerLm::with_layer_filter(
                    model,
                    cfg_ref.clone(),
                    plan_ref.smoothing_map(),
                    seed,
                    |_| true,
                );
                let mut noisy: Vec<Vec<f32>> = Vec::with_capacity(cal_n);
                for ep in &episodes[..cal_n] {
                    let ctx = &ep.tokens[..ep.tokens.len() - 1];
                    let l = analog.forward(ctx);
                    noisy.push(l.row(l.rows() - 1).to_vec());
                }
                let n = cal_n as f64;
                let mut clean_mean = vec![0.0f64; classes];
                let mut noisy_mean = vec![0.0f64; classes];
                for (ep, nl) in noisy.iter().enumerate() {
                    for j in 0..classes {
                        clean_mean[j] += f64::from(ev.logits[ep].0[j]) / n;
                        noisy_mean[j] += f64::from(nl[j]) / n;
                    }
                }
                for (ep, nl) in noisy.iter().enumerate() {
                    for j in 0..classes {
                        let lc = f64::from(ev.logits[ep].0[j]) - clean_mean[j];
                        let ln = f64::from(nl[j]) - noisy_mean[j];
                        num += lc * ln;
                        den += lc * lc;
                    }
                }
            }
            if den > 1e-12 {
                let kappa_ref = (num / den).clamp(0.01, 0.999);
                let (_, deltas) = ev.predict_inner(model, &plan_ref, &cfg_ref);
                let product = |s: f64| -> f64 {
                    ev.interfaces
                        .iter()
                        .zip(&deltas)
                        .map(|(r, &(dk, _))| r.kappa_at(dk / s))
                        .product()
                };
                if product(1.0) < kappa_ref {
                    if product(64.0) <= kappa_ref {
                        ev.discount = 64.0;
                    } else {
                        let (mut lo, mut hi) = (1.0f64, 64.0f64);
                        for _ in 0..48 {
                            let mid = 0.5 * (lo + hi);
                            if product(mid) < kappa_ref {
                                lo = mid;
                            } else {
                                hi = mid;
                            }
                        }
                        ev.discount = 0.5 * (lo + hi);
                    }
                }
            }
        }
        ev
    }

    /// Number of captured episodes.
    pub fn episodes(&self) -> usize {
        self.logits.len()
    }

    /// Digital (noise-free) accuracy over the captured episodes — the
    /// `σ → 0` limit of [`AnalyticEvaluator::predict`].
    pub fn digital_accuracy(&self) -> f64 {
        let hits = self
            .logits
            .iter()
            .filter(|(l, key)| argmax(l) == *key)
            .count();
        hits as f64 / self.logits.len().max(1) as f64
    }

    /// Predicts the analog eval accuracy of deploying `model` with `plan`
    /// on tiles configured as `cfg`, from per-layer analytic error moments
    /// propagated through the captured block statistics.
    pub fn predict(
        &self,
        model: &TransformerLm,
        plan: &RescalePlan,
        cfg: &TileConfig,
    ) -> AnalyticPrediction {
        self.predict_inner(model, plan, cfg).0
    }

    /// [`AnalyticEvaluator::predict`] plus the raw (pre-discount) fresh
    /// error power per stream interface — the curve lookup keys, exposed
    /// for the discount self-calibration.
    fn predict_inner(
        &self,
        model: &TransformerLm,
        plan: &RescalePlan,
        cfg: &TileConfig,
    ) -> (AnalyticPrediction, Vec<(f64, f64)>) {
        let mut layers = Vec::with_capacity(self.inputs.len());
        // Residual-stream error variance, channel-resolved. A scalar
        // variance with mean-square weight gains `ΣW²/d_out` overestimates
        // propagation by orders of magnitude on trained models: LayerNorm
        // gains concentrate noise onto a few channels that the next weight
        // matrix reads weakly (trained co-adaptation). The diagonal
        // per-channel profile composes through each weight exactly (for
        // channel-independent noise) and captures that structure.
        let d_model = model.blocks[0].ln1.gain.value.cols();
        let mut u = vec![0.0f64; d_model];
        // Signed systematic shift of the residual stream, per channel. The
        // deterministic part of each layer's error (quantization/clipping
        // bias, shared by every forward) propagates coherently — through
        // weights with sign cancellation, not in quadrature — and ends as
        // a fixed logit offset that flips argmaxes far more effectively
        // than zero-mean noise of the same power.
        let mut bshift = vec![0.0f64; d_model];
        // Clean-signal attenuation of the residual stream relative to the
        // clean captures: every noisy LayerNorm divides by an error-inflated
        // row std, shrinking the clean component of its output — and hence
        // the downstream logit margins — by `√(v̄/(a²v̄ + ē))`. Accuracy
        // collapse at high noise is driven as much by this margin shrinkage
        // as by the noise itself.
        let mut a = 1.0f64;
        // Fresh error power appearing at each downstream interface
        // (`(coherent+incoherent, incoherent)` per block exit) — the
        // lookup keys into the calibrated white-noise response curves.
        let mut deltas: Vec<(f64, f64)> = Vec::with_capacity(self.block_stats.len());
        // Per-channel stream sensitivity at the head: `g_f,c² · Σ_j W²_cj`.
        // The calibration curves were measured with *white* stream noise;
        // analog injections are γ²-shaped onto outlier channels that the
        // trained final LN and head read weakly, so their damage per unit
        // raw power is several-fold smaller. The alignment ratio of each
        // block's fresh profile against this sensitivity converts raw fresh
        // power into white-equivalent power before the curve lookup.
        let sens: Vec<f64> = model
            .final_ln
            .gain
            .value
            .row(0)
            .iter()
            .enumerate()
            .map(|(c, &g)| {
                let h: f64 = model
                    .head
                    .weight
                    .value
                    .row(c)
                    .iter()
                    .map(|&w| f64::from(w) * f64::from(w))
                    .sum();
                f64::from(g) * f64::from(g) * h
            })
            .collect();
        let sens_mean = mean_profile(&sens).max(1e-12);
        for (b, st) in self.block_stats.iter().enumerate() {
            let block = &model.blocks[b];
            let u_in_block = u.clone();
            let e_u_in = mean_profile(&u);
            let e_b_in = centered_power(&bshift);
            let inj = |kind: LinearKind,
                       this: &Self,
                       u_in: Option<&[f64]>|
             -> (LayerInjection, Vec<f64>, Vec<f64>, f64) {
                let id = LinearId::new(b, kind);
                let idx = b * 6 + kind_index(kind);
                let lm = layer_error_moments(
                    &model.linear(id).weight.value,
                    plan.smoothing_for(id),
                    &this.inputs[idx],
                    cfg,
                    u_in,
                );
                // Split the injection three ways: signal gain (clean
                // attenuation through range clipping), signed column bias
                // (coherent shift), incoherent residual power. With `u_in`
                // set the incoherent part already contains the input noise
                // carried through `w²` (censored at the DAC and ADC
                // bounds), so the caller uses it as the full output-noise
                // profile — no separate white transform.
                (
                    LayerInjection {
                        id,
                        power: lm.mse(),
                        bias_power: lm.bias_power,
                        var_power: lm.var_power,
                    },
                    lm.col_noise,
                    lm.col_mean,
                    lm.signal_gain,
                )
            };

            let e1 = mean_profile(&u) + centered_power(&bshift);
            let d1 = a * a * st.ln1_var + e1 + f64::from(LN_EPS);
            let g1 = block.ln1.gain.value.row(0);
            let u1 = ln_transfer_profile(&u, d1, g1);
            let b1 = ln_transfer_mean(&bshift, d1, g1);
            // Clean-signal attenuation through this (noisy) LayerNorm,
            // relative to the clean captures: the LN divides by the
            // inflated row std, shrinking the surviving clean margins by
            // the same factor the noise transfer saturates with.
            let a_attn = a * (st.ln1_var / d1).sqrt();
            let (jq, u_q, _mq, _gq) = inj(LinearKind::Q, self, Some(&u1));
            let (jk, u_k, _mk, _gk) = inj(LinearKind::K, self, Some(&u1));
            let (jv, u_v, mv, gv) = inj(LinearKind::V, self, Some(&u1));
            // A per-channel shift of V rides the row-stochastic attention
            // weights through unchanged (`Σ_j P_ij (v_j + b) = ctx_i + b`);
            // constant K-shifts cancel in softmax, Q-shift score effects
            // are second order next to the V/FFN paths and are dropped.
            let b_v = add_signed(scale_profile(mean_transform(&b1, &block.attn.wv.weight.value), gv), &mv);
            // Linearised softmax perturbation, saturated at the worst-case
            // total probability movement `Σ(Δp)² ≤ 2`; it re-injects the
            // value profile into the context.
            let score_noise =
                st.softmax_jac * (st.kappa_k * mean_profile(&u_q) + st.kappa_q * mean_profile(&u_k));
            let p_noise = 2.0 * score_noise / (2.0 + score_noise);
            // Clean-context retention under score noise, the complement of
            // the saturated probability movement: scrambled attention does
            // not merely add noise — it re-mixes V rows with the *wrong*
            // weights, replacing the episode-varying clean context. At
            // `score_noise ≫ 1` the context is a random V mixture and the
            // clean attention signal is gone even before V/Out inject a
            // single electron of device noise.
            let r_attn = 2.0 / (2.0 + score_noise);
            let ctx: Vec<f64> = u_v
                .iter()
                .zip(&st.msq_v)
                .map(|(&vv, &msq)| st.f_attn * vv + p_noise * msq)
                .collect();
            let (jo, attn, mo, go) = inj(LinearKind::Out, self, Some(&ctx));
            let attn_b = add_signed(scale_profile(mean_transform(&b_v, &block.attn.wo.weight.value), go), &mo);
            let u_x1 = add_profiles(u.clone(), &attn);
            let b_x1 = add_signed(bshift.clone(), &attn_b);
            // Residual + attenuated attention branch: power-weighted clean
            // attenuation (clean branch powers approximated as additive,
            // `v̄2 ≈ v̄1 + attn power`). The branch's clean signal is
            // further flattened by the V/Out range-clipping gains — the
            // attention mixing between them is linear in V, so the two
            // layer gains compose multiplicatively.
            let a_branch = a_attn * gv * go * r_attn;
            let a_x1 = ((a * a * st.ln1_var
                + a_branch * a_branch * (st.ln2_var - st.ln1_var).max(0.0))
                / st.ln2_var.max(1e-12))
            .sqrt()
            .min(1.0);
            let e2 = mean_profile(&u_x1) + centered_power(&b_x1);
            let d2 = a_x1 * a_x1 * st.ln2_var + e2 + f64::from(LN_EPS);
            let g2 = block.ln2.gain.value.row(0);
            let u2 = ln_transfer_profile(&u_x1, d2, g2);
            let b2 = ln_transfer_mean(&b_x1, d2, g2);
            let a_ffn = a_x1 * (st.ln2_var / d2).sqrt();
            let (jf1, u_pre, mf1, gf1) = inj(LinearKind::Fc1, self, Some(&u2));
            let b_pre = add_signed(scale_profile(mean_transform(&b2, &block.fc1.weight.value), gf1), &mf1);
            // ReLU gates the incoherent power by the activation probability,
            // but the coherent shift needs the full Gaussian rectification
            // law: zero-mean pre-activation noise rectifies into a positive
            // coherent shift (`E[relu(x+n)] > E[relu(x)]`), a variance→mean
            // conversion that dominates the systematic logit offset at high
            // injected FFN noise.
            let b_h: Vec<f64> = (0..b_pre.len())
                .map(|c| relu_mean_shift(st.act_mean[c], st.act_sq[c], b_pre[c], u_pre[c]))
                .collect();
            let u_h: Vec<f64> = u_pre
                .iter()
                .zip(&st.p_act)
                .map(|(&v, &p)| v * p)
                .collect();
            // Clean-signal transmission of the ReLU under pre-activation
            // noise: the channel output seen downstream is the smoothed
            // gate `m(x,σ) = E[relu(x+n)] = x·Φ(x/σ) + σ·φ(x/σ)`, whose
            // row-varying component is flatter than `relu(x)` — at
            // `σ ≫ s` the slope collapses toward `½·Cov(x,relu)/Var(relu)`
            // and part of the clean FFN signal is averaged away. Pooled
            // regression slope `ΣCov(m, relu)/ΣVar(relu)` over the clean
            // Gaussian channel models, the exact analogue of the per-layer
            // signal gain.
            let mut relu_cov = 0.0f64;
            let mut relu_var = 0.0f64;
            for (c, &u_c) in u_pre.iter().enumerate() {
                let mu = st.act_mean[c];
                let s2 = (st.act_sq[c] - mu * mu).max(1e-12);
                let s = s2.sqrt();
                let sigma = u_c.max(0.0).sqrt();
                if sigma < 1e-9 * s.max(1e-12) {
                    // Noise-free channel: the gate is the identity on the
                    // clean activation, slope 1 on its own variance.
                    let pa = normal_cdf(mu / s);
                    let ey = mu * pa + s * phi(mu / s);
                    let ey2 = (mu * mu + s2) * pa + mu * s * phi(mu / s);
                    let v = (ey2 - ey * ey).max(0.0);
                    relu_cov += v;
                    relu_var += v;
                    continue;
                }
                // Trapezoid over the clean pre-activation x ~ N(μ, s²).
                const PTS: usize = 33;
                let (mut w_sum, mut e_c, mut e_n, mut e_cc, mut e_cn) =
                    (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for t in 0..PTS {
                    let z = -4.0 + 8.0 * t as f64 / (PTS - 1) as f64;
                    let wt = phi(z) * if t == 0 || t == PTS - 1 { 0.5 } else { 1.0 };
                    let x = mu + s * z;
                    let yc = x.max(0.0);
                    let yn = x * normal_cdf(x / sigma) + sigma * phi(x / sigma);
                    w_sum += wt;
                    e_c += wt * yc;
                    e_n += wt * yn;
                    e_cc += wt * yc * yc;
                    e_cn += wt * yc * yn;
                }
                e_c /= w_sum;
                e_n /= w_sum;
                e_cc /= w_sum;
                e_cn /= w_sum;
                relu_cov += e_cn - e_c * e_n;
                relu_var += (e_cc - e_c * e_c).max(0.0);
            }
            let g_relu = if relu_var > 1e-12 {
                (relu_cov / relu_var).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let (jf2, f2_noise, mf2, gf2) = inj(LinearKind::Fc2, self, Some(&u_h));
            u = add_profiles(f2_noise, &u_x1);
            bshift = add_signed(
                add_signed(scale_profile(mean_transform(&b_h, &block.fc2.weight.value), gf2), &mf2),
                &b_x1,
            );
            // Residual + attenuated FFN branch, weighted by the clean power
            // each contributes to the next block's (or final) LN input.
            // Like the attention branch, the FFN clean signal is flattened
            // by both layers' range-clipping gains (ReLU passes the clean
            // component through where it is active).
            let f_branch = a_ffn * gf1 * g_relu * gf2;
            let v_next = self
                .block_stats
                .get(b + 1)
                .map(|s| s.ln1_var)
                .unwrap_or(self.final_ln_var);
            a = ((a_x1 * a_x1 * st.ln2_var + f_branch * f_branch * (v_next - st.ln2_var).max(0.0))
                / v_next.max(1e-12))
            .sqrt()
            .min(1.0);

            let du = (mean_profile(&u) - e_u_in).max(0.0);
            let db = (centered_power(&bshift) - e_b_in).max(0.0);
            let fresh: Vec<f64> = u
                .iter()
                .zip(&u_in_block)
                .map(|(&o, &i)| (o - i).max(0.0))
                .collect();
            let fresh_sum = fresh.iter().sum::<f64>();
            let rho = if fresh_sum > 1e-18 {
                fresh
                    .iter()
                    .zip(&sens)
                    .map(|(&f, &s)| f * s)
                    .sum::<f64>()
                    / fresh_sum
                    / sens_mean
            } else {
                1.0
            };
            deltas.push(((du + db) * rho, du * rho));

            layers.extend([jq, jk, jv, jo, jf1, jf2]);
        }
        // Final LayerNorm: signal and error are renormalised by the same
        // inflated row std `√(a²v̄_f + ē_f)`. Relative to the captured
        // clean logits, the surviving clean margins carry the net factor
        // `κ = a·√(v̄_f/(a²v̄_f + ē_f))` while the error lands with the
        // actual normalisation — a stream that is mostly error decays to
        // the chance floor through κ → 0, not through unbounded noise.
        let gf = model.final_ln.gain.value.row(0);
        let e_f = mean_profile(&u) + centered_power(&bshift);
        let d_f = a * a * self.final_ln_var + e_f + f64::from(LN_EPS);
        let kappa = a * (self.final_ln_var / d_f).sqrt();
        let u_f: Vec<f64> = u
            .iter()
            .zip(gf)
            .map(|(&v, &g)| f64::from(g) * f64::from(g) * v / d_f)
            .collect();
        let b_mean = mean_profile(&bshift);
        let b_f: Vec<f64> = bshift
            .iter()
            .zip(gf)
            .map(|(&v, &g)| f64::from(g) * (v - b_mean) / d_f.sqrt())
            .collect();
        let logit_profile = white_transform(&u_f, &model.head.weight.value);
        let logit_shift = mean_transform(&b_f, &model.head.weight.value);
        let var = e_f;
        // Calibrated stream-noise response: each interface's fresh error
        // power is scored against the measured white-noise curves of the
        // digital network downstream of that interface. The per-channel
        // analytic profile keeps the cross-plan structure (it knows which
        // channels the noise actually lands on) but misses cross-channel
        // covariance, so the calibrated response sets the floor: per class
        // the larger of the two variances wins, and the margin attenuation
        // is the more pessimistic of the analytic `κ` and the measured
        // product.
        let mut kappa_cal = 1.0f64;
        let mut sigma2 = vec![0.0f64; logit_profile.len()];
        for (resp, &(dk, ds)) in self.interfaces.iter().zip(&deltas) {
            kappa_cal *= resp.kappa_at(dk / self.discount);
            resp.resid_at(ds / self.discount, &mut sigma2);
        }
        let kappa = kappa.min(kappa_cal);
        for (s, &p) in sigma2.iter_mut().zip(&logit_profile) {
            *s = s.max(p);
        }
        let sigmas: Vec<f64> = sigma2.iter().map(|v| v.max(0.0).sqrt()).collect();
        let acc = self
            .logits
            .iter()
            .map(|(l, key)| {
                let shifted: Vec<f64> = l
                    .iter()
                    .zip(&logit_shift)
                    .map(|(&c, &d)| kappa * f64::from(c) + d)
                    .collect();
                correct_probability(&shifted, *key, &sigmas)
            })
            .sum::<f64>()
            / self.logits.len().max(1) as f64;
        // Reported per-class logit error power: coherent shift² plus
        // incoherent variance — comparable to an empirical per-class MSE.
        let logit_var: Vec<f64> = sigma2
            .iter()
            .zip(&logit_shift)
            .map(|(&v, &s)| v + s * s)
            .collect();
        let sigma = mean_profile(&logit_var).max(0.0).sqrt();
        (
            AnalyticPrediction {
                sigma_logit: sigma,
                logit_var,
                logit_shift,
                accuracy: acc,
                residual_var: var,
                layers,
            },
            deltas,
        )
    }
}

fn kind_index(kind: LinearKind) -> usize {
    match kind {
        LinearKind::Q => 0,
        LinearKind::K => 1,
        LinearKind::V => 2,
        LinearKind::Out => 3,
        LinearKind::Fc1 => 4,
        LinearKind::Fc2 => 5,
    }
}

fn argmax(l: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in l.iter().enumerate() {
        if v > l[best] {
            best = i;
        }
    }
    best
}

fn argmax_f64(l: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in l.iter().enumerate() {
        if v > l[best] {
            best = i;
        }
    }
    best
}

/// `P(argmax(l + diag(σ)·ξ) = key)` for independent per-class Gaussian
/// logit noise, by quadrature over the key logit's noise realisation:
/// `∫ φ(z) Π_{j≠key} Φ((l_key − l_j + σ_key·z)/σ_j) dz`.
///
/// Per-class sigmas matter: analog logit error is concentrated on the
/// classes whose head rows read corrupted channels, and a few large σ_j
/// flip the argmax far more often than the same power spread iid would.
/// Classes with σ_j ≈ 0 contribute a hard step on the shifted margin.
fn correct_probability(logits: &[f64], key: usize, sigmas: &[f64]) -> f64 {
    if sigmas.iter().all(|&s| s < 1e-9) {
        return if argmax_f64(logits) == key { 1.0 } else { 0.0 };
    }
    let lk = logits[key];
    let sk = sigmas.get(key).copied().unwrap_or(0.0);
    let n = 161;
    let (lo, hi) = (-8.0f64, 8.0f64);
    let step = (hi - lo) / (n - 1) as f64;
    let mut acc = 0.0f64;
    for i in 0..n {
        let z = lo + step * i as f64;
        let mut p = phi(z);
        for (j, &l) in logits.iter().enumerate() {
            if j == key {
                continue;
            }
            let margin = lk - l + sk * z;
            let sj = sigmas.get(j).copied().unwrap_or(0.0);
            if sj < 1e-12 {
                if margin <= 0.0 {
                    p = 0.0;
                }
            } else if margin < 8.0 * sj {
                // Φ(m/σ) ≈ 1 beyond 8σ — skipping the erf there keeps the
                // design-space sweep's dominant inner loop cheap on the
                // (typical) near-clean configurations.
                p *= normal_cdf(margin / sj);
            }
            if p == 0.0 {
                break;
            }
        }
        let w = if i == 0 || i == n - 1 { 0.5 } else { 1.0 };
        acc += w * p;
    }
    acc * step
}

/// `mean_rows[ pop_var(x_row) ]` — the arithmetic-mean clean row variance
/// seen by a LayerNorm on input rows `x`. The arithmetic mean is the right
/// pooling because injected error power scales with row signal power
/// (α-normalisation ties the error magnitude to the row maximum), so the
/// noise *fraction* is roughly uniform across rows and degenerate
/// small-variance rows must not dominate as they would in a harmonic mean.
fn ln_mean_var(x: &Matrix) -> f64 {
    let d = x.cols();
    let mut acc = 0.0f64;
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean = row.iter().map(|&v| f64::from(v)).sum::<f64>() / d as f64;
        let var = row
            .iter()
            .map(|&v| {
                let c = f64::from(v) - mean;
                c * c
            })
            .sum::<f64>()
            / d as f64;
        acc += var;
    }
    acc / x.rows().max(1) as f64
}


/// Saturating channel-resolved LayerNorm noise transfer
/// `u'_c = g_c²·u_c/denom` with `denom = a²·v̄ + ē + ε` computed at the
/// call site (`a` the clean-signal attenuation, `v̄` the mean clean row
/// variance, `ē` the mean total error power — incoherent noise plus the
/// centered power of the coherent shift, both of which inflate the noisy
/// row std LayerNorm actually divides by). The total output noise can
/// never exceed the LN's fixed output power `mean(g²)`; the matching
/// clean-margin shrinkage `a' = a·√(v̄/denom)` is tracked by the caller.
fn ln_transfer_profile(u: &[f64], denom: f64, gain: &[f32]) -> Vec<f64> {
    u.iter()
        .zip(gain)
        .map(|(&v, &g)| f64::from(g) * f64::from(g) * v / denom)
        .collect()
}

/// LayerNorm transfer of a coherent per-channel mean shift: the row-mean
/// subtraction removes the shift's average, each channel is scaled by its
/// gain, and the row normalisation divides by the same inflated std the
/// variance transfer saturates with:
/// `b'_c = g_c·(b_c − b̄)/√denom`.
fn ln_transfer_mean(b: &[f64], denom: f64, gain: &[f32]) -> Vec<f64> {
    let b_mean = mean_profile(b);
    let denom = denom.sqrt();
    b.iter()
        .zip(gain)
        .map(|(&v, &g)| f64::from(g) * (v - b_mean) / denom)
        .collect()
}

/// Signed linear transform of a coherent mean shift: `b'_j = Σ_c b_c·W_cj`
/// — exact, with the sign cancellation a power-domain transform misses.
fn mean_transform(b: &[f64], w: &Matrix) -> Vec<f64> {
    let mut out = vec![0.0f64; w.cols()];
    for (c, &bc) in b.iter().enumerate() {
        if bc == 0.0 {
            continue;
        }
        for (o, &wv) in out.iter_mut().zip(w.row(c)) {
            *o += bc * f64::from(wv);
        }
    }
    out
}

fn add_signed(mut a: Vec<f64>, b: &[f64]) -> Vec<f64> {
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Scales a signed profile by a layer's signal-transmission gain — the
/// coherent input shift rides the same flattened transfer as the clean
/// row-varying signal.
fn scale_profile(mut a: Vec<f64>, g: f64) -> Vec<f64> {
    for x in a.iter_mut() {
        *x *= g;
    }
    a
}

/// Mean and variance of `clip(Z, −bound, bound)` for `Z ~ N(μ, σ²)` —
/// the censored-Gaussian moments of a converter with symmetric range.
/// Clipping compresses out-of-range excursions coherently (the mean moves
/// toward the bound) and strictly reduces the transmitted variance.
fn censored_moments(mu: f64, sigma: f64, bound: f64) -> (f64, f64) {
    if sigma <= 0.0 {
        return (mu.clamp(-bound, bound), 0.0);
    }
    let a = (-bound - mu) / sigma;
    let b = (bound - mu) / sigma;
    let (pa, pb) = (normal_cdf(a), normal_cdf(b));
    let (fa, fb) = (phi(a), phi(b));
    let mid = pb - pa;
    let mean = -bound * pa + bound * (1.0 - pb) + mu * mid - sigma * (fb - fa);
    let e2_mid = mu * mu * mid
        + 2.0 * mu * sigma * (fa - fb)
        + sigma * sigma * (mid - (b * fb - a * fa));
    let e2 = bound * bound * (pa + 1.0 - pb) + e2_mid;
    (mean, (e2 - mean * mean).max(0.0))
}

/// Coherent ReLU output shift under the Gaussian channel model. With the
/// clean pre-activation `x ~ N(μ, s²)` (per-channel calibration moments)
/// and an added error of coherent shift `δ` plus incoherent variance `σ²`,
/// the noisy output mean is `E[relu(y)]` for `y ~ N(μ+δ, s²+σ²)`, so with
/// `m(μ, t) = μ·Φ(μ/t) + t·φ(μ/t)` the shift is `m(μ+δ, t) − m(μ, s)`.
/// For `σ → 0` and small `δ` this reduces to the `Φ(μ/s)·δ ≈ p_act·δ`
/// pass-through; at large σ the rectified noise itself becomes a positive
/// coherent shift.
fn relu_mean_shift(mean: f64, sq: f64, delta: f64, noise_var: f64) -> f64 {
    let s = (sq - mean * mean).max(1e-12).sqrt();
    let t = (s * s + noise_var.max(0.0)).sqrt();
    let m = |mu: f64, sd: f64| mu * normal_cdf(mu / sd) + sd * phi(mu / sd);
    m(mean + delta, t) - m(mean, s)
}

/// Mean squared deviation of a shift vector from its own mean — the row
/// variance a constant-across-rows per-channel shift adds to a LayerNorm
/// input.
fn centered_power(b: &[f64]) -> f64 {
    let m = mean_profile(b);
    b.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / b.len().max(1) as f64
}

/// Channel-resolved white-noise gain of a digital weight matrix:
/// `u'_j = Σ_c u_c·W_cj²` — exact for channel-independent input noise, and
/// the step that preserves the gain/weight co-adaptation a scalar
/// mean-square gain destroys.
fn white_transform(u: &[f64], w: &Matrix) -> Vec<f64> {
    let mut out = vec![0.0f64; w.cols()];
    for (c, &uc) in u.iter().enumerate() {
        if uc == 0.0 {
            continue;
        }
        for (o, &wv) in out.iter_mut().zip(w.row(c)) {
            *o += uc * f64::from(wv) * f64::from(wv);
        }
    }
    out
}

fn add_profiles(mut a: Vec<f64>, b: &[f64]) -> Vec<f64> {
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

fn mean_profile(u: &[f64]) -> f64 {
    u.iter().sum::<f64>() / u.len().max(1) as f64
}

fn capture_rows(store: &mut Vec<Vec<f32>>, m: &Matrix, cap: usize) {
    for r in 0..m.rows() {
        if store.len() >= cap {
            return;
        }
        store.push(m.row(r).to_vec());
    }
}

fn rows_to_matrix(rows: &[Vec<f32>]) -> Matrix {
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    Matrix::from_rows(&refs)
}

/// Accumulates softmax/query/key/value statistics of one episode's
/// attention (replicates the causal `attend` math for measurement only —
/// the forward itself runs through the model's own kernels).
fn accumulate_attn_stats(st: &mut BlockStats, q: &Matrix, k: &Matrix, heads: usize) {
    let t = q.rows();
    let d = q.cols();
    let hd = d / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let (mut f_attn, mut jac, mut kq, mut kk) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut rows_n = 0usize;
    for h in 0..heads {
        let qh = q.submatrix(0, t, h * hd, (h + 1) * hd);
        let kh = k.submatrix(0, t, h * hd, (h + 1) * hd);
        let mut scores = qh.matmul(&kh.transpose());
        scores.scale_assign(scale);
        for i in 0..t {
            for j in (i + 1)..t {
                scores[(i, j)] = f32::NEG_INFINITY;
            }
        }
        let p = softmax_rows(&scores);
        for i in 0..t {
            let row = p.row(i);
            let s2: f64 = row.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
            let s3: f64 = row.iter().map(|&x| f64::from(x).powi(3)).sum();
            f_attn += s2;
            jac += s2 - 2.0 * s3 + s2 * s2;
            kq += qh.row(i).iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>()
                / hd as f64;
            kk += kh.row(i).iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>()
                / hd as f64;
            rows_n += 1;
        }
    }
    let n = rows_n.max(1) as f64;
    st.f_attn += f_attn / n;
    st.softmax_jac += jac / n;
    st.kappa_q += kq / n;
    st.kappa_k += kk / n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use nora_cim::AnalogLinear;
    use nora_nn::ModelConfig;
    use nora_tensor::rng::Rng;

    fn tiny_model(seed: u64) -> TransformerLm {
        let mut rng = Rng::seed_from(seed);
        TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng)
    }

    fn episodes(model: &TransformerLm, n: usize, seed: u64) -> Vec<Episode> {
        let vocab = model.config().vocab;
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let tokens: Vec<usize> =
                    (0..8).map(|_| (rng.next_u64() as usize) % vocab).collect();
                let key = *tokens.last().unwrap();
                Episode { tokens, key }
            })
            .collect()
    }

    /// The instrumented capture forward must reproduce the model's own
    /// logits bit-for-bit — it runs through the same kernels.
    #[test]
    fn instrumented_forward_matches_model_forward() {
        let model = tiny_model(3);
        let eps = episodes(&model, 4, 9);
        let ev = AnalyticEvaluator::new(&model, &eps, 64);
        for (ep, (logits, key)) in eps.iter().zip(&ev.logits) {
            let ctx = &ep.tokens[..ep.tokens.len() - 1];
            let reference = model.forward(ctx);
            let last = reference.row(reference.rows() - 1);
            assert_eq!(*key, ep.key);
            assert_eq!(logits.as_slice(), last, "captured logits diverge");
        }
    }

    /// Pure-quantization configurations are fully deterministic: the
    /// analytic mean must equal the simulated output exactly and the
    /// variance must vanish.
    #[test]
    fn pure_quantization_moments_are_exact() {
        let mut rng = Rng::seed_from(0x51);
        let w = Matrix::random_normal(40, 24, 0.0, 0.2, &mut rng);
        let x = Matrix::random_normal(6, 40, 0.0, 1.0, &mut rng);
        let mut cfg = TileConfig::digital_quant(6);
        cfg = cfg.with_tile_size(16, 16); // force a multi-block grid
        let lm = layer_error_moments(&w, None, &x, &cfg, None);
        let mut sim = AnalogLinear::new(w.clone(), None, cfg, 0xfeed);
        let y = sim.forward(&x);
        assert!(lm.var_power == 0.0, "deterministic config has no variance");
        let max_dev = lm
            .mean
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev < 1e-5, "analytic mean deviates from simulator: {max_dev}");
        assert!(lm.mse() > 0.0, "quantization must cost something");
    }

    /// Smoothing must be honoured: a non-trivial vector changes the
    /// moments, and dividing it out keeps the ideal product fixed.
    #[test]
    fn smoothing_vector_changes_the_grid() {
        let mut rng = Rng::seed_from(0x52);
        let w = Matrix::random_normal(32, 16, 0.0, 0.2, &mut rng);
        let x = Matrix::random_normal(4, 32, 0.0, 1.0, &mut rng);
        let cfg = TileConfig::digital_quant(5);
        let s: Vec<f32> = (0..32).map(|i| 0.5 + 0.1 * i as f32).collect();
        let plain = layer_error_moments(&w, None, &x, &cfg, None);
        let smoothed = layer_error_moments(&w, Some(&s), &x, &cfg, None);
        assert!(
            (plain.mse() - smoothed.mse()).abs() > 0.0,
            "smoothing should move the quantization error"
        );
    }

    /// The ideal configuration predicts exactly the digital accuracy, and
    /// infinite noise collapses to the 1/vocab chance floor.
    #[test]
    fn prediction_limits_are_correct() {
        let model = tiny_model(7);
        let eps = episodes(&model, 6, 11);
        let ev = AnalyticEvaluator::new(&model, &eps, 64);
        let plan = RescalePlan::naive();
        let pred = ev.predict(&model, &plan, &TileConfig::ideal());
        assert!(pred.sigma_logit < 1e-6, "ideal tiles inject no error");
        assert!(
            (pred.accuracy - ev.digital_accuracy()).abs() < 1e-6,
            "ideal prediction {} vs digital {}",
            pred.accuracy,
            ev.digital_accuracy()
        );

        // Chance floor via the quadrature directly.
        let logits = vec![0.3f64, -0.2, 0.9, 0.1];
        let huge = vec![1e6f64; 4];
        let p = correct_probability(&logits, 1, &huge);
        assert!((p - 0.25).abs() < 0.01, "σ→∞ must give 1/vocab, got {p}");
        // And the noise-free limit is the argmax indicator.
        let zero = vec![0.0f64; 4];
        assert_eq!(correct_probability(&logits, 2, &zero), 1.0);
        assert_eq!(correct_probability(&logits, 1, &zero), 0.0);
        // Noise concentrated on a single losing class still flips the
        // argmax about half the time once its σ dwarfs the margin.
        let lopsided = vec![0.0f64, 1e6, 0.0, 0.0];
        let p1 = correct_probability(&logits, 2, &lopsided);
        assert!(
            (p1 - 0.5).abs() < 0.01,
            "one huge σ on a loser must cost half the wins, got {p1}"
        );
    }

    /// Noisier tiles must predict lower accuracy / larger logit σ
    /// (monotonicity sanity of the propagation chain).
    #[test]
    fn noise_monotonically_degrades_the_prediction() {
        let model = tiny_model(5);
        let eps = episodes(&model, 5, 13);
        let ev = AnalyticEvaluator::new(&model, &eps, 48);
        let plan = RescalePlan::naive();
        let mut quiet = TileConfig::ideal();
        quiet.out_noise = 0.01;
        let mut loud = quiet.clone();
        loud.out_noise = 0.2;
        let pq = ev.predict(&model, &plan, &quiet);
        let pl = ev.predict(&model, &plan, &loud);
        assert!(pq.sigma_logit < pl.sigma_logit);
        // An untrained model sits near the chance floor, so accuracy is
        // not monotone in σ — but both predictions must be probabilities
        // and every layer must inject a strictly positive power.
        assert!((0.0..=1.0).contains(&pq.accuracy) && (0.0..=1.0).contains(&pl.accuracy));
        assert!(pl.layers.iter().all(|l| l.power > 0.0));
    }

    /// Sparse-aware costing: pruned (all-zero) rows stop paying the DAC
    /// term, dense inputs keep the exact unpruned estimate, and bit-serial
    /// planes multiply the conversion rounds.
    #[test]
    fn pruned_rows_cost_less_than_dense() {
        let mut rng = Rng::seed_from(11);
        let dense = Matrix::random_normal(64, 48, 0.0, 1.0, &mut rng);
        let mut pruned = dense.clone();
        for i in (0..pruned.rows()).step_by(2) {
            for v in pruned.row_mut(i) {
                *v = 0.0;
            }
        }
        let cfg = TileConfig::paper_default().with_tile_size(32, 32);
        let energy = nora_cim::EnergyModel::default();
        let area = nora_cim::AreaModel::default();
        let dense_cost = layer_decode_cost(&dense, None, &cfg, &energy, &area);
        let pruned_cost = layer_decode_cost(&pruned, None, &cfg, &energy, &area);
        assert!(
            pruned_cost.energy_pj < dense_cost.energy_pj,
            "pruned {} !< dense {}",
            pruned_cost.energy_pj,
            dense_cost.energy_pj
        );
        // Tile occupancy and the conversion-round critical path are
        // unchanged — only per-round charges shrink.
        assert_eq!(pruned_cost.area_um2, dense_cost.area_um2);
        assert_eq!(pruned_cost.latency_ns, dense_cost.latency_ns);

        // Bit-serial input encoding charges one full chain per wordline
        // plane (bits − 1 planes).
        let mut bs = cfg.clone();
        bs.input_encoding = nora_cim::InputEncoding::BitSerial { bits: 8 };
        let bs_cost = layer_decode_cost(&dense, None, &bs, &energy, &area);
        assert!(bs_cost.energy_pj > dense_cost.energy_pj);
        let ratio = bs_cost.latency_ns / dense_cost.latency_ns;
        assert!((ratio - 7.0).abs() < 1e-9, "plane latency ratio {ratio}");
    }
}

//! Queryable per-stage noise and quantizer budget of a [`TileConfig`].
//!
//! The forward path of [`crate::AnalogTile`] derives the per-stage constants it
//! needs (converter step sizes, noise σ, IR-drop coefficients, programming
//! error statistics) inline during tile construction. Analytic consumers —
//! the closed-form error-propagation model in `nora-eval` and the
//! `design_space` Pareto sweeps — need the same numbers *without* building a
//! tile, so this module factors every stage parameter into one queryable
//! struct. [`TileConfig::noise_budget`] is the single source of truth: the
//! tile's own ADC LSB is taken from it, so the numbers the analytic model
//! sees are bit-identical to what the simulator uses.

use crate::config::{InputEncoding, Resolution, TileConfig, WeightSource};
use crate::ir_drop::IrDropModel;
use nora_device::PcmModel;

/// Standard normal pdf.
pub fn phi(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 `erf` rational
/// approximation (|ε| < 1.5e-7 — far below programming-noise scales).
pub fn normal_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    let sign = if z < 0.0 { -1.0 } else { 1.0 };
    let z = z.abs();
    let t = 1.0 / (1.0 + 0.3275911 * z);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = sign * (1.0 - poly * (-z * z).exp());
    0.5 * (1.0 + erf)
}

/// Mean and variance of `clamp(N(t, σ), 0, hi)` (a doubly censored normal —
/// the exact law of one single-shot PCM programming draw).
fn censored_normal_moments(t: f64, sigma: f64, hi: f64) -> (f64, f64) {
    if sigma <= 0.0 {
        let x = t.clamp(0.0, hi);
        return (x, 0.0);
    }
    let a = (0.0 - t) / sigma;
    let b = (hi - t) / sigma;
    let (pa, pb) = (normal_cdf(a), normal_cdf(b));
    let (fa, fb) = (phi(a), phi(b));
    let in_mass = pb - pa;
    // E[Z·1{a<Z<b}] and E[Z²·1{a<Z<b}] for Z ~ N(0,1).
    let ez = fa - fb;
    let ez2 = in_mass + a * fa - b * fb;
    let mean = hi * (1.0 - pb) + t * in_mass + sigma * ez;
    let m2 = hi * hi * (1.0 - pb)
        + t * t * in_mass
        + 2.0 * t * sigma * ez
        + sigma * sigma * ez2;
    (mean, (m2 - mean * mean).max(0.0))
}

/// Mean and variance of `min(t·exp(N(0, σ)), hi)` for `t > 0` (the exact
/// law of one ReRAM programming draw; the low clamp at 0 never binds).
fn censored_lognormal_moments(t: f64, sigma: f64, hi: f64) -> (f64, f64) {
    if sigma <= 0.0 || t <= 0.0 {
        let x = t.min(hi);
        return (x, 0.0);
    }
    let c = (hi / t).ln() / sigma;
    let tail = 1.0 - normal_cdf(c);
    let mean = t * (0.5 * sigma * sigma).exp() * normal_cdf(c - sigma) + hi * tail;
    let m2 = t * t * (2.0 * sigma * sigma).exp() * normal_cdf(c - 2.0 * sigma) + hi * hi * tail;
    (mean, (m2 - mean * mean).max(0.0))
}

/// Per-stage error parameters of a tile configuration, in the units the
/// forward path uses.
///
/// Built by [`TileConfig::noise_budget`]. Converter steps follow the
/// mid-rise grid law (`Δ = 2·bound / steps`, zero when the stage is ideal
/// or unbounded — exactly the ADC-LSB rule the tile itself uses for its
/// ABFT noise floor). Programming-error statistics come from the exact
/// censored single-shot laws of the configured device model, queryable per
/// normalised weight via [`NoiseBudget::prog_moments`].
#[derive(Debug, Clone)]
pub struct NoiseBudget {
    /// DAC quantization step on the normalised (post-`α`) input grid; 0
    /// when the DAC is ideal.
    pub dac_step: f32,
    /// DAC full-scale bound.
    pub dac_bound: f32,
    /// ADC quantization step in accumulation units; 0 when the ADC is
    /// ideal or unbounded.
    pub adc_step: f32,
    /// ADC full-scale bound.
    pub adc_bound: f32,
    /// Weight-quantizer step on the γ-normalised weight grid (`bound` 1);
    /// 0 when weight quantization is off.
    pub weight_step: f32,
    /// Additive input-noise σ (applied after the DAC, before the S-shape).
    pub in_sigma: f32,
    /// Additive output-noise σ (applied after IR droop, before the ADC).
    pub out_sigma: f32,
    /// Short-term read-noise σ per unit drive norm: output `j` picks up
    /// `N(0, read_sigma · ‖x̂‖₂)` before the IR droop.
    pub read_sigma: f32,
    /// S-shape driver nonlinearity coefficient (0 = linear).
    pub s_shape: f32,
    /// The IR-drop model (scale, κ, reference rows) for this config.
    pub ir: IrDropModel,
    /// Physical rows the budget was evaluated for (drives the IR-drop
    /// quadratic).
    pub rows: usize,
    /// Read-averaging repeats per conversion round.
    pub read_averaging: u32,
    /// Magnitude bit-planes streamed per input when bit-serial encoding is
    /// configured; `None` for analog multi-level drive.
    pub bit_serial_bits: Option<u32>,
    /// Weight bit-slices per cell pair.
    pub weight_slices: u32,
    /// Radix between adjacent weight slices.
    pub slice_radix: f32,
    /// Write–verify iterations per cell (1 = single-shot).
    pub write_verify_iters: u32,
    /// Full-scale conductance, µS.
    pub g_max: f32,
    /// The weight programming source.
    pub source: WeightSource,
    /// Whether exact-zero weights are left unprogrammed (pruned N:M
    /// cells): [`NoiseBudget::prog_moments`] then reports `(0, 0)` for
    /// them instead of the zero-target censored draw.
    pub prune_zero_cells: bool,
}

/// Mid-rise converter step: `2·bound / steps`, or 0 for ideal/unbounded
/// stages. Shared by the tile (ADC LSB) and the analytic model, so both see
/// the identical f32 value.
fn converter_step(res: Resolution, bound: f32) -> f32 {
    match res.steps() {
        Some(n) if bound.is_finite() => 2.0 * bound / n as f32,
        _ => 0.0,
    }
}

impl NoiseBudget {
    /// Per-column IR-drop droop fractions for the given column mean
    /// relative conductances (delegates to [`IrDropModel::column_factors`]
    /// at the budget's row count).
    pub fn ir_column_factors(&self, col_mean_rel_g: &[f32]) -> Vec<f32> {
        self.ir.column_factors(col_mean_rel_g, self.rows)
    }

    /// Exact mean and variance of the *effective* normalised weight after
    /// programming a target `w_hat ∈ [-1, 1]`, read back at the reference
    /// time (drift factor 1, stochastic read noise excluded — the same
    /// deterministic read the tile uses for its reference weights).
    ///
    /// Differential-pair encoding programs the active cell at
    /// `|w|·g_max` and the complementary cell at 0; both draws are pushed
    /// through the device's exact censored single-shot law, so rail-level
    /// clamping (e.g. the γ-normalised column maxima at `|ŵ| = 1`) and the
    /// half-normal zero-cell floor of PCM appear as genuine mean shifts.
    ///
    /// Approximations, documented: write–verify (`write_verify_iters > 1`)
    /// is modelled as a residual uniform within the verify tolerance
    /// (`0.1·σ_prog(target)`, floored at 1e-3 µS) — unbiased, variance
    /// `tol²/3` per cell; bit-sliced mappings (`weight_slices > 1`) keep
    /// the single-slice mean and divide σ by `radix^(slices-1)`.
    pub fn prog_moments(&self, w_hat: f32) -> (f64, f64) {
        let w = if w_hat.is_nan() { 0.0 } else { w_hat.clamp(-1.0, 1.0) };
        // Pruned cells are never programmed: exactly zero, exactly certain.
        if self.prune_zero_cells && w == 0.0 && self.weight_slices <= 1 {
            return (0.0, 0.0);
        }
        let g_max = self.g_max as f64;
        let (mean, var) = match self.source {
            WeightSource::Ideal => return (f64::from(w), 0.0),
            WeightSource::Pcm(scale) => {
                let pcm = PcmModel {
                    g_max: self.g_max,
                    prog_noise_scale: scale,
                    ..PcmModel::default()
                };
                let t_active = (f64::from(w.abs()) * g_max).min(g_max);
                let sig_a = f64::from(pcm.prog_sigma(t_active as f32));
                let sig_0 = f64::from(pcm.prog_sigma(0.0));
                if self.write_verify_iters > 1 {
                    let tol = |s: f64| (0.1 * s).max(1e-3);
                    let v = (tol(sig_a).powi(2) + tol(sig_0).powi(2)) / 3.0;
                    (f64::from(w.abs()) * g_max, v)
                } else {
                    let (m_a, v_a) = censored_normal_moments(t_active, sig_a, g_max);
                    let (m_0, v_0) = censored_normal_moments(0.0, sig_0, g_max);
                    (m_a - m_0, v_a + v_0)
                }
            }
            WeightSource::Reram(sigma_ln) => {
                let t_active = (f64::from(w.abs()) * g_max).min(g_max);
                censored_lognormal_moments(t_active, f64::from(sigma_ln), g_max)
            }
        };
        let slice_gain = if self.weight_slices > 1 {
            f64::from(self.slice_radix).powi(self.weight_slices as i32 - 1)
        } else {
            1.0
        };
        let signed_mean = if w < 0.0 { -mean } else { mean };
        if self.weight_slices > 1 {
            (f64::from(w), var / (g_max * g_max * slice_gain * slice_gain))
        } else {
            (signed_mean / g_max, var / (g_max * g_max))
        }
    }
}

impl TileConfig {
    /// The per-stage noise/quantizer budget of this configuration for a
    /// tile block with `rows` driven input lines.
    ///
    /// This is the queryable form of the constants the forward path bakes
    /// into a constructed tile; the tile's own ADC LSB is taken from
    /// `noise_budget(rows).adc_step`, so the two can never drift apart.
    pub fn noise_budget(&self, rows: usize) -> NoiseBudget {
        NoiseBudget {
            dac_step: converter_step(self.dac, self.dac_bound),
            dac_bound: self.dac_bound,
            adc_step: converter_step(self.adc, self.adc_bound),
            adc_bound: self.adc_bound,
            weight_step: converter_step(self.weight_quant, 1.0),
            in_sigma: self.in_noise,
            out_sigma: self.out_noise,
            read_sigma: self.w_noise,
            s_shape: self.s_shape,
            ir: IrDropModel::new(self.ir_drop),
            rows,
            read_averaging: self.read_averaging.max(1),
            bit_serial_bits: match self.input_encoding {
                InputEncoding::Analog => None,
                InputEncoding::BitSerial { bits } => Some(bits),
            },
            weight_slices: self.weight_slices,
            slice_radix: self.slice_radix,
            write_verify_iters: self.write_verify_iters,
            g_max: self.g_max,
            source: self.weight_source,
            prune_zero_cells: self.prune_zero_cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nora_device::{NvmModel, ReramModel};
    use nora_tensor::rng::Rng;

    #[test]
    fn adc_step_matches_the_tile_lsb_law() {
        // Finite bound + stepped ADC: the historical inline expression.
        let cfg = TileConfig::paper_default();
        let b = cfg.noise_budget(512);
        let n = cfg.adc.steps().unwrap();
        assert_eq!(b.adc_step, 2.0 * cfg.adc_bound / n as f32);

        // Ideal ADC and unbounded ADC both collapse to 0.
        let mut ideal = TileConfig::ideal();
        assert_eq!(ideal.noise_budget(512).adc_step, 0.0);
        ideal.adc = Resolution::bits(7); // stepped but unbounded
        assert_eq!(ideal.adc_bound, f32::INFINITY);
        assert_eq!(ideal.noise_budget(512).adc_step, 0.0);
    }

    #[test]
    fn dac_and_weight_steps_follow_the_mid_rise_grid() {
        let mut cfg = TileConfig::paper_default();
        cfg.weight_quant = Resolution::bits(4);
        let b = cfg.noise_budget(256);
        assert_eq!(b.dac_step, 2.0 * cfg.dac_bound / 128.0);
        assert_eq!(b.weight_step, 2.0 / 16.0);
        assert_eq!(b.rows, 256);
    }

    #[test]
    fn ideal_source_has_zero_programming_error() {
        let b = TileConfig::ideal().noise_budget(64);
        for w in [-1.0f32, -0.3, 0.0, 0.7, 1.0] {
            let (m, v) = b.prog_moments(w);
            assert_eq!(m, f64::from(w));
            assert_eq!(v, 0.0);
        }
    }

    /// The censored-normal law must reproduce Monte-Carlo moments of the
    /// actual PCM differential-pair programming path.
    #[test]
    fn pcm_prog_moments_match_monte_carlo() {
        let cfg = TileConfig::paper_default(); // Pcm(1.0)
        let b = cfg.noise_budget(512);
        let pcm = PcmModel::default();
        let mut rng = Rng::seed_from(0xbeef);
        for &w in &[0.05f32, 0.4, 0.9, 1.0, -0.6] {
            let (pred_m, pred_v) = b.prog_moments(w);
            let n = 20_000;
            let mut sum = 0.0f64;
            let mut sum2 = 0.0f64;
            for _ in 0..n {
                let pair = nora_device::ConductancePair::encode(w, pcm.g_max);
                let gp = pcm.program(pair.g_plus, &mut rng).g_prog;
                let gm = pcm.program(pair.g_minus, &mut rng).g_prog;
                let eff = f64::from((gp - gm) / pcm.g_max);
                sum += eff;
                sum2 += eff * eff;
            }
            let mc_m = sum / n as f64;
            let mc_v = sum2 / n as f64 - mc_m * mc_m;
            let sd = pred_v.sqrt();
            assert!(
                (mc_m - pred_m).abs() < 4.0 * sd / (n as f64).sqrt() + 1e-6,
                "w={w}: mean mc {mc_m} vs pred {pred_m}"
            );
            assert!(
                (mc_v - pred_v).abs() < 4.0 * (2.0 / n as f64).sqrt() * pred_v + 1e-9,
                "w={w}: var mc {mc_v} vs pred {pred_v}"
            );
        }
    }

    #[test]
    fn reram_prog_moments_match_monte_carlo() {
        let mut cfg = TileConfig::paper_default();
        cfg.weight_source = WeightSource::Reram(0.08);
        let b = cfg.noise_budget(512);
        let reram = ReramModel {
            g_max: cfg.g_max,
            sigma_ln: 0.08,
            read_sigma_rel: 0.0,
        };
        let mut rng = Rng::seed_from(0xcafe);
        for &w in &[0.1f32, 0.5, 1.0] {
            let (pred_m, pred_v) = b.prog_moments(w);
            let n = 20_000;
            let mut sum = 0.0f64;
            let mut sum2 = 0.0f64;
            for _ in 0..n {
                let g = reram.program(w * reram.g_max, &mut rng).g_prog;
                let eff = f64::from(g / reram.g_max);
                sum += eff;
                sum2 += eff * eff;
            }
            let mc_m = sum / n as f64;
            let mc_v = sum2 / n as f64 - mc_m * mc_m;
            assert!(
                (mc_m - pred_m).abs() < 4.0 * pred_v.sqrt() / (n as f64).sqrt() + 1e-6,
                "w={w}: mean mc {mc_m} vs pred {pred_m}"
            );
            assert!(
                (mc_v - pred_v).abs() < 4.0 * (2.0 / n as f64).sqrt() * pred_v + 1e-9,
                "w={w}: var mc {mc_v} vs pred {pred_v}"
            );
            // Zero weights stay exactly zero on ReRAM.
            let (m0, v0) = b.prog_moments(0.0);
            assert_eq!((m0, v0), (0.0, 0.0));
        }
    }

    /// Pruned-cell budgets: zero weights carry no programming error at
    /// all, while the legacy budget keeps the half-normal PCM floor — and
    /// nonzero weights are untouched by the flag.
    #[test]
    fn pruned_budget_zeroes_the_zero_cell_floor() {
        let cfg = TileConfig::paper_default(); // Pcm(1.0)
        let legacy = cfg.noise_budget(256);
        let pruned = cfg.clone().with_pruned_zeros(true).noise_budget(256);
        let (m0, v0) = legacy.prog_moments(0.0);
        assert!(v0 > 0.0, "legacy zero cell must keep the censored floor");
        assert!(m0.abs() < 1e-12, "differential pair centers the mean");
        assert_eq!(pruned.prog_moments(0.0), (0.0, 0.0));
        for w in [0.3f32, -0.7, 1.0] {
            assert_eq!(pruned.prog_moments(w), legacy.prog_moments(w));
        }
    }

    #[test]
    fn ir_factors_delegate_to_the_model() {
        let cfg = TileConfig::paper_default();
        let b = cfg.noise_budget(256);
        let g = [0.1f32, 0.4];
        assert_eq!(
            b.ir_column_factors(&g),
            IrDropModel::new(cfg.ir_drop).column_factors(&g, 256)
        );
    }
}

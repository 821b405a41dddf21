//! Symmetric uniform quantizers.
//!
//! The analog CIM interface quantizes twice per GEMV: the DAC discretises the
//! scaled input into `in_res` steps over `[-bound, bound]`, and the ADC
//! discretises the bitline read-out into `out_res` steps, saturating at the
//! converter's full-scale range. Both are instances of the same symmetric
//! mid-rise quantizer implemented here.

use crate::rng::Rng;

/// Rounding mode applied when snapping to a quantization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rounding {
    /// Round to nearest level (ties away from zero, the hardware default).
    #[default]
    Nearest,
    /// Stochastic rounding: round up with probability equal to the fractional
    /// position between the neighbouring levels. Unbiased in expectation.
    Stochastic,
}

/// A symmetric uniform mid-rise quantizer over `[-bound, bound]` with
/// exactly `steps` representable levels.
///
/// With `steps = 2^b` this models a `b`-bit converter (the paper's Table II
/// uses 7-bit = 128 steps). The levels sit at `±(k + ½)·step` for
/// `k = 0..steps/2`, so the extreme levels are `±(bound − step/2)` — just
/// inside the rails, as on real mid-rise converter ladders; the rails
/// themselves are *not* representable. Exact zero passes through unchanged
/// (an undriven line/unprogrammed device carries no signal, and zero
/// padding or post-ReLU sparsity must stay exact). Values outside the range
/// clip toward the extreme levels — this clipping is exactly the "outlier"
/// failure mode NORA addresses.
///
/// # Example
///
/// ```
/// use nora_tensor::quant::Quantizer;
/// let q = Quantizer::new(128, 1.0);
/// let y = q.quantize(0.3333);
/// assert!((y - 0.3333).abs() <= q.step() / 2.0 + 1e-6);
/// assert_eq!(q.quantize(7.0), 1.0 - q.step() / 2.0); // clips inside the rail
/// assert_eq!(q.quantize(0.0), 0.0); // exact zero is preserved
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    steps: u32,
    bound: f32,
    step: f32,
    rounding: Rounding,
}

impl Quantizer {
    /// Creates a quantizer with `steps` levels spanning `[-bound, bound]`.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2` or `bound` is not strictly positive and finite.
    pub fn new(steps: u32, bound: f32) -> Self {
        assert!(steps >= 2, "quantizer needs at least 2 steps");
        assert!(
            bound.is_finite() && bound > 0.0,
            "bound must be positive and finite"
        );
        Self {
            steps,
            bound,
            // Hardware convention: step = 2*bound/steps, a mid-rise grid of
            // `steps` levels at ±(k + ½)·step whose extremes sit just
            // inside the rails.
            step: 2.0 * bound / steps as f32,
            rounding: Rounding::Nearest,
        }
    }

    /// Creates a `bits`-bit quantizer (`2^bits` steps) over `[-bound, bound]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 24, or `bound` is invalid.
    pub fn with_bits(bits: u32, bound: f32) -> Self {
        assert!((1..=24).contains(&bits), "bits must be in 1..=24");
        Self::new(1 << bits, bound)
    }

    /// Returns a copy using the given rounding mode.
    pub fn with_rounding(mut self, rounding: Rounding) -> Self {
        self.rounding = rounding;
        self
    }

    /// Number of quantization steps.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Full-scale bound.
    pub fn bound(&self) -> f32 {
        self.bound
    }

    /// Width of one quantization step.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Rounding mode.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// Quantizes a single value (deterministic rounding only).
    ///
    /// For [`Rounding::Stochastic`] use [`Quantizer::quantize_with`].
    #[inline(always)]
    pub fn quantize(&self, x: f32) -> f32 {
        match self.rounding {
            Rounding::Nearest => self.quantize_nearest(x),
            Rounding::Stochastic => {
                panic!("stochastic rounding requires quantize_with(rng)")
            }
        }
    }

    /// Quantizes a single value, drawing from `rng` when the mode is
    /// stochastic.
    pub fn quantize_with(&self, x: f32, rng: &mut Rng) -> f32 {
        match self.rounding {
            Rounding::Nearest => self.quantize_nearest(x),
            Rounding::Stochastic => self.quantize_stochastic(x, rng),
        }
    }

    #[inline(always)]
    fn clip(&self, x: f32) -> f32 {
        // NaN maps to 0 rather than poisoning downstream accumulations.
        if x.is_nan() {
            return 0.0;
        }
        x.clamp(-self.bound, self.bound)
    }

    #[inline(always)]
    fn quantize_nearest(&self, x: f32) -> f32 {
        let x = self.clip(x);
        if x == 0.0 {
            return 0.0; // undriven line: exact zero stays representable
        }
        // Nearest mid-rise level to |x| is (floor(|x|/step) + ½)·step,
        // capped at the extreme level just inside the rail. `signum` keeps
        // the map odd-symmetric.
        let half = (self.steps / 2) as f32;
        let mag = ((x.abs() / self.step).floor() + 0.5).min(half - 0.5);
        mag * self.step * x.signum()
    }

    fn quantize_stochastic(&self, x: f32, rng: &mut Rng) -> f32 {
        let x = self.clip(x);
        if x == 0.0 {
            return 0.0;
        }
        // Mid-rise levels are (m + ½)·step for integer m; x sits between
        // m = floor(x/step − ½) and m + 1. Rounding up with the fractional
        // probability keeps the expectation exactly x away from the rails.
        let half = (self.steps / 2) as f32;
        let pos = x / self.step - 0.5;
        let floor = pos.floor();
        let frac = pos - floor;
        let m = if rng.next_f32() < frac {
            floor + 1.0
        } else {
            floor
        };
        (m.clamp(-half, half - 1.0) + 0.5) * self.step
    }

    /// Quantizes a slice in place.
    pub fn quantize_slice(&self, xs: &mut [f32]) {
        for v in xs {
            *v = self.quantize_nearest(*v);
        }
    }

    /// Quantizes a slice in place with RNG support (needed for stochastic
    /// rounding; equivalent to [`Quantizer::quantize_slice`] otherwise).
    pub fn quantize_slice_with(&self, xs: &mut [f32], rng: &mut Rng) {
        for v in xs {
            *v = self.quantize_with(*v, rng);
        }
    }

    /// Fraction of values in `xs` that clip at the rails.
    pub fn clipping_rate(&self, xs: &[f32]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let clipped = xs.iter().filter(|&&v| v.abs() > self.bound).count();
        clipped as f64 / xs.len() as f64
    }

    /// Theoretical RMS quantization error for in-range uniform inputs
    /// (`step / sqrt(12)`).
    pub fn ideal_rms_error(&self) -> f32 {
        self.step / 12f32.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_is_within_half_step_in_range() {
        let q = Quantizer::new(128, 1.0);
        let mut x = -1.0f32;
        while x <= 1.0 {
            let y = q.quantize(x);
            assert!((y - x).abs() <= q.step() / 2.0 + 1e-6, "x={x} y={y}");
            x += 0.001;
        }
    }

    #[test]
    fn quantize_clips_out_of_range() {
        // steps=16, bound=2 → step=0.25, extreme level 2 − 0.125 = 1.875:
        // out-of-range values clip to the level just inside the rail, not
        // onto the rail itself.
        let q = Quantizer::new(16, 2.0);
        assert_eq!(q.quantize(100.0), 2.0 - q.step() / 2.0);
        assert_eq!(q.quantize(-100.0), -(2.0 - q.step() / 2.0));
        assert_eq!(q.quantize(2.0), 2.0 - q.step() / 2.0);
    }

    #[test]
    fn grid_has_exactly_steps_levels_and_no_rails() {
        // Regression for the level-count off-by-one: a `steps`-level grid
        // must expose exactly `steps` distinct nonzero outputs, none of
        // them on the rails, for both rounding modes.
        for steps in [4u32, 16, 128] {
            let q = Quantizer::new(steps, 1.0);
            let mut levels: Vec<f32> = Vec::new();
            let mut x = -1.2f32;
            while x <= 1.2 {
                let y = q.quantize(if x == 0.0 { 1e-9 } else { x });
                if !levels.contains(&y) {
                    levels.push(y);
                }
                x += 1e-3;
            }
            assert_eq!(levels.len(), steps as usize, "steps={steps}");
            assert!(levels.iter().all(|&l| l.abs() < 1.0), "rail level");
            // Levels sit at ±(k + ½)·step.
            for &l in &levels {
                let k = l.abs() / q.step() - 0.5;
                assert!((k - k.round()).abs() < 1e-4, "off-grid level {l}");
            }
        }
        // Stochastic rounding snaps to the same grid.
        let q = Quantizer::new(8, 1.0).with_rounding(Rounding::Stochastic);
        let mut rng = Rng::seed_from(7);
        for i in 0..500 {
            let x = (i as f32 / 250.0) - 1.0;
            let y = q.quantize_with(if x == 0.0 { 1e-9 } else { x }, &mut rng);
            let k = y.abs() / q.step() - 0.5;
            assert!((k - k.round()).abs() < 1e-4, "off-grid stochastic {y}");
            assert!(y.abs() < 1.0);
        }
    }

    #[test]
    fn quantize_is_idempotent() {
        let q = Quantizer::new(64, 1.0);
        for i in -100..=100 {
            let x = i as f32 / 50.0;
            let once = q.quantize(x);
            assert_eq!(q.quantize(once), once);
        }
    }

    #[test]
    fn quantize_is_odd_symmetric() {
        let q = Quantizer::new(128, 1.0);
        for i in 0..200 {
            let x = i as f32 / 100.0;
            assert_eq!(q.quantize(x), -q.quantize(-x));
        }
    }

    #[test]
    fn quantize_is_monotone() {
        let q = Quantizer::new(32, 1.0);
        let mut prev = f32::NEG_INFINITY;
        let mut x = -1.5f32;
        while x <= 1.5 {
            let y = q.quantize(x);
            assert!(y >= prev, "not monotone at {x}");
            prev = y;
            x += 0.003;
        }
    }

    #[test]
    fn with_bits_matches_steps() {
        let q = Quantizer::with_bits(7, 1.0);
        assert_eq!(q.steps(), 128);
        assert!((q.step() - 2.0 / 128.0).abs() < 1e-7);
    }

    #[test]
    fn nan_maps_to_zero() {
        let q = Quantizer::new(16, 1.0);
        assert_eq!(q.quantize(f32::NAN), 0.0);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let q = Quantizer::new(16, 1.0).with_rounding(Rounding::Stochastic);
        let mut rng = Rng::seed_from(3);
        let x = 0.3 * q.step() + 3.0 * q.step(); // 3.3 steps
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| q.quantize_with(x, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - x as f64).abs() < q.step() as f64 * 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "stochastic rounding requires")]
    fn stochastic_without_rng_panics() {
        let q = Quantizer::new(16, 1.0).with_rounding(Rounding::Stochastic);
        q.quantize(0.5);
    }

    #[test]
    fn clipping_rate_counts_out_of_range() {
        let q = Quantizer::new(16, 1.0);
        let xs = [0.5f32, 1.5, -2.0, 0.0];
        assert!((q.clipping_rate(&xs) - 0.5).abs() < 1e-12);
        assert_eq!(q.clipping_rate(&[]), 0.0);
    }

    #[test]
    fn quantization_mse_matches_theory() {
        // Uniform input over the full range: MSE ≈ step²/12.
        let q = Quantizer::new(128, 1.0);
        let mut rng = Rng::seed_from(5);
        let n = 200_000;
        let mut err = 0.0f64;
        for _ in 0..n {
            let x = rng.uniform(-1.0, 1.0);
            let d = (q.quantize(x) - x) as f64;
            err += d * d;
        }
        let mse = err / n as f64;
        let theory = (q.step() as f64).powi(2) / 12.0;
        assert!(
            (mse / theory - 1.0).abs() < 0.05,
            "mse {mse} vs theory {theory}"
        );
        assert!((q.ideal_rms_error() as f64 - theory.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn coarser_quantizer_has_larger_error() {
        let fine = Quantizer::with_bits(8, 1.0);
        let coarse = Quantizer::with_bits(3, 1.0);
        assert!(coarse.step() > fine.step());
        assert!(coarse.ideal_rms_error() > fine.ideal_rms_error());
    }

    #[test]
    #[should_panic(expected = "at least 2 steps")]
    fn one_step_panics() {
        Quantizer::new(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_bound_panics() {
        Quantizer::new(4, 0.0);
    }

    #[test]
    fn quantize_slice_applies_elementwise() {
        let q = Quantizer::new(4, 1.0);
        let mut xs = [0.1f32, 0.9, -3.0];
        q.quantize_slice(&mut xs);
        for (&v, &orig) in xs.iter().zip([0.1f32, 0.9, -3.0].iter()) {
            assert_eq!(v, q.quantize(orig));
        }
    }
}

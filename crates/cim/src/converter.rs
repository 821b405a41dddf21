//! DAC and ADC models.
//!
//! Both converters are symmetric uniform quantizers from
//! [`nora_tensor::quant`]; the ADC additionally *saturates* (hard-clips) at
//! its full-scale bound and reports how often it did, which feeds the
//! iterative bound-management policy.

use crate::config::Resolution;
use nora_tensor::quant::Quantizer;
use nora_tensor::simd::{self, Kernel};

/// Canonical observability metric names of the conversion stages.
///
/// [`crate::ForwardStats::export_metrics`] publishes the per-tile counters
/// under these names; the rate metrics are fixed-edge histograms over
/// [`nora_obs::edges::RATE`]. Keeping the names here, next to the
/// converters that produce the raw counts, makes them part of the
/// conversion-stage API: exporters, dashboards and tests reference these
/// constants instead of retyping strings.
pub mod metrics {
    /// DAC inputs that clipped at the rails (NaN inputs count as clipped).
    pub const DAC_CLIPPED: &str = "cim.dac.clipped_inputs";
    /// Total DAC inputs presented.
    pub const DAC_TOTAL: &str = "cim.dac.total_inputs";
    /// Per-export DAC clip fraction (histogram).
    pub const DAC_CLIP_RATE: &str = "cim.dac.clip_rate";
    /// ADC outputs that saturated (strict overflow beyond full scale).
    pub const ADC_SATURATED: &str = "cim.adc.saturated_outputs";
    /// Total ADC outputs produced.
    pub const ADC_TOTAL: &str = "cim.adc.total_outputs";
    /// Per-export ADC saturation fraction (histogram).
    pub const ADC_SATURATION_RATE: &str = "cim.adc.saturation_rate";
    /// Physical conversion repeats executed (read averaging × rounds).
    pub const READ_REPEATS: &str = "cim.read.repeats";
}

/// Digital-to-analog converter at the tile input.
///
/// Values are expected pre-scaled into `[-bound, bound]`; anything outside
/// clips (that clipping is the "input outlier" loss the paper discusses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dac {
    quantizer: Option<Quantizer>,
    bound: f32,
}

impl Dac {
    /// Creates a DAC with the given resolution over `[-bound, bound]`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is not strictly positive and finite.
    pub fn new(resolution: Resolution, bound: f32) -> Self {
        assert!(
            bound.is_finite() && bound > 0.0,
            "DAC bound must be positive and finite"
        );
        Self {
            quantizer: resolution.steps().map(|n| Quantizer::new(n, bound)),
            bound,
        }
    }

    /// Full-scale bound.
    pub fn bound(&self) -> f32 {
        self.bound
    }

    /// Converts one value (clip + quantize).
    #[inline(always)]
    pub fn convert(&self, x: f32) -> f32 {
        let clipped = if x.is_nan() {
            0.0
        } else {
            x.clamp(-self.bound, self.bound)
        };
        match &self.quantizer {
            Some(q) => q.quantize(clipped),
            None => clipped,
        }
    }

    /// Converts a slice in place, returning the number of clipped entries.
    ///
    /// NaN inputs count as clipped: they convert to 0 (so they cannot
    /// poison the analog accumulation), but a poisoned input vector must
    /// not report a clean conversion.
    ///
    /// The loop runs through [`simd::run`]: the AVX2 instance gives the
    /// same bits as the baseline one.
    pub fn convert_slice(&self, xs: &mut [f32]) -> usize {
        simd::run(DacConvert { dac: *self, xs })
    }
}

/// [`Dac::convert_slice`] as a [`Kernel`]. The DAC is held by value, so
/// the loop reads its bound and quantizer from locals.
struct DacConvert<'a> {
    dac: Dac,
    xs: &'a mut [f32],
}

impl Kernel for DacConvert<'_> {
    type Output = usize;

    #[inline(always)]
    fn run(self) -> usize {
        let Self { dac, xs } = self;
        let mut clipped = 0;
        for v in xs {
            if v.is_nan() || v.abs() > dac.bound {
                clipped += 1;
            }
            *v = dac.convert(*v);
        }
        clipped
    }
}

/// Analog-to-digital converter at the tile output.
///
/// Saturates at `±bound` and counts saturation events so bound management
/// can react.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    quantizer: Option<Quantizer>,
    bound: f32,
}

impl Adc {
    /// Creates an ADC with the given resolution over `[-bound, bound]`.
    ///
    /// An infinite `bound` is allowed only with [`Resolution::Ideal`]
    /// (a pass-through converter).
    ///
    /// # Panics
    ///
    /// Panics if `bound <= 0`, or if `bound` is non-finite with a finite
    /// resolution.
    pub fn new(resolution: Resolution, bound: f32) -> Self {
        assert!(bound > 0.0, "ADC bound must be positive");
        let quantizer = match resolution.steps() {
            Some(n) => {
                assert!(
                    bound.is_finite(),
                    "finite ADC resolution requires a finite bound"
                );
                Some(Quantizer::new(n, bound))
            }
            None => None,
        };
        Self { quantizer, bound }
    }

    /// Full-scale bound.
    pub fn bound(&self) -> f32 {
        self.bound
    }

    /// Converts one reading (saturate + quantize), returning the output
    /// code and whether the reading strictly overflowed the bound.
    ///
    /// NaN readings convert to code 0 without counting as saturated, the
    /// same accounting as [`convert_slice`](Adc::convert_slice) — which is
    /// implemented on top of this helper, as is the fused conversion
    /// epilogue in the tile fast path.
    #[inline(always)]
    pub fn convert(&self, v: f32) -> (f32, bool) {
        let saturated = v.abs() > self.bound;
        let clipped = if v.is_nan() {
            0.0
        } else {
            v.clamp(-self.bound, self.bound)
        };
        let code = match &self.quantizer {
            Some(q) => q.quantize(clipped),
            None => clipped,
        };
        (code, saturated)
    }

    /// Converts a slice in place, returning the number of saturated entries.
    ///
    /// Only strict overflow (`|v| > bound`) counts: a reading exactly at
    /// full scale is in range, and counting it would spuriously trigger
    /// iterative bound-management α-doubling retries.
    ///
    /// The loop runs through [`simd::run`]: the AVX2 instance gives the
    /// same bits as the baseline one.
    pub fn convert_slice(&self, xs: &mut [f32]) -> usize {
        simd::run(AdcConvert { adc: *self, xs })
    }
}

/// [`Adc::convert_slice`] as a [`Kernel`], holding the ADC by value like
/// [`DacConvert`].
struct AdcConvert<'a> {
    adc: Adc,
    xs: &'a mut [f32],
}

impl Kernel for AdcConvert<'_> {
    type Output = usize;

    #[inline(always)]
    fn run(self) -> usize {
        let Self { adc, xs } = self;
        let mut saturated = 0;
        for v in xs {
            let (code, sat) = adc.convert(*v);
            saturated += sat as usize;
            *v = code;
        }
        saturated
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn ideal_dac_is_identity_in_range() {
        let dac = Dac::new(Resolution::Ideal, 1.0);
        assert_eq!(dac.convert(0.123), 0.123);
        assert_eq!(dac.convert(5.0), 1.0);
        assert_eq!(dac.convert(f32::NAN), 0.0);
    }

    #[test]
    fn quantizing_dac_snaps_to_levels() {
        let dac = Dac::new(Resolution::bits(3), 1.0);
        let y = dac.convert(0.3);
        assert!((y - 0.3).abs() <= 2.0 / 8.0 / 2.0 + 1e-6);
        // idempotent
        assert_eq!(dac.convert(y), y);
    }

    #[test]
    fn dac_counts_clipping() {
        // 7-bit mid-rise: clipped values land on ±(bound − step/2), the
        // extreme representable level, not on the rail.
        let dac = Dac::new(Resolution::bits(7), 1.0);
        let extreme = 1.0 - (2.0 / 128.0) / 2.0;
        let mut xs = [0.5f32, 2.0, -3.0, 0.9];
        let clipped = dac.convert_slice(&mut xs);
        assert_eq!(clipped, 2);
        assert_eq!(xs[1], extreme);
        assert_eq!(xs[2], -extreme);
    }

    #[test]
    fn dac_counts_nan_as_clipped() {
        // Regression: NaN inputs convert to 0 but must not report a clean
        // conversion — a poisoned vector is a clipping event.
        let dac = Dac::new(Resolution::bits(7), 1.0);
        let mut xs = [0.5f32, f32::NAN, -0.25, f32::NAN];
        let clipped = dac.convert_slice(&mut xs);
        assert_eq!(clipped, 2);
        assert_eq!(xs[1], 0.0);
        assert_eq!(xs[3], 0.0);
        // Ideal (non-quantizing) DACs account NaN the same way.
        let ideal = Dac::new(Resolution::Ideal, 1.0);
        let mut ys = [f32::NAN, 0.3];
        assert_eq!(ideal.convert_slice(&mut ys), 1);
        assert_eq!(ys[0], 0.0);
    }

    #[test]
    fn adc_counts_saturation() {
        // Exactly-full-scale (12.0) is in range: only strict overflow
        // saturates. Regression for the `>=` boundary.
        let adc = Adc::new(Resolution::bits(7), 12.0);
        let mut xs = [3.0f32, 12.0, -20.0, 11.9];
        let sat = adc.convert_slice(&mut xs);
        assert_eq!(sat, 1);
        assert!(xs.iter().all(|v| v.abs() <= 12.0));
    }

    #[test]
    fn ideal_adc_with_infinite_bound_passes_through() {
        let adc = Adc::new(Resolution::Ideal, f32::INFINITY);
        let mut xs = [1e20f32, -1e20];
        let sat = adc.convert_slice(&mut xs);
        assert_eq!(sat, 0);
        assert_eq!(xs, [1e20, -1e20]);
    }

    #[test]
    #[should_panic(expected = "finite ADC resolution requires")]
    fn finite_adc_with_infinite_bound_panics() {
        Adc::new(Resolution::bits(7), f32::INFINITY);
    }

    /// Edge inputs for the converter bit-identity tests: NaN, ±0, ±inf,
    /// subnormals, exactly ±bound, the next float beyond ±bound, and huge
    /// magnitudes, interleaved with in-range and saturating values so they
    /// land in both the vector body and the scalar tail of a loop.
    pub(crate) fn edge_inputs(bound: f32, seed: u64) -> Vec<f32> {
        let above = f32::from_bits(bound.to_bits() + 1);
        let below = f32::from_bits(bound.to_bits() - 1);
        let edges = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            -f32::MIN_POSITIVE / 3.0,
            bound,
            -bound,
            above,
            -above,
            below,
            -below,
            f32::MAX,
            f32::MIN,
        ];
        let mut rng = nora_tensor::rng::Rng::seed_from(seed);
        let mut xs = Vec::new();
        for (i, &e) in edges.iter().enumerate() {
            xs.push(e);
            for _ in 0..(i % 5) {
                xs.push(rng.uniform(-1.5 * bound, 1.5 * bound));
            }
        }
        xs.extend((0..301).map(|_| rng.uniform(-2.0 * bound, 2.0 * bound)));
        xs.extend_from_slice(&edges);
        xs
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// `simd::run` takes the AVX2 instance on an AVX2 host, while `k.run()`
    /// is compiled into this baseline test body: the two must agree bitwise.
    #[test]
    fn converter_instances_are_bit_identical() {
        let resolutions = [
            Resolution::Ideal,
            Resolution::bits(1),
            Resolution::bits(7),
            Resolution::bits(8),
        ];
        for (i, res) in resolutions.into_iter().enumerate() {
            for bound in [1.0f32, 0.37, 12.0] {
                let xs = edge_inputs(bound, i as u64);
                let dac = Dac::new(res, bound);
                let (mut base, mut dispatched) = (xs.clone(), xs.clone());
                let n_base = DacConvert { dac, xs: &mut base }.run();
                let n_dispatched = simd::run(DacConvert {
                    dac,
                    xs: &mut dispatched,
                });
                assert_eq!(n_base, n_dispatched, "DAC {res:?} bound {bound}");
                assert_eq!(bits(&base), bits(&dispatched), "DAC {res:?} bound {bound}");

                let adc = Adc::new(res, bound);
                let (mut base, mut dispatched) = (xs.clone(), xs.clone());
                let n_base = AdcConvert { adc, xs: &mut base }.run();
                let n_dispatched = simd::run(AdcConvert {
                    adc,
                    xs: &mut dispatched,
                });
                assert!(n_base > 0, "edge inputs must saturate the ADC");
                assert_eq!(n_base, n_dispatched, "ADC {res:?} bound {bound}");
                assert_eq!(bits(&base), bits(&dispatched), "ADC {res:?} bound {bound}");
            }
        }
        // An ideal ADC may have an infinite full scale.
        let adc = Adc::new(Resolution::Ideal, f32::INFINITY);
        let xs = edge_inputs(3.0, 9);
        let (mut base, mut dispatched) = (xs.clone(), xs);
        let n_base = AdcConvert { adc, xs: &mut base }.run();
        let n_dispatched = simd::run(AdcConvert {
            adc,
            xs: &mut dispatched,
        });
        assert_eq!(n_base, n_dispatched);
        assert_eq!(bits(&base), bits(&dispatched));
        if !simd::avx2_detected() {
            eprintln!("no AVX2 on this CPU: compared the baseline instance only");
        }
    }

    #[test]
    fn adc_quantization_error_bounded() {
        let adc = Adc::new(Resolution::bits(7), 12.0);
        let step = 2.0 * 12.0 / 128.0;
        for i in -100..=100 {
            let x = i as f32 * 0.1;
            let mut xs = [x];
            adc.convert_slice(&mut xs);
            assert!((xs[0] - x).abs() <= step / 2.0 + 1e-5);
        }
    }
}

//! Descriptive statistics used throughout the NORA evaluation.
//!
//! The paper's analysis leans on a handful of statistics: *kurtosis* to
//! characterise how outlier-heavy a distribution is (Fig. 4, Fig. 6), *MSE*
//! to normalise noise levels across non-ideality types (Fig. 3's x-axis),
//! *SNR* for the output-current argument (Fig. 6c), and *kernel density
//! estimates* for the distribution plots (Fig. 4). All accumulations run in
//! `f64` to keep long reductions over `f32` data accurate.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f32]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&v| v as f64).sum::<f64>() / xs.len() as f64
}

/// Population variance (division by `n`). Returns 0 for fewer than 2 samples.
pub fn variance(xs: &[f32]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&v| (v as f64 - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f64 {
    variance(xs).sqrt()
}

/// Pearson kurtosis `E[(x-µ)⁴]/σ⁴` (normal distribution ⇒ 3).
///
/// This is the convention used by the paper's Fig. 4 (“the kurtosis of
/// activation is 113.61, while the kurtosis of weight is only 1.25”, i.e.
/// values below 3 are platykurtic). Returns 0 when the variance vanishes.
///
/// # Example
///
/// ```
/// use nora_tensor::stats::kurtosis;
/// // One huge outlier among small values ⇒ heavy-tailed distribution.
/// let mut xs = vec![0.1f32; 999];
/// xs.push(50.0);
/// assert!(kurtosis(&xs) > 100.0);
/// ```
pub fn kurtosis(xs: &[f32]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let n = xs.len() as f64;
    let mut m2 = 0.0;
    let mut m4 = 0.0;
    for &v in xs {
        let d = v as f64 - m;
        let d2 = d * d;
        m2 += d2;
        m4 += d2 * d2;
    }
    m2 /= n;
    m4 /= n;
    if m2 <= 0.0 {
        return 0.0;
    }
    m4 / (m2 * m2)
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    assert!(!a.is_empty(), "mse of empty slices");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Root mean squared error.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn rmse(a: &[f32], b: &[f32]) -> f64 {
    mse(a, b).sqrt()
}

/// Signal-to-noise ratio in dB, treating `reference` as signal and
/// `reference - measured` as noise.
///
/// Returns `f64::INFINITY` when the error is exactly zero.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn snr_db(reference: &[f32], measured: &[f32]) -> f64 {
    let signal: f64 = reference.iter().map(|&v| (v as f64).powi(2)).sum();
    let noise: f64 = reference
        .iter()
        .zip(measured)
        .map(|(&r, &m)| (r as f64 - m as f64).powi(2))
        .sum();
    assert_eq!(reference.len(), measured.len(), "snr length mismatch");
    assert!(!reference.is_empty(), "snr of empty slices");
    if noise == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (signal / noise).log10()
}

/// Linear interpolation percentile, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f32], p: f64) -> f32 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile p out of range");
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = (rank - lo as f64) as f32;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A fixed-width histogram over `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f32,
    hi: f32,
    counts: Vec<u64>,
    /// Samples below `lo` or above `hi`.
    outliers: u64,
    total: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(xs: &[f32], lo: f32, hi: f32, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-degenerate");
        let mut counts = vec![0u64; bins];
        let mut outliers = 0u64;
        let width = (hi - lo) / bins as f32;
        for &x in xs {
            if x < lo || x > hi || !x.is_finite() {
                outliers += 1;
                continue;
            }
            let mut b = ((x - lo) / width) as usize;
            if b == bins {
                b -= 1; // x == hi lands in the last bin
            }
            counts[b] += 1;
        }
        Self {
            lo,
            hi,
            counts,
            outliers,
            total: xs.len() as u64,
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of samples outside `[lo, hi]` (or non-finite).
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total samples offered to the histogram.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Centre of bin `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn bin_center(&self, b: usize) -> f32 {
        assert!(b < self.counts.len(), "bin out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f32;
        self.lo + width * (b as f32 + 0.5)
    }

    /// Normalised density values (integrate to ≈1 over the range).
    pub fn density(&self) -> Vec<f64> {
        let width = ((self.hi - self.lo) / self.counts.len() as f32) as f64;
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / (in_range as f64 * width))
            .collect()
    }
}

/// Gaussian kernel density estimate evaluated on a uniform grid.
///
/// Reproduces the KDE panels of the paper's Fig. 4. Bandwidth defaults to
/// Silverman's rule of thumb when `bandwidth` is `None`.
///
/// Returns `(grid, density)` with `points` entries each.
///
/// # Panics
///
/// Panics if `xs` is empty, `points < 2`, or `lo >= hi`.
pub fn kde(
    xs: &[f32],
    lo: f32,
    hi: f32,
    points: usize,
    bandwidth: Option<f64>,
) -> (Vec<f32>, Vec<f64>) {
    assert!(!xs.is_empty(), "kde of empty slice");
    assert!(points >= 2, "kde needs at least two grid points");
    assert!(lo < hi, "kde range must be non-degenerate");
    let n = xs.len() as f64;
    let h = bandwidth.unwrap_or_else(|| {
        // Silverman: 0.9 * min(σ, IQR/1.34) * n^(-1/5)
        let sigma = std_dev(xs);
        let iqr = (percentile(xs, 75.0) - percentile(xs, 25.0)) as f64;
        let spread = if iqr > 0.0 {
            sigma.min(iqr / 1.34)
        } else {
            sigma
        };
        let spread = if spread > 0.0 { spread } else { 1e-6 };
        0.9 * spread * n.powf(-0.2)
    });
    let norm = 1.0 / (n * h * (2.0 * std::f64::consts::PI).sqrt());
    let grid: Vec<f32> = (0..points)
        .map(|i| lo + (hi - lo) * i as f32 / (points - 1) as f32)
        .collect();
    let density = grid
        .iter()
        .map(|&g| {
            let mut acc = 0.0f64;
            for &x in xs {
                let u = (g as f64 - x as f64) / h;
                acc += (-0.5 * u * u).exp();
            }
            acc * norm
        })
        .collect();
    (grid, density)
}

/// Streaming (Welford) accumulator for mean/variance/extremes over data too
/// large to buffer — used by calibration-style passes that observe
/// activations batch by batch.
///
/// # Example
///
/// ```
/// use nora_tensor::stats::RunningStats;
/// let mut rs = RunningStats::new();
/// for v in [1.0f32, 2.0, 3.0, 4.0] {
///     rs.push(v);
/// }
/// assert_eq!(rs.count(), 4);
/// assert!((rs.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f32,
    max: f32,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f32) {
        self.count += 1;
        let xf = x as f64;
        let delta = xf - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (xf - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a slice of observations.
    pub fn extend(&mut self, xs: &[f32]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (+∞ when empty).
    pub fn min(&self) -> f32 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    pub fn max(&self) -> f32 {
        self.max
    }

    /// Merges another accumulator (parallel Welford combination).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Summary of a 1-D sample used in experiment reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum value.
    pub min: f32,
    /// Maximum value.
    pub max: f32,
    /// Pearson kurtosis.
    pub kurtosis: f64,
}

impl Summary {
    /// Computes all summary statistics in one pass-ish.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f32]) -> Self {
        assert!(!xs.is_empty(), "summary of empty slice");
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in xs {
            min = min.min(v);
            max = max.max(v);
        }
        Self {
            mean: mean(xs),
            std: std_dev(xs),
            min,
            max,
            kurtosis: kurtosis(xs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(kurtosis(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn kurtosis_of_normal_is_three() {
        let mut rng = Rng::seed_from(7);
        let xs: Vec<f32> = (0..200_000).map(|_| rng.standard_normal()).collect();
        let k = kurtosis(&xs);
        assert!((k - 3.0).abs() < 0.1, "kurtosis {k}");
    }

    #[test]
    fn kurtosis_of_uniform_is_low() {
        let mut rng = Rng::seed_from(8);
        let xs: Vec<f32> = (0..100_000).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let k = kurtosis(&xs);
        assert!((k - 1.8).abs() < 0.1, "kurtosis {k}");
    }

    #[test]
    fn outliers_inflate_kurtosis() {
        let mut rng = Rng::seed_from(9);
        let mut xs: Vec<f32> = (0..10_000).map(|_| rng.standard_normal()).collect();
        let base = kurtosis(&xs);
        // Inject the LLM phenomenon: a few enormous channel values.
        for i in 0..10 {
            xs[i * 1000] = 60.0;
        }
        let spiked = kurtosis(&xs);
        assert!(spiked > 20.0 * base, "base {base} spiked {spiked}");
    }

    #[test]
    fn mse_and_rmse() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert!((mse(&a, &b) - 12.5).abs() < 1e-12);
        assert!((rmse(&a, &b) - 12.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn snr_infinite_when_exact() {
        let a = [1.0f32, 2.0];
        assert_eq!(snr_db(&a, &a), f64::INFINITY);
    }

    #[test]
    fn snr_known_value() {
        // signal power 100, noise power 1 => 20 dB
        let r = [10.0f32];
        let m = [9.0f32];
        assert!((snr_db(&r, &m) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let xs = [3.0f32, 1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 3.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
    }

    #[test]
    fn histogram_counts_and_outliers() {
        let xs = [0.1f32, 0.2, 0.9, 1.5, -0.5, f32::NAN];
        let h = Histogram::new(&xs, 0.0, 1.0, 2);
        assert_eq!(h.counts(), &[2, 1]);
        assert_eq!(h.outliers(), 3);
        assert_eq!(h.total(), 6);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let mut rng = Rng::seed_from(13);
        let xs: Vec<f32> = (0..50_000).map(|_| rng.uniform(0.0, 1.0)).collect();
        let h = Histogram::new(&xs, 0.0, 1.0, 50);
        let width = (1.0f32 / 50.0) as f64;
        let integral: f64 = h.density().iter().map(|d| d * width).sum();
        assert!((integral - 1.0).abs() < 1e-9, "integral {integral}");
    }

    #[test]
    fn kde_peaks_near_data_mass() {
        let mut rng = Rng::seed_from(21);
        let xs: Vec<f32> = (0..20_000).map(|_| rng.normal(0.5, 0.05)).collect();
        let (grid, dens) = kde(&xs, 0.0, 1.0, 101, None);
        let argmax = dens
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!((grid[argmax] - 0.5).abs() < 0.05, "peak at {}", grid[argmax]);
    }

    #[test]
    fn kde_integrates_to_roughly_one() {
        let mut rng = Rng::seed_from(22);
        let xs: Vec<f32> = (0..5_000).map(|_| rng.standard_normal()).collect();
        let (grid, dens) = kde(&xs, -5.0, 5.0, 201, None);
        let dx = (grid[1] - grid[0]) as f64;
        let integral: f64 = dens.iter().map(|d| d * dx).sum();
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn running_stats_match_batch_stats() {
        let mut rng = Rng::seed_from(31);
        let xs: Vec<f32> = (0..10_000).map(|_| rng.normal(3.0, 2.0)).collect();
        let mut rs = RunningStats::new();
        rs.extend(&xs);
        assert_eq!(rs.count(), 10_000);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-9);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-6);
        assert_eq!(rs.min(), xs.iter().cloned().fold(f32::INFINITY, f32::min));
        assert_eq!(
            rs.max(),
            xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
        );
    }

    #[test]
    fn running_stats_merge_equals_single_pass() {
        let mut rng = Rng::seed_from(32);
        let xs: Vec<f32> = (0..5_000).map(|_| rng.uniform(-3.0, 5.0)).collect();
        let mut whole = RunningStats::new();
        whole.extend(&xs);
        let mut a = RunningStats::new();
        a.extend(&xs[..1234]);
        let mut b = RunningStats::new();
        b.extend(&xs[1234..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
        // Merging an empty accumulator is a no-op.
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn running_stats_empty_defaults() {
        let rs = RunningStats::new();
        assert_eq!(rs.count(), 0);
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.variance(), 0.0);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }
}

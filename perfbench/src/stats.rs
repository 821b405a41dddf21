//! Small numeric helpers: percentiles, medians, digests, and the process
//! high-water RSS.

/// A percentile of `samples` by the nearest-rank rule, with the number of
/// samples ranked above it.
///
/// Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some((sorted[rank - 1], n - rank))
}

/// Samples a chunk must hold for its 99th percentile to have ten samples
/// above it (when the samples are independent).
pub const CHUNK_SAMPLES: usize = 1000;

/// A percentile taken within each of several parts of a sample (chunks or
/// groups) and combined over the parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartPercentile {
    /// The per-part percentiles combined (median or mean over parts).
    pub value: f64,
    /// Samples over all parts.
    pub samples: usize,
    /// Parts.
    pub parts: usize,
    /// Lowest and highest per-part percentile.
    pub range: (f64, f64),
    /// Fewest samples any part ranks above its percentile.
    pub min_above: usize,
}

impl PartPercentile {
    fn new(per_part: &[(f64, usize)], samples: usize, value: f64) -> Option<Self> {
        let values: Vec<f64> = per_part.iter().map(|&(v, _)| v).collect();
        Some(Self {
            value,
            samples,
            parts: per_part.len(),
            range: (percentile(&values, 0.0)?.0, percentile(&values, 100.0)?.0),
            min_above: per_part.iter().map(|&(_, a)| a).min()?,
        })
    }
}

/// The `p`-th percentile of a window that arrives in consecutive parts
/// (passes): parts are merged in order into chunks of at least
/// `min_chunk` samples (a short tail joins the last chunk), the
/// percentile is taken within each chunk, and the median over chunks is
/// returned. A burst of host noise that spoils one chunk moves the result
/// far less than it moves a percentile of the pooled samples.
///
/// Returns `None` when the parts hold no samples.
pub fn chunked_percentile<'a>(
    parts: impl IntoIterator<Item = &'a [f64]>,
    p: f64,
    min_chunk: usize,
) -> Option<PartPercentile> {
    let mut chunks: Vec<Vec<f64>> = vec![Vec::new()];
    for part in parts {
        if chunks.last().is_some_and(|c| c.len() >= min_chunk) {
            chunks.push(Vec::new());
        }
        chunks
            .last_mut()
            .expect("at least one chunk")
            .extend_from_slice(part);
    }
    if chunks.len() > 1 && chunks.last().is_some_and(|c| c.len() < min_chunk) {
        let tail = chunks.pop().expect("a tail chunk");
        chunks
            .last_mut()
            .expect("a chunk before the tail")
            .extend(tail);
    }
    let per_chunk: Vec<(f64, usize)> = chunks.iter().filter_map(|c| percentile(c, p)).collect();
    let values: Vec<f64> = per_chunk.iter().map(|&(v, _)| v).collect();
    PartPercentile::new(
        &per_chunk,
        chunks.iter().map(Vec::len).sum(),
        percentile(&values, 50.0)?.0,
    )
}

/// The `p`-th percentile within each group of samples, averaged over the
/// groups. Groups of unlike work (grid points whose episodes cost 1 ms
/// and 5 ms) each contribute their own percentile, so the result moves
/// smoothly with each group's times instead of jumping between the
/// clusters a pooled percentile lands on.
///
/// Returns `None` when there are no groups or a group is empty.
pub fn mean_group_percentile(groups: &[Vec<f64>], p: f64) -> Option<PartPercentile> {
    let per_group: Vec<(f64, usize)> = groups
        .iter()
        .map(|g| percentile(g, p))
        .collect::<Option<_>>()?;
    let values: Vec<f64> = per_group.iter().map(|&(v, _)| v).collect();
    PartPercentile::new(&per_group, groups.iter().map(Vec::len).sum(), mean(&values))
}

/// Median (50th percentile by nearest rank), or 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |(v, _)| v)
}

/// Arithmetic mean, or 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Incremental FNV-1a 64 digest over integers, for comparing deterministic
/// outputs across runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value into the digest.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The process's high-water resident set size in MB (10⁶ bytes), read from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// The host's CPU time stolen by the hypervisor and its total CPU time, in
/// clock ticks since boot, from the `cpu` line of `/proc/stat`.
pub fn host_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_samples_above() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some((500.0, 500)));
        assert_eq!(percentile(&xs, 99.0), Some((990.0, 10)));
        assert_eq!(percentile(&xs, 100.0), Some((1000.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn chunked_percentile_takes_the_median_over_chunks() {
        // Three chunks of 1000; the middle one is slow throughout.
        let fast: Vec<f64> = (1..=1000).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|v| v * 10.0).collect();
        let parts = [
            &fast[..500],
            &fast[500..],
            &slow[..],
            &fast[..],
            &fast[..10],
        ];
        let c = chunked_percentile(parts, 99.0, CHUNK_SAMPLES).expect("samples");
        assert_eq!(c.parts, 3, "the 10-sample tail joins the last chunk");
        assert_eq!(c.samples, 3010);
        assert_eq!(c.value, 990.0);
        assert_eq!(c.min_above, 10);
        assert_eq!(chunked_percentile([&[][..]], 50.0, CHUNK_SAMPLES), None);
    }

    #[test]
    fn group_percentiles_are_averaged_over_groups() {
        let fast: Vec<f64> = (1..=100).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|v| v * 10.0).collect();
        let g = mean_group_percentile(&[fast, slow], 90.0).expect("samples");
        assert_eq!(g.value, (90.0 + 900.0) / 2.0);
        assert_eq!((g.parts, g.samples, g.min_above), (2, 200, 10));
        assert_eq!(g.range, (90.0, 900.0));
        assert_eq!(mean_group_percentile(&[vec![1.0], vec![]], 50.0), None);
        assert_eq!(mean_group_percentile(&[], 50.0), None);
    }
}

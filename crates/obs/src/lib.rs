//! Zero-dependency observability primitives for the NORA stack.
//!
//! The stack's components (tiles, the recovery ladder, the serving engine,
//! the sweep executor) accumulate what they did into [`Metrics`] — a
//! deterministic registry of named [`Counter`]s and fixed-edge
//! [`Histogram`]s — and export it on demand through a [`Recorder`].
//!
//! # The bit-identity contract
//!
//! Observation is *passive*: attaching any recorder must leave every model
//! output bit-identical at every `NORA_THREADS` level. Three rules enforce
//! this, mirroring the threading model of `nora-parallel`:
//!
//! 1. **No RNG coupling.** Nothing in this crate draws from (or seeds) a
//!    random stream, and instrumented components never make an RNG draw
//!    conditional on whether observation is enabled.
//! 2. **Deterministic aggregation.** Components accumulate into *local*
//!    metric state and merge in a structural order — tile-grid index, slot
//!    index, sweep-task index — never in wall-clock completion order. All
//!    counter values (and histogram *counts* of deterministic quantities)
//!    are therefore identical at any thread count.
//! 3. **Timings are telemetry.** Span durations measured with [`Stopwatch`]
//!    vary run to run; they are recorded, but nothing downstream of a
//!    timing feeds back into computation.
//!
//! # Example
//!
//! ```
//! use nora_obs::{Metrics, Recorder, MemoryRecorder};
//!
//! let mut m = Metrics::new();
//! m.add("cim.dac.clipped_inputs", 3);
//! m.observe("serve.service_secs", nora_obs::edges::LATENCY_SECS, 0.002);
//!
//! let mut rec = MemoryRecorder::default();
//! m.emit(&mut rec);
//! assert_eq!(rec.counters["cim.dac.clipped_inputs"], 3);
//! ```

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Canonical fixed bucket edges shared by the instrumented crates.
///
/// Fixed edges (rather than adaptive ones) keep histogram aggregation
/// deterministic: merging two histograms is element-wise bucket addition,
/// independent of the order observations arrived in.
pub mod edges {
    /// Wall-clock latencies in seconds, 1 µs .. 10 s.
    pub const LATENCY_SECS: &[f64] = &[
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
    ];
    /// Dimensionless rates/fractions in `[0, 1]`.
    pub const RATE: &[f64] = &[0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1.0];
    /// Small integer counts (retry rounds, decode steps, …).
    pub const COUNT: &[f64] = &[0.5, 1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5, 128.5];
    /// Throughputs in events per second (tokens/s over time, …), decade
    /// buckets from 1/s to 1M/s.
    pub const THROUGHPUT: &[f64] = &[1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6];
}

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self(0)
    }

    /// Adds `delta` occurrences.
    pub fn add(&mut self, delta: u64) {
        self.0 += delta;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.0 += other.0;
    }
}

/// A histogram over fixed, caller-supplied bucket edges.
///
/// `edges = [e0, e1, …, eN]` defines `N + 1` buckets: `(-∞, e0]`,
/// `(e0, e1]`, …, `(eN, ∞)`. Edges are fixed at construction so merging is
/// order-independent bucket addition.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    nan_count: u64,
}

impl Histogram {
    /// An empty histogram over `edges` (must be non-empty and strictly
    /// increasing).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn new(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Self {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0.0,
            nan_count: 0,
        }
    }

    /// Records one observation.
    ///
    /// NaN is counted in [`Histogram::nan_count`] instead of a bucket:
    /// every `<` comparison with NaN is false, so `partition_point` would
    /// silently file it into the lowest bucket and poison `sum`.
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            self.nan_count += 1;
            return;
        }
        // partition_point: first bucket whose upper edge is >= value.
        let idx = self.edges.partition_point(|&e| e < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of NaN observations rejected from the buckets (not included
    /// in [`Histogram::count`] or [`Histogram::sum`]).
    pub fn nan_count(&self) -> u64 {
        self.nan_count
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The bucket edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket counts (`edges().len() + 1` entries; the last is the
    /// overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket edges differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.edges, other.edges,
            "cannot merge histograms with different edges"
        );
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.nan_count += other.nan_count;
    }
}

/// A started wall-clock span timer.
///
/// Thin wrapper over [`Instant`] so instrumented code carries one obs type
/// instead of ad-hoc `Instant` arithmetic. Timings are telemetry only — see
/// the crate-level bit-identity contract.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed seconds as `f64` (histogram-observation friendly).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// A deterministic registry of named counters and histograms.
///
/// Names are sorted (BTreeMap), so iteration/emission order is stable and
/// two registries built from the same event multiset compare equal with
/// `==` regardless of arrival order across merges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            c.add(delta);
        } else {
            let mut c = Counter::new();
            c.add(delta);
            self.counters.insert(name.to_string(), c);
        }
    }

    /// Records `value` into the histogram `name`, creating it over `edges`
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with different edges.
    pub fn observe(&mut self, name: &str, edges: &[f64], value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            assert_eq!(h.edges(), edges, "histogram {name} redefined with new edges");
            h.observe(value);
        } else {
            let mut h = Histogram::new(edges);
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// The histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry into this one (counter addition, histogram
    /// bucket addition). Merge is commutative and associative, so any
    /// structural merge order yields the same registry.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, c) in &other.counters {
            if let Some(mine) = self.counters.get_mut(name) {
                mine.merge(c);
            } else {
                self.counters.insert(name.clone(), *c);
            }
        }
        for (name, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge(h);
            } else {
                self.histograms.insert(name.clone(), h.clone());
            }
        }
    }

    /// Emits every counter then every histogram, in name order, to `rec`.
    pub fn emit(&self, rec: &mut dyn Recorder) {
        for (name, value) in self.counters() {
            rec.counter(name, value);
        }
        for (name, h) in self.histograms() {
            rec.histogram(name, h);
        }
    }

    /// The deterministic subset of this registry: counter names and values
    /// only, for cross-thread-count equality assertions in tests.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.counters()
            .map(|(name, value)| (name.to_string(), value))
            .collect()
    }
}

/// Sink for exported metrics and span events.
///
/// All methods default to no-ops, so custom sinks override only what they
/// store. Recorders are
/// invoked from a single thread at deterministic export points — they never
/// observe wall-clock interleaving of workers.
pub trait Recorder {
    /// A counter's aggregated value.
    fn counter(&mut self, _name: &str, _value: u64) {}

    /// A histogram's aggregated state.
    fn histogram(&mut self, _name: &str, _hist: &Histogram) {}

    /// One raw span event of `nanos` wall-clock nanoseconds.
    fn span(&mut self, _name: &str, _nanos: u64) {}

    /// Flushes buffered output, if any.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// In-memory recorder for tests and programmatic inspection.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    /// Last value seen per counter name.
    pub counters: BTreeMap<String, u64>,
    /// Last state seen per histogram name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Span events in arrival order.
    pub spans: Vec<(String, u64)>,
}

impl Recorder for MemoryRecorder {
    fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    fn histogram(&mut self, name: &str, hist: &Histogram) {
        self.histograms.insert(name.to_string(), hist.clone());
    }

    fn span(&mut self, name: &str, nanos: u64) {
        self.spans.push((name.to_string(), nanos));
    }
}

/// Escapes a metric name for embedding in a JSON string literal.
fn json_escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

fn join_f64(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| {
            if v.is_finite() {
                format!("{v}")
            } else {
                // JSON has no Infinity/NaN literals.
                "null".to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn join_u64(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Streams events as JSON-lines records (one JSON object per line), the
/// format of the study bins' `NORA_METRICS_OUT` sidecars.
#[derive(Debug)]
pub struct JsonLinesRecorder<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonLinesRecorder<W> {
    /// A recorder writing to `out`.
    pub fn new(out: W) -> Self {
        Self { out, error: None }
    }

    /// Consumes the recorder and returns the writer and the first write
    /// error, if any occurred.
    pub fn into_inner(self) -> (W, Option<io::Error>) {
        (self.out, self.error)
    }

    fn write_line(&mut self, line: String) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }
}

impl<W: Write> Recorder for JsonLinesRecorder<W> {
    fn counter(&mut self, name: &str, value: u64) {
        self.write_line(format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
            json_escape(name)
        ));
    }

    fn histogram(&mut self, name: &str, hist: &Histogram) {
        self.write_line(format!(
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\
             \"nan\":{},\"edges\":[{}],\"counts\":[{}]}}\n",
            json_escape(name),
            hist.count(),
            if hist.sum().is_finite() {
                format!("{}", hist.sum())
            } else {
                "null".to_string()
            },
            hist.nan_count(),
            join_f64(hist.edges()),
            join_u64(hist.bucket_counts()),
        ));
    }

    fn span(&mut self, name: &str, nanos: u64) {
        self.write_line(format!(
            "{{\"type\":\"span\",\"name\":\"{}\",\"ns\":{nanos}}}\n",
            json_escape(name)
        ));
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_merges() {
        let mut a = Counter::new();
        a.add(3);
        let mut b = Counter::new();
        b.add(4);
        a.merge(&b);
        assert_eq!(a.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_half_open_upper_inclusive() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 2.5] {
            h.observe(v);
        }
        // (-inf,1] -> {0.5, 1.0}; (1,2] -> {1.5, 2.0}; (2,inf) -> {2.5}.
        assert_eq!(h.bucket_counts(), &[2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 7.5).abs() < 1e-12);
        assert!((h.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn nan_observations_are_counted_apart_not_bucketed() {
        // Regression: `partition_point(|&e| e < NaN)` is 0 (every NaN
        // comparison is false), so NaN used to land silently in the lowest
        // bucket and turn `sum` into NaN.
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(f64::NAN);
        h.observe(0.5);
        h.observe(f64::NAN);
        assert_eq!(h.nan_count(), 2);
        assert_eq!(h.count(), 1);
        assert_eq!(h.bucket_counts(), &[1, 0, 0]);
        assert!(h.sum().is_finite());
        assert!((h.sum() - 0.5).abs() < 1e-12);
        assert!((h.mean() - 0.5).abs() < 1e-12);

        // merge carries the NaN tally.
        let mut other = Histogram::new(&[1.0, 2.0]);
        other.observe(f64::NAN);
        h.merge(&other);
        assert_eq!(h.nan_count(), 3);
        assert_eq!(h.count(), 1);

        // The exporter serializes the tally.
        let mut jsonl = JsonLinesRecorder::new(Vec::new());
        jsonl.histogram("h", &h);
        let (buf, _) = jsonl.into_inner();
        assert!(String::from_utf8(buf).unwrap().contains("\"nan\":3"));
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let edges = [0.0, 1.0, 10.0];
        let obs = [0.5, -1.0, 3.0, 11.0, 0.9];
        let mut all = Histogram::new(&edges);
        for &v in &obs {
            all.observe(v);
        }
        let mut left = Histogram::new(&edges);
        let mut right = Histogram::new(&edges);
        for (i, &v) in obs.iter().enumerate() {
            if i % 2 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }
        let mut merged_lr = left.clone();
        merged_lr.merge(&right);
        let mut merged_rl = right.clone();
        merged_rl.merge(&left);
        assert_eq!(merged_lr, all);
        assert_eq!(merged_rl, all);
    }

    #[test]
    fn metrics_merge_matches_direct_accumulation() {
        let mut direct = Metrics::new();
        direct.add("a", 5);
        direct.observe("h", edges::RATE, 0.02);
        direct.observe("h", edges::RATE, 0.3);

        let mut left = Metrics::new();
        left.add("a", 2);
        left.observe("h", edges::RATE, 0.3);
        let mut right = Metrics::new();
        right.add("a", 3);
        right.observe("h", edges::RATE, 0.02);
        let mut merged = Metrics::new();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged, direct);
        assert_eq!(merged.counter("a"), 5);
        assert_eq!(merged.counter("missing"), 0);
        assert_eq!(merged.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn emit_visits_names_in_sorted_order() {
        let mut m = Metrics::new();
        m.add("z.second", 1);
        m.add("a.first", 2);
        let mut rec = MemoryRecorder::default();
        m.emit(&mut rec);
        let names: Vec<&String> = rec.counters.keys().collect();
        assert_eq!(names, ["a.first", "z.second"]);
        assert_eq!(
            m.counter_snapshot(),
            vec![("a.first".to_string(), 2), ("z.second".to_string(), 1)]
        );
    }

    #[test]
    fn jsonl_recorder_writes_one_object_per_line() {
        let mut rec = JsonLinesRecorder::new(Vec::new());
        rec.counter("serve.requests", 12);
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        rec.histogram("lat", &h);
        rec.span("round", 42);
        rec.flush().unwrap();
        let (buf, err) = rec.into_inner();
        assert!(err.is_none());
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"counter\",\"name\":\"serve.requests\",\"value\":12}"
        );
        assert!(lines[1].contains("\"edges\":[1]") && lines[1].contains("\"counts\":[1,0]"));
        assert_eq!(lines[2], "{\"type\":\"span\",\"name\":\"round\",\"ns\":42}");
    }

    #[test]
    fn jsonl_recorder_escapes_hostile_names() {
        let mut rec = JsonLinesRecorder::new(Vec::new());
        rec.counter("we\"ird\\name\n", 1);
        let (buf, _) = rec.into_inner();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text.trim_end(),
            "{\"type\":\"counter\",\"name\":\"we\\\"ird\\\\name \",\"value\":1}"
        );
    }

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed() >= Duration::ZERO);
    }
}

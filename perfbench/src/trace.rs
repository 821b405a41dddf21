//! In-memory spans for the traced run.
//!
//! The driver records a span around each call it makes into a layer's
//! public API; nothing inside the crates is instrumented. Spans stay in
//! memory until the run ends, when the per-layer metrics and a summary are
//! computed from them and the spans are written out.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `"nn.round"`.
    pub name: &'static str,
    /// Identifier shared by the spans of one unit of work (a request, a
    /// grid point, a setup repetition or an engine step).
    pub id: u64,
    /// Start, relative to the trace's epoch.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

/// Spans recorded by one run.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Records a span that started at `start` and ends now; returns its
    /// duration.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant) -> Duration {
        let dur = start.elapsed();
        self.push(name, id, start, dur);
        dur
    }

    /// Records a span measured elsewhere (e.g. by a sweep worker).
    pub fn push(&mut self, name: &'static str, id: u64, start: Instant, dur: Duration) {
        self.spans.push(Span {
            name,
            id,
            start: start.saturating_duration_since(self.epoch),
            dur,
        });
    }

    /// Durations, in milliseconds, of every span named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// One summary line per span name: count, total and median.
    pub fn summary(&self) -> Vec<String> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let ms = self.ms(name);
                format!(
                    "span {name:<16} count {:>7}  total {:>10.1} ms  p50 {:.4} ms",
                    ms.len(),
                    ms.iter().sum::<f64>(),
                    crate::stats::median(&ms)
                )
            })
            .collect()
    }

    /// Writes every span as one JSON line: name, id, and start and end in
    /// nanoseconds from the trace's epoch.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, including the final flush.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.id,
                s.start.as_nanos(),
                (s.start + s.dur).as_nanos()
            )?;
        }
        out.flush()
    }
}

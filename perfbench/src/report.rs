//! The run report: named metrics with units and sample counts, output
//! checks, operation counts, and the closing JSON line.

use crate::stats;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: usize,
}

/// Everything one run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted in the measured window (requests or grid
    /// points).
    pub attempted: u64,
    /// Operations that failed their checks.
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form report lines printed before the metric table.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds the `p`-th percentile of a window that arrives in `parts` as a
    /// metric, over chunks of at least `min_chunk` samples (see
    /// [`stats::chunked_percentile`]), and a check that at least ten samples
    /// rank above it in every chunk.
    pub fn percentile<'a>(
        &mut self,
        name: &'static str,
        unit: &'static str,
        parts: impl IntoIterator<Item = &'a [f64]>,
        p: f64,
        min_chunk: usize,
    ) {
        let how = format!("median over chunks of >= {min_chunk} samples");
        self.part_percentile(
            name,
            unit,
            stats::chunked_percentile(parts, p, min_chunk),
            p,
            &how,
        );
    }

    /// Adds the mean over `groups` of each group's `p`-th percentile as a
    /// metric (see [`stats::mean_group_percentile`]), and a check that at
    /// least ten samples rank above it in every group.
    pub fn percentile_per_group(
        &mut self,
        name: &'static str,
        unit: &'static str,
        groups: &[Vec<f64>],
        p: f64,
    ) {
        self.part_percentile(
            name,
            unit,
            stats::mean_group_percentile(groups, p),
            p,
            "mean over groups of each group's percentile",
        );
    }

    fn part_percentile(
        &mut self,
        name: &'static str,
        unit: &'static str,
        c: Option<stats::PartPercentile>,
        p: f64,
        how: &str,
    ) {
        let c = c.unwrap_or(stats::PartPercentile {
            value: f64::NAN,
            samples: 0,
            parts: 0,
            range: (f64::NAN, f64::NAN),
            min_above: 0,
        });
        self.metric(name, c.value, unit, c.samples);
        self.notes.push(format!(
            "{name}: {how}, {} parts (range {:.4} .. {:.4})",
            c.parts, c.range.0, c.range.1
        ));
        if p > 50.0 {
            self.check(
                format!(
                    "{name} has >= 10 samples above it in every part ({})",
                    c.min_above
                ),
                c.min_above >= 10,
            );
        }
    }

    /// Records a named check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Whether every operation and check passed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the report; the last line is the JSON result.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "{:<26} {:>16} {:<8} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "{:<26} {:>16.6} {:<8} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for (name, ok) in &self.checks {
            println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
        }
        println!(
            "operations attempted {} failed {}",
            self.attempted, self.failed
        );
        println!("{}", self.json());
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    /// Non-finite values (which JSON cannot hold) print as 0 and make the
    /// run incorrect.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

//! Benchmark driver for the NORA workspace.
//!
//! The driver calls the crates only through their public APIs. One
//! invocation runs one named [`Workload`] on inputs made from `--seed`,
//! measures it for `--seconds`, checks its outputs, and prints a report
//! whose last line is one JSON object. With `--trace 1` it prints the
//! per-layer numbers instead of the end-to-end ones. `README.md` defines
//! every metric.

pub mod eval_sweep;
pub mod inputs;
pub mod model;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod trace;

use report::Report;
use std::collections::BTreeMap;
use trace::Trace;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II and Fig. 3 grid points, deployed and scored in parallel.
    EvalSweep,
    /// Closed-loop serving of the NORA deployment (keyed analog decode).
    ServeAnalog,
    /// Closed-loop serving of the FP32 model past its window, with
    /// weighted tenants and priorities.
    ServeLong,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::EvalSweep,
        Workload::ServeAnalog,
        Workload::ServeLong,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalSweep => "eval-sweep",
            Workload::ServeAnalog => "serve-analog",
            Workload::ServeLong => "serve-long",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload and fills `report`.
    ///
    /// # Errors
    ///
    /// Returns a message when the model input fails its checks.
    pub fn run(
        self,
        seed: u64,
        seconds: f64,
        trace: Option<&mut Trace>,
        report: &mut Report,
    ) -> Result<(), String> {
        match self {
            Workload::EvalSweep => eval_sweep::run(seed, seconds, trace, report),
            Workload::ServeAnalog => serve::run(&serve::SERVE_ANALOG, seed, seconds, trace, report),
            Workload::ServeLong => serve::run(&serve::SERVE_LONG, seed, seconds, trace, report),
        }
    }
}

/// Per-layer metrics (`--trace 1`), with units. A layer the workload never
/// calls reports 0.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("nn.load_ms", "ms"),
    ("core.calibrate_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("cim.deploy_ms_p50", "ms"),
    ("eval.point_ms_p50", "ms"),
    ("nn.forward_ms_p50", "ms"),
    ("parallel.busy_share", "share"),
    ("cim.tile_samples", "count"),
    ("cim.read_repeats", "count"),
    ("cim.bm_retries", "count"),
    ("cim.ns_per_tile_sample", "ns"),
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p99", "ms"),
    ("serve.self_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.batch_occupancy", "tokens/round"),
    ("serve.useful_step_share", "share"),
    ("nn.round_ms_p50", "ms"),
    ("nn.step_us_p50", "us"),
    ("nn.refill_round_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Largest gap, as a share, between a traced sum of layer spans and the
/// untraced total it breaks down.
pub const TRACE_SUM_TOLERANCE: f64 = 0.10;

/// Median of `a / b` over pairs (NaN for none).
fn median_ratio(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|&(a, b)| a / b).collect();
    stats::percentile(&ratios, 50.0).map_or(f64::NAN, |(v, _)| v)
}

/// Collects the traced run's per-layer values and emits them in
/// [`PER_LAYER`] order.
pub struct PerLayer<'r> {
    report: &'r mut Report,
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl<'r> PerLayer<'r> {
    /// Starts collecting into `report`.
    pub fn new(report: &'r mut Report) -> Self {
        Self {
            report,
            values: BTreeMap::new(),
        }
    }

    /// Sets one per-layer value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, (value, samples));
    }

    /// Sets the set-up layers from the trace's spans and checks that the
    /// traced layer calls add up to the untraced set-up time.
    pub fn setup(&mut self, trace: &Trace, times: &setup::Times) {
        for (span, metric) in [
            ("nn.load", "nn.load_ms"),
            ("core.calibrate", "core.calibrate_ms"),
            ("core.plan", "core.plan_ms"),
            ("cim.deploy", "cim.deploy_ms_p50"),
        ] {
            let ms = trace.ms(span);
            if !ms.is_empty() {
                self.set(metric, stats::median(&ms), ms.len());
            }
        }
        // Per block: its traced set-ups' span sums against its untraced
        // set-ups' totals.
        let pairs: Vec<(f64, f64)> = times
            .traced_parts
            .iter()
            .copied()
            .zip(times.untraced.iter().copied())
            .collect();
        self.sum_check(
            "set-up: nn.load + core.calibrate + core.plan + cim.deploy",
            &pairs,
        );
    }

    /// States the tracing overhead from `(traced, untraced)` totals of units
    /// of work (steps or grid points) run side by side: the median ratio
    /// minus one.
    pub fn overhead(&mut self, pairs: &[(f64, f64)]) {
        let share = median_ratio(pairs) - 1.0;
        self.report.notes.push(format!(
            "tracing overhead {:+.2}% (median over {} traced/untraced pairs)",
            100.0 * share,
            pairs.len()
        ));
        self.set("trace.overhead_share", share, pairs.len());
    }

    /// Checks that the traced sums of layer spans come within
    /// [`TRACE_SUM_TOLERANCE`] of the untraced totals run beside them:
    /// `pairs` holds `(sum of spans, untraced total)` per pair, and the
    /// median ratio is checked, so host noise in one pair cannot decide it.
    pub fn sum_check(&mut self, label: &str, pairs: &[(f64, f64)]) {
        let gap = median_ratio(pairs) - 1.0;
        self.report.check(
            format!(
                "trace sum {label}: {:+.1}% against untraced (median over {} pairs)",
                100.0 * gap,
                pairs.len()
            ),
            gap.abs() <= TRACE_SUM_TOLERANCE,
        );
    }

    /// Emits every per-layer metric into the report.
    pub fn finish(self) {
        for (name, unit) in PER_LAYER {
            let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
            self.report.metric(name, value, unit, samples);
        }
    }
}

//! Design-space Pareto sweep: tile geometry × converter resolution ×
//! device noise × NORA λ, scored by the analytic fast evaluator plus the
//! first-order energy/latency/area laws — thousands of configurations in
//! seconds, no tile forwards.
//!
//! Prints the Pareto frontier and writes the frontier rows as
//! `results/design_space_pareto.csv`. With `NORA_METRICS_OUT` set, the
//! sweep telemetry (`eval.sweep.points`, `eval.sweep.point_secs`) lands in
//! the metrics sidecar under the `design_space` bench marker.
//!
//! Env knobs (comma-separated lists): `NORA_DS_TILES`, `NORA_DS_DAC_BITS`,
//! `NORA_DS_ADC_BITS`, `NORA_DS_NOISE_SCALES`, `NORA_DS_LAMBDAS`.
//! `NORA_FAST=1` switches to the tiny smoke grid.

use nora_bench::{
    env_list, export_metrics, fast_mode, parsed, prepare_cached, write_results, Error,
};
use nora_eval::runner::{design_space_recorded, DesignSpaceConfig, DesignSpaceRow};
use nora_nn::zoo::opt_presets;

fn main() -> Result<(), Error> {
    let mut cfg = if fast_mode()? {
        DesignSpaceConfig::tiny()
    } else {
        DesignSpaceConfig::default()
    };
    cfg.tile_sizes = env_list("NORA_DS_TILES", &cfg.tile_sizes, parsed)?;
    cfg.dac_bits = env_list("NORA_DS_DAC_BITS", &cfg.dac_bits, parsed)?;
    cfg.adc_bits = env_list("NORA_DS_ADC_BITS", &cfg.adc_bits, parsed)?;
    cfg.noise_scales = env_list("NORA_DS_NOISE_SCALES", &cfg.noise_scales, parsed)?;
    cfg.lambdas = env_list("NORA_DS_LAMBDAS", &cfg.lambdas, parsed)?;

    let p = prepare_cached(&opt_presets()[0])?;
    let mut metrics = nora_obs::Metrics::new();
    let t0 = std::time::Instant::now();
    let rows = design_space_recorded(&p, &cfg, &mut metrics);
    let elapsed = t0.elapsed();

    let frontier: Vec<DesignSpaceRow> = rows.iter().filter(|r| r.pareto).cloned().collect();
    println!("{}", DesignSpaceRow::table(&frontier).render());
    println!(
        "swept {} configurations in {:.1?} ({} on the Pareto frontier)",
        rows.len(),
        elapsed,
        frontier.len(),
    );

    write_results("design_space_pareto.csv", &DesignSpaceRow::csv(&frontier))?;
    export_metrics("design_space", &metrics)
}

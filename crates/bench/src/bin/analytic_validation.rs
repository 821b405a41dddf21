//! Analytic fast-evaluator validation: predicted vs Monte-Carlo simulated
//! accuracy on the Fig. 3 per-noise grid (naïve plan, MSE-matched
//! severities) and the paper-default Table II/III points (naïve + NORA).
//!
//! Prints the comparison table and writes the raw grid as
//! `results/analytic_validation.csv` — one row per point with both
//! accuracies and the stated tolerance, so the ≥90%-within-tolerance
//! claim of the analytic model is auditable offline.
//!
//! `NORA_FAST=1` shrinks the MSE grid for smoke runs;
//! `NORA_AV_MSE_POINTS` overrides the grid depth directly.

use nora_bench::{env_scalar, fast_mode, parsed, prepare_cached, write_results, Error};
use nora_eval::runner::{analytic_validation, AnalyticValidationConfig, AnalyticValidationRow};
use nora_nn::zoo::opt_presets;

fn main() -> Result<(), Error> {
    let mut cfg = AnalyticValidationConfig::default();
    if fast_mode()? {
        cfg.mse_points = 2;
    }
    cfg.mse_points = env_scalar("NORA_AV_MSE_POINTS", cfg.mse_points, parsed)?;

    let prepared = vec![prepare_cached(&opt_presets()[0])?];
    let t0 = std::time::Instant::now();
    let rows = analytic_validation(&prepared, &cfg);
    println!("{}", AnalyticValidationRow::table(&rows).render());
    let frac = AnalyticValidationRow::within_fraction(&rows);
    println!(
        "{} grid points in {:.1?}; {:.1}% within stated tolerance",
        rows.len(),
        t0.elapsed(),
        100.0 * frac,
    );

    write_results(
        "analytic_validation.csv",
        &AnalyticValidationRow::csv(&rows),
    )
}

//! Long-horizon "serving day" study: accuracy and throughput over 10⁶
//! virtual seconds of continuous serving under PCM conductance drift, at
//! several hard-fault rates, with and without online mitigation
//! (α̂ probe recalibration + background spare-tile rotation).
//!
//! Prints the per-segment table and writes the raw curves as
//! `results/drift_serving.csv`. With `NORA_METRICS_OUT` set, the
//! accuracy/throughput-over-time histograms and the engines'
//! `serve.maint.*` counters land in the metrics sidecar.
//!
//! Expected shape: the unmitigated engine decays measurably across the
//! horizon (conductances shrink under `g(t) = g_p (t/t_c)^{-ν}` while the
//! noise floor does not), while the mitigated engine holds ≥95% of its
//! t = 0 accuracy — recalibration restores the global signal scale and
//! rotation replaces tiles whose drift dispersion trips the ABFT ladder.
//!
//! Env knobs: `NORA_DRIFT_HORIZON` (virtual seconds), `NORA_DRIFT_STEP_SECS`
//! (virtual seconds per decode step), `NORA_DRIFT_RATES` (comma-separated
//! stuck-cell rates). `NORA_FAST=1` shrinks the horizon for smoke runs.

use nora_bench::{
    env_list, env_scalar, export_metrics, fast_mode, parsed, prepare_cached, write_results, Error,
};
use nora_eval::runner::{drift_serving_study_recorded, DriftServingConfig, DriftServingRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let mut cfg = DriftServingConfig::default();
    let default_horizon = if fast_mode()? { 2e5 } else { 1e6 };
    cfg.horizon = env_scalar("NORA_DRIFT_HORIZON", default_horizon, parsed)?;
    cfg.secs_per_decode_step =
        env_scalar("NORA_DRIFT_STEP_SECS", cfg.secs_per_decode_step, parsed)?;
    cfg.cell_rates = env_list("NORA_DRIFT_RATES", &cfg.cell_rates, parsed)?;

    let opt = &opt_presets()[2];
    let mistral = &other_presets()[2];
    let prepared = if fast_mode()? {
        vec![prepare_cached(opt)?]
    } else {
        vec![prepare_cached(opt)?, prepare_cached(mistral)?]
    };

    let mut metrics = nora_obs::Metrics::new();
    let rows = drift_serving_study_recorded(&prepared, &cfg, &mut metrics);
    println!("{}", DriftServingRow::table(&rows).render());

    for p in &prepared {
        for &rate in &cfg.cell_rates {
            let arm = |mitigated: bool| {
                let mut points = rows.iter().filter(|r| {
                    r.model == p.zoo.name
                        && r.mitigated == mitigated
                        && (r.cell_rate - rate).abs() < 1e-12
                });
                let first = points.next();
                let last = points.next_back().or(first);
                (
                    first.map(|r| 100.0 * r.accuracy).unwrap_or(f64::NAN),
                    last.map(|r| 100.0 * r.accuracy).unwrap_or(f64::NAN),
                )
            };
            let (t0, un_end) = arm(false);
            let (_, mit_end) = arm(true);
            println!(
                "{} @ {:.1}% faults: t=0 {:.1}% → t={:.0}ks unmitigated {:.1}% / mitigated {:.1}% \
                 (held {:.0}% of t=0)",
                p.zoo.name,
                100.0 * rate,
                t0,
                cfg.horizon / 1e3,
                un_end,
                mit_end,
                100.0 * mit_end / t0,
            );
        }
    }

    write_results("drift_serving.csv", &DriftServingRow::csv(&rows))?;
    export_metrics("drift_serving", &metrics)
}

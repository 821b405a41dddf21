//! Regenerates the §VII limitation study: NORA accuracy after PCM
//! conductance drift, with and without global drift compensation.
//!
//! Expected shape (paper §VII): after one hour of drift NORA's advantage
//! shrinks in some models; the simple global compensation recovers much of
//! the loss ("IR-drop and drift could be simply compensated").

use nora_bench::{prepare_cached, Error};
use nora_eval::runner::{drift_study, DriftConfig, DriftRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let opt = &opt_presets()[2];
    let mistral = &other_presets()[2];
    let prepared = vec![prepare_cached(opt)?, prepare_cached(mistral)?];
    let rows = drift_study(&prepared, &DriftConfig::default());
    println!("{}", DriftRow::table(&rows).render());

    for p in &prepared {
        let pick = |plan: &str, comp: bool, t: f64| {
            rows.iter()
                .find(|r| {
                    r.model == p.zoo.name
                        && r.plan == plan
                        && r.compensated == comp
                        && (r.t_seconds - t).abs() < 1.0
                })
                .map(|r| 100.0 * r.accuracy)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{}: NORA fresh {:.1}% → 1h uncompensated {:.1}% → 1h compensated {:.1}%",
            p.zoo.name,
            pick("nora", false, 20.0),
            pick("nora", false, 3600.0),
            pick("nora", true, 3600.0),
        );
    }
    Ok(())
}

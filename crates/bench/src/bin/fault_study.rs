//! Fault-injection robustness study: next-token accuracy vs hard-fault
//! rate (stuck cells + dead lines + stuck ADC channels), comparing naive
//! vs NORA deployments with and without ABFT detection + tile recovery.
//!
//! Prints the summary table and writes the raw sweep as
//! `results/fault_study.csv`.
//!
//! Expected shape: unprotected accuracy collapses as the fault rate grows
//! (NORA smoothing alone cannot fix hard faults); with ABFT + remap/fallback
//! the loss stays within the fault-free noisy baseline's ballpark because
//! every flagged tile is re-programmed, remapped, or executed digitally.

use nora_bench::{prepare_cached, write_results, Error};
use nora_eval::runner::{fault_study, FaultStudyConfig, FaultStudyRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let opt = &opt_presets()[2];
    let mistral = &other_presets()[2];
    let prepared = vec![prepare_cached(opt)?, prepare_cached(mistral)?];
    let cfg = FaultStudyConfig::default();
    let rows = fault_study(&prepared, &cfg);
    println!("{}", FaultStudyRow::table(&rows).render());

    for p in &prepared {
        let pick = |plan: &str, protected: bool, rate: f64| {
            rows.iter()
                .find(|r| {
                    r.model == p.zoo.name
                        && r.plan == plan
                        && r.protected == protected
                        && (r.cell_rate - rate).abs() < 1e-12
                })
                .map(|r| 100.0 * r.accuracy)
                .unwrap_or(f64::NAN)
        };
        let worst = cfg.cell_rates.last().copied().unwrap_or(0.0);
        println!(
            "{}: NORA fault-free {:.1}% → {:.1}% faults unprotected {:.1}% → protected {:.1}%",
            p.zoo.name,
            pick("nora", false, 0.0),
            100.0 * worst,
            pick("nora", false, worst),
            pick("nora", true, worst),
        );
    }

    write_results("fault_study.csv", &FaultStudyRow::csv(&rows))
}

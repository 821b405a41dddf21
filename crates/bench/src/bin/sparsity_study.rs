//! N:M sparsity study: digital accuracy, analytic predicted accuracy,
//! packed-vs-dense decode throughput, and active-row decode energy per
//! block-wise sparsity pattern, plus the outlier-aware `auto` selector row.
//!
//! Prints the summary table and writes the raw sweep as
//! `results/sparsity_study.csv`.
//!
//! Expected shape: 2:4 halves the multiply–accumulates of every linear, so
//! sparse decode throughput clears 1.5× the dense reference while accuracy
//! stays within a point of the digital baseline; 1:4 trades further speed
//! for visible loss, and the `auto` row lands between, pruning the
//! flat-activation layers and keeping outlier-heavy ones dense.
//!
//! Env knobs: `NORA_SPARSITY_PATTERNS` (comma-separated labels from
//! {dense,4:8,2:4,1:4}), `NORA_SPARSITY_BUDGET` (accuracy budget for the
//! `auto` selector row), `NORA_SPARSITY_TOKENS` (timed decode length).
//! `NORA_FAST=1` shrinks the model set and decode loop for smoke runs.

use nora_bench::{env_list, env_scalar, fast_mode, parsed, prepare_cached, write_results, Error};
use nora_eval::runner::{sparsity_study, SparsityStudyConfig, SparsityStudyRow};
use nora_nn::zoo::{opt_presets, other_presets};
use nora_tensor::NmPattern;

fn main() -> Result<(), Error> {
    let mut cfg = SparsityStudyConfig::default();
    cfg.patterns = env_list("NORA_SPARSITY_PATTERNS", &cfg.patterns, NmPattern::parse)?;
    cfg.auto_budget = env_scalar("NORA_SPARSITY_BUDGET", cfg.auto_budget, parsed)?;
    let default_tokens = if fast_mode()? { 64 } else { 512 };
    cfg.decode_tokens = env_scalar("NORA_SPARSITY_TOKENS", default_tokens, parsed)?;

    let opt = &opt_presets()[2];
    let mistral = &other_presets()[2];
    let prepared = if fast_mode()? {
        vec![prepare_cached(opt)?]
    } else {
        vec![prepare_cached(opt)?, prepare_cached(mistral)?]
    };

    let mut rows = Vec::new();
    for p in &prepared {
        rows.extend(sparsity_study(p, &cfg));
    }
    println!("{}", SparsityStudyRow::table(&rows).render());

    for p in &prepared {
        let pick = |pattern: &str| {
            rows.iter()
                .find(|r| r.model == p.zoo.name && r.pattern == pattern)
        };
        if let (Some(dense), Some(sparse)) = (pick("dense"), pick("2:4")) {
            println!(
                "{}: 2:4 decode {:.0} tok/s vs dense {:.0} tok/s ({:.2}x), \
                 accuracy {:.1}% vs digital {:.1}% ({:+.1} pp)",
                p.zoo.name,
                sparse.tokens_per_sec,
                dense.dense_tokens_per_sec,
                sparse.speedup,
                100.0 * sparse.accuracy,
                100.0 * sparse.digital,
                -sparse.loss_pp(),
            );
        }
    }

    write_results("sparsity_study.csv", &SparsityStudyRow::csv(&rows))
}

//! Shared plumbing for the experiment-regeneration binaries.
//!
//! Every paper table/figure has a dedicated binary under `src/bin/`:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — non-ideality inventory |
//! | `table2` | Table II — simulator settings |
//! | `fig3` | Fig. 3 — per-non-ideality sensitivity sweep |
//! | `fig4` | Fig. 4 — activation vs weight KDE/kurtosis |
//! | `fig5a` | Fig. 5a — OPT family: digital vs naive vs NORA |
//! | `fig5bc` | Fig. 5b/c — per-noise mitigation at matched MSE |
//! | `table3` | Table III — NORA on LLaMA/Mistral-like models |
//! | `fig6ab` | Fig. 6a/b — per-layer kurtosis before/after NORA |
//! | `fig6c` | Fig. 6c — rescale-factor (output current) shrink |
//! | `drift_study` | §VII — accuracy under PCM drift |
//!
//! and every extension study (the paper's §VII future-work items) has one
//! too:
//!
//! | target | runs |
//! |---|---|
//! | `lambda_ablation` | per-layer λ search (also `examples/`) |
//! | `management_study` | noise/bound management (Fig. 1 "Challenge 2") |
//! | `cross_device` | PCM vs ReRAM |
//! | `energy_study` | energy/latency per token |
//! | `slicing_study` | multi-cell weight precision |
//! | `quant_baseline` | digital WxAx / SmoothQuant baselines |
//! | `encoding_study` | analog DAC vs bit-serial input drive |
//! | `layer_study` | per-layer analog sensitivity |
//! | `fault_study` | hard faults: ±NORA, ±ABFT and recovery |
//! | `drift_serving` | drift-aware long-horizon serving, ±online mitigation |
//! | `analytic_validation` | closed-form noise model vs Monte-Carlo, point by point |
//! | `design_space` | analytic Pareto sweep: accuracy vs energy vs latency |
//! | `sparsity_study` | N:M pruning: accuracy vs pattern vs decode throughput |
//! | `hwa_study` | straight-through hardware-aware training × NORA |
//!
//! Every bin has a `bench = false` entry in `Cargo.toml`, so `cargo bench
//! -p nora-bench -- --metrics-out <path>` runs only the `benches/` targets.
//!
//! Trained models are cached under `NORA_CACHE_DIR` (default
//! `target/nora-model-cache`), so only the first run of a binary pays the
//! training cost. Set `NORA_FAST=1` to shrink evaluation sizes for smoke
//! runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use nora_eval::runner::{prepare_built, PreparedModel};
use nora_nn::zoo::ZooSpec;
use std::path::PathBuf;

/// Directory used for the trained-model cache.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("NORA_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/nora-model-cache"))
}

/// Whether fast (smoke-test) mode is requested via `NORA_FAST=1`.
pub fn fast_mode() -> bool {
    std::env::var("NORA_FAST").map(|v| v == "1").unwrap_or(false)
}

/// Number of held-out evaluation episodes (shrunk in fast mode).
pub fn episode_count() -> usize {
    if fast_mode() {
        60
    } else {
        250
    }
}

/// Number of calibration sequences (shrunk in fast mode).
pub fn calib_count() -> usize {
    if fast_mode() {
        4
    } else {
        16
    }
}

/// Builds (or loads from cache) and prepares one zoo model, logging
/// progress to stderr.
pub fn prepare_cached(spec: &ZooSpec) -> PreparedModel {
    eprintln!("[nora-bench] preparing {} …", spec.name);
    let t0 = std::time::Instant::now();
    let zoo = spec.build_cached(&cache_dir());
    let prepared = prepare_built(zoo, episode_count(), calib_count());
    eprintln!(
        "[nora-bench] {} ready in {:.1?} (digital acc {:.2}%)",
        spec.name,
        t0.elapsed(),
        100.0 * prepared.digital_acc
    );
    prepared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_dir_defaults_under_target() {
        if std::env::var_os("NORA_CACHE_DIR").is_none() {
            assert!(cache_dir().starts_with("target"));
        }
    }

    #[test]
    fn counts_are_positive() {
        assert!(episode_count() > 0);
        assert!(calib_count() > 0);
    }
}

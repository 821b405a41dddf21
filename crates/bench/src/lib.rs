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
//! The bins share their wiring through this crate. [`env_scalar`] and
//! [`env_list`] read the `NORA_*` knobs: unset or empty keeps the default,
//! and an item that does not parse stops the bin before any work.
//! [`write_results`] writes `results/<file>` and [`export_metrics`] appends
//! the metrics sidecar named by `NORA_METRICS_OUT`. A bin's `main` returns
//! their [`Error`], so a bad knob or a failed write exits non-zero with a
//! message naming the variable and item, or the path.
//!
//! Trained models are cached under `NORA_CACHE_DIR` (default
//! `target/nora-model-cache`), so only the first run of a binary pays the
//! training cost. Set `NORA_FAST=1` to shrink evaluation sizes for smoke
//! runs; `0` or empty keeps the full sizes, and any other value stops the
//! bin like a bad knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nora_eval::runner::{prepare_built, PreparedModel};
use nora_nn::zoo::ZooSpec;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Why a study bin stopped: a knob item that does not parse, or an output
/// file that could not be written. The message names the variable and the
/// item, or the path.
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

// A `main` that returns `Err` prints the `Debug` form, so it is the message.
impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Directory used for the trained-model cache.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("NORA_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/nora-model-cache"))
}

/// Whether fast (smoke-test) mode is on: `NORA_FAST=1` turns it on, and
/// unset, empty or `0` leaves it off. Any other value, such as `true`, is
/// an error naming the variable.
pub fn fast_mode() -> Result<bool, Error> {
    env_scalar("NORA_FAST", false, switch)
}

/// The `parse` argument of [`env_scalar`] for an on/off knob: `0` or `1`.
fn switch(item: &str) -> Option<bool> {
    matches!(item, "0" | "1").then(|| item == "1")
}

/// Number of held-out evaluation episodes (shrunk in fast mode).
pub fn episode_count() -> Result<usize, Error> {
    Ok(if fast_mode()? { 60 } else { 250 })
}

/// Number of calibration sequences (shrunk in fast mode).
pub fn calib_count() -> Result<usize, Error> {
    Ok(if fast_mode()? { 4 } else { 16 })
}

/// Builds (or loads from cache) and prepares one zoo model, logging
/// progress to stderr. A bad `NORA_FAST` stops it before any model is
/// built.
pub fn prepare_cached(spec: &ZooSpec) -> Result<PreparedModel, Error> {
    let (episodes, calib) = (episode_count()?, calib_count()?);
    eprintln!("[nora-bench] preparing {} …", spec.name);
    let t0 = std::time::Instant::now();
    let zoo = spec.build_cached(&cache_dir());
    let prepared = prepare_built(zoo, episodes, calib);
    eprintln!(
        "[nora-bench] {} ready in {:.1?} (digital acc {:.2}%)",
        spec.name,
        t0.elapsed(),
        100.0 * prepared.digital_acc
    );
    Ok(prepared)
}

/// Parses `raw`, the value of knob `var`, as comma-separated items, each
/// trimmed and passed to `parse`. An empty value gives `None`.
fn parse_knob<T>(
    var: &str,
    raw: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<Vec<T>>, Error> {
    if raw.trim().is_empty() {
        return Ok(None);
    }
    raw.split(',')
        .map(|item| {
            let item = item.trim();
            parse(item).ok_or_else(|| Error(format!("{var}: cannot parse {item:?}")))
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// The value of knob `var`; unset reads as empty.
fn knob(var: &str) -> Result<String, Error> {
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => Ok(String::new()),
        value => value.map_err(|_| Error(format!("{var}: value is not UTF-8"))),
    }
}

/// [`str::parse`] as an `Option`: the `parse` argument of [`env_list`] and
/// [`env_scalar`] for number knobs.
pub fn parsed<T: std::str::FromStr>(item: &str) -> Option<T> {
    item.parse().ok()
}

/// Reads the comma-separated list knob `var`, each item parsed with
/// `parse`. Unset or empty keeps `default`.
pub fn env_list<T: Clone>(
    var: &str,
    default: &[T],
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, Error> {
    Ok(parse_knob(var, &knob(var)?, parse)?.unwrap_or_else(|| default.to_vec()))
}

/// Reads the one-value knob `var` with `parse`. Unset or empty keeps
/// `default`; a list is an error.
pub fn env_scalar<T>(var: &str, default: T, parse: impl Fn(&str) -> Option<T>) -> Result<T, Error> {
    parse_scalar(var, &knob(var)?, default, parse)
}

/// Parses `raw`, the value of the one-value knob `var`, as [`env_scalar`]
/// does.
fn parse_scalar<T>(
    var: &str,
    raw: &str,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, Error> {
    match parse_knob(var, raw, parse)? {
        None => Ok(default),
        Some(mut items) if items.len() == 1 => Ok(items.remove(0)),
        Some(_) => Err(Error(format!("{var}: expected one value, got {raw:?}"))),
    }
}

/// Writes `contents` to `results/<file>` under the working directory,
/// creating `results/` if needed, and prints the path.
pub fn write_results(file: &str, contents: &str) -> Result<(), Error> {
    let path = Path::new("results").join(file);
    write_file(&path, contents)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn write_file(path: &Path, contents: &str) -> Result<(), Error> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents))
        .map_err(|e| Error(format!("failed to write {}: {e}", path.display())))
}

/// Appends `metrics` to the sidecar named by `NORA_METRICS_OUT`, after a
/// `{"type":"bench","name":<bin>,"threads":...}` marker line, so the
/// records of several bins or thread counts can share one file. `bin` is
/// the bin's own name. Does nothing when the variable is unset or empty.
pub fn export_metrics(bin: &str, metrics: &nora_obs::Metrics) -> Result<(), Error> {
    match std::env::var_os("NORA_METRICS_OUT").filter(|p| !p.is_empty()) {
        Some(path) => append_metrics(Path::new(&path), bin, metrics),
        None => Ok(()),
    }
}

fn append_metrics(path: &Path, bin: &str, metrics: &nora_obs::Metrics) -> Result<(), Error> {
    let append = || -> io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = io::BufWriter::new(file);
        writeln!(
            out,
            "{{\"type\":\"bench\",\"name\":\"{bin}\",\"threads\":{}}}",
            nora_parallel::max_threads()
        )?;
        let mut rec = nora_obs::JsonLinesRecorder::new(&mut out);
        metrics.emit(&mut rec);
        if let (_, Some(e)) = rec.into_inner() {
            return Err(e);
        }
        out.flush()
    };
    append().map_err(|e| {
        Error(format!(
            "failed to append metrics to {}: {e}",
            path.display()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nora_tensor::NmPattern;

    #[test]
    fn cache_dir_defaults_under_target() {
        if std::env::var_os("NORA_CACHE_DIR").is_none() {
            assert!(cache_dir().starts_with("target"));
        }
    }

    #[test]
    fn counts_are_positive() {
        assert!(episode_count().unwrap() > 0);
        assert!(calib_count().unwrap() > 0);
    }

    #[test]
    fn fast_switch_takes_only_0_and_1() {
        let read = |raw| parse_scalar("NORA_FAST", raw, false, switch);
        assert!(!read("").unwrap());
        assert!(!read("0").unwrap());
        assert!(read("1").unwrap());
        let err = read("true").unwrap_err().to_string();
        assert_eq!(err, r#"NORA_FAST: cannot parse "true""#);
        assert!(read("1,1").is_err());
    }

    #[test]
    fn knob_parses_every_item_of_a_list() {
        assert_eq!(
            parse_knob("V", "64, 32,8", parsed::<u32>).unwrap(),
            Some(vec![64, 32, 8])
        );
        assert_eq!(parse_knob("V", "7", parsed::<u32>).unwrap(), Some(vec![7]));
        let patterns = parse_knob("V", "2:4,dense", NmPattern::parse).unwrap();
        assert_eq!(patterns, Some(vec![NmPattern::N2M4, NmPattern::Dense]));
    }

    #[test]
    fn knob_rejects_one_bad_item_by_name() {
        let err = parse_knob("NORA_DS_TILES", "64,12x8", parsed::<u32>).unwrap_err();
        assert_eq!(err.to_string(), r#"NORA_DS_TILES: cannot parse "12x8""#);
        let err = parse_knob("NORA_DS_TILES", "64,,32", parsed::<u32>).unwrap_err();
        assert_eq!(err.to_string(), r#"NORA_DS_TILES: cannot parse """#);
        assert!(parse_knob("V", "bogus", parsed::<u32>).is_err());
    }

    #[test]
    fn empty_knob_keeps_the_default() {
        assert_eq!(parse_knob("V", "", parsed::<u32>).unwrap(), None);
        assert_eq!(parse_knob("V", "  ", parsed::<u32>).unwrap(), None);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nora_bench_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn failed_writes_name_the_path() {
        let dir = scratch_dir("write");
        let blocker = dir.join("results");
        std::fs::write(&blocker, "a regular file").unwrap();
        let csv = blocker.join("study.csv");
        let err = write_file(&csv, "a,b\n").unwrap_err().to_string();
        assert!(
            err.starts_with(&format!("failed to write {}: ", csv.display())),
            "{err}"
        );
        let err = append_metrics(&csv, "study", &nora_obs::Metrics::new())
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with(&format!("failed to append metrics to {}: ", csv.display())),
            "{err}"
        );
        write_file(&dir.join("fresh").join("study.csv"), "a,b\n").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_sidecar_appends_marker_and_records() {
        let dir = scratch_dir("metrics");
        let path = dir.join("metrics.jsonl");
        let mut m = nora_obs::Metrics::new();
        m.add("probe.counter", 3);
        m.observe("probe.rate", nora_obs::edges::RATE, 0.02);
        append_metrics(&path, "probe_bench", &m).unwrap();
        append_metrics(&path, "probe_bench", &m).unwrap();
        let text = std::fs::read_to_string(&path).expect("sidecar written");
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "{text}");
        let marker = format!(
            "{{\"type\":\"bench\",\"name\":\"probe_bench\",\"threads\":{}}}",
            nora_parallel::max_threads()
        );
        assert_eq!(lines[0], marker);
        assert_eq!(lines[3], marker);
        assert!(text.contains("\"name\":\"probe.counter\""));
        assert!(text.contains("\"value\":3"));
        assert!(text.contains("\"type\":\"histogram\""));
        assert!(text.contains("\"name\":\"probe.rate\""));
    }
}

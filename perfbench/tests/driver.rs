//! The benchmark's own tests. They run the built driver on every workload
//! and check that
//!
//! * two runs with the same seed, and runs at one and two threads, print
//!   the same deterministic outputs (token or verdict digest, accuracies,
//!   generated tokens, decode steps, rounds, tile samples and the
//!   admission round of every request);
//! * another seed changes the inputs, and so those outputs;
//! * the printed metric names are the ones `BENCHMARK.json` lists.

use std::process::Command;
use std::sync::Mutex;

/// Driver runs take turns: the traced run checks timings, which
/// concurrent runs on the same cores would distort.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Run {
    deterministic: String,
    json: String,
}

fn run(workload: &str, seed: u64, trace: u8, threads: usize) -> Run {
    // The traced run compares traced and untraced work side by side and
    // needs a few pairs of passes to do it.
    let seconds = if trace == 1 { "4" } else { "1" };
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
        ])
        .args([
            "--trace",
            &trace.to_string(),
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .expect("the driver runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let line = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("{workload}: no line starting with {prefix:?}"))
            .to_string()
    };
    let json = stdout.lines().last().expect("a result line").to_string();
    let failed_checks: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("check FAIL"))
        .collect();
    assert!(
        json.starts_with("{\"correct\": true,"),
        "{workload}: {failed_checks:?} {json}"
    );
    assert!(json.contains("\"failed\": 0,"), "{workload}: {json}");
    Run {
        deterministic: line("deterministic "),
        json,
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("array end")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Metric names in a result line, in print order.
fn printed(json: &str) -> Vec<String> {
    json.split("\": {\"value\"")
        .filter_map(|s| s.rfind('"').map(|i| s[i + 1..].to_string()))
        .filter(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
        })
        .collect()
}

fn check_workload(workload: &str) {
    let a = run(workload, 5, 0, 2);
    let b = run(workload, 5, 0, 2);
    let serial = run(workload, 5, 0, 1);
    let other = run(workload, 6, 0, 2);
    let traced = run(workload, 5, 1, 2);
    assert_eq!(a.deterministic, b.deterministic, "{workload}: same seed");
    assert_eq!(
        a.deterministic, serial.deterministic,
        "{workload}: one vs two threads"
    );
    assert_eq!(
        a.deterministic, traced.deterministic,
        "{workload}: traced vs untraced"
    );
    assert_ne!(
        a.deterministic, other.deterministic,
        "{workload}: another seed"
    );
    assert_eq!(
        printed(&a.json),
        listed("end_to_end"),
        "{workload}: end-to-end names"
    );
    assert_eq!(
        printed(&traced.json),
        listed("per_layer"),
        "{workload}: per-layer names"
    );
}

#[test]
fn workloads_are_listed() {
    assert_eq!(
        listed("workloads"),
        ["eval-sweep", "serve-analog", "serve-long"]
    );
}

#[test]
fn eval_sweep_is_deterministic_and_seeded() {
    check_workload("eval-sweep");
}

#[test]
fn serve_analog_is_deterministic_and_seeded() {
    check_workload("serve-analog");
}

#[test]
fn serve_long_is_deterministic_and_seeded() {
    check_workload("serve-long");
}

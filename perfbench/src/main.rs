//! Benchmark driver entry point.
//!
//! ```text
//! perfbench --workload <eval-sweep|serve-analog|serve-long> --seed <n>
//!           --seconds <n> --trace <0|1> [--threads <n>]
//! ```
//!
//! Exits 1 without a result when the model input fails its checks, and 2
//! on a usage error.

use nora_perfbench::report::Report;
use nora_perfbench::trace::Trace;
use nora_perfbench::{model, stats, Workload};

/// Worker threads unless `--threads` says otherwise: the benchmark host's
/// core count, pinned so results do not follow the host's `nproc`.
const DEFAULT_THREADS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <eval-sweep|serve-analog|serve-long> \
--seed <n> --seconds <n> --trace <0|1> [--threads <n>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut threads = DEFAULT_THREADS;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--threads" => {
                threads = usize::try_from(number()?)
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--threads {value} is not a positive count"))?
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        threads,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    model::verify_checkpoint()?;
    let mut report = Report::default();
    report.notes.push(format!(
        "perfbench workload={} seed={} seconds={} trace={} NORA_THREADS={} (host cores {}) model={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nora_parallel::max_threads(),
        nora_parallel::available(),
        model::PRESET
    ));
    let mut trace = args.trace.then(Trace::default);
    let steal_before = stats::host_steal_ticks();
    args.workload
        .run(args.seed, args.seconds as f64, trace.as_mut(), &mut report)?;
    // Time the hypervisor took from this machine's vCPUs slows every timing
    // above without any change in the program; state it with the results.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, stats::host_steal_ticks()) {
        report.notes.push(format!(
            "host CPU time stolen by the hypervisor during the run: {:.1}%",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    if let Some(trace) = &trace {
        report.notes.extend(trace.summary());
        // Next to the binary, in the build's target directory.
        let path = std::env::current_exe()
            .map_err(|e| format!("locating the driver binary: {e}"))?
            .with_file_name(format!(
                "trace-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Serving must use counter-keyed noise, the backend's default; the
    // solo-replay oracle depends on it.
    if std::env::var_os("NORA_ANALOG_KEYING").is_some() {
        eprintln!("perfbench: NORA_ANALOG_KEYING must be unset");
        std::process::exit(2);
    }
    match nora_parallel::with_threads(args.threads, || run(&args)) {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

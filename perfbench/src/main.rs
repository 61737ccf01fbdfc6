//! `perfbench`: one benchmark for the whole Steno pipeline.
//!
//! ```text
//! perfbench --workload <scan_hot|compile_cold|serve_mixed|kmeans_cluster|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, sets up several times
//! (reporting the median as `setup_s`), measures for `--seconds`, and
//! checks every operation's result against an independent reference
//! (the hand loop, `steno_linq::interp::execute`, or the LINQ vertex
//! engine). A mismatch prints the offending operation and exits with
//! code 1 before any result line is printed.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` a separate traced run records
//! spans around each call into a crate's public functions and reports
//! the per-layer metrics instead. Lines before the JSON are the
//! human-readable report: every metric by name and unit, plus per-shape
//! detail rows and workload-specific metrics.
//!
//! The benchmark writes nothing but its stdout and, in traced runs, a
//! span dump under `.bench_out/` in the working directory.

mod check;
mod compile_cold;
mod kmeans;
mod layers;
mod report;
mod scan_hot;
mod serve_mixed;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Parsed command line.
pub struct Args {
    /// Workload name (or `all`).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement length per workload.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["scan_hot", "compile_cold", "serve_mixed", "kmeans_cluster"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?} or all)"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn run_one(name: &str, args: &Args) -> Result<Report, String> {
    match name {
        "scan_hot" => scan_hot::run(args),
        "compile_cold" => compile_cold::run(args),
        "serve_mixed" => serve_mixed::run(args),
        "kmeans_cluster" => kmeans::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    // Each workload prints its report followed by its JSON line, so the
    // last stdout line is always a complete result.
    for name in names {
        let result = run_one(name, &args).and_then(|r| r.to_json(args.trace).map(|j| (r, j)));
        match result {
            Ok((report, json)) => {
                report.print_text(name, args.trace);
                println!("{json}");
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

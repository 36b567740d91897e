//! The sprint stack's benchmark driver.
//!
//! One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path sprintbench/Cargo.toml -- \
//!     --workload <phone_bursts|facility_diurnal|sparse_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates every input. Each workload repeats its seeded
//! input sets until `--seconds` of host time have passed, checks every
//! output, and requires each repeat to reproduce the first pass's report
//! digest. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Every line before it is human-readable: digests, sample counts,
//! provenance and the checks that ran.
//!
//! Host times are measured around public API calls; simulated (`sim_`)
//! figures come from an unvalidated model, and a change that only speeds
//! up the simulator must leave them, and every digest, unchanged.

mod facility;
mod fleet;
mod mem;
mod phone;
mod repeat;
mod report;
mod shim;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to keep repeating the input set for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: report::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The workloads, with the worker threads each uses.
const WORKLOADS: &[(&str, usize)] = &[
    ("phone_bursts", 1),
    ("facility_diurnal", facility::WORKERS),
    ("sparse_fleet", 1),
];

/// Where a traced run writes its spans.
fn span_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.csv", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sprintbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, workers)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "sprintbench: unknown workload {}; choose one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let (outcome, spans) = match args.workload.as_str() {
        "phone_bursts" => phone::run(&args),
        "facility_diurnal" => facility::run(&args),
        _ => fleet::run(&args),
    };
    let mut correct = outcome.failed == 0 && outcome.checks.iter().all(|(_, ok)| *ok);
    for line in &outcome.notes {
        println!("{line}");
    }
    for (name, ok) in &outcome.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    if let Some(spans) = spans {
        let path = span_path(&args);
        match spans.write_csv(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.span_count(),
                path.display()
            ),
            Err(e) => {
                println!("spans: could not write {}: {e}", path.display());
                correct = false;
            }
        }
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ({} of {} attempted tasks)",
        outcome.failed, outcome.attempted
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let (rows, missing) = report::select(table, &outcome.metrics, args.trace);
    if !args.trace && !missing.is_empty() {
        println!("missing end-to-end metrics: {}", missing.join(", "));
        correct = false;
    }
    if args.trace && !missing.is_empty() {
        println!(
            "not exercised by this workload (reported as 0): {}",
            missing.join(", ")
        );
    }
    for (name, value, unit) in &rows {
        if !value.is_finite() {
            println!("metric {name} is not finite");
            correct = false;
        }
        println!("{name} = {value} {unit}");
    }
    println!(
        "provenance {}",
        report::provenance(&args.workload, args.seed, workers, args.trace)
    );
    println!(
        "{}",
        report::result_json(correct, outcome.attempted.max(1), outcome.failed, &rows)
    );
    ExitCode::SUCCESS
}

/// Convenience for workloads: an `Outcome` plus optional spans.
pub type RunOutput = (Outcome, Option<span::SpanRecorder>);

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload sparse_fleet --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "sparse_fleet");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload").is_err());
    }
}

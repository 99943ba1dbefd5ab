//! `lumbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload closed loop for the given time and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics when
//! `--trace 0`, the per-layer split when `--trace 1`. The line before it
//! carries the workload's output digest. Findings go to standard error.

use lumbench::alloc::CountingAlloc;
use lumbench::workloads::{self, Args};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: lumbench --workload <fig11|fanout|campaign|ingest> --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lumbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lumbench: {} failed before measuring: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("lumbench: {}: {note}", args.workload);
    }
    if let Some(e) = &report.first_failure {
        eprintln!(
            "lumbench: {}: {} of {} operations failed; first: {e}",
            args.workload, report.failed, report.attempted
        );
    }
    for (name, unit, value) in &report.sheet.metrics {
        eprintln!("lumbench: {}: {name} = {value} {unit}", args.workload);
    }
    let metrics: Vec<String> = report
        .sheet
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!("digest {} {}", args.workload, report.digest);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

//! End-to-end and per-layer benchmark of the filterjoin engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig1-hot|plan-cold|serve-rw|dist-3shard> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one caller. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` records spans around the calls
//! the benchmark makes into each layer and prints the per-layer
//! metrics instead. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and the metric definitions.

mod data;
mod dist_3shard;
mod fig1_hot;
mod layers;
mod plan_cold;
mod report;
mod serve_rw;
mod spans;

use std::process::ExitCode;
use std::time::Duration;

/// The parsed command line.
pub struct Args {
    /// Workload name, as listed in `BENCHMARK.json`.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured loop.
    pub run_for: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["fig1-hot", "plan-cold", "serve-rw", "dist-3shard"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        run_for: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fig1-hot" => fig1_hot::run(&args),
        "plan-cold" => plan_cold::run(&args),
        "serve-rw" => serve_rw::run(&args),
        "dist-3shard" => dist_3shard::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    match outcome.and_then(|out| out.to_json(args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

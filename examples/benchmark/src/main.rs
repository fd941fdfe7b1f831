//! The serving benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <results.jsonl>]
//! ```
//!
//! builds the system, checks every output bit against an oracle, prints every metric by
//! name with its unit, and ends with one JSON result line. `--trace 0` measures the
//! end-to-end metrics with tracing and metrics off; `--trace 1` is the separate traced
//! run that gives the per-layer metrics and writes the bench-side trace. `--smoke` is
//! the self-check, `--compare <a> <b>` the repeatability check. See `README.md`.

mod compare;
mod drive;
mod endtoend;
mod json;
mod layers;
mod metrics;
mod smoke;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

use crate::metrics::RunOutput;
use crate::workloads::Workload;

#[global_allocator]
static ALLOCATOR: spans::CountingAllocator = spans::CountingAllocator;

/// `--seed` when none is given (README.md names the held-out seed claims must also hold on).
const DEFAULT_SEED: u64 = 11;
/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The value after `flag`, if the flag is present.
fn value_of<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|arg| arg == flag) {
        None => Ok(None),
        Some(at) => args
            .get(at + 1)
            .map(|value| Some(value.as_str()))
            .ok_or(format!("{flag} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(args, flag)? {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{flag}: cannot read {text:?}")),
    }
}

/// Run one workload in one mode.
pub fn run_workload(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunOutput, String> {
    if traced {
        layers::run(workload, seed, seconds)
    } else {
        endtoend::run(workload, seed, seconds)
    }
}

fn measure(args: &[String]) -> Result<bool, String> {
    let name = value_of(args, "--workload")?.ok_or(format!(
        "--workload <name> is required; one of: {}",
        workloads::WORKLOADS
            .map(|workload| workload.name)
            .join(", ")
    ))?;
    let workload = workloads::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && (1.0..=60.0).contains(&seconds)) {
        return Err(format!("--seconds must be within 1..=60, got {seconds}"));
    }
    let traced = match parsed(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let out = value_of(args, "--out")?;

    let output = run_workload(workload, seed, seconds, traced)?;
    let result = output.result_json()?;
    println!(
        "workload {name} seed {seed} seconds {seconds} trace {} ({} threads available)",
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for note in &output.notes {
        println!("  {note}");
    }
    for (metric, value, unit) in output.metrics.finished()? {
        println!("{metric:<36} {value:>16.4} {unit}");
    }
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|error| format!("{path}: {error}"))?;
        writeln!(
            file,
            "{{\"workload\": \"{name}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"trace\": {}, \"result\": {result}}}",
            u8::from(traced)
        )
        .map_err(|error| format!("{path}: {error}"))?;
    }
    println!("{result}");
    Ok(output.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Child mode of the socket workload: serve one shard until told to shut down.
    if let Some(at) = args.iter().position(|arg| arg == "--shard-node") {
        return match args.get(at + 1) {
            Some(socket) => match imars::serve::run_shard_node(std::path::Path::new(socket)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(error) => {
                    eprintln!("benchmark: shard node on {socket}: {error}");
                    ExitCode::FAILURE
                }
            },
            None => {
                eprintln!("benchmark: --shard-node needs a socket path");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.iter().any(|arg| arg == "--smoke") {
        smoke::run()
    } else if let Some(at) = args.iter().position(|arg| arg == "--compare") {
        match (args.get(at + 1), args.get(at + 2)) {
            (Some(a), Some(b)) => compare::run(a, b),
            _ => Err("--compare needs two result files".to_string()),
        }
    } else {
        measure(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}

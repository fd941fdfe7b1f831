//! `--smoke`: the benchmark checking itself, in a few seconds. The numbers it produces
//! on the way are from runs far too short to mean anything and are not printed.

use std::path::Path;
use std::time::Instant;

use crate::compare::declared;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{ShardNodes, WORKLOADS};
use crate::{json, run_workload, stats, DEFAULT_SEED};

/// `--seconds` of each smoke run: the shortest the command accepts.
const SMOKE_SECONDS: f64 = 1.0;

fn same_metrics(
    what: &str,
    table: &[(&str, &str)],
    declared: &[(String, String)],
) -> Result<(), String> {
    let mut ours: Vec<(&str, &str)> = table.to_vec();
    let mut theirs: Vec<(&str, &str)> = declared
        .iter()
        .map(|(name, unit)| (name.as_str(), unit.as_str()))
        .collect();
    ours.sort_unstable();
    theirs.sort_unstable();
    if ours == theirs {
        return Ok(());
    }
    let only = |left: &[(&str, &str)], right: &[(&str, &str)]| -> Vec<String> {
        left.iter()
            .filter(|entry| !right.contains(entry))
            .map(|(name, unit)| format!("{name} [{unit}]"))
            .collect()
    };
    Err(format!(
        "{what}: the benchmark prints {:?} that BENCHMARK.json does not declare, and \
         BENCHMARK.json declares {:?} that the benchmark does not print",
        only(&ours, &theirs),
        only(&theirs, &ours)
    ))
}

pub fn run() -> Result<bool, String> {
    let started = Instant::now();
    stats::self_check()?;
    json::self_check()?;
    println!("smoke: percentile, window-median, quartile and JSON-escape helpers ok");

    // An error between spawning the shard nodes and connecting to them drops the
    // handle: no child may outlive it.
    let nodes = ShardNodes::spawn(2)?;
    let pids = nodes.pids();
    drop(nodes);
    for pid in &pids {
        if Path::new(&format!("/proc/{pid}")).exists() {
            return Err(format!("shard node {pid} outlived its handle"));
        }
    }
    println!(
        "smoke: {} shard nodes spawned, dropped and reaped",
        pids.len()
    );

    let (end_to_end, per_layer) = declared()?;
    let end_to_end: Vec<(String, String)> = end_to_end
        .into_iter()
        .map(|metric| (metric.name, metric.unit))
        .collect();
    same_metrics("end_to_end", END_TO_END, &end_to_end)?;
    same_metrics("per_layer", PER_LAYER, &per_layer)?;

    for workload in &WORKLOADS {
        for traced in [false, true] {
            let output = run_workload(workload, DEFAULT_SEED, SMOKE_SECONDS, traced)?;
            // `finished` fails on a metric never recorded or not finite; `Metrics::set`
            // already refused undeclared names and second recordings.
            let printed = output.metrics.finished()?.len();
            if output.failed != 0 {
                return Err(format!(
                    "{} trace {}: {} of {} requests failed",
                    workload.name,
                    u8::from(traced),
                    output.failed,
                    output.attempted
                ));
            }
            println!(
                "smoke: {:<10} trace {}: {printed} metrics, each once and finite; {} requests, 0 failed",
                workload.name,
                u8::from(traced),
                output.attempted
            );
        }
    }
    println!(
        "smoke: ok in {:.1} s (runs this short are not reportable)",
        started.elapsed().as_secs_f64()
    );
    Ok(true)
}

//! `--compare <a> <b>`: two result files (the lines `--out` appends) side by side, judged
//! the way the benchmark's acceptance is: per workload and end-to-end metric the median
//! of each file's runs, the ratio with its base, whether `b` is worse than `a` by more
//! than the bound `BENCHMARK.json` fixes, and whether either file's own quartile spread
//! exceeds that bound. Metrics that are counts of the simulated replay must be
//! bit-equal between runs of the same workload, seed and mode.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, spread};

/// Metrics that are pure functions of the seed: modeled figures and counts from the
/// simulated replay, the layer widths, and the single-threaded layer replay.
const EXACT: &[&str] = &[
    "modeled_energy_pj_per_query",
    "modeled_qps",
    "cache.hit_rate",
    "cache.coalesced_share",
    "cache.evictions_per_query",
    "cluster.subrequests_per_batch",
    "cluster.mean_fanout",
    "cluster.cross_shard_bytes_per_query",
    "nns.candidates_per_query",
    "mlp.flops_per_query",
    "engine.allocs_per_query_b64",
    "engine.alloc_bytes_per_query_b64",
    "engine.catalogue_resident_mb",
    "model.cma_read_pj",
    "model.cma_add_pj",
    "model.search_pj",
    "model.rsc_pj",
];

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// `(name, unit)` of a per-layer metric as `BENCHMARK.json` declares it.
pub type DeclaredLayer = (String, String);

/// The end-to-end and per-layer metrics of `BENCHMARK.json` in the working directory.
pub fn declared() -> Result<(Vec<Declared>, Vec<DeclaredLayer>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|error| format!("BENCHMARK.json (run from the repository root): {error}"))?;
    let document = Json::parse(&text)?;
    let field = |entry: &Json, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: a metric has no {key}"))
    };
    let list = |key: &str| {
        document
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no {key} list"))
    };
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|entry| {
            Ok(Declared {
                name: field(entry, "name")?,
                unit: field(entry, "unit")?,
                higher_is_better: field(entry, "better")? == "higher",
                bound: entry
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: an end-to-end metric has no bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|entry| Ok((field(entry, "name")?, field(entry, "unit")?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok((end_to_end, per_layer))
}

/// `(workload, seed, trace mode)` of one run.
type RunKey = (String, u64, u64);
/// One run of a result file: its key and its metric values by name.
type Run = (RunKey, BTreeMap<String, f64>);

/// Every run of a result file.
fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|error| format!("{path}: {error}"))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(number, line)| {
            let at = |what: &str| format!("{path}:{}: {what}", number + 1);
            let record = Json::parse(line).map_err(|error| at(&error))?;
            let workload = record
                .get("workload")
                .and_then(Json::as_str)
                .ok_or(at("no workload"))?;
            let number_of = |key: &str| {
                record
                    .get(key)
                    .and_then(Json::as_f64)
                    .map(|value| value as u64)
                    .ok_or(at(&format!("no {key}")))
            };
            let result = record.get("result").ok_or(at("no result"))?;
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(at("the run was not correct"));
            }
            let Some(Json::Obj(fields)) = result.get("metrics") else {
                return Err(at("no metrics"));
            };
            let metrics = fields
                .iter()
                .filter_map(|(name, entry)| {
                    Some((name.clone(), entry.get("value").and_then(Json::as_f64)?))
                })
                .collect();
            Ok((
                (
                    workload.to_string(),
                    number_of("seed")?,
                    number_of("trace")?,
                ),
                metrics,
            ))
        })
        .collect()
}

/// Values of `metric` over a file's runs of `workload`.
fn values_of(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|((name, _, _), _)| name == workload)
        .filter_map(|(_, metrics)| metrics.get(metric).copied())
        .collect()
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (end_to_end, _) = declared()?;
    let a = load(path_a)?;
    let b = load(path_b)?;
    let mut workloads: Vec<&str> = a.iter().map(|((name, _, _), _)| name.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut all_within = true;

    println!("a = {path_a}\nb = {path_b}\nratio = b / a (base a); spread = (Q3 - Q1) / median");
    println!(
        "{:<11} {:<28} {:>14} {:>7} {:>14} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "spread", "median b", "spread", "ratio", "bound"
    );
    for workload in &workloads {
        for metric in &end_to_end {
            let values_a = values_of(&a, workload, &metric.name);
            let values_b = values_of(&b, workload, &metric.name);
            if values_a.is_empty() || values_b.is_empty() {
                println!("{workload:<11} {:<28} missing from one file", metric.name);
                all_within = false;
                continue;
            }
            let (median_a, median_b) = (median(&values_a), median(&values_b));
            let (spread_a, spread_b) = (spread(&values_a), spread(&values_b));
            let worse_by = if metric.higher_is_better {
                (median_a - median_b) / median_a
            } else {
                (median_b - median_a) / median_a
            };
            // Set-up time is judged on its medians only: it is a handful of samples.
            let steady =
                metric.name == "setup_s" || (spread_a <= metric.bound && spread_b <= metric.bound);
            let verdict = if worse_by > metric.bound {
                "OUTSIDE: b is worse than the bound allows"
            } else if !steady {
                "OUTSIDE: spread wider than the bound (unresolved)"
            } else {
                "within"
            };
            all_within &= verdict == "within";
            println!(
                "{workload:<11} {:<28} {median_a:>14.4} {spread_a:>7.3} {median_b:>14.4} \
                 {spread_b:>7.3} {:>7.3} {:>6.2}  {verdict} (n = {} / {}, {})",
                metric.name,
                median_b / median_a,
                metric.bound,
                values_a.len(),
                values_b.len(),
                metric.unit
            );
        }
    }

    // Exact metrics: bit-equal between runs of the same workload, seed and mode.
    let runs_b: BTreeMap<&RunKey, &BTreeMap<String, f64>> =
        b.iter().map(|(key, metrics)| (key, metrics)).collect();
    let (mut compared, mut unequal) = (0u64, 0u64);
    for (key, metrics_a) in &a {
        let Some(metrics_b) = runs_b.get(key) else {
            continue;
        };
        for name in EXACT {
            if let (Some(value_a), Some(value_b)) = (metrics_a.get(*name), metrics_b.get(*name)) {
                compared += 1;
                if value_a.to_bits() != value_b.to_bits() {
                    unequal += 1;
                    println!(
                        "exact {name} differs on {} seed {} trace {}: {value_a} vs {value_b}",
                        key.0, key.1, key.2
                    );
                }
            }
        }
    }
    println!("exact metrics: {compared} compared between runs of the same seed, {unequal} unequal");
    all_within &= unequal == 0;
    println!(
        "{}",
        if all_within {
            "AGREE: every metric within its bound, every exact metric bit-equal"
        } else {
            "DISAGREE"
        }
    );
    Ok(all_within)
}

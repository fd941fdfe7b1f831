//! Self-contained benchmark harness for the iMARS reproduction.
//!
//! The build environment has no crates.io access, so instead of criterion this crate
//! ships a small criterion-style harness: warmup, automatic iteration calibration,
//! multiple timed samples, median/mean statistics, and a machine-readable JSON summary
//! per suite so successive runs form a performance trajectory.
//!
//! Benches are `harness = false` binaries:
//!
//! ```no_run
//! use imars_bench::{black_box, Harness};
//!
//! let mut harness = Harness::from_args("my_suite");
//! let mut acc = 0u64;
//! harness.bench("sum", || {
//!     acc = acc.wrapping_add(black_box(1));
//! });
//! harness.finish();
//! ```
//!
//! Running `cargo bench --bench <suite>` executes the full measurement; appending
//! `-- --test` (as CI does) switches to a one-iteration smoke run that only checks the
//! benches still execute. The JSON summary is written to
//! `target/imars-bench/<suite>.json`, or to the path in the `IMARS_BENCH_OUT`
//! environment variable when set.

use std::fmt::Write as _;
use std::time::Instant;

use imars_serve::telemetry::escape;

pub mod gate;

pub use std::hint::black_box;

/// Target wall-clock time per timed sample.
const TARGET_SAMPLE_NS: f64 = 20_000_000.0;
/// Timed samples per benchmark (the median is the headline number).
const SAMPLES: usize = 11;

/// One benchmark's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name within the suite.
    pub name: String,
    /// Iterations executed per timed sample.
    pub iters_per_sample: u64,
    /// Nanoseconds per iteration, one entry per sample.
    pub sample_ns: Vec<f64>,
}

impl BenchResult {
    /// Median nanoseconds per iteration (the robust headline statistic).
    pub fn median_ns(&self) -> f64 {
        let mut sorted = self.sample_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        }
    }

    /// Mean nanoseconds per iteration.
    pub fn mean_ns(&self) -> f64 {
        self.sample_ns.iter().sum::<f64>() / self.sample_ns.len() as f64
    }

    /// Fastest sample, nanoseconds per iteration.
    pub fn min_ns(&self) -> f64 {
        self.sample_ns.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// An auxiliary derived metric recorded alongside the timings (e.g. a speedup ratio).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Metric value.
    pub value: f64,
    /// Unit label ("x", "ns", "GB/s", ...).
    pub unit: String,
}

/// A benchmark suite: runs benches, prints a table, writes the JSON summary.
#[derive(Debug)]
pub struct Harness {
    suite: String,
    smoke: bool,
    results: Vec<BenchResult>,
    metrics: Vec<Metric>,
}

impl Harness {
    /// Build a harness for `suite`, reading the process arguments: `--test` (what
    /// `cargo bench -- --test` forwards) selects the one-iteration smoke mode; the
    /// `--bench` flag cargo passes to `harness = false` binaries is accepted and
    /// ignored, as are any further unknown arguments.
    pub fn from_args(suite: &str) -> Self {
        let smoke = std::env::args().skip(1).any(|arg| arg == "--test");
        Self::new(suite, smoke)
    }

    /// Build a harness explicitly (used by tests).
    pub fn new(suite: &str, smoke: bool) -> Self {
        Self {
            suite: suite.to_string(),
            smoke,
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Whether this run is a smoke run (one iteration, no statistics).
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// The benches recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The metrics recorded so far, in execution order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Time `f`, record the result, and return the median nanoseconds per iteration.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> f64 {
        let (iters, sample_count) = if self.smoke {
            (1u64, 1usize)
        } else {
            // Warmup + calibration: run until we can estimate the per-iteration cost.
            let mut calibration_iters = 1u64;
            let per_iter_ns = loop {
                let start = Instant::now();
                for _ in 0..calibration_iters {
                    f();
                }
                let elapsed = start.elapsed().as_nanos() as f64;
                if elapsed > 5_000_000.0 || calibration_iters >= 1 << 24 {
                    break elapsed / calibration_iters as f64;
                }
                calibration_iters *= 4;
            };
            let iters = (TARGET_SAMPLE_NS / per_iter_ns.max(0.1)).clamp(1.0, 1e9) as u64;
            (iters.max(1), SAMPLES)
        };

        let mut sample_ns = Vec::with_capacity(sample_count);
        for _ in 0..sample_count {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            sample_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            sample_ns,
        };
        let median = result.median_ns();
        println!(
            "{:<44} median {:>12.1} ns/iter   (mean {:>12.1}, min {:>12.1}, {} iters x {} samples)",
            format!("{}/{}", self.suite, name),
            median,
            result.mean_ns(),
            result.min_ns(),
            result.iters_per_sample,
            result.sample_ns.len(),
        );
        self.results.push(result);
        median
    }

    /// Record an auxiliary metric (e.g. a speedup derived from two benches).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        println!(
            "{:<44} {:>12.2} {}",
            format!("{}/{}", self.suite, name),
            value,
            unit
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// The JSON summary of every recorded bench and metric.
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\n  \"suite\": \"{}\",\n  \"smoke\": {},\n  \"results\": [",
            escape(&self.suite),
            self.smoke
        );
        for (i, result) in self.results.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n    {{\"name\": \"{}\", \"median_ns_per_iter\": {:.3}, \"mean_ns_per_iter\": {:.3}, \"min_ns_per_iter\": {:.3}, \"iters_per_sample\": {}, \"samples\": {}}}",
                if i == 0 { "" } else { "," },
                escape(&result.name),
                result.median_ns(),
                result.mean_ns(),
                result.min_ns(),
                result.iters_per_sample,
                result.sample_ns.len(),
            );
        }
        let _ = write!(json, "\n  ],\n  \"metrics\": [");
        for (i, metric) in self.metrics.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n    {{\"name\": \"{}\", \"value\": {:.6}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                escape(&metric.name),
                metric.value,
                escape(&metric.unit),
            );
        }
        json.push_str("\n  ]\n}\n");
        json
    }

    /// Print the summary and write the JSON file. Returns the path written to.
    pub fn finish(self) -> std::path::PathBuf {
        let path = match std::env::var_os("IMARS_BENCH_OUT") {
            Some(path) => std::path::PathBuf::from(path),
            None => {
                let dir = std::path::Path::new("target").join("imars-bench");
                let _ = std::fs::create_dir_all(&dir);
                dir.join(format!("{}.json", self.suite))
            }
        };
        if let Err(error) = std::fs::write(&path, self.to_json()) {
            eprintln!(
                "warning: could not write bench summary to {}: {error}",
                path.display()
            );
        } else {
            println!("bench summary written to {}", path.display());
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean_are_computed() {
        let result = BenchResult {
            name: "x".into(),
            iters_per_sample: 1,
            sample_ns: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(result.median_ns(), 2.0);
        assert_eq!(result.mean_ns(), 2.0);
        assert_eq!(result.min_ns(), 1.0);
        let even = BenchResult {
            name: "y".into(),
            iters_per_sample: 1,
            sample_ns: vec![1.0, 2.0, 3.0, 10.0],
        };
        assert_eq!(even.median_ns(), 2.5);
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut harness = Harness::new("test_suite", true);
        let mut calls = 0u64;
        harness.bench("noop", || calls += 1);
        assert_eq!(calls, 1);
        assert!(harness.is_smoke());
        assert_eq!(harness.results.len(), 1);
    }

    #[test]
    fn json_summary_contains_results_and_metrics() {
        let mut harness = Harness::new("suite_a", true);
        harness.bench("bench_one", || {});
        harness.metric("speedup", 3.5, "x");
        let json = harness.to_json();
        assert!(json.contains("\"suite\": \"suite_a\""));
        assert!(json.contains("\"name\": \"bench_one\""));
        assert!(json.contains("\"median_ns_per_iter\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"unit\": \"x\""));
        // No trailing commas and balanced brackets (cheap well-formedness checks).
        assert!(!json.contains(",\n  ]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// A name with control characters must come out as escapes (raw ones inside a
    /// string literal are not JSON) and read back unchanged through the gate's parser.
    #[test]
    fn json_summary_round_trips_control_characters_through_the_gate_parser() {
        use gate::Json;
        let suite = "suite\nwith\tcontrols\u{1}";
        let mut harness = Harness::new(suite, true);
        harness.bench("bench\none", || {});
        harness.metric("metric\tname", 1.0, "unit\u{1}");
        let json = harness.to_json();
        assert!(json.contains(r"suite\nwith\tcontrols\u0001"));
        assert!(!json.contains(suite));
        let root = Json::parse(&json).expect("the summary is valid JSON");
        assert_eq!(root.get("suite").and_then(Json::as_str), Some(suite));
        let first_of = |section: &str| &root.get(section).and_then(Json::as_arr).unwrap()[0];
        let result = first_of("results");
        assert_eq!(
            result.get("name").and_then(Json::as_str),
            Some("bench\none")
        );
        let metric = first_of("metrics");
        assert_eq!(
            metric.get("name").and_then(Json::as_str),
            Some("metric\tname")
        );
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("unit\u{1}"));
    }
}

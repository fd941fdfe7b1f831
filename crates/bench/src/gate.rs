//! The bench regression gate: compare current bench JSON against committed baselines.
//!
//! The harness writes one JSON summary per suite (`target/imars-bench/<suite>.json`);
//! baselines measured on the reference container are checked in under
//! `crates/bench/baselines/`. The gate loads both sides, matches benches by
//! `suite/name`, and fails when a median regresses past the tolerance (default ±30 %)
//! or a baseline bench disappeared. Smoke-mode current files (one iteration, no
//! statistics — what `cargo bench -- --test` writes) are compared for *coverage* only:
//! a single-iteration timing is noise, so its rows report `skip (smoke)` instead of a
//! ratio.
//!
//! Both sides are read with the workspace's one JSON parser, [`imars_serve::json::Json`],
//! re-exported here as [`Json`] for the serving benchmark, which reads
//! `BENCHMARK.json` and its result files through this path.

use std::fmt::Write as _;

pub use imars_serve::json::Json;

/// One suite's bench medians, as loaded from a harness JSON summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResults {
    /// Suite name (`"recsys_kernels"`, ...).
    pub suite: String,
    /// Whether the file came from a one-iteration smoke run (timings are noise).
    pub smoke: bool,
    /// `(bench name, median ns/iter)` in file order.
    pub benches: Vec<(String, f64)>,
}

/// Parse a harness summary. Returns `Ok(None)` for JSON files with a different schema
/// (e.g. the serve-telemetry reports that share the output directory) so callers can
/// skip them.
///
/// # Errors
///
/// Returns a description of the problem for unparseable JSON or a harness file with
/// malformed results.
pub fn parse_suite(text: &str) -> Result<Option<SuiteResults>, String> {
    let root = Json::parse(text)?;
    let Some(results) = root.get("results").and_then(Json::as_arr) else {
        return Ok(None); // different schema: not a harness summary
    };
    let suite = root
        .get("suite")
        .and_then(Json::as_str)
        .ok_or("harness summary missing \"suite\"")?
        .to_string();
    let smoke = root.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let mut benches = Vec::with_capacity(results.len());
    for result in results {
        let name = result
            .get("name")
            .and_then(Json::as_str)
            .ok_or("bench result missing \"name\"")?
            .to_string();
        let median = result
            .get("median_ns_per_iter")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("bench {name:?} missing \"median_ns_per_iter\""))?;
        benches.push((name, median));
    }
    Ok(Some(SuiteResults {
        suite,
        smoke,
        benches,
    }))
}

/// Per-bench verdict of the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within tolerance.
    Ok,
    /// Faster than the baseline beyond the tolerance (worth refreshing the baseline).
    Improved,
    /// Slower than the baseline beyond the tolerance — the gate fails.
    Regressed,
    /// Present in the baseline but absent from the current run — the gate fails.
    Missing,
    /// The whole current suite is missing — the gate fails.
    SuiteMissing,
    /// Current run is smoke mode: coverage checked, timing comparison skipped.
    SkippedSmoke,
}

impl GateStatus {
    /// Whether this row fails the gate.
    pub(crate) fn is_failure(self) -> bool {
        matches!(
            self,
            GateStatus::Regressed | GateStatus::Missing | GateStatus::SuiteMissing
        )
    }

    fn label(self) -> &'static str {
        match self {
            GateStatus::Ok => "ok",
            GateStatus::Improved => "improved",
            GateStatus::Regressed => "REGRESSED",
            GateStatus::Missing => "MISSING",
            GateStatus::SuiteMissing => "SUITE MISSING",
            GateStatus::SkippedSmoke => "skip (smoke)",
        }
    }
}

/// One row of the gate's diff table.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// `suite/bench` the row compares.
    pub name: String,
    /// Baseline median ns/iter.
    pub baseline_ns: f64,
    /// Current median ns/iter (`None` when missing or suite-missing).
    pub current_ns: Option<f64>,
    /// The verdict.
    pub status: GateStatus,
}

impl GateRow {
    /// current / baseline (`None` when not comparable).
    pub fn ratio(&self) -> Option<f64> {
        self.current_ns
            .map(|current| current / self.baseline_ns.max(f64::MIN_POSITIVE))
    }
}

/// The gate's outcome: the full diff table and the pass/fail verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// One row per baseline bench (plus `new` rows for unbaselined current benches).
    pub rows: Vec<GateRow>,
    /// `true` when no row is a failure.
    pub passed: bool,
}

impl GateOutcome {
    /// Render the diff table.
    pub fn table(&self, tolerance: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<48} {:>14} {:>14} {:>8}  status",
            "bench", "baseline ns", "current ns", "ratio"
        );
        for row in &self.rows {
            let current = row
                .current_ns
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
            let ratio = row
                .ratio()
                .map_or_else(|| "-".to_string(), |r| format!("{r:.2}x"));
            let _ = writeln!(
                out,
                "{:<48} {:>14.1} {:>14} {:>8}  {}",
                row.name,
                row.baseline_ns,
                current,
                ratio,
                row.status.label()
            );
        }
        let _ = writeln!(
            out,
            "gate: {} rows, tolerance +/-{:.0}% -> {}",
            self.rows.len(),
            tolerance * 100.0,
            if self.passed { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Compare current suites against baselines. Every baseline bench must exist in the
/// current run; timings must stay within `tolerance` (a regression is
/// `current > baseline * (1 + tolerance)`). Smoke-mode current suites are coverage-only.
/// Current benches with no baseline are reported as informational `new` rows (status
/// [`GateStatus::Ok`]).
pub fn run_gate(
    baselines: &[SuiteResults],
    currents: &[SuiteResults],
    tolerance: f64,
) -> GateOutcome {
    let mut rows = Vec::new();
    for baseline in baselines {
        let current_suite = currents.iter().find(|c| c.suite == baseline.suite);
        for (bench, baseline_ns) in &baseline.benches {
            let name = format!("{}/{}", baseline.suite, bench);
            let row = match current_suite {
                None => GateRow {
                    name,
                    baseline_ns: *baseline_ns,
                    current_ns: None,
                    status: GateStatus::SuiteMissing,
                },
                Some(current) => match current.benches.iter().find(|(n, _)| n == bench) {
                    None => GateRow {
                        name,
                        baseline_ns: *baseline_ns,
                        current_ns: None,
                        status: GateStatus::Missing,
                    },
                    Some((_, current_ns)) => {
                        let status = if current.smoke {
                            GateStatus::SkippedSmoke
                        } else if *current_ns > baseline_ns * (1.0 + tolerance) {
                            GateStatus::Regressed
                        } else if *current_ns < baseline_ns / (1.0 + tolerance) {
                            GateStatus::Improved
                        } else {
                            GateStatus::Ok
                        };
                        GateRow {
                            name,
                            baseline_ns: *baseline_ns,
                            current_ns: Some(*current_ns),
                            status,
                        }
                    }
                },
            };
            rows.push(row);
        }
    }
    // Informational: current benches nobody baselined yet.
    for current in currents {
        let baseline_suite = baselines.iter().find(|b| b.suite == current.suite);
        for (bench, current_ns) in &current.benches {
            let known = baseline_suite
                .map(|b| b.benches.iter().any(|(n, _)| n == bench))
                .unwrap_or(false);
            if !known {
                rows.push(GateRow {
                    name: format!("{}/{} (new)", current.suite, bench),
                    baseline_ns: 0.0,
                    current_ns: Some(*current_ns),
                    status: GateStatus::Ok,
                });
            }
        }
    }
    let passed = !rows.iter().any(|row| row.status.is_failure());
    GateOutcome { rows, passed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_round_trips_the_harness_schema() {
        let text = r#"{
  "suite": "demo \"quoted\"",
  "smoke": false,
  "results": [
    {"name": "a", "median_ns_per_iter": 120.500, "samples": 11},
    {"name": "b", "median_ns_per_iter": 3.25e2, "samples": 11}
  ],
  "metrics": [{"name": "speedup", "value": 3.5, "unit": "x"}]
}"#;
        let json = Json::parse(text).unwrap();
        assert_eq!(
            json.get("suite").and_then(Json::as_str),
            Some("demo \"quoted\"")
        );
        assert_eq!(json.get("smoke").and_then(Json::as_bool), Some(false));
        let results = json.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[1].get("median_ns_per_iter").and_then(Json::as_f64),
            Some(325.0)
        );
        let suite = parse_suite(text).unwrap().unwrap();
        assert_eq!(suite.suite, "demo \"quoted\"");
        assert_eq!(
            suite.benches,
            vec![("a".to_string(), 120.5), ("b".to_string(), 325.0)]
        );
    }

    #[test]
    fn non_harness_schema_is_skipped_not_an_error() {
        // The serve telemetry reports share the output directory but have no "results".
        let telemetry = r#"{"suite": "serve_replay", "queries": 100, "latency_us": {"p50": 1.0}}"#;
        assert_eq!(parse_suite(telemetry).unwrap(), None);
        assert!(parse_suite("{nope").is_err());
    }

    fn suite(name: &str, smoke: bool, benches: &[(&str, f64)]) -> SuiteResults {
        SuiteResults {
            suite: name.to_string(),
            smoke,
            benches: benches.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn gate_passes_identical_runs_and_fails_a_2x_regression() {
        let baselines = vec![suite(
            "kernels",
            false,
            &[("pool", 100.0), ("gather", 50.0)],
        )];
        let same = vec![suite(
            "kernels",
            false,
            &[("pool", 100.0), ("gather", 50.0)],
        )];
        let outcome = run_gate(&baselines, &same, 0.30);
        assert!(
            outcome.passed,
            "identical runs must pass:\n{}",
            outcome.table(0.30)
        );

        let regressed = vec![suite(
            "kernels",
            false,
            &[("pool", 200.0), ("gather", 50.0)],
        )];
        let outcome = run_gate(&baselines, &regressed, 0.30);
        assert!(!outcome.passed, "a 2x regression must fail");
        let row = outcome
            .rows
            .iter()
            .find(|r| r.name == "kernels/pool")
            .unwrap();
        assert_eq!(row.status, GateStatus::Regressed);
        assert!((row.ratio().unwrap() - 2.0).abs() < 1e-9);
        assert!(outcome.table(0.30).contains("REGRESSED"));
        assert!(outcome.table(0.30).contains("FAIL"));
    }

    #[test]
    fn gate_tolerance_brackets_the_boundary() {
        let baselines = vec![suite("s", false, &[("b", 100.0)])];
        // +29% passes, +31% fails at 30% tolerance.
        assert!(run_gate(&baselines, &[suite("s", false, &[("b", 129.0)])], 0.30).passed);
        assert!(!run_gate(&baselines, &[suite("s", false, &[("b", 131.0)])], 0.30).passed);
        // A big improvement passes but is labeled.
        let outcome = run_gate(&baselines, &[suite("s", false, &[("b", 40.0)])], 0.30);
        assert!(outcome.passed);
        assert_eq!(outcome.rows[0].status, GateStatus::Improved);
    }

    #[test]
    fn gate_fails_on_missing_benches_or_suites() {
        let baselines = vec![suite("s", false, &[("kept", 10.0), ("dropped", 10.0)])];
        let outcome = run_gate(&baselines, &[suite("s", false, &[("kept", 10.0)])], 0.30);
        assert!(!outcome.passed);
        assert!(outcome.rows.iter().any(|r| r.status == GateStatus::Missing));
        let outcome = run_gate(&baselines, &[], 0.30);
        assert!(!outcome.passed);
        assert!(outcome
            .rows
            .iter()
            .all(|r| r.status == GateStatus::SuiteMissing));
    }

    #[test]
    fn gate_skips_timing_for_smoke_runs_but_still_checks_coverage() {
        let baselines = vec![suite("s", false, &[("b", 100.0)])];
        // A wild smoke timing passes (coverage only)...
        let outcome = run_gate(&baselines, &[suite("s", true, &[("b", 10_000.0)])], 0.30);
        assert!(outcome.passed);
        assert_eq!(outcome.rows[0].status, GateStatus::SkippedSmoke);
        // ...but a smoke run that lost a bench still fails.
        let outcome = run_gate(&baselines, &[suite("s", true, &[])], 0.30);
        assert!(!outcome.passed);
    }

    #[test]
    fn new_benches_are_informational() {
        let baselines = vec![suite("s", false, &[("old", 10.0)])];
        let outcome = run_gate(
            &baselines,
            &[suite("s", false, &[("old", 10.0), ("brand_new", 5.0)])],
            0.30,
        );
        assert!(outcome.passed);
        assert!(outcome
            .rows
            .iter()
            .any(|r| r.name.contains("brand_new") && r.name.contains("new")));
    }
}

//! The generic study/sweep runner behind every paper-reproduction experiment.
//!
//! Every evaluation driver in this crate (ET-lookup study, NNS comparison, accuracy
//! study, pipeline breakdown, end-to-end FOMs, design-space sweeps) reports its results
//! through one machine-readable shape: a [`Study`] — a named, seeded list of rows, each
//! pairing a configuration point with its measured/modeled metrics. Studies serialize to
//! deterministic JSON (same inputs + same seed → byte-identical output, pinned by tests)
//! and land next to the bench harness summaries under `target/imars-bench/`, so CI can
//! archive the whole experimental record of a run.
//!
//! [`SweepGrid`] produces cartesian parameter grids for the design-space benches, and
//! [`FomComparison`] is the shared "iMARS column vs GPU column" row every study ends
//! with.

use std::fmt::Write as _;
use std::path::PathBuf;

use imars_fabric::Cost;
use imars_gpu::GpuCost;
use imars_serve::json::escape;

/// A configuration value: numeric axes (array size, radius, ...) or discrete labels
/// (workload names, placement policies).
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A numeric configuration value.
    Num(f64),
    /// A textual configuration value.
    Text(String),
}

/// One row of a study: a configuration point plus the metrics observed there.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StudyRow {
    /// Named configuration values, in insertion order.
    pub config: Vec<(String, ParamValue)>,
    /// Named metric values, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl StudyRow {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a numeric configuration value.
    pub fn config_num(mut self, name: &str, value: f64) -> Self {
        self.config.push((name.to_string(), ParamValue::Num(value)));
        self
    }

    /// Add a textual configuration value.
    pub fn config_text(mut self, name: &str, value: &str) -> Self {
        self.config
            .push((name.to_string(), ParamValue::Text(value.to_string())));
        self
    }

    /// Prepend a textual configuration value, so it leads the rendered config object —
    /// how the sweep drivers tag prebuilt rows with their axis.
    pub fn config_text_front(mut self, name: &str, value: &str) -> Self {
        self.config
            .insert(0, (name.to_string(), ParamValue::Text(value.to_string())));
        self
    }

    /// Add a metric.
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Look up a metric by name.
    pub fn get_metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A named, seeded collection of study rows with deterministic JSON serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct Study {
    name: String,
    seed: u64,
    notes: Vec<(String, String)>,
    rows: Vec<StudyRow>,
}

impl Study {
    /// Create an empty study. `seed` is the seed every stochastic part of the study must
    /// derive its RNG from — it is recorded in the report so a run can be reproduced.
    pub fn new(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            notes: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The study name (also the JSON file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The seed recorded for this study.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Attach a free-form note (generator description, units, caveats).
    pub fn note(&mut self, key: &str, value: &str) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Append one row.
    pub fn push(&mut self, row: StudyRow) {
        self.rows.push(row);
    }

    /// The rows recorded so far.
    pub fn rows(&self) -> &[StudyRow] {
        &self.rows
    }

    /// Render the study as JSON. The output is deterministic: identical studies
    /// produce byte-identical strings (floats are formatted with a fixed rule, maps keep
    /// insertion order).
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\n  \"study\": \"{}\",\n  \"seed\": {},\n  \"notes\": {{",
            escape(&self.name),
            self.seed
        );
        for (i, (key, value)) in self.notes.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n    \"{}\": \"{}\"",
                if i == 0 { "" } else { "," },
                escape(key),
                escape(value)
            );
        }
        json.push_str("\n  },\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n    {{\"config\": {{",
                if i == 0 { "" } else { "," }
            );
            for (j, (key, value)) in row.config.iter().enumerate() {
                let rendered = match value {
                    ParamValue::Num(v) => format_number(*v),
                    ParamValue::Text(s) => format!("\"{}\"", escape(s)),
                };
                let _ = write!(
                    json,
                    "{}\"{}\": {}",
                    if j == 0 { "" } else { ", " },
                    escape(key),
                    rendered
                );
            }
            json.push_str("}, \"metrics\": {");
            for (j, (key, value)) in row.metrics.iter().enumerate() {
                let _ = write!(
                    json,
                    "{}\"{}\": {}",
                    if j == 0 { "" } else { ", " },
                    escape(key),
                    format_number(*value)
                );
            }
            json.push_str("}}");
        }
        json.push_str("\n  ]\n}\n");
        json
    }

    /// Write the JSON report to `<dir>/<name>.json`, where `dir` is the
    /// `IMARS_STUDY_OUT_DIR` environment variable or `target/imars-bench`. Returns the
    /// path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        let dir = match std::env::var_os("IMARS_STUDY_OUT_DIR") {
            Some(dir) => PathBuf::from(dir),
            None => PathBuf::from("target").join("imars-bench"),
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Format a float as a deterministic JSON number: plain fixed-point in the readable
/// range, scientific notation outside it (so sub-nanosecond latencies and 10⁴-class
/// speedups both survive), and bare integers without a fraction.
pub(crate) fn format_number(value: f64) -> String {
    if !value.is_finite() {
        // JSON has no Inf/NaN; clamp to null-ish sentinel the parser side can detect.
        return "null".to_string();
    }
    if value == 0.0 {
        return "0".to_string();
    }
    if value.fract() == 0.0 && value.abs() < 1e15 {
        return format!("{}", value as i64);
    }
    let magnitude = value.abs();
    if (1e-3..1e9).contains(&magnitude) {
        // Nine decimals keep >= 7 significant digits down to the 1e-3 boundary.
        let formatted = if magnitude < 1.0 {
            format!("{value:.9}")
        } else {
            format!("{value:.6}")
        };
        // Trim trailing zeros but keep at least one fractional digit.
        let trimmed = formatted.trim_end_matches('0');
        let trimmed = if trimmed.ends_with('.') {
            &formatted[..trimmed.len() + 1]
        } else {
            trimmed
        };
        trimmed.to_string()
    } else {
        format!("{value:e}")
    }
}

/// One axis of a design-space sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Axis name (becomes the config key of every point).
    pub name: String,
    /// The values to visit, in order.
    pub values: Vec<f64>,
}

/// A cartesian grid over named axes. Points are enumerated with the **last axis varying
/// fastest** (row-major), deterministically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepGrid {
    axes: Vec<SweepAxis>,
}

impl SweepGrid {
    /// An empty grid (one empty point).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an axis.
    pub fn axis(mut self, name: &str, values: &[f64]) -> Self {
        self.axes.push(SweepAxis {
            name: name.to_string(),
            values: values.to_vec(),
        });
        self
    }

    /// The axes in insertion order.
    pub fn axes(&self) -> &[SweepAxis] {
        &self.axes
    }

    /// Number of points in the grid.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Whether the grid has no points (some axis is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate every point as `(axis name, value)` pairs in axis order.
    pub fn points(&self) -> Vec<Vec<(String, f64)>> {
        let mut points = vec![Vec::new()];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(points.len() * axis.values.len());
            for point in &points {
                for &value in &axis.values {
                    let mut extended = point.clone();
                    extended.push((axis.name.clone(), value));
                    next.push(extended);
                }
            }
            points = next;
        }
        points
    }
}

/// The iMARS column versus the GPU column of one figure of merit: the shape every study
/// reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct FomComparison {
    /// What is being compared (workload or operation name).
    pub label: String,
    /// Modeled iMARS cost of the operation.
    pub imars: Cost,
    /// Modeled GPU cost of the operation.
    pub gpu: GpuCost,
}

impl FomComparison {
    /// Create a comparison row.
    pub fn new(label: &str, imars: Cost, gpu: GpuCost) -> Self {
        Self {
            label: label.to_string(),
            imars,
            gpu,
        }
    }

    /// GPU latency divided by iMARS latency (the paper's improvement factor).
    pub fn latency_speedup(&self) -> f64 {
        self.gpu.latency_us / self.imars.latency_us().max(f64::MIN_POSITIVE)
    }

    /// GPU energy divided by iMARS energy.
    pub fn energy_ratio(&self) -> f64 {
        self.gpu.energy_uj / self.imars.energy_uj().max(f64::MIN_POSITIVE)
    }

    /// Render as a study row (latencies in µs, energies in µJ, ratios unitless).
    pub fn study_row(&self) -> StudyRow {
        StudyRow::new()
            .config_text("comparison", &self.label)
            .metric("imars_latency_us", self.imars.latency_us())
            .metric("imars_energy_uj", self.imars.energy_uj())
            .metric("gpu_latency_us", self.gpu.latency_us)
            .metric("gpu_energy_uj", self.gpu.energy_uj)
            .metric("latency_speedup", self.latency_speedup())
            .metric("energy_ratio", self.energy_ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imars_serve::json::Json;

    fn sample_study() -> Study {
        let mut study = Study::new("unit_test_study", 42);
        study.note("generator", "synthetic");
        study.push(
            StudyRow::new()
                .config_text("workload", "movielens")
                .config_num("radius", 100.0)
                .metric("recall", 0.93)
                .metric("latency_ns", 0.2),
        );
        study.push(
            StudyRow::new()
                .config_num("rows", 256.0)
                .metric("speedup", 38000.0),
        );
        study
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let a = sample_study().to_json();
        let b = sample_study().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"study\": \"unit_test_study\""));
        assert!(a.contains("\"seed\": 42"));
        assert!(a.contains("\"radius\": 100"));
        assert!(a.contains("\"recall\": 0.93"));
        assert!(!a.contains(",\n  ]"));
        Json::parse(&a).expect("study JSON parses");
    }

    #[test]
    fn study_json_escapes_control_characters() {
        let mut study = Study::new("escape_probe", 0);
        study.note("multi", "first\nsecond");
        let json = study.to_json();
        assert!(json.contains("first\\nsecond"));
        assert!(!json.contains("first\nsecond"));
    }

    #[test]
    fn config_text_front_leads_the_config() {
        let row = StudyRow::new()
            .config_num("radius", 90.0)
            .config_text_front("axis", "search_radius");
        assert_eq!(row.config[0].0, "axis");
        assert_eq!(row.config[1].0, "radius");
    }

    #[test]
    fn number_formatting_is_stable_across_magnitudes() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(256.0), "256");
        assert_eq!(format_number(-3.0), "-3");
        assert_eq!(format_number(0.93), "0.93");
        assert_eq!(format_number(2.07e-7), "2.07e-7");
        assert_eq!(format_number(3.8e15), format!("{:e}", 3.8e15));
        assert_eq!(format_number(380_000_000_000_000.0), "380000000000000");
        assert_eq!(format_number(f64::NAN), "null");
        // Sub-1e-3 values switch to scientific notation so no significant digits drop.
        assert_eq!(format_number(1.23456e-4), format!("{:e}", 1.23456e-4));
        assert_eq!(format_number(0.00123456), "0.00123456");
        // Round trip through a JSON-compatible parse.
        for v in [
            0.2,
            123.456,
            1e-9,
            4.2e12,
            -0.000213,
            0.00123456,
            0.056789123,
        ] {
            let parsed: f64 = format_number(v).parse().unwrap();
            assert!((parsed - v).abs() <= v.abs() * 1e-6, "{v}");
        }
    }

    #[test]
    fn sweep_grid_enumerates_cartesian_product_in_order() {
        let grid = SweepGrid::new()
            .axis("a", &[1.0, 2.0])
            .axis("b", &[10.0, 20.0, 30.0]);
        assert_eq!(grid.len(), 6);
        assert!(!grid.is_empty());
        let points = grid.points();
        assert_eq!(points.len(), 6);
        assert_eq!(
            points[0],
            vec![("a".to_string(), 1.0), ("b".to_string(), 10.0)]
        );
        assert_eq!(
            points[1],
            vec![("a".to_string(), 1.0), ("b".to_string(), 20.0)]
        );
        assert_eq!(
            points[5],
            vec![("a".to_string(), 2.0), ("b".to_string(), 30.0)]
        );
        // Determinism.
        assert_eq!(points, grid.points());
    }

    #[test]
    fn empty_grid_and_empty_axis() {
        assert_eq!(SweepGrid::new().points(), vec![Vec::new()]);
        assert_eq!(SweepGrid::new().len(), 1);
        let degenerate = SweepGrid::new().axis("a", &[]);
        assert!(degenerate.is_empty());
        assert!(degenerate.points().is_empty());
    }

    #[test]
    fn fom_comparison_computes_ratios() {
        let comparison = FomComparison::new(
            "et_lookup",
            Cost::new(2_000.0, 200.0), // 2e-3 uJ, 0.2 us
            GpuCost {
                latency_us: 10.0,
                energy_uj: 220.0,
            },
        );
        assert!((comparison.latency_speedup() - 50.0).abs() < 1e-9);
        assert!((comparison.energy_ratio() - 110_000.0).abs() < 1e-6);
        let row = comparison.study_row();
        assert_eq!(row.get_metric("gpu_latency_us"), Some(10.0));
        assert!(row.get_metric("latency_speedup").unwrap() > 1.0);
    }

    #[test]
    fn study_row_lookup() {
        let row = StudyRow::new().metric("x", 1.5);
        assert_eq!(row.get_metric("x"), Some(1.5));
        assert_eq!(row.get_metric("y"), None);
    }
}

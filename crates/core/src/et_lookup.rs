//! The embedding-table lookup study (Table III of the paper).
//!
//! For each paper workload this module models the per-input cost of the ET lookup +
//! pooling stage on the iMARS fabric and compares it with the calibrated GPU baseline.
//! The iMARS side is assembled from the Table II array figures of merit and the Table I
//! mapping, under two bracketing accountings:
//!
//! * **worst case** — every lookup of a table lands in the same CMA and the GPCiM
//!   additions serialize (`1 read + (L−1) adds`), the accounting Sec. IV-C1 describes;
//! * **spread** — the lookups balance across the table's allocated arrays, which pool in
//!   parallel and combine through the intra-mat / intra-bank adder trees.
//!
//! The paper's reported improvement factors (43.6×/45.2×/61.8× latency) fall between the
//! two brackets; both are reported side by side with the published numbers so the study
//! makes the modeling slack visible instead of hiding it. Tables occupy distinct banks
//! and pool in parallel; the serialized RSC bus transfers every pooled embedding to the
//! DNN buffers, one control overhead per table.

use imars_fabric::accumulator::GpcimAccumulator;
use imars_fabric::interconnect::{IbcNetwork, RscBus};
use imars_fabric::{Cost, FabricConfig};
use imars_gpu::model::EtLookupWorkload;
use imars_gpu::{GpuCost, GpuModel};

use imars_device::characterization::ArrayFom;

use crate::error::CoreError;
use crate::et_mapping::{EtMapping, EtSpec};
use crate::system::{FomComparison, StudyRow};
use crate::workloads::RecsysWorkload;

/// The iMARS-side cost model of the ET lookup stage.
#[derive(Debug, Clone, PartialEq)]
pub struct EtLookupModel {
    config: FabricConfig,
    fom: ArrayFom,
    accumulator: GpcimAccumulator,
}

/// Per-input cost of one ET lookup stage under the two bracketing accountings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtLookupCost {
    /// All lookups of a table serialize in one array (Sec. IV-C1 worst case).
    pub worst: Cost,
    /// Lookups balance across the table's arrays; adder trees combine the partials.
    pub spread: Cost,
}

/// One Table III row: a workload's ET-lookup cost on iMARS (both accountings) versus the
/// GPU baseline, with the paper-reported improvement factors alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct EtLookupComparison {
    /// Workload label.
    pub label: String,
    /// iMARS cost brackets.
    pub imars: EtLookupCost,
    /// GPU baseline cost.
    pub gpu: GpuCost,
    /// Paper-reported `(latency, energy)` improvement factors, if the paper tabulates
    /// this workload.
    pub paper_latency_speedup: Option<f64>,
    /// Paper-reported energy improvement factor.
    pub paper_energy_ratio: Option<f64>,
}

impl EtLookupComparison {
    /// GPU latency over iMARS worst-case latency.
    pub fn latency_speedup_worst(&self) -> f64 {
        self.gpu.latency_us / self.imars.worst.latency_us().max(f64::MIN_POSITIVE)
    }

    /// GPU latency over iMARS spread latency.
    pub fn latency_speedup_spread(&self) -> f64 {
        self.gpu.latency_us / self.imars.spread.latency_us().max(f64::MIN_POSITIVE)
    }

    /// GPU energy over iMARS worst-case energy.
    pub fn energy_ratio_worst(&self) -> f64 {
        self.gpu.energy_uj / self.imars.worst.energy_uj().max(f64::MIN_POSITIVE)
    }

    /// Render as a study row.
    pub fn study_row(&self) -> StudyRow {
        let mut row = FomComparison::new(&self.label, self.imars.worst, self.gpu)
            .study_row()
            .metric("imars_spread_latency_us", self.imars.spread.latency_us())
            .metric("imars_spread_energy_uj", self.imars.spread.energy_uj())
            .metric("latency_speedup_spread", self.latency_speedup_spread());
        if let Some(paper) = self.paper_latency_speedup {
            row = row.metric("paper_latency_speedup", paper);
        }
        if let Some(paper) = self.paper_energy_ratio {
            row = row.metric("paper_energy_ratio", paper);
        }
        row
    }
}

impl EtLookupModel {
    /// Build the model from a fabric configuration and array characterization.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Fabric`] for a structurally invalid configuration.
    pub fn new(config: FabricConfig, fom: ArrayFom) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Self {
            config,
            fom,
            accumulator: GpcimAccumulator::INT8,
        })
    }

    /// The paper's design point with the published Table II figures of merit.
    pub fn paper_reference() -> Self {
        Self::new(
            FabricConfig::paper_design_point(),
            ArrayFom::paper_reference(),
        )
        .expect("the paper design point is valid")
    }

    /// Use a different GPCiM accumulator width (scales every in-memory addition).
    pub fn with_accumulator(mut self, accumulator: GpcimAccumulator) -> Self {
        self.accumulator = accumulator;
        self
    }

    /// The fabric configuration of this model.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// The array figures of merit of this model.
    pub fn fom(&self) -> &ArrayFom {
        &self.fom
    }

    /// The accumulator variant charged per in-memory addition.
    pub fn accumulator(&self) -> GpcimAccumulator {
        self.accumulator
    }

    fn add_cost(&self) -> Cost {
        Cost::from_fom(self.accumulator.add_fom(self.fom.cma.add))
    }

    /// Per-table pooling cost of `lookups` rows from a table of `rows` entries, under
    /// both accountings. Returns `(worst, spread)`.
    fn table_pool_cost(&self, rows: usize, lookups: usize) -> (Cost, Cost) {
        let read = Cost::from_fom(self.fom.cma.read);
        let add = self.add_cost();
        let lookups = lookups.max(1);

        // Worst case: everything serializes in one array.
        let worst = read.serial(add.repeat(lookups - 1));

        // Spread: lookups balance over the table's arrays.
        let arrays = rows.div_ceil(self.config.cma_rows).max(1);
        let touched = arrays.min(lookups);
        let max_load = lookups.div_ceil(touched);
        // Arrays pool in parallel: latency of the busiest array; every touched array
        // pays one read, the remaining lookups pay one in-memory addition each.
        let array_latency = read.serial(add.repeat(max_load - 1)).latency_ns;
        let array_energy =
            read.energy_pj * touched as f64 + add.energy_pj * (lookups - touched) as f64;
        let mut spread = Cost::new(array_energy, array_latency);

        // Partial sums combine through the adder trees when more than one array pooled.
        let mats = touched.div_ceil(self.config.cmas_per_mat);
        if touched > 1 {
            // One intra-mat accumulation per active mat, mats in parallel.
            let intra_mat = Cost::from_fom(self.fom.intra_mat_add);
            spread = spread.serial(Cost::new(
                intra_mat.energy_pj * mats as f64,
                intra_mat.latency_ns,
            ));
        }
        if mats > 1 {
            // Intra-bank rounds of the fan-in-wide adder tree, each fed by one IBC beat.
            let rounds = mats.div_ceil(self.config.intra_bank_fan_in);
            let ibc = IbcNetwork::new(self.config.interconnect);
            let beat = ibc.transfer_bytes(
                self.config.embedding_bits().div_ceil(8) * self.config.intra_bank_fan_in.min(mats),
            );
            let round = beat.cost.serial(Cost::from_fom(self.fom.intra_bank_add));
            spread = spread.serial(round.repeat(rounds));
        }
        (worst, spread)
    }

    /// Per-input cost of one stage's ET lookups for a set of `(rows, lookups)` tables.
    /// Tables occupy distinct banks (Table I: one sparse feature per bank) and pool in
    /// parallel; the serialized RSC bus then moves each pooled embedding to the DNN
    /// buffer, one control overhead per table.
    pub(crate) fn stage_cost_for_tables(&self, tables: &[(usize, usize)]) -> EtLookupCost {
        let rsc = RscBus::new(self.config.interconnect);
        let control = Cost::new(
            self.config.interconnect.control_energy_pj,
            self.config.interconnect.control_latency_ns,
        );
        let mut worst = Cost::ZERO;
        let mut spread = Cost::ZERO;
        for &(rows, lookups) in tables {
            let (table_worst, table_spread) = self.table_pool_cost(rows, lookups);
            worst = worst.parallel(table_worst);
            spread = spread.parallel(table_spread);
        }
        // The RSC bus serializes the per-table result transfers.
        let transfer = rsc
            .transfer_embedding(self.config.embedding_dim, self.config.element_bits)
            .cost
            .serial(control)
            .repeat(tables.len());
        EtLookupCost {
            worst: worst.serial(transfer),
            spread: spread.serial(transfer),
        }
    }

    /// Per-input ET-lookup cost of a paper workload.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Mapping`] if the workload does not fit the fabric (the
    /// mapping check the real hardware would fail too).
    pub fn stage_cost(&self, workload: &RecsysWorkload) -> Result<EtLookupCost, CoreError> {
        // Validate the workload actually maps onto the configured fabric first.
        let specs: Vec<EtSpec> = workload.et_specs();
        EtMapping::map(&specs, &self.config)?;
        let tables: Vec<(usize, usize)> = workload
            .tables
            .iter()
            .map(|t| (t.spec.rows, t.lookups_per_inference))
            .collect();
        Ok(self.stage_cost_for_tables(&tables))
    }
}

/// The three Table III comparisons (MovieLens filtering/ranking, Criteo ranking) under
/// the given model and GPU baseline.
///
/// # Errors
///
/// Propagates mapping failures (cannot happen at the paper design point).
pub fn table3_comparisons(
    model: &EtLookupModel,
    gpu: &GpuModel,
) -> Result<Vec<EtLookupComparison>, CoreError> {
    use imars_gpu::reference;
    let workloads = [
        (
            RecsysWorkload::movielens_filtering(),
            reference::SPEEDUP_ET_MOVIELENS_FILTERING,
        ),
        (
            RecsysWorkload::movielens_ranking(),
            reference::SPEEDUP_ET_MOVIELENS_RANKING,
        ),
        (
            RecsysWorkload::criteo_ranking(),
            reference::SPEEDUP_ET_CRITEO_RANKING,
        ),
    ];
    let mut comparisons = Vec::with_capacity(workloads.len());
    for (workload, paper) in workloads {
        let imars = model.stage_cost(&workload)?;
        let gpu_cost = gpu.et_lookup(&workload.gpu_lookup_workload());
        comparisons.push(EtLookupComparison {
            label: workload.kind.label().to_string(),
            imars,
            gpu: gpu_cost,
            paper_latency_speedup: Some(paper.latency),
            paper_energy_ratio: Some(paper.energy),
        });
    }
    Ok(comparisons)
}

/// One point of the ET-lookup design sweep: a single synthetic table of `rows` entries,
/// pooled `pooling_factor` rows per input at dimensionality `dim`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtSweepPoint {
    /// Table size in rows.
    pub rows: usize,
    /// Rows pooled per input.
    pub pooling_factor: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// iMARS cost brackets.
    pub imars: EtLookupCost,
    /// GPU cost of the same access pattern.
    pub gpu: GpuCost,
}

impl EtSweepPoint {
    /// Render as a study row.
    pub fn study_row(&self) -> StudyRow {
        StudyRow::new()
            .config_num("table_rows", self.rows as f64)
            .config_num("pooling_factor", self.pooling_factor as f64)
            .config_num("dim", self.dim as f64)
            .metric("imars_worst_latency_us", self.imars.worst.latency_us())
            .metric("imars_spread_latency_us", self.imars.spread.latency_us())
            .metric("imars_worst_energy_uj", self.imars.worst.energy_uj())
            .metric("gpu_latency_us", self.gpu.latency_us)
            .metric("gpu_energy_uj", self.gpu.energy_uj)
            .metric(
                "latency_speedup_worst",
                self.gpu.latency_us / self.imars.worst.latency_us().max(f64::MIN_POSITIVE),
            )
    }
}

/// Sweep the ET-lookup cost over table size × pooling factor × dimensionality. The
/// embedding must fit one CMA row at the model's element width; oversized dims are
/// skipped.
pub fn et_lookup_sweep(
    model: &EtLookupModel,
    gpu: &GpuModel,
    table_rows: &[usize],
    pooling_factors: &[usize],
    dims: &[usize],
) -> Vec<EtSweepPoint> {
    let mut points = Vec::new();
    for &rows in table_rows {
        for &pooling_factor in pooling_factors {
            for &dim in dims {
                if dim * model.config.element_bits > model.config.cma_cols {
                    continue;
                }
                let mut dim_model = model.clone();
                dim_model.config.embedding_dim = dim;
                let imars = dim_model.stage_cost_for_tables(&[(rows, pooling_factor)]);
                let gpu_cost = gpu.et_lookup(&EtLookupWorkload {
                    tables: vec![imars_gpu::kernels::TableAccess {
                        rows,
                        lookups: pooling_factor,
                    }],
                    dim,
                });
                points.push(EtSweepPoint {
                    rows,
                    pooling_factor,
                    dim,
                    imars,
                    gpu: gpu_cost,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EtLookupModel {
        EtLookupModel::paper_reference()
    }

    #[test]
    fn worst_case_movielens_filtering_matches_manual_roll_up() {
        // History table dominates: 1 read + 49 serialized adds, then 6 RSC transfers.
        let cost = model()
            .stage_cost(&RecsysWorkload::movielens_filtering())
            .unwrap();
        let pool_ns = 0.3 + 49.0 * 8.1;
        let transfer_ns = 6.0 * (2.0 + 0.5); // one 256-bit beat + control per table
        assert!((cost.worst.latency_ns - (pool_ns + transfer_ns)).abs() < 1e-9);
        assert!(cost.spread.latency_ns < cost.worst.latency_ns);
    }

    #[test]
    fn paper_speedups_fall_between_the_two_accountings() {
        let comparisons = table3_comparisons(&model(), &GpuModel::gtx_1080()).unwrap();
        assert_eq!(comparisons.len(), 3);
        for comparison in &comparisons {
            let worst = comparison.latency_speedup_worst();
            let spread = comparison.latency_speedup_spread();
            assert!(worst <= spread, "{}", comparison.label);
            let paper = comparison.paper_latency_speedup.unwrap();
            // The published factor sits between the serialized and the fully spread
            // accounting for the pooled workloads, and both brackets show a big win.
            assert!(
                worst > 5.0,
                "{}: worst bracket {worst:.1}x",
                comparison.label
            );
            assert!(
                spread > paper * 0.5,
                "{}: spread {spread:.1}x vs paper {paper:.1}x",
                comparison.label
            );
        }
        // The pooled MovieLens workloads bracket the paper's reported factor.
        for comparison in &comparisons[..2] {
            let paper = comparison.paper_latency_speedup.unwrap();
            assert!(
                comparison.latency_speedup_worst() <= paper
                    && paper <= comparison.latency_speedup_spread(),
                "{}: paper {paper:.1}x outside [{:.1}, {:.1}]",
                comparison.label,
                comparison.latency_speedup_worst(),
                comparison.latency_speedup_spread()
            );
        }
    }

    #[test]
    fn imars_beats_gpu_on_energy_everywhere() {
        for comparison in table3_comparisons(&model(), &GpuModel::gtx_1080()).unwrap() {
            assert!(
                comparison.energy_ratio_worst() > 100.0,
                "{}",
                comparison.label
            );
        }
    }

    #[test]
    fn sweep_latency_grows_with_pooling_factor() {
        let gpu = GpuModel::gtx_1080();
        let points = et_lookup_sweep(&model(), &gpu, &[4096], &[1, 8, 64], &[32]);
        assert_eq!(points.len(), 3);
        assert!(points[0].imars.worst.latency_ns < points[1].imars.worst.latency_ns);
        assert!(points[1].imars.worst.latency_ns < points[2].imars.worst.latency_ns);
        assert!(points[0].gpu.latency_us < points[2].gpu.latency_us);
    }

    #[test]
    fn sweep_skips_oversized_dims() {
        let gpu = GpuModel::gtx_1080();
        let points = et_lookup_sweep(&model(), &gpu, &[1024], &[8], &[32, 64]);
        // 64 x 8 bits = 512 bits does not fit a 256-column row.
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].dim, 32);
    }

    #[test]
    fn wider_accumulator_raises_pooling_cost_only() {
        let narrow = model();
        let wide = model().with_accumulator(GpcimAccumulator::INT16);
        let workload = RecsysWorkload::movielens_filtering();
        let narrow_cost = narrow.stage_cost(&workload).unwrap();
        let wide_cost = wide.stage_cost(&workload).unwrap();
        assert!(wide_cost.worst.latency_ns > narrow_cost.worst.latency_ns);
        assert!(wide_cost.worst.energy_pj > narrow_cost.worst.energy_pj);
        // Criteo pools one row per table: no additions, so the width is free there.
        let criteo = RecsysWorkload::criteo_ranking();
        let narrow_criteo = narrow.stage_cost(&criteo).unwrap();
        let wide_criteo = wide.stage_cost(&criteo).unwrap();
        assert_eq!(narrow_criteo.worst, wide_criteo.worst);
    }

    #[test]
    fn study_rows_carry_the_comparison() {
        let comparison = &table3_comparisons(&model(), &GpuModel::gtx_1080()).unwrap()[0];
        let row = comparison.study_row();
        assert!(row.get_metric("latency_speedup").unwrap() > 1.0);
        assert!(row.get_metric("paper_latency_speedup").is_some());
    }
}

//! Stage-level latency/energy breakdown of the two-stage pipeline (Fig. 2 of the paper).
//!
//! Fig. 2 decomposes the GPU run time of the filtering stage into {ET lookup, DNN stack,
//! NNS} and of the ranking stage into {ET lookup, DNN stack, TopK}. This module builds
//! the same decomposition for the iMARS fabric — ET lookups from the
//! [`crate::et_lookup`] model, the DNN stack on the crossbar banks, the NNS on the TCAM
//! arrays — so the two stacked bars can be compared operation by operation, including
//! the paper's claim that the crossbar DNN stack improves 2.69× over the GPU.

use imars_device::characterization::ArrayFom;
use imars_fabric::interconnect::RscBus;
use imars_fabric::{Cost, CrossbarBank};
use imars_gpu::model::StageBreakdown;
use imars_gpu::GpuModel;

use crate::error::CoreError;
use crate::et_lookup::EtLookupModel;
use crate::system::StudyRow;
use crate::workloads::RecsysWorkload;

/// One stage's per-operation iMARS cost decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCost {
    /// `(operation name, cost)` pairs, in pipeline order.
    pub operations: Vec<(String, Cost)>,
}

impl StageCost {
    /// Total stage cost (operations run back to back).
    pub fn total(&self) -> Cost {
        self.operations
            .iter()
            .fold(Cost::ZERO, |acc, (_, cost)| acc.serial(*cost))
    }

    /// `(operation name, fraction of the stage latency)` pairs.
    pub fn latency_fractions(&self) -> Vec<(String, f64)> {
        let total = self.total().latency_ns.max(f64::MIN_POSITIVE);
        self.operations
            .iter()
            .map(|(name, cost)| (name.clone(), cost.latency_ns / total))
            .collect()
    }

    /// The cost of one named operation (zero when absent).
    pub fn operation(&self, name: &str) -> Cost {
        self.operations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or(Cost::ZERO)
    }
}

/// Cost of a DNN stack on the crossbar banks: each layer is tiled over 256×128 crossbar
/// arrays which fire in parallel; layers run back to back, and a batch streams through
/// the layer pipeline (`batch + layers − 1` crossbar rounds end to end).
pub(crate) fn crossbar_dnn_cost(
    fom: &ArrayFom,
    layer_shapes: &[(usize, usize)],
    batch: usize,
) -> Cost {
    let bank = CrossbarBank::new(*fom);
    let matmul = Cost::from_fom(fom.crossbar_matmul);
    let batch = batch.max(1);
    let rounds = batch + layer_shapes.len().saturating_sub(1);
    let tiles_per_pass: usize = layer_shapes
        .iter()
        .map(|&(inputs, outputs)| bank.tiles_for_layer(inputs, outputs))
        .sum();
    Cost::new(
        matmul.energy_pj * tiles_per_pass as f64 * batch as f64,
        matmul.latency_ns * rounds as f64,
    )
}

/// Cost of the TCAM nearest-neighbour search over a catalogue of `items` signatures:
/// every signature array searches in parallel (one search figure of merit of latency,
/// one of energy per array).
pub(crate) fn tcam_nns_cost(fom: &ArrayFom, items: usize) -> Cost {
    let arrays = items.div_ceil(fom.cma_geometry.rows).max(1);
    let search = Cost::from_fom(fom.cma.search);
    Cost::new(search.energy_pj * arrays as f64, search.latency_ns)
}

/// iMARS breakdown of the filtering stage for one query: ET lookup (spread accounting),
/// crossbar DNN stack, TCAM NNS.
///
/// # Errors
///
/// Propagates mapping failures from the ET model.
pub(crate) fn imars_filtering_breakdown(
    model: &EtLookupModel,
    workload: &RecsysWorkload,
) -> Result<StageCost, CoreError> {
    let et = model.stage_cost(workload)?;
    let dnn = crossbar_dnn_cost(model.fom(), &workload.dnn_layers, 1);
    let nns = tcam_nns_cost(model.fom(), workload.catalogue_items.max(1));
    Ok(StageCost {
        operations: vec![
            ("ET Lookup".to_string(), et.spread),
            ("DNN Stack".to_string(), dnn),
            ("NNS".to_string(), nns),
        ],
    })
}

/// iMARS breakdown of the ranking stage for one query scoring `candidates` items: the
/// user-side ET lookup happens once, the per-candidate item lookups serialize on the
/// ItET arrays, the DNN stack streams the candidate batch through the crossbar pipeline,
/// and the final top-k is a near-memory scan charged to the controller.
///
/// # Errors
///
/// Propagates mapping failures from the ET model.
pub(crate) fn imars_ranking_breakdown(
    model: &EtLookupModel,
    workload: &RecsysWorkload,
    candidates: usize,
) -> Result<StageCost, CoreError> {
    let candidates = candidates.max(1);
    let user_et = model.stage_cost(workload)?;
    // Item lookups: one CMA read per candidate, serialized per array over the ItET's
    // arrays, plus one RSC transfer per candidate embedding.
    let fom = model.fom();
    let read = Cost::from_fom(fom.cma.read);
    let arrays = workload
        .catalogue_items
        .max(1)
        .div_ceil(model.config().cma_rows);
    let reads_per_array = candidates.div_ceil(arrays.max(1));
    let rsc = RscBus::new(model.config().interconnect);
    let transfer = rsc
        .transfer_embedding(model.config().embedding_dim, model.config().element_bits)
        .cost;
    let item_et = Cost::new(
        read.energy_pj * candidates as f64 + transfer.energy_pj * candidates as f64,
        read.latency_ns * reads_per_array as f64 + transfer.latency_ns * candidates as f64,
    );
    let et = user_et.spread.serial(item_et);
    let dnn = crossbar_dnn_cost(fom, &workload.dnn_layers, candidates);
    // Top-k: a near-memory comparator scan over the candidate scores.
    let control = Cost::new(
        model.config().interconnect.control_energy_pj,
        model.config().interconnect.control_latency_ns,
    );
    let topk = control.repeat(candidates);
    Ok(StageCost {
        operations: vec![
            ("ET Lookup".to_string(), et),
            ("DNN Stack".to_string(), dnn),
            ("TopK".to_string(), topk),
        ],
    })
}

/// A Fig. 2-style comparison of one stage: the iMARS and GPU breakdowns side by side
/// with the paper-reported GPU fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownComparison {
    /// Stage label (`filtering` / `ranking`).
    pub stage: String,
    /// iMARS per-operation costs.
    pub imars: StageCost,
    /// GPU per-operation breakdown (latencies in µs).
    pub gpu: StageBreakdown,
    /// Paper-reported GPU fractions for this stage.
    pub paper_gpu_fractions: Vec<(String, f64)>,
}

impl BreakdownComparison {
    /// Study rows: one per operation, with both sides' latencies and fractions.
    pub fn study_rows(&self) -> Vec<StudyRow> {
        let imars_fractions = self.imars.latency_fractions();
        let gpu_fractions = self.gpu.fractions();
        let mut rows = Vec::new();
        for (index, (name, imars_cost)) in self.imars.operations.iter().enumerate() {
            let gpu_us = self
                .gpu
                .operations
                .get(index)
                .map(|(_, t)| *t)
                .unwrap_or(0.0);
            let paper = self
                .paper_gpu_fractions
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, f)| *f)
                .unwrap_or(0.0);
            let mut row = StudyRow::new()
                .config_text("stage", &self.stage)
                .config_text("operation", name)
                .metric("imars_latency_us", imars_cost.latency_us())
                .metric("imars_energy_uj", imars_cost.energy_uj())
                .metric("imars_fraction", imars_fractions[index].1)
                .metric("gpu_latency_us", gpu_us)
                .metric(
                    "gpu_fraction",
                    gpu_fractions.get(index).map(|(_, f)| *f).unwrap_or(0.0),
                );
            if paper > 0.0 {
                row = row.metric("paper_gpu_fraction", paper);
            }
            rows.push(row);
        }
        rows
    }

    /// GPU-over-iMARS latency factor of one operation.
    pub fn operation_speedup(&self, name: &str) -> f64 {
        let imars = self.imars.operation(name).latency_us();
        let gpu = self
            .gpu
            .operations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or(0.0);
        gpu / imars.max(f64::MIN_POSITIVE)
    }
}

/// Build both Fig. 2 comparisons (MovieLens filtering and ranking) for the given model
/// and GPU baseline.
///
/// # Errors
///
/// Propagates mapping failures.
pub fn fig2_comparisons(
    model: &EtLookupModel,
    gpu: &GpuModel,
    candidates: usize,
) -> Result<Vec<BreakdownComparison>, CoreError> {
    use imars_gpu::reference;
    let filtering = RecsysWorkload::movielens_filtering();
    let ranking = RecsysWorkload::movielens_ranking();
    let gpu_filtering = gpu.filtering_breakdown(
        &filtering.gpu_lookup_workload(),
        &filtering.dnn_layers,
        filtering.catalogue_items,
        filtering.lsh_signature_bits,
    );
    let gpu_ranking = gpu.ranking_breakdown(
        &ranking.gpu_lookup_workload(),
        &ranking.dnn_layers,
        candidates,
    );
    Ok(vec![
        BreakdownComparison {
            stage: "filtering".to_string(),
            imars: imars_filtering_breakdown(model, &filtering)?,
            gpu: gpu_filtering,
            paper_gpu_fractions: reference::FILTERING_BREAKDOWN
                .iter()
                .map(|(n, f)| (n.to_string(), *f))
                .collect(),
        },
        BreakdownComparison {
            stage: "ranking".to_string(),
            imars: imars_ranking_breakdown(model, &ranking, candidates)?,
            gpu: gpu_ranking,
            paper_gpu_fractions: reference::RANKING_BREAKDOWN
                .iter()
                .map(|(n, f)| (n.to_string(), *f))
                .collect(),
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EtLookupModel {
        EtLookupModel::paper_reference()
    }

    #[test]
    fn crossbar_stack_pipelines_batches() {
        let fom = ArrayFom::paper_reference();
        let shapes = vec![(160, 128), (128, 64), (64, 32)];
        let single = crossbar_dnn_cost(&fom, &shapes, 1);
        assert!((single.latency_ns - 3.0 * 225.0).abs() < 1e-9);
        let batched = crossbar_dnn_cost(&fom, &shapes, 100);
        // Pipelining: 100 samples cost 102 rounds, not 300.
        assert!((batched.latency_ns - 102.0 * 225.0).abs() < 1e-9);
        assert!(batched.energy_pj > single.energy_pj * 90.0);
    }

    #[test]
    fn tcam_nns_latency_is_occupancy_independent() {
        let fom = ArrayFom::paper_reference();
        let small = tcam_nns_cost(&fom, 256);
        let large = tcam_nns_cost(&fom, 30_000);
        assert_eq!(small.latency_ns, large.latency_ns);
        assert!(large.energy_pj > small.energy_pj);
    }

    #[test]
    fn filtering_breakdown_has_three_operations_and_sums() {
        let breakdown =
            imars_filtering_breakdown(&model(), &RecsysWorkload::movielens_filtering()).unwrap();
        assert_eq!(breakdown.operations.len(), 3);
        let fractions = breakdown.latency_fractions();
        let total: f64 = fractions.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // On iMARS the crossbar DNN dominates the stage (ET pooling and NNS are
        // near-free in-memory), inverting the GPU's Fig. 2(a) mix.
        assert!(
            breakdown.operation("DNN Stack").latency_ns > breakdown.operation("NNS").latency_ns
        );
    }

    #[test]
    fn fig2_comparisons_report_per_operation_speedups() {
        let comparisons = fig2_comparisons(&model(), &GpuModel::gtx_1080(), 100).unwrap();
        assert_eq!(comparisons.len(), 2);
        for comparison in &comparisons {
            assert_eq!(comparison.imars.operations.len(), 3);
            assert_eq!(comparison.study_rows().len(), 3);
            // Every operation is faster on iMARS.
            for (name, _) in &comparison.imars.operations {
                assert!(
                    comparison.operation_speedup(name) > 1.0,
                    "{}/{name}",
                    comparison.stage
                );
            }
        }
        // The NNS shows the largest single-operation win (the TCAM argument).
        let filtering = &comparisons[0];
        assert!(filtering.operation_speedup("NNS") > filtering.operation_speedup("DNN Stack"));
    }

    #[test]
    fn ranking_breakdown_scales_with_candidates() {
        let workload = RecsysWorkload::movielens_ranking();
        let few = imars_ranking_breakdown(&model(), &workload, 10).unwrap();
        let many = imars_ranking_breakdown(&model(), &workload, 100).unwrap();
        assert!(many.total().latency_ns > few.total().latency_ns);
        assert!(many.total().energy_pj > few.total().energy_pj);
    }
}

//! The nearest-neighbour-search comparison (Sec. IV-C2 of the paper).
//!
//! Three retrieval flavours compete over the same item-embedding catalogue:
//!
//! * **exact cosine top-k** — the FAISS-style software baseline (GPU-costed);
//! * **LSH + Hamming top-k** — the software version of the IMC-friendly search
//!   (GPU-costed);
//! * **TCAM fixed-radius** — what the CMA's TCAM mode executes in O(1) array time; the
//!   functional result comes from real [`CmaArray`] searches over the stored signatures,
//!   so the study measures genuine recall/candidate trade-offs, not a formula.
//!
//! For a sweep of radii the study reports recall@k against the exact-cosine ground
//! truth, the candidate fraction the fixed-radius search passes to ranking, and the
//! modeled iMARS search cost next to both GPU baselines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use imars_device::characterization::ArrayFom;
use imars_fabric::{CmaArray, Cost};
use imars_gpu::{GpuCost, GpuModel};
use imars_recsys::lsh::RandomHyperplaneLsh;
use imars_recsys::nns::{ExactIndex, Metric};
use imars_recsys::EmbeddingTable;

use crate::error::CoreError;
use crate::system::StudyRow;

/// Configuration of the NNS comparison study.
#[derive(Debug, Clone, PartialEq)]
pub struct NnsEvalConfig {
    /// Catalogue size (3,706 for MovieLens).
    pub items: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// LSH signature length in bits (256 in the paper).
    pub signature_bits: usize,
    /// Number of evaluation queries.
    pub queries: usize,
    /// Top-k depth of the recall metric.
    pub k: usize,
    /// Fixed radii to sweep for the TCAM search.
    pub radii: Vec<u32>,
    /// Standard deviation of the perturbation that turns an item vector into a query
    /// (larger = harder retrieval).
    pub noise: f32,
    /// RNG seed (item embeddings, hyperplanes, query perturbations all derive from it).
    pub seed: u64,
}

impl NnsEvalConfig {
    /// The MovieLens-scale configuration of the paper's NNS comparison.
    pub fn movielens_scale() -> Self {
        Self {
            items: 3706,
            dim: 32,
            signature_bits: 256,
            queries: 64,
            k: 10,
            radii: vec![80, 90, 100, 110, 120],
            noise: 0.25,
            seed: 2022,
        }
    }

    /// A small configuration for unit tests and smoke runs.
    pub fn small() -> Self {
        Self {
            items: 512,
            dim: 16,
            signature_bits: 128,
            queries: 16,
            k: 5,
            radii: vec![40, 48, 56],
            noise: 0.25,
            seed: 7,
        }
    }
}

/// One radius point of the fixed-radius sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NnsRadiusPoint {
    /// The Hamming radius.
    pub radius: u32,
    /// Mean recall@k of the TCAM matches against the exact-cosine top-k.
    pub recall_at_k: f64,
    /// Mean fraction of the catalogue passed as candidates.
    pub candidate_fraction: f64,
    /// Modeled per-query TCAM search cost (arrays search in parallel).
    pub tcam: Cost,
}

impl NnsRadiusPoint {
    /// Render as a study row.
    pub fn study_row(&self) -> StudyRow {
        StudyRow::new()
            .config_num("radius", self.radius as f64)
            .metric("recall_at_k", self.recall_at_k)
            .metric("candidate_fraction", self.candidate_fraction)
            .metric("tcam_latency_ns", self.tcam.latency_ns)
            .metric("tcam_energy_pj", self.tcam.energy_pj)
    }
}

/// The complete NNS comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct NnsStudy {
    /// The configuration the study ran with.
    pub config: NnsEvalConfig,
    /// Number of CMA arrays holding the signature catalogue.
    pub signature_arrays: usize,
    /// Per-radius sweep points, in radius order.
    pub points: Vec<NnsRadiusPoint>,
    /// Mean recall@k of the GPU-style LSH Hamming top-k against the exact top-k.
    pub lsh_topk_recall: f64,
    /// GPU cost of the exact cosine search.
    pub gpu_cosine: GpuCost,
    /// GPU cost of the LSH Hamming search.
    pub gpu_lsh: GpuCost,
}

impl NnsStudy {
    /// The modeled TCAM search cost (identical at every radius).
    pub fn tcam_cost(&self) -> Cost {
        self.points.first().map(|p| p.tcam).unwrap_or(Cost::ZERO)
    }

    /// GPU-LSH latency over TCAM latency (the paper's ~3.8×10⁴ claim).
    pub fn tcam_latency_speedup(&self) -> f64 {
        self.gpu_lsh.latency_us / self.tcam_cost().latency_us().max(f64::MIN_POSITIVE)
    }

    /// GPU-LSH energy over TCAM energy (the paper's ~2.8×10⁴ claim).
    pub fn tcam_energy_ratio(&self) -> f64 {
        self.gpu_lsh.energy_uj / self.tcam_cost().energy_uj().max(f64::MIN_POSITIVE)
    }

    /// The radius point with the best recall at a candidate fraction of at most
    /// `max_fraction` (how the serving radius is picked).
    pub fn best_radius_within(&self, max_fraction: f64) -> Option<&NnsRadiusPoint> {
        self.points
            .iter()
            .filter(|p| p.candidate_fraction <= max_fraction)
            .max_by(|a, b| {
                a.recall_at_k
                    .partial_cmp(&b.recall_at_k)
                    .expect("recalls are finite")
            })
    }
}

/// Run the NNS comparison.
///
/// # Errors
///
/// Propagates recsys/fabric errors for inconsistent configurations (zero dims, oversized
/// signatures).
pub fn run_nns_study(config: &NnsEvalConfig, fom: &ArrayFom) -> Result<NnsStudy, CoreError> {
    if config.items == 0 || config.queries == 0 || config.k == 0 || config.radii.is_empty() {
        return Err(CoreError::InvalidExperiment {
            reason: "NNS study needs items, queries, k and at least one radius".to_string(),
        });
    }
    let items = EmbeddingTable::new(config.items, config.dim, config.seed)?;
    let lsh = RandomHyperplaneLsh::new(config.dim, config.signature_bits, config.seed ^ 0x5f5f)?;
    let index = ExactIndex::new(
        config.dim,
        items.iter_rows().map(|row| row.to_vec()).collect(),
    )?;

    // Store every item's signature in TCAM rows: item i lives in array i / rows at row
    // i % rows, so array-local matches translate back to item ids.
    let signatures: Vec<Vec<u64>> = items
        .iter_rows()
        .map(|row| lsh.signature(row))
        .collect::<Result<_, _>>()?;
    let rows_per_array = fom.cma_geometry.rows;
    let array_count = config.items.div_ceil(rows_per_array);
    let mut arrays: Vec<CmaArray> = (0..array_count)
        .map(|_| CmaArray::new(rows_per_array, fom.cma_geometry.cols, *fom))
        .collect();
    for (item, signature) in signatures.iter().enumerate() {
        arrays[item / rows_per_array].write_row_bits(
            item % rows_per_array,
            signature,
            config.signature_bits.min(fom.cma_geometry.cols),
        )?;
    }

    // Queries: perturbed item vectors, ground truth = exact cosine top-k.
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9e3779b9).wrapping_add(1));
    let queries: Vec<Vec<f32>> = (0..config.queries)
        .map(|q| {
            let base = items.row((q * 97) % config.items);
            base.iter()
                .map(|&v| v + rng.gen_range(-config.noise..config.noise))
                .collect()
        })
        .collect();
    let ground_truth: Vec<Vec<usize>> = queries
        .iter()
        .map(|query| index.top_k(query, config.k, Metric::Cosine))
        .collect::<Result<_, _>>()?;
    let query_signatures: Vec<Vec<u64>> = queries
        .iter()
        .map(|query| lsh.signature(query))
        .collect::<Result<_, _>>()?;

    // GPU-style LSH top-k recall.
    let mut lsh_recall_total = 0.0f64;
    for (signature, truth) in query_signatures.iter().zip(ground_truth.iter()) {
        let top = RandomHyperplaneLsh::top_k_by_hamming(signature, &signatures, config.k);
        let hits = truth.iter().filter(|item| top.contains(item)).count();
        lsh_recall_total += hits as f64 / config.k as f64;
    }
    let lsh_topk_recall = lsh_recall_total / config.queries as f64;

    // Fixed-radius sweep over the TCAM arrays.
    let search = Cost::from_fom(fom.cma.search);
    let tcam = Cost::new(search.energy_pj * array_count as f64, search.latency_ns);
    let mut points = Vec::with_capacity(config.radii.len());
    for &radius in &config.radii {
        // One batched search per array: its rows are streamed once against every query.
        let mut matches: Vec<Vec<usize>> = vec![Vec::new(); query_signatures.len()];
        for (array_index, array) in arrays.iter().enumerate() {
            let outcome = array.search_batch(&query_signatures, radius)?;
            for (items, rows) in matches.iter_mut().zip(outcome.value) {
                items.extend(
                    rows.into_iter()
                        .map(|row| array_index * rows_per_array + row),
                );
            }
        }
        let mut recall_total = 0.0f64;
        let mut fraction_total = 0.0f64;
        for (matches, truth) in matches.iter().zip(ground_truth.iter()) {
            let hits = truth.iter().filter(|item| matches.contains(item)).count();
            recall_total += hits as f64 / config.k as f64;
            fraction_total += matches.len() as f64 / config.items as f64;
        }
        points.push(NnsRadiusPoint {
            radius,
            recall_at_k: recall_total / config.queries as f64,
            candidate_fraction: fraction_total / config.queries as f64,
            tcam,
        });
    }

    let gpu = GpuModel::gtx_1080();
    Ok(NnsStudy {
        config: config.clone(),
        signature_arrays: array_count,
        points,
        lsh_topk_recall,
        gpu_cosine: gpu.nns_cosine(config.items, config.dim),
        gpu_lsh: gpu.nns_lsh(config.items, config.signature_bits),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> NnsStudy {
        run_nns_study(&NnsEvalConfig::small(), &ArrayFom::paper_reference()).unwrap()
    }

    #[test]
    fn recall_and_candidates_grow_with_radius() {
        let study = study();
        for pair in study.points.windows(2) {
            assert!(pair[0].recall_at_k <= pair[1].recall_at_k + 1e-12);
            assert!(pair[0].candidate_fraction <= pair[1].candidate_fraction + 1e-12);
        }
        // The widest radius must retrieve something.
        assert!(study.points.last().unwrap().recall_at_k > 0.0);
    }

    #[test]
    fn tcam_searches_in_constant_array_time() {
        let study = study();
        let fom = ArrayFom::paper_reference();
        assert_eq!(study.signature_arrays, 2); // 512 items / 256 rows
        let cost = study.tcam_cost();
        assert!((cost.latency_ns - fom.cma.search.latency_ns).abs() < 1e-12);
        assert!((cost.energy_pj - 2.0 * fom.cma.search.energy_pj).abs() < 1e-12);
    }

    #[test]
    fn tcam_speedup_over_gpu_lsh_is_orders_of_magnitude() {
        let study = study();
        assert!(study.tcam_latency_speedup() > 1e3);
        assert!(study.tcam_energy_ratio() > 1e3);
        assert!(study.gpu_cosine.latency_us > study.gpu_lsh.latency_us);
    }

    #[test]
    fn study_is_deterministic_for_a_seed() {
        let a = study();
        let b = study();
        assert_eq!(a, b);
        let mut other = NnsEvalConfig::small();
        other.seed ^= 1;
        let c = run_nns_study(&other, &ArrayFom::paper_reference()).unwrap();
        assert_ne!(a.points, c.points);
    }

    #[test]
    fn tcam_matches_equal_software_fixed_radius_reference() {
        // Rebuild the study's catalogue and cross-check one radius point's candidate
        // fraction against the software within_radius reference.
        let config = NnsEvalConfig::small();
        let items = EmbeddingTable::new(config.items, config.dim, config.seed).unwrap();
        let lsh = RandomHyperplaneLsh::new(config.dim, config.signature_bits, config.seed ^ 0x5f5f)
            .unwrap();
        let signatures: Vec<Vec<u64>> = items
            .iter_rows()
            .map(|row| lsh.signature(row).unwrap())
            .collect();
        let study = study();
        let radius = config.radii[0];
        // Average candidate fraction over the same queries, via the software reference.
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9e3779b9).wrapping_add(1));
        let mut fraction_total = 0.0f64;
        for q in 0..config.queries {
            let base = items.row((q * 97) % config.items);
            let query: Vec<f32> = base
                .iter()
                .map(|&v| v + rng.gen_range(-config.noise..config.noise))
                .collect();
            let signature = lsh.signature(&query).unwrap();
            let matches = RandomHyperplaneLsh::within_radius(&signature, &signatures, radius);
            fraction_total += matches.len() as f64 / config.items as f64;
        }
        let reference = fraction_total / config.queries as f64;
        assert!((study.points[0].candidate_fraction - reference).abs() < 1e-12);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let fom = ArrayFom::paper_reference();
        let mut config = NnsEvalConfig::small();
        config.radii.clear();
        assert!(run_nns_study(&config, &fom).is_err());
        let mut config = NnsEvalConfig::small();
        config.queries = 0;
        assert!(run_nns_study(&config, &fom).is_err());
    }

    #[test]
    fn best_radius_respects_candidate_budget() {
        let study = study();
        if let Some(best) = study.best_radius_within(0.5) {
            assert!(best.candidate_fraction <= 0.5);
        }
        assert!(study.best_radius_within(-1.0).is_none());
    }
}

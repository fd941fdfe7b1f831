//! The paper-scale offline study: MovieLens-1M-sized accuracy plus a multi-million-row
//! Zipf replay through the serving stack.
//!
//! The iMARS evaluation runs at two scales this workspace's CI-sized studies do not:
//! the *real* MovieLens-1M cardinalities (6040 users × 3706 items) for the accuracy
//! argument, and catalogues in the millions of rows for the serving argument. This
//! module is the offline driver for both legs:
//!
//! * **Accuracy** — [`movielens_accuracy`] at the ML-1M dataset shape (train the
//!   YouTubeDNN filtering tower, retrieve under fp32/int8/LSH/TCAM, score hit rate /
//!   MRR / AUC);
//! * **Replay** — a multi-million-row Zipf replay through [`ServeEngine`] in both
//!   served precisions, recording throughput (served + modeled qps), the latency tail
//!   (p50/p95/p99), the cache hit rate, and the arena-accounted resident bytes of the
//!   catalogue ([`ServeEngine::catalogue_resident_bytes`] — one allocation per dtype,
//!   which is the memory win of the [`RowArena`](imars_recsys::RowArena) storage layer).
//!
//! The workload and both legs are fully seeded: the accuracy numbers, modeled
//! throughput, cache hit rates and memory accounting are byte-deterministic across
//! runs (pinned by a test on the CI-sized proxy). Served qps and the latency tail are
//! *measured* on the real clock and vary run to run — that is what the study is for.
//! CI runs only [`LargeScaleConfig::smoke`]; the full [`LargeScaleConfig::paper`]
//! grid is the offline `large_scale` example.

use imars_datasets::SyntheticMovieLensConfig;
use imars_recsys::dlrm::Dlrm;
use imars_recsys::training::TrainingConfig;
use imars_recsys::EmbeddingTable;
use imars_serve::{ReplayConfig, ReplayWorkload, ServeConfig, ServeEngine, ServePrecision};

use crate::accuracy::{movielens_accuracy, MovieLensAccuracyConfig, MovieLensAccuracyStudy};
use crate::end_to_end::serve_model;
use crate::error::CoreError;
use crate::system::{Study, StudyRow};

/// Configuration of the replay leg: one seeded Zipf workload replayed through the
/// engine once per served precision.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeReplayConfig {
    /// Catalogue size in rows (multi-million at paper scale).
    pub num_items: usize,
    /// Embedding shards.
    pub shards: usize,
    /// Queries replayed per precision.
    pub queries: usize,
    /// Distinct users in the workload.
    pub num_users: usize,
    /// Rows pooled per query (the user-history length).
    pub history_len: usize,
    /// Zipf exponent of the item popularity.
    pub zipf_exponent: f64,
    /// Hot-row cache capacity in rows.
    pub cache_capacity: usize,
    /// LSH signature width in bits. Paper scale uses 64 (one word) so the TCAM scan
    /// over millions of rows stays tractable on one core.
    pub signature_bits: usize,
    /// TCAM fixed radius, tuned so the candidate set stays O(100) per query.
    pub search_radius: u32,
    /// Precisions to replay (each gets its own engine over the same workload).
    pub precisions: Vec<ServePrecision>,
    /// Workload seed.
    pub seed: u64,
}

impl LargeReplayConfig {
    /// CI-sized proxy: a few thousand rows, a few hundred queries — same code path,
    /// minutes of margin.
    pub fn smoke() -> Self {
        Self {
            num_items: 4096,
            shards: 8,
            queries: 256,
            num_users: 128,
            history_len: 16,
            zipf_exponent: 1.1,
            cache_capacity: 256,
            signature_bits: 64,
            search_radius: 20,
            precisions: vec![ServePrecision::Fp32, ServePrecision::Int8],
            seed: 97,
        }
    }

    /// Paper scale: a two-million-row catalogue behind 8 shards, a few thousand Zipf
    /// queries per precision.
    pub fn paper() -> Self {
        Self {
            num_items: 2_000_000,
            shards: 8,
            queries: 2_000,
            num_users: 1_000,
            history_len: 32,
            zipf_exponent: 1.1,
            cache_capacity: 65_536,
            signature_bits: 64,
            search_radius: 18,
            precisions: vec![ServePrecision::Fp32, ServePrecision::Int8],
            seed: 97,
        }
    }
}

/// Configuration of the full study: both legs.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeScaleConfig {
    /// The accuracy leg (ML-1M-shaped at paper scale).
    pub accuracy: MovieLensAccuracyConfig,
    /// The replay leg.
    pub replay: LargeReplayConfig,
}

impl LargeScaleConfig {
    /// The CI proxy: small synthetic MovieLens, small catalogue — every code path of
    /// the paper run at a fraction of the cost.
    pub fn smoke() -> Self {
        let mut accuracy = MovieLensAccuracyConfig::small();
        accuracy.training.epochs = 2;
        Self {
            accuracy,
            replay: LargeReplayConfig::smoke(),
        }
    }

    /// Paper scale: the real MovieLens-1M cardinalities and a two-million-row replay.
    pub fn paper() -> Self {
        Self {
            accuracy: MovieLensAccuracyConfig {
                dataset: SyntheticMovieLensConfig::movielens_1m(),
                embedding_dim: 16,
                filtering_hidden: vec![32, 16],
                training: TrainingConfig {
                    epochs: 2,
                    learning_rate: 0.05,
                    negatives_per_positive: 4,
                    seed: 1,
                },
                k: 20,
                signature_bits: 128,
                radius: 52,
                negatives_per_user: 20,
                holdout_every: 5,
                seed: 11,
            },
            replay: LargeReplayConfig::paper(),
        }
    }
}

/// One measured replay point (one precision over the shared workload).
#[derive(Debug, Clone, PartialEq)]
pub struct LargeReplayPoint {
    /// Served precision of this point.
    pub precision: ServePrecision,
    /// Catalogue rows.
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Arena-accounted bytes of resident item-row storage (one allocation).
    pub catalogue_bytes: usize,
    /// Queries replayed.
    pub queries: u64,
    /// Throughput over the simulated makespan (arrival pacing included).
    pub served_qps: f64,
    /// Deterministic modeled throughput (queries over modeled GPCiM + bus latency).
    pub modeled_qps: f64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Hot-row cache hit rate over the replay.
    pub hit_rate: f64,
    /// Mean TCAM candidates surfaced per query.
    pub mean_candidates: f64,
}

impl LargeReplayPoint {
    fn precision_label(&self) -> &'static str {
        match self.precision {
            ServePrecision::Fp32 => "fp32",
            ServePrecision::Int8 => "int8",
        }
    }

    /// Render as a study row.
    pub fn study_row(&self) -> StudyRow {
        StudyRow::new()
            .config_text("axis", "replay")
            .config_text("precision", self.precision_label())
            .config_num("rows", self.rows as f64)
            .config_num("dim", self.dim as f64)
            .metric("catalogue_bytes", self.catalogue_bytes as f64)
            .metric("served_qps", self.served_qps)
            .metric("modeled_qps", self.modeled_qps)
            .metric("latency_p50_us", self.p50_us)
            .metric("latency_p95_us", self.p95_us)
            .metric("latency_p99_us", self.p99_us)
            .metric("latency_mean_us", self.mean_us)
            .metric("cache_hit_rate", self.hit_rate)
            .metric("mean_candidates", self.mean_candidates)
    }
}

/// The full study result: both legs plus the configuration that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeScaleOutcome {
    /// The configuration the study ran with.
    pub config: LargeScaleConfig,
    /// The accuracy leg's result.
    pub accuracy: MovieLensAccuracyStudy,
    /// One replay point per served precision.
    pub replay: Vec<LargeReplayPoint>,
}

impl LargeScaleOutcome {
    /// Render the study: accuracy-variant rows plus one replay row per precision.
    /// Accuracy and modeled metrics are deterministic for a fixed config; measured
    /// throughput/latency metrics carry real wall-clock jitter.
    pub fn study(&self) -> Study {
        let mut study = Study::new("large_scale", self.config.replay.seed);
        study.note(
            "method",
            "two legs: (1) synthetic MovieLens at the configured cardinalities, \
             leave-one-out filtering accuracy under fp32/int8/LSH/TCAM; (2) one seeded \
             Zipf replay per served precision through the sharded serve engine on the \
             simulated clock, catalogue resident bytes accounted by the shared row \
             arena (one allocation per dtype)",
        );
        study.note(
            "scale",
            &format!(
                "{} users x {} items (accuracy), {} rows x {} queries (replay)",
                self.config.accuracy.dataset.num_users,
                self.config.accuracy.dataset.num_items,
                self.config.replay.num_items,
                self.config.replay.queries,
            ),
        );
        for variant in &self.accuracy.variants {
            study.push(variant.study_row().config_text_front("axis", "accuracy"));
        }
        for point in &self.replay {
            study.push(point.study_row());
        }
        study
    }
}

fn serve_error(error: imars_serve::ServeError) -> CoreError {
    CoreError::InvalidExperiment {
        reason: format!("large-scale replay failed: {error}"),
    }
}

/// Run the replay leg alone: generate one seeded Zipf workload over the catalogue and
/// replay it through a fresh engine per precision.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] when the replay cannot be configured or
/// fails mid-run.
pub(crate) fn run_large_replay(
    config: &LargeReplayConfig,
) -> Result<Vec<LargeReplayPoint>, CoreError> {
    let model_config = serve_model();
    let dim = model_config.num_dense_features;
    let items = EmbeddingTable::new(config.num_items, dim, 77)?;
    let workload = ReplayWorkload::generate(&ReplayConfig {
        queries: config.queries,
        num_users: config.num_users.max(1),
        num_items: config.num_items,
        zipf_exponent: config.zipf_exponent,
        history_len: config.history_len,
        offered_qps: 4_000.0,
        candidates_per_query: 100,
        top_k: 10,
        sparse_cardinalities: model_config.sparse_cardinalities.clone(),
        seed: config.seed,
        item_permutation_seed: None,
    })
    .map_err(serve_error)?;
    let mut points = Vec::new();
    for &precision in &config.precisions {
        let mut serve_config =
            ServeConfig::paper_serving(config.cache_capacity).map_err(serve_error)?;
        serve_config.shards = config.shards.min(config.num_items.max(1));
        serve_config.precision = precision;
        serve_config.signature_bits = config.signature_bits;
        serve_config.search_radius = config.search_radius;
        let model = Dlrm::new(model_config.clone())?;
        let mut engine = ServeEngine::new(model, &items, serve_config).map_err(serve_error)?;
        let outcome = engine.replay(&workload).map_err(serve_error)?;
        let telemetry = &outcome.report.telemetry;
        points.push(LargeReplayPoint {
            precision,
            rows: config.num_items,
            dim,
            catalogue_bytes: engine
                .catalogue_resident_bytes()
                .expect("in-process engine accounts its arena"),
            queries: telemetry.queries,
            served_qps: telemetry.served_qps(),
            modeled_qps: telemetry.modeled_qps(),
            p50_us: telemetry.latency.quantile_us(0.50),
            p95_us: telemetry.latency.quantile_us(0.95),
            p99_us: telemetry.latency.quantile_us(0.99),
            mean_us: telemetry.latency.mean_us(),
            hit_rate: outcome.report.cache.hit_rate(),
            mean_candidates: telemetry.mean_candidates(),
        });
    }
    Ok(points)
}

/// Run both legs of the study.
///
/// # Errors
///
/// Propagates accuracy-study and replay errors.
pub fn run_large_scale(config: &LargeScaleConfig) -> Result<LargeScaleOutcome, CoreError> {
    let accuracy = movielens_accuracy(&config.accuracy)?;
    let replay = run_large_replay(&config.replay)?;
    Ok(LargeScaleOutcome {
        config: config.clone(),
        accuracy,
        replay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_replay_measures_throughput_latency_and_memory() {
        let config = LargeReplayConfig::smoke();
        let points = run_large_replay(&config).unwrap();
        assert_eq!(points.len(), config.precisions.len());
        for point in &points {
            assert_eq!(point.queries, config.queries as u64);
            assert!(point.served_qps > 0.0, "{point:?}");
            assert!(point.modeled_qps > 0.0, "{point:?}");
            assert!(
                point.p50_us > 0.0 && point.p50_us <= point.p99_us,
                "{point:?}"
            );
            assert!((0.0..=1.0).contains(&point.hit_rate));
        }
        // The arena accounts exactly one allocation per dtype: rows x dim elements.
        let fp32 = &points[0];
        let int8 = &points[1];
        assert_eq!(
            fp32.catalogue_bytes,
            config.num_items * fp32.dim * std::mem::size_of::<f32>()
        );
        assert_eq!(int8.catalogue_bytes, config.num_items * int8.dim);
        // Everything that is not wall-clock-measured repeats exactly.
        let again = run_large_replay(&config).unwrap();
        for (a, b) in points.iter().zip(again.iter()) {
            assert_eq!(a.modeled_qps, b.modeled_qps);
            assert_eq!(a.hit_rate, b.hit_rate);
            assert_eq!(a.mean_candidates, b.mean_candidates);
            assert_eq!(a.catalogue_bytes, b.catalogue_bytes);
        }
    }

    #[test]
    fn smoke_study_covers_both_legs() {
        let config = LargeScaleConfig::smoke();
        let outcome = run_large_scale(&config).unwrap();
        let accuracy_rows = outcome.accuracy.variants.len();
        assert_eq!(accuracy_rows, 4);
        assert_eq!(outcome.replay.len(), 2);
        let json = outcome.study().to_json();
        for needle in [
            "\"axis\": \"accuracy\"",
            "\"axis\": \"replay\"",
            "served_qps",
            "latency_p99_us",
            "catalogue_bytes",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
    }
}

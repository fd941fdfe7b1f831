//! Every GPU-side measurement the paper reports, collected in one place.
//!
//! These constants serve two purposes: they are the calibration targets the analytical
//! model in [`crate::model`] is validated against (unit tests keep the model within a
//! small tolerance of each), and they are what `EXPERIMENTS.md` quotes as the
//! "paper-reported" column next to the model's "measured" column.

/// A latency (µs) / energy (µJ) pair as reported by the paper for the GPU baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportedGpuCost {
    /// Latency in microseconds.
    pub latency_us: f64,
    /// Energy in microjoules.
    pub energy_uj: f64,
}

/// Table III, GPU column: embedding-table lookup for one item input, MovieLens filtering
/// stage.
pub const ET_LOOKUP_MOVIELENS_FILTERING: ReportedGpuCost = ReportedGpuCost {
    latency_us: 9.27,
    energy_uj: 203.97,
};

/// Table III, GPU column: embedding-table lookup for one item input, MovieLens ranking
/// stage.
pub const ET_LOOKUP_MOVIELENS_RANKING: ReportedGpuCost = ReportedGpuCost {
    latency_us: 9.60,
    energy_uj: 211.26,
};

/// Table III, GPU column: embedding-table lookup for one item input, Criteo Kaggle
/// ranking stage.
pub const ET_LOOKUP_CRITEO_RANKING: ReportedGpuCost = ReportedGpuCost {
    latency_us: 14.97,
    energy_uj: 329.34,
};

/// Sec. IV-C2: exact cosine nearest-neighbour search over the MovieLens item table
/// (O(10^3) items) for one query on the GPU.
pub const NNS_COSINE_MOVIELENS: ReportedGpuCost = ReportedGpuCost {
    latency_us: 13.6,
    energy_uj: 340.0,
};

/// Sec. IV-C2: LSH (256-bit signature) Hamming nearest-neighbour search over the
/// MovieLens item table for one query on the GPU.
pub const NNS_LSH_MOVIELENS: ReportedGpuCost = ReportedGpuCost {
    latency_us: 6.97,
    energy_uj: 150.0,
};

/// Sec. IV-C3: end-to-end GPU throughput on the MovieLens filtering + ranking pipeline,
/// in queries per second.
pub const END_TO_END_MOVIELENS_QPS: f64 = 1311.0;

/// Sec. IV-C3: end-to-end iMARS throughput on MovieLens, in queries per second (used to
/// cross-check the core-crate roll-up, not a GPU number).
pub const END_TO_END_IMARS_QPS: f64 = 22_025.0;

/// Fig. 2(a): operation breakdown of the filtering stage on the GPU (fractions of run
/// time): embedding-table lookups, DNN stack, nearest-neighbour search.
pub const FILTERING_BREAKDOWN: [(&str, f64); 3] =
    [("ET Lookup", 0.53), ("DNN Stack", 0.36), ("NNS", 0.11)];

/// Fig. 2(b): operation breakdown of the ranking stage on the GPU: embedding-table
/// lookups, DNN stack, top-k selection.
pub const RANKING_BREAKDOWN: [(&str, f64); 3] =
    [("ET Lookup", 0.23), ("DNN Stack", 0.65), ("TopK", 0.12)];

/// Paper-reported iMARS-over-GPU improvement factors used as cross-checks by the
/// experiment harness (latency ×, energy ×).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportedSpeedup {
    /// Latency improvement factor (GPU / iMARS).
    pub latency: f64,
    /// Energy improvement factor (GPU / iMARS).
    pub energy: f64,
}

/// Table III: ET-lookup improvement, MovieLens filtering.
pub const SPEEDUP_ET_MOVIELENS_FILTERING: ReportedSpeedup = ReportedSpeedup {
    latency: 43.61,
    energy: 516.05,
};

/// Table III: ET-lookup improvement, MovieLens ranking.
pub const SPEEDUP_ET_MOVIELENS_RANKING: ReportedSpeedup = ReportedSpeedup {
    latency: 45.17,
    energy: 458.12,
};

/// Table III: ET-lookup improvement, Criteo Kaggle ranking.
pub const SPEEDUP_ET_CRITEO_RANKING: ReportedSpeedup = ReportedSpeedup {
    latency: 61.83,
    energy: 47.90,
};

/// Sec. IV-C3: end-to-end improvement on MovieLens (filtering + ranking).
pub const SPEEDUP_END_TO_END_MOVIELENS: ReportedSpeedup = ReportedSpeedup {
    latency: 16.8,
    energy: 713.0,
};

/// Sec. IV-C3: end-to-end improvement on the Criteo Kaggle ranking model.
pub const SPEEDUP_END_TO_END_CRITEO: ReportedSpeedup = ReportedSpeedup {
    latency: 13.2,
    energy: 57.8,
};

/// Sec. IV-C3: DNN-stack latency improvement of the crossbar implementation over the GPU.
pub const SPEEDUP_DNN_STACK: f64 = 2.69;

/// Sec. IV-C2: NNS improvement of the iMARS CAM search over the GPU LSH search.
pub const SPEEDUP_NNS: ReportedSpeedup = ReportedSpeedup {
    latency: 3.8e4,
    energy: 2.8e4,
};

/// Sec. IV-B: filtering hit rates under the three evaluated configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportedHitRates {
    /// FP32 embeddings, cosine distance.
    pub fp32_cosine: f64,
    /// Int8 embeddings, cosine distance.
    pub int8_cosine: f64,
    /// Int8 embeddings, 256-bit LSH + Hamming distance.
    pub int8_lsh_hamming: f64,
}

/// The hit rates reported in Sec. IV-B.
pub const REPORTED_HIT_RATES: ReportedHitRates = ReportedHitRates {
    fp32_cosine: 0.268,
    int8_cosine: 0.262,
    int8_lsh_hamming: 0.208,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdowns_sum_to_one() {
        let filtering: f64 = FILTERING_BREAKDOWN.iter().map(|(_, f)| f).sum();
        let ranking: f64 = RANKING_BREAKDOWN.iter().map(|(_, f)| f).sum();
        assert!((filtering - 1.0).abs() < 1e-9);
        assert!((ranking - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reported_costs_imply_consistent_power() {
        // Every reported GPU latency/energy pair implies an average power near 22 W,
        // which is what motivates the single-power model.
        for cost in [
            ET_LOOKUP_MOVIELENS_FILTERING,
            ET_LOOKUP_MOVIELENS_RANKING,
            ET_LOOKUP_CRITEO_RANKING,
            NNS_LSH_MOVIELENS,
        ] {
            let power = cost.energy_uj / cost.latency_us;
            assert!(power > 20.0 && power < 26.0, "implied power {power} W");
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn hit_rates_are_ordered() {
        assert!(REPORTED_HIT_RATES.fp32_cosine >= REPORTED_HIT_RATES.int8_cosine);
        assert!(REPORTED_HIT_RATES.int8_cosine > REPORTED_HIT_RATES.int8_lsh_hamming);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn speedups_are_greater_than_one() {
        for speedup in [
            SPEEDUP_ET_MOVIELENS_FILTERING,
            SPEEDUP_ET_MOVIELENS_RANKING,
            SPEEDUP_ET_CRITEO_RANKING,
            SPEEDUP_END_TO_END_MOVIELENS,
            SPEEDUP_END_TO_END_CRITEO,
            SPEEDUP_NNS,
        ] {
            assert!(speedup.latency > 1.0);
            assert!(speedup.energy > 1.0);
        }
        assert!(SPEEDUP_DNN_STACK > 1.0);
        assert!(END_TO_END_IMARS_QPS > END_TO_END_MOVIELENS_QPS);
    }
}

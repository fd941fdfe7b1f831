//! Zipf traffic replay: turning the dataset layer's workload generators into a timed
//! request trace.
//!
//! [`InferenceWorkload`] supplies the user/query
//! stream; this module attaches to each query a Zipf-skewed multi-hot item history (the
//! rows the shard/cache layer will fetch — rank 0 is the hottest item), DLRM categorical
//! features, and a Poisson arrival timestamp at a configured offered load. The trace is
//! a pure function of the seed, so a replay can be run twice (cache on / cache off) and
//! compared bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use imars_datasets::{InferenceWorkload, WorkloadConfig, ZipfSampler};

use crate::engine::ServeRequest;
use crate::error::ServeError;

/// Configuration of a replay trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// Number of queries to replay.
    pub queries: usize,
    /// Number of users issuing queries (drawn uniformly).
    pub num_users: usize,
    /// Catalogue size: item history rows are drawn from `0..num_items`.
    pub num_items: usize,
    /// Zipf exponent of item popularity (≥ 1.0 reproduces real head-heavy traffic).
    pub zipf_exponent: f64,
    /// Multi-hot history length per query (lookups the pooling stage performs).
    pub history_len: usize,
    /// Offered load in queries per second (Poisson arrivals).
    pub offered_qps: f64,
    /// Candidates the filtering stage should pass to ranking.
    pub candidates_per_query: usize,
    /// Items finally returned to the user.
    pub top_k: usize,
    /// Cardinality of each DLRM categorical field (values drawn uniformly).
    pub sparse_cardinalities: Vec<usize>,
    /// RNG seed; the whole trace is a pure function of it.
    pub seed: u64,
    /// When set, catalogue row ids are a seeded pseudorandom permutation of the Zipf
    /// popularity ranks instead of being identical to them. Real catalogues are not
    /// popularity-sorted; permuting decouples id order from rank order, which is what
    /// makes range vs frequency-aware shard placement a meaningful comparison. `None`
    /// keeps the historical rank-ordered traces.
    pub item_permutation_seed: Option<u64>,
}

impl ReplayConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.queries == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "replay needs at least one query".to_string(),
            });
        }
        if self.num_items == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "replay needs a nonempty item catalogue".to_string(),
            });
        }
        if self.history_len == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "replay needs at least one history item per query".to_string(),
            });
        }
        if !self.offered_qps.is_finite() || self.offered_qps <= 0.0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "replay needs a positive finite offered_qps, got {}",
                    self.offered_qps
                ),
            });
        }
        if !self.zipf_exponent.is_finite() {
            return Err(ServeError::InvalidConfig {
                reason: "replay needs a finite Zipf exponent".to_string(),
            });
        }
        if self.sparse_cardinalities.contains(&0) {
            return Err(ServeError::InvalidConfig {
                reason: "sparse field cardinalities must be nonzero".to_string(),
            });
        }
        Ok(())
    }
}

/// A generated, timestamped request trace (arrivals in non-decreasing order).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayWorkload {
    requests: Vec<ServeRequest>,
}

impl ReplayWorkload {
    /// Generate the trace from the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a structurally invalid configuration.
    pub fn generate(config: &ReplayConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let users = InferenceWorkload::generate(WorkloadConfig {
            queries: config.queries,
            num_users: config.num_users,
            candidates_per_query: config.candidates_per_query,
            top_k: config.top_k,
            seed: config.seed,
        });
        let zipf = ZipfSampler::new(config.num_items, config.zipf_exponent);
        let permutation = config
            .item_permutation_seed
            .map(|seed| rank_permutation(config.num_items, seed));
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
        let mut history = vec![0usize; config.history_len];
        let mut arrival_us = 0.0f64;
        let mean_gap_us = 1e6 / config.offered_qps;
        let requests = users
            .queries()
            .iter()
            .enumerate()
            .map(|(id, &query)| {
                // Poisson arrivals: exponential inter-arrival times via inverse CDF.
                // `gen_range(0.0..1.0)` can return exactly 0, so invert on (0, 1].
                let u: f64 = rng.gen_range(0.0..1.0);
                arrival_us += -(1.0 - u).ln() * mean_gap_us;
                zipf.sample_many_into(&mut rng, &mut history);
                let sparse: Vec<usize> = config
                    .sparse_cardinalities
                    .iter()
                    .map(|&cardinality| rng.gen_range(0..cardinality))
                    .collect();
                ServeRequest {
                    id: id as u64,
                    arrival_us,
                    query,
                    history: history
                        .iter()
                        .map(|&rank| match &permutation {
                            Some(permutation) => permutation[rank],
                            None => rank as u32,
                        })
                        .collect(),
                    sparse,
                }
            })
            .collect();
        Ok(Self { requests })
    }

    /// The timed requests in arrival order.
    pub fn requests(&self) -> &[ServeRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty (never true for a generated trace).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The trace's arrival span in microseconds: the last request's timestamp
    /// (arrivals are non-decreasing), zero for an empty trace.
    pub fn span_us(&self) -> f64 {
        self.requests
            .last()
            .map_or(0.0, |request| request.arrival_us)
    }

    /// A metrics configuration whose scrape interval splits the trace's arrival span
    /// into roughly `windows` event-time windows — the canonical way to size the
    /// [`MetricsScraper`](crate::metrics::MetricsScraper) grid to a generated trace.
    /// Degenerate traces (zero span or zero `windows`) fall back to the default
    /// interval, so the window math can never divide by zero.
    pub fn metrics_config(&self, windows: usize) -> crate::metrics::MetricsConfig {
        let span = self.span_us();
        if windows == 0 || !span.is_finite() || span <= 0.0 {
            return crate::metrics::MetricsConfig::default();
        }
        crate::metrics::MetricsConfig {
            interval_us: (span / windows as f64).max(1.0),
        }
    }

    /// Per-row access counts over the trace's histories — the measured popularity
    /// histogram that drives frequency-aware shard placement (and hot-replica choice).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::RowOutOfRange`] if any history row is outside
    /// `0..num_items`.
    pub fn row_histogram(&self, num_items: usize) -> Result<Vec<u64>, ServeError> {
        let mut histogram = vec![0u64; num_items];
        for request in &self.requests {
            for &row in &request.history {
                let slot = histogram
                    .get_mut(row as usize)
                    .ok_or(ServeError::RowOutOfRange {
                        row: row as usize,
                        rows: num_items,
                    })?;
                *slot += 1;
            }
        }
        Ok(histogram)
    }
}

/// A seeded pseudorandom bijection rank -> catalogue row id (Fisher–Yates over
/// `0..num_items`).
fn rank_permutation(num_items: usize, seed: u64) -> Vec<u32> {
    let mut permutation: Vec<u32> = (0..num_items as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(1));
    for i in (1..permutation.len()).rev() {
        let j = rng.gen_range(0..=i);
        permutation.swap(i, j);
    }
    permutation
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ReplayConfig {
        ReplayConfig {
            queries: 500,
            num_users: 100,
            num_items: 1000,
            zipf_exponent: 1.2,
            history_len: 12,
            offered_qps: 10_000.0,
            candidates_per_query: 50,
            top_k: 10,
            sparse_cardinalities: vec![10, 20, 5],
            seed: 42,
            item_permutation_seed: None,
        }
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        let a = ReplayWorkload::generate(&config()).unwrap();
        let b = ReplayWorkload::generate(&config()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(!a.is_empty());
        let mut previous = 0.0f64;
        for (i, request) in a.requests().iter().enumerate() {
            assert_eq!(request.id, i as u64);
            assert!(
                request.arrival_us >= previous,
                "arrivals must be non-decreasing"
            );
            previous = request.arrival_us;
            assert_eq!(request.history.len(), 12);
            assert!(request.history.iter().all(|&row| (row as usize) < 1000));
            assert_eq!(request.sparse.len(), 3);
            assert!(request.sparse[0] < 10 && request.sparse[1] < 20 && request.sparse[2] < 5);
            assert!(request.query.user_index < 100);
        }
    }

    #[test]
    fn arrival_rate_tracks_offered_qps() {
        let workload = ReplayWorkload::generate(&config()).unwrap();
        let span_us = workload.requests().last().unwrap().arrival_us;
        let qps = 500.0 / span_us * 1e6;
        // Poisson with 500 draws: the empirical rate is within ±25 % of the offer.
        assert!((7_500.0..12_500.0).contains(&qps), "qps {qps}");
    }

    #[test]
    fn zipf_history_is_head_skewed() {
        let workload = ReplayWorkload::generate(&config()).unwrap();
        let total: usize = workload.requests().iter().map(|r| r.history.len()).sum();
        let head: usize = workload
            .requests()
            .iter()
            .flat_map(|r| r.history.iter())
            .filter(|&&row| row < 100)
            .count();
        // At exponent 1.2, the top 10 % of items carry well over half the lookups.
        assert!(
            head as f64 / total as f64 > 0.6,
            "head share {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn permutation_shuffles_ids_but_preserves_the_popularity_law() {
        let plain = ReplayWorkload::generate(&config()).unwrap();
        let mut shuffled_config = config();
        shuffled_config.item_permutation_seed = Some(9);
        let shuffled = ReplayWorkload::generate(&shuffled_config).unwrap();
        let again = ReplayWorkload::generate(&shuffled_config).unwrap();
        assert_eq!(shuffled, again, "permutation is seeded, not random");
        assert_ne!(plain, shuffled);
        // Same arrivals and queries, different row ids.
        for (a, b) in plain.requests().iter().zip(shuffled.requests()) {
            assert_eq!(a.arrival_us, b.arrival_us);
            assert_eq!(a.query, b.query);
            assert_eq!(a.sparse, b.sparse);
            assert!(b.history.iter().all(|&row| (row as usize) < 1000));
        }
        // The permutation is a bijection: histograms are a permutation of each other,
        // so the head mass (and hence cache behaviour) is unchanged.
        let mut h_plain = plain.row_histogram(1000).unwrap();
        let mut h_shuffled = shuffled.row_histogram(1000).unwrap();
        assert_eq!(h_plain.iter().sum::<u64>(), h_shuffled.iter().sum::<u64>());
        h_plain.sort_unstable();
        h_shuffled.sort_unstable();
        assert_eq!(h_plain, h_shuffled);
        // ...but the shuffled trace's head is no longer the low ids.
        let unshuffled = ReplayWorkload::generate(&config())
            .unwrap()
            .row_histogram(1000)
            .unwrap();
        let head_mass =
            |h: &[u64]| h.iter().take(100).sum::<u64>() as f64 / h.iter().sum::<u64>() as f64;
        assert!(head_mass(&unshuffled) > 0.6);
        assert!(head_mass(&shuffled.row_histogram(1000).unwrap()) < 0.4);
    }

    #[test]
    fn row_histogram_counts_every_lookup_and_validates_range() {
        let workload = ReplayWorkload::generate(&config()).unwrap();
        let histogram = workload.row_histogram(1000).unwrap();
        assert_eq!(histogram.iter().sum::<u64>(), 500 * 12);
        // Zipf rank 0 is the hottest row in the unpermuted trace.
        let max = *histogram.iter().max().unwrap();
        assert_eq!(histogram[0], max);
        assert!(matches!(
            workload.row_histogram(10),
            Err(ServeError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn metrics_config_splits_the_arrival_span_into_windows() {
        let workload = ReplayWorkload::generate(&config()).unwrap();
        let span = workload.span_us();
        assert!(span > 0.0);
        let metrics = workload.metrics_config(20);
        assert!((metrics.interval_us - span / 20.0).abs() < 1e-9);
        // Every arrival lands in one of the requested windows (the last one exactly
        // on the boundary spills into window `windows`, hence <=).
        for request in workload.requests() {
            let index = (request.arrival_us / metrics.interval_us).floor() as i64;
            assert!((0..=20).contains(&index), "window {index}");
        }
        // Degenerate inputs fall back to the default interval.
        let default_us = crate::metrics::MetricsConfig::default().interval_us;
        assert_eq!(workload.metrics_config(0).interval_us, default_us);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for mutate in [
            (|c: &mut ReplayConfig| c.queries = 0) as fn(&mut ReplayConfig),
            |c| c.num_items = 0,
            |c| c.history_len = 0,
            |c| c.offered_qps = 0.0,
            |c| c.offered_qps = f64::NAN,
            |c| c.zipf_exponent = f64::INFINITY,
            |c| c.sparse_cardinalities = vec![10, 0],
        ] {
            let mut bad = config();
            mutate(&mut bad);
            assert!(ReplayWorkload::generate(&bad).is_err());
        }
    }
}

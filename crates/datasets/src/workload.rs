//! Inference workload generation.
//!
//! The end-to-end comparison of Sec. IV-C3 is expressed in queries per second: one query
//! is a full filtering + ranking pass for one user. This module turns a generated dataset
//! into a reproducible stream of inference queries (user index plus number of candidates
//! to rank), so the same workload drives both the GPU baseline and the iMARS model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One inference query: which user to serve and how many candidates flow into ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceQuery {
    /// Index of the user issuing the query.
    pub user_index: usize,
    /// Number of candidate items the filtering stage passes to the ranking stage.
    pub candidates: usize,
    /// Number of items finally returned to the user.
    pub top_k: usize,
}

/// Configuration of the workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of queries to generate.
    pub queries: usize,
    /// Number of users available.
    pub num_users: usize,
    /// Number of candidates produced by filtering (the paper's O(100)).
    pub candidates_per_query: usize,
    /// Number of items returned to the user (the paper's O(10)).
    pub top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's serving shape: ~100 candidates filtered from the catalogue, top-10
    /// returned after ranking.
    pub fn paper_serving(num_users: usize, queries: usize) -> Self {
        Self {
            queries,
            num_users,
            candidates_per_query: 100,
            top_k: 10,
            seed: 11,
        }
    }
}

/// A reproducible stream of inference queries.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceWorkload {
    queries: Vec<InferenceQuery>,
}

impl InferenceWorkload {
    /// Generate a workload from the configuration. Users are drawn uniformly (every user
    /// is equally likely to issue a query).
    pub fn generate(config: WorkloadConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let queries = (0..config.queries)
            .map(|_| InferenceQuery {
                user_index: if config.num_users == 0 {
                    0
                } else {
                    rng.gen_range(0..config.num_users)
                },
                candidates: config.candidates_per_query,
                top_k: config.top_k,
            })
            .collect();
        Self { queries }
    }

    /// The generated queries in order.
    pub fn queries(&self) -> &[InferenceQuery] {
        &self.queries
    }

    /// Number of queries in the workload.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_serving_shape() {
        let config = WorkloadConfig::paper_serving(6040, 1000);
        assert_eq!(config.candidates_per_query, 100);
        assert_eq!(config.top_k, 10);
        let workload = InferenceWorkload::generate(config);
        assert_eq!(workload.len(), 1000);
        assert!(!workload.is_empty());
        for query in workload.queries() {
            assert!(query.user_index < 6040);
            assert_eq!(query.candidates, 100);
            assert_eq!(query.top_k, 10);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = WorkloadConfig::paper_serving(100, 50);
        assert_eq!(
            InferenceWorkload::generate(config),
            InferenceWorkload::generate(config)
        );
    }

    #[test]
    fn users_are_spread_across_the_population() {
        let config = WorkloadConfig::paper_serving(50, 2000);
        let workload = InferenceWorkload::generate(config);
        let mut seen = [false; 50];
        for query in workload.queries() {
            seen[query.user_index] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered > 40, "only {covered} users covered");
    }

    #[test]
    fn zero_users_degenerates_to_user_zero() {
        let workload = InferenceWorkload::generate(WorkloadConfig {
            queries: 5,
            num_users: 0,
            candidates_per_query: 10,
            top_k: 3,
            seed: 0,
        });
        assert!(workload.queries().iter().all(|q| q.user_index == 0));
    }
}

//! Synthetic Criteo-Kaggle-like click-through-rate dataset.
//!
//! The Criteo Kaggle display-advertising dataset has 13 continuous features and 26
//! categorical features per impression, with a clicked/not-clicked label. The paper uses
//! it only for the DLRM ranking stage: the quantities that matter are the 26 categorical
//! fields (each mapped to its own CMA bank), their cardinalities (capped at 30,000 for
//! the mapping), and the query stream itself. The synthetic generator reproduces those,
//! draws categorical values Zipf-skewed (head values dominate, as in real CTR logs), and
//! produces labels from a sparse latent rule so a trained DLRM has signal to learn.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use imars_recsys::dlrm::{criteo_cardinalities, DlrmSample};

use crate::zipf::ZipfSampler;

/// Configuration of the synthetic Criteo generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticCriteoConfig {
    /// Number of continuous features (13 in Criteo Kaggle).
    pub num_dense_features: usize,
    /// Cardinality of each categorical feature.
    pub sparse_cardinalities: Vec<usize>,
    /// Zipf exponent of the categorical value popularity.
    pub popularity_exponent: f64,
    /// Base click-through rate of the generated labels.
    pub base_ctr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticCriteoConfig {
    /// The Criteo Kaggle configuration used by the paper (26 categorical features with a
    /// 30,000-entry cap, 13 dense features).
    pub fn criteo_kaggle() -> Self {
        Self {
            num_dense_features: 13,
            sparse_cardinalities: criteo_cardinalities(),
            popularity_exponent: 1.05,
            base_ctr: 0.25,
            seed: 2022,
        }
    }

    /// A small configuration for fast tests.
    pub fn small() -> Self {
        Self {
            num_dense_features: 4,
            sparse_cardinalities: vec![50, 30, 10, 80],
            popularity_exponent: 1.0,
            base_ctr: 0.3,
            seed: 5,
        }
    }
}

/// A generated synthetic Criteo-like dataset (samples are produced lazily in batches).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticCriteo {
    config: SyntheticCriteoConfig,
    samplers: Vec<ZipfSampler>,
    /// Latent per-field weight of the first few values (drives the click label).
    field_weights: Vec<f32>,
    rng: StdRng,
}

impl SyntheticCriteo {
    /// Create a generator from the configuration.
    pub fn new(config: SyntheticCriteoConfig) -> Self {
        let samplers = config
            .sparse_cardinalities
            .iter()
            .map(|&cardinality| ZipfSampler::new(cardinality.max(1), config.popularity_exponent))
            .collect();
        let mut seed_rng = StdRng::seed_from_u64(config.seed);
        let field_weights = (0..config.sparse_cardinalities.len())
            .map(|_| seed_rng.gen_range(-1.0..1.0f32))
            .collect();
        let rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        Self {
            config,
            samplers,
            field_weights,
            rng,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &SyntheticCriteoConfig {
        &self.config
    }

    /// Number of categorical fields.
    #[cfg(test)]
    pub(crate) fn sparse_field_count(&self) -> usize {
        self.config.sparse_cardinalities.len()
    }

    /// Per-field cardinalities (the row counts of the DLRM embedding tables — the input
    /// to the Table I memory mapping for the Criteo column).
    #[cfg(test)]
    pub(crate) fn embedding_table_rows(&self) -> Vec<usize> {
        self.config.sparse_cardinalities.clone()
    }

    /// Generate the next labelled sample: `(features, clicked)`.
    pub(crate) fn next_sample(&mut self) -> (DlrmSample, f32) {
        let dense: Vec<f32> = (0..self.config.num_dense_features)
            .map(|_| self.rng.gen_range(-1.0..1.0f32))
            .collect();
        let sparse: Vec<usize> = self
            .samplers
            .iter()
            .map(|sampler| sampler.sample(&mut self.rng))
            .collect();
        // The latent click rule: head values of positively weighted fields raise the CTR,
        // dense features add a small linear term.
        let mut logit = (self.config.base_ctr as f32 / (1.0 - self.config.base_ctr as f32)).ln();
        for (field, &value) in sparse.iter().enumerate() {
            let head = (value < 10) as i32 as f32;
            logit += self.field_weights[field] * head;
        }
        logit += 0.3 * dense.iter().sum::<f32>() / dense.len().max(1) as f32;
        let probability = 1.0 / (1.0 + (-logit).exp());
        let clicked = if self.rng.gen_range(0.0..1.0f32) < probability {
            1.0
        } else {
            0.0
        };
        (DlrmSample { dense, sparse }, clicked)
    }

    /// Generate a batch of labelled samples.
    pub fn batch(&mut self, count: usize) -> Vec<(DlrmSample, f32)> {
        (0..count).map(|_| self.next_sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criteo_kaggle_config_matches_paper() {
        let config = SyntheticCriteoConfig::criteo_kaggle();
        assert_eq!(config.num_dense_features, 13);
        assert_eq!(config.sparse_cardinalities.len(), 26);
        assert_eq!(*config.sparse_cardinalities.iter().max().unwrap(), 30_000);
    }

    #[test]
    fn samples_respect_cardinalities_and_shapes() {
        let mut generator = SyntheticCriteo::new(SyntheticCriteoConfig::small());
        for _ in 0..200 {
            let (sample, label) = generator.next_sample();
            assert_eq!(sample.dense.len(), 4);
            assert_eq!(sample.sparse.len(), 4);
            for (field, &value) in sample.sparse.iter().enumerate() {
                assert!(value < generator.config().sparse_cardinalities[field]);
            }
            assert!(label == 0.0 || label == 1.0);
            assert!(sample.dense.iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let mut a = SyntheticCriteo::new(SyntheticCriteoConfig::small());
        let mut b = SyntheticCriteo::new(SyntheticCriteoConfig::small());
        assert_eq!(a.batch(50), b.batch(50));
    }

    #[test]
    fn categorical_values_are_head_skewed() {
        let mut generator = SyntheticCriteo::new(SyntheticCriteoConfig::small());
        let samples = generator.batch(2000);
        // Field 3 has cardinality 80; the 8 most popular values must dominate.
        let head = samples
            .iter()
            .filter(|(sample, _)| sample.sparse[3] < 8)
            .count();
        assert!(head as f64 / samples.len() as f64 > 0.4);
    }

    #[test]
    fn click_rate_is_moderate_and_label_depends_on_features() {
        let mut generator = SyntheticCriteo::new(SyntheticCriteoConfig::small());
        let samples = generator.batch(3000);
        let ctr = samples.iter().map(|(_, y)| *y as f64).sum::<f64>() / samples.len() as f64;
        assert!(ctr > 0.05 && ctr < 0.95, "ctr {ctr}");
        // Labels must correlate with the head-value rule for at least one field: compare
        // click rates between head and tail values of field 0.
        let (mut head_clicks, mut head_total, mut tail_clicks, mut tail_total) =
            (0.0, 0.0, 0.0, 0.0);
        for (sample, label) in &samples {
            if sample.sparse[0] < 10 {
                head_clicks += *label as f64;
                head_total += 1.0;
            } else {
                tail_clicks += *label as f64;
                tail_total += 1.0;
            }
        }
        if head_total > 50.0 && tail_total > 50.0 {
            let head_rate = head_clicks / head_total;
            let tail_rate = tail_clicks / tail_total;
            assert!(
                (head_rate - tail_rate).abs() > 0.01,
                "head {head_rate} tail {tail_rate}"
            );
        }
    }

    #[test]
    fn embedding_rows_match_cardinalities() {
        let generator = SyntheticCriteo::new(SyntheticCriteoConfig::criteo_kaggle());
        assert_eq!(generator.sparse_field_count(), 26);
        assert_eq!(generator.embedding_table_rows(), criteo_cardinalities());
    }
}

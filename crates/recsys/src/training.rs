//! Training loops for the accuracy experiments.
//!
//! The accuracy study of Sec. IV-B needs a *trained* YouTubeDNN filtering tower on
//! MovieLens-1M so that the hit rate under FP32-cosine, int8-cosine and int8-LSH-Hamming
//! retrieval can be compared. This module provides the corresponding BPR training loop
//! (positive item vs. sampled negative) over user interaction histories, plus a small
//! epoch scheduler with loss tracking. The dataset itself comes from `imars-datasets`;
//! here the interface is deliberately plain slices so the two crates stay decoupled.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::RecsysError;
use crate::youtube_dnn::{UserProfile, YoutubeDnn};

/// One training example for the filtering tower: a user profile and the held-in positive
/// item the profile should retrieve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilteringExample {
    /// The user profile (the positive item must NOT appear in its history).
    pub profile: UserProfile,
    /// The positive (next-watched) item.
    pub positive_item: usize,
}

/// Hyper-parameters of the BPR training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Number of passes over the training examples.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Number of negative samples drawn per positive example.
    pub negatives_per_positive: usize,
    /// RNG seed for negative sampling and shuffling.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            learning_rate: 0.05,
            negatives_per_positive: 4,
            seed: 1,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Mean BPR loss of each epoch, in order.
    pub epoch_losses: Vec<f32>,
    /// Total number of SGD steps performed.
    pub steps: usize,
}

impl TrainingReport {
    /// Whether the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Train the filtering tower of a [`YoutubeDnn`] with BPR over the given examples.
///
/// Negative items are sampled uniformly, re-drawing when the sample collides with the
/// positive item.
///
/// # Errors
///
/// Returns [`RecsysError::InvalidConfig`] if `examples` is empty or the configuration has
/// zero epochs/negatives, and propagates any model-level error (e.g. out-of-range item
/// indices in a profile).
pub fn train_filtering(
    model: &mut YoutubeDnn,
    examples: &[FilteringExample],
    config: &TrainingConfig,
) -> Result<TrainingReport, RecsysError> {
    if examples.is_empty() {
        return Err(RecsysError::InvalidConfig {
            reason: "training requires at least one example".to_string(),
        });
    }
    if config.epochs == 0 || config.negatives_per_positive == 0 {
        return Err(RecsysError::InvalidConfig {
            reason: "epochs and negatives_per_positive must be nonzero".to_string(),
        });
    }
    let num_items = model.config().num_items;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut report = TrainingReport {
        epoch_losses: Vec::with_capacity(config.epochs),
        steps: 0,
    };
    for _ in 0..config.epochs {
        // Fisher-Yates shuffle for a fresh example order each epoch.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0f64;
        let mut epoch_steps = 0usize;
        for &example_index in &order {
            let example = &examples[example_index];
            for _ in 0..config.negatives_per_positive {
                let negative = sample_negative(&mut rng, num_items, example.positive_item);
                let loss = model.train_filtering_step(
                    &example.profile,
                    example.positive_item,
                    negative,
                    config.learning_rate,
                )?;
                epoch_loss += loss as f64;
                epoch_steps += 1;
            }
        }
        report.steps += epoch_steps;
        report
            .epoch_losses
            .push((epoch_loss / epoch_steps as f64) as f32);
    }
    Ok(report)
}

fn sample_negative(rng: &mut StdRng, num_items: usize, positive: usize) -> usize {
    if num_items <= 1 {
        return positive;
    }
    loop {
        let candidate = rng.gen_range(0..num_items);
        if candidate != positive {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::hit_rate;
    use crate::youtube_dnn::YoutubeDnnConfig;

    fn synthetic_examples(num_users: usize, num_items: usize, seed: u64) -> Vec<FilteringExample> {
        // Users have a "taste" bucket; they watch items from their bucket and the positive
        // item also comes from the bucket, so a trained model can genuinely learn it.
        let buckets = 5usize;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_users)
            .map(|user| {
                let bucket = user % buckets;
                let bucket_items: Vec<usize> =
                    (0..num_items).filter(|i| i % buckets == bucket).collect();
                let mut history: Vec<usize> = (0..4)
                    .map(|_| bucket_items[rng.gen_range(0..bucket_items.len())])
                    .collect();
                history.dedup();
                let positive_item = loop {
                    let candidate = bucket_items[rng.gen_range(0..bucket_items.len())];
                    if !history.contains(&candidate) {
                        break candidate;
                    }
                };
                FilteringExample {
                    profile: UserProfile {
                        history,
                        genres: vec![bucket % 5],
                        age_group: user % 3,
                        gender: user % 2,
                        occupation: user % 4,
                        ranking_context: 0,
                    },
                    positive_item,
                }
            })
            .collect()
    }

    #[test]
    fn training_rejects_degenerate_inputs() {
        let mut model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let examples = synthetic_examples(4, 50, 0);
        assert!(train_filtering(&mut model, &[], &TrainingConfig::default()).is_err());
        let bad = TrainingConfig {
            epochs: 0,
            ..TrainingConfig::default()
        };
        assert!(train_filtering(&mut model, &examples, &bad).is_err());
        let bad = TrainingConfig {
            negatives_per_positive: 0,
            ..TrainingConfig::default()
        };
        assert!(train_filtering(&mut model, &examples, &bad).is_err());
    }

    #[test]
    fn training_reduces_loss_and_counts_steps() {
        let mut model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let examples = synthetic_examples(30, 50, 1);
        let config = TrainingConfig {
            epochs: 4,
            learning_rate: 0.05,
            negatives_per_positive: 2,
            seed: 9,
        };
        let report = train_filtering(&mut model, &examples, &config).unwrap();
        assert_eq!(report.epoch_losses.len(), 4);
        assert_eq!(report.steps, 30 * 2 * 4);
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
        assert!(*report.epoch_losses.last().unwrap() > 0.0);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let examples = synthetic_examples(10, 50, 2);
        let config = TrainingConfig::default();
        let mut a = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let mut b = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let ra = train_filtering(&mut a, &examples, &config).unwrap();
        let rb = train_filtering(&mut b, &examples, &config).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn training_lifts_hit_rate_above_random() {
        let mut model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let examples = synthetic_examples(60, 50, 3);
        let config = TrainingConfig {
            epochs: 8,
            learning_rate: 0.08,
            negatives_per_positive: 4,
            seed: 5,
        };
        train_filtering(&mut model, &examples, &config).unwrap();
        let k = 10;
        let results: Vec<(Vec<usize>, usize)> = examples
            .iter()
            .map(|example| {
                (
                    model.filtering_candidates(&example.profile, k).unwrap(),
                    example.positive_item,
                )
            })
            .collect();
        let hr = hit_rate(&results);
        // Random retrieval of 10 out of 50 items would hit ~20 %; the trained model must
        // do clearly better on this separable synthetic task.
        assert!(hr > 0.35, "hit rate {hr}");
    }
}

//! Synthetic MovieLens-1M-like dataset.
//!
//! MovieLens-1M has 6,040 users, 3,706 rated movies (3,952 movie ids, 3,706 with at least
//! one rating), ~1 M ratings, 18 genres, 7 age groups, 2 genders and 21 occupations. The
//! synthetic generator reproduces those cardinalities (they are what Table I's memory
//! mapping depends on), plus two statistical properties the accuracy experiment needs:
//!
//! * **Zipfian item popularity** — a small head of blockbuster movies dominates;
//! * **clustered user taste** — each user belongs to a latent taste cluster and watches
//!   mostly movies of that cluster, so a trained filtering model genuinely beats random
//!   retrieval and quantization/LSH effects on the hit rate are measurable.
//!
//! The evaluation protocol is leave-one-out: each user's most recent interaction is held
//! out as the test positive, the rest form the profile history.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use imars_recsys::training::FilteringExample;
use imars_recsys::youtube_dnn::UserProfile;

use crate::zipf::ZipfSampler;

/// Configuration of the synthetic MovieLens generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticMovieLensConfig {
    /// Number of users (6,040 in MovieLens-1M).
    pub num_users: usize,
    /// Number of movies with ratings (3,706 in MovieLens-1M).
    pub num_items: usize,
    /// Number of genres (18 in MovieLens-1M).
    pub num_genres: usize,
    /// Number of age groups (7 in MovieLens-1M).
    pub num_age_groups: usize,
    /// Number of genders (2 in MovieLens-1M).
    pub num_genders: usize,
    /// Number of occupations (21 in MovieLens-1M).
    pub num_occupations: usize,
    /// Number of ranking context buckets (recency buckets used by the ranking-only UIET).
    pub num_ranking_contexts: usize,
    /// Number of latent taste clusters users/items are grouped into.
    pub num_taste_clusters: usize,
    /// Minimum interactions per user (MovieLens-1M guarantees 20).
    pub min_history: usize,
    /// Maximum interactions per user.
    pub max_history: usize,
    /// Probability that one interaction stays inside the user's taste cluster.
    pub in_cluster_probability: f64,
    /// Zipf exponent of item popularity inside a cluster.
    pub popularity_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticMovieLensConfig {
    /// Full MovieLens-1M-scale configuration.
    pub fn movielens_1m() -> Self {
        Self {
            num_users: 6_040,
            num_items: 3_706,
            num_genres: 18,
            num_age_groups: 7,
            num_genders: 2,
            num_occupations: 21,
            num_ranking_contexts: 8,
            num_taste_clusters: 12,
            min_history: 20,
            max_history: 120,
            in_cluster_probability: 0.8,
            popularity_exponent: 1.0,
            seed: 2022,
        }
    }

    /// A small configuration for fast tests (a few hundred users/items).
    pub fn small() -> Self {
        Self {
            num_users: 200,
            num_items: 300,
            num_genres: 8,
            num_age_groups: 4,
            num_genders: 2,
            num_occupations: 5,
            num_ranking_contexts: 4,
            num_taste_clusters: 6,
            min_history: 8,
            max_history: 20,
            in_cluster_probability: 0.85,
            popularity_exponent: 1.0,
            seed: 7,
        }
    }
}

/// One synthetic user: demographics plus the chronologically ordered watched items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticUser {
    /// User identifier (0-based).
    pub user_id: usize,
    /// Latent taste cluster of the user.
    pub taste_cluster: usize,
    /// Age-group index.
    pub age_group: usize,
    /// Gender index.
    pub gender: usize,
    /// Occupation index.
    pub occupation: usize,
    /// Ranking context bucket.
    pub ranking_context: usize,
    /// Watched items, oldest first (the last one is held out for evaluation).
    pub interactions: Vec<usize>,
}

/// Summary statistics of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovieLensStats {
    /// Number of users.
    pub users: usize,
    /// Number of items.
    pub items: usize,
    /// Total number of interactions.
    pub interactions: usize,
    /// Mean history length per user.
    pub mean_history: f64,
    /// Fraction of interactions landing on the 10 % most popular items.
    pub head_share: f64,
}

/// A generated synthetic MovieLens-like dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticMovieLens {
    config: SyntheticMovieLensConfig,
    users: Vec<SyntheticUser>,
    /// Genre labels of each item (one or more genres per movie).
    item_genres: Vec<Vec<usize>>,
}

impl SyntheticMovieLens {
    /// Generate a dataset from the configuration.
    pub fn generate(config: SyntheticMovieLensConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let clusters = config.num_taste_clusters.max(1);
        // Assign items to clusters round-robin so every cluster has items, then give each
        // item one to three genres correlated with its cluster.
        let item_cluster: Vec<usize> = (0..config.num_items).map(|item| item % clusters).collect();
        let item_genres: Vec<Vec<usize>> = (0..config.num_items)
            .map(|item| {
                let base_genre = item_cluster[item] % config.num_genres;
                let count = rng.gen_range(1..=3usize);
                let mut genres = vec![base_genre];
                for _ in 1..count {
                    genres.push(rng.gen_range(0..config.num_genres));
                }
                genres.sort_unstable();
                genres.dedup();
                genres
            })
            .collect();

        // Per-cluster item lists and popularity samplers.
        let cluster_items: Vec<Vec<usize>> = (0..clusters)
            .map(|cluster| {
                (0..config.num_items)
                    .filter(|&item| item_cluster[item] == cluster)
                    .collect()
            })
            .collect();
        let cluster_zipf: Vec<ZipfSampler> = cluster_items
            .iter()
            .map(|items| ZipfSampler::new(items.len().max(1), config.popularity_exponent))
            .collect();
        let global_zipf = ZipfSampler::new(config.num_items, config.popularity_exponent);

        let users = (0..config.num_users)
            .map(|user_id| {
                let taste_cluster = rng.gen_range(0..clusters);
                let history_len =
                    rng.gen_range(config.min_history..=config.max_history.max(config.min_history));
                let mut interactions = Vec::with_capacity(history_len);
                for _ in 0..history_len {
                    let item = if rng.gen_bool(config.in_cluster_probability)
                        && !cluster_items[taste_cluster].is_empty()
                    {
                        let rank = cluster_zipf[taste_cluster].sample(&mut rng);
                        cluster_items[taste_cluster][rank]
                    } else {
                        global_zipf.sample(&mut rng)
                    };
                    interactions.push(item);
                }
                SyntheticUser {
                    user_id,
                    taste_cluster,
                    age_group: rng.gen_range(0..config.num_age_groups),
                    gender: rng.gen_range(0..config.num_genders),
                    occupation: rng.gen_range(0..config.num_occupations),
                    ranking_context: rng.gen_range(0..config.num_ranking_contexts),
                    interactions,
                }
            })
            .collect();

        Self {
            config,
            users,
            item_genres,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &SyntheticMovieLensConfig {
        &self.config
    }

    /// All generated users.
    pub fn users(&self) -> &[SyntheticUser] {
        &self.users
    }

    /// Genres of one item (empty for an unknown item).
    pub(crate) fn item_genres(&self, item: usize) -> &[usize] {
        self.item_genres.get(item).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Build the user profile of one user, excluding that user's last interaction (the
    /// held-out positive) and aggregating genre preferences from the remaining history.
    pub(crate) fn profile_of(&self, user: &SyntheticUser) -> UserProfile {
        let history: Vec<usize> = if user.interactions.len() > 1 {
            user.interactions[..user.interactions.len() - 1].to_vec()
        } else {
            user.interactions.clone()
        };
        let mut genres: Vec<usize> = history
            .iter()
            .flat_map(|&item| self.item_genres(item).iter().copied())
            .collect();
        genres.sort_unstable();
        genres.dedup();
        UserProfile {
            history,
            genres,
            age_group: user.age_group,
            gender: user.gender,
            occupation: user.occupation,
            ranking_context: user.ranking_context,
        }
    }

    /// Leave-one-out split: one [`FilteringExample`] per user whose held-out positive is
    /// the user's final interaction.
    pub(crate) fn leave_one_out(&self) -> Vec<FilteringExample> {
        self.users
            .iter()
            .filter(|user| user.interactions.len() >= 2)
            .map(|user| FilteringExample {
                profile: self.profile_of(user),
                positive_item: *user.interactions.last().expect("non-empty history"),
            })
            .collect()
    }

    /// Split the leave-one-out examples into train and test partitions:
    /// every `holdout_every`-th user goes to the test set.
    pub fn train_test_split(
        &self,
        holdout_every: usize,
    ) -> (Vec<FilteringExample>, Vec<FilteringExample>) {
        let every = holdout_every.max(2);
        let examples = self.leave_one_out();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (index, example) in examples.into_iter().enumerate() {
            if index % every == 0 {
                test.push(example);
            } else {
                train.push(example);
            }
        }
        (train, test)
    }

    /// Summary statistics of the generated data.
    pub fn stats(&self) -> MovieLensStats {
        let interactions: usize = self.users.iter().map(|u| u.interactions.len()).sum();
        let mut popularity = vec![0usize; self.config.num_items];
        for user in &self.users {
            for &item in &user.interactions {
                popularity[item] += 1;
            }
        }
        let mut sorted = popularity.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let head = self.config.num_items / 10;
        let head_interactions: usize = sorted.iter().take(head.max(1)).sum();
        MovieLensStats {
            users: self.users.len(),
            items: self.config.num_items,
            interactions,
            mean_history: interactions as f64 / self.users.len().max(1) as f64,
            head_share: head_interactions as f64 / interactions.max(1) as f64,
        }
    }

    /// The per-embedding-table row counts of the filtering + ranking model on this
    /// dataset, in the UIET order used by the hardware mapping (history, genre, age,
    /// gender, occupation, ranking context) plus the ItET. This is the input to the
    /// Table I mapping.
    #[cfg(test)]
    pub(crate) fn embedding_table_rows(&self) -> Vec<usize> {
        vec![
            self.config.num_items,            // history UIET
            self.config.num_genres,           // genre UIET
            self.config.num_age_groups,       // age UIET
            self.config.num_genders,          // gender UIET
            self.config.num_occupations,      // occupation UIET
            self.config.num_ranking_contexts, // ranking-only UIET
            self.config.num_items,            // ItET
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movielens_1m_config_matches_dataset_cardinalities() {
        let config = SyntheticMovieLensConfig::movielens_1m();
        assert_eq!(config.num_users, 6040);
        assert_eq!(config.num_items, 3706);
        assert_eq!(config.num_genres, 18);
        assert_eq!(config.num_age_groups, 7);
        assert_eq!(config.num_occupations, 21);
        assert_eq!(config.min_history, 20);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        let b = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        assert_eq!(a, b);
    }

    #[test]
    fn users_have_valid_fields_and_history() {
        let data = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        let config = data.config();
        assert_eq!(data.users().len(), config.num_users);
        for user in data.users() {
            assert!(user.age_group < config.num_age_groups);
            assert!(user.gender < config.num_genders);
            assert!(user.occupation < config.num_occupations);
            assert!(user.ranking_context < config.num_ranking_contexts);
            assert!(user.interactions.len() >= config.min_history);
            assert!(user.interactions.len() <= config.max_history);
            assert!(user
                .interactions
                .iter()
                .all(|&item| item < config.num_items));
        }
    }

    #[test]
    fn item_popularity_is_skewed() {
        let data = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        let stats = data.stats();
        assert!(stats.head_share > 0.3, "head share {}", stats.head_share);
        assert!(stats.mean_history >= data.config().min_history as f64);
        assert_eq!(stats.users, 200);
    }

    #[test]
    fn leave_one_out_excludes_positive_from_history() {
        let data = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        let examples = data.leave_one_out();
        assert_eq!(examples.len(), data.users().len());
        for (example, user) in examples.iter().zip(data.users()) {
            assert_eq!(example.positive_item, *user.interactions.last().unwrap());
            assert_eq!(example.profile.history.len(), user.interactions.len() - 1);
        }
    }

    #[test]
    fn profiles_reference_valid_genres() {
        let data = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        for example in data.leave_one_out() {
            assert!(!example.profile.genres.is_empty());
            assert!(example
                .profile
                .genres
                .iter()
                .all(|&genre| genre < data.config().num_genres));
        }
    }

    #[test]
    fn train_test_split_partitions_users() {
        let data = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        let (train, test) = data.train_test_split(5);
        assert_eq!(train.len() + test.len(), data.users().len());
        assert!(test.len() >= data.users().len() / 6);
        assert!(train.len() > test.len());
    }

    #[test]
    fn users_watch_mostly_their_cluster() {
        let data = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        let clusters = data.config().num_taste_clusters;
        let mut in_cluster = 0usize;
        let mut total = 0usize;
        for user in data.users() {
            for &item in &user.interactions {
                if item % clusters == user.taste_cluster {
                    in_cluster += 1;
                }
                total += 1;
            }
        }
        assert!(in_cluster as f64 / total as f64 > 0.6);
    }

    #[test]
    fn embedding_table_rows_match_model_structure() {
        let data = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        let rows = data.embedding_table_rows();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0], data.config().num_items);
        assert_eq!(rows[6], data.config().num_items);
    }

    #[test]
    fn item_genres_are_valid_and_nonempty() {
        let data = SyntheticMovieLens::generate(SyntheticMovieLensConfig::small());
        for item in 0..data.config().num_items {
            let genres = data.item_genres(item);
            assert!(!genres.is_empty());
            assert!(genres.iter().all(|&g| g < data.config().num_genres));
        }
        assert!(data.item_genres(99999).is_empty());
    }
}

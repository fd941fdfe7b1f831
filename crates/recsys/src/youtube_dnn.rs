//! The YouTubeDNN recommendation model (Covington et al., RecSys 2016) as evaluated by
//! the paper on MovieLens-1M: a candidate-generation (*filtering*) tower and a *ranking*
//! tower, both fed from embedding tables over the user's sparse features.
//!
//! Table I of the paper fixes the structure this module reproduces:
//!
//! * **Filtering stage** — 5 user-item embedding tables (UIETs: watch history, genre
//!   preference, age group, gender, occupation), 1 item embedding table (ItET), and a
//!   DNN stack with hidden sizes 128-64-32. The output is a 32-dimension user embedding;
//!   candidates are the item embeddings nearest to it.
//! * **Ranking stage** — 6 UIETs (the 5 above shared with filtering plus one
//!   ranking-only context table) and a DNN stack with hidden sizes 128-1 producing the
//!   click-through-rate of one user/item pair.

use crate::batch::{par_chunks, par_runs};
use crate::embedding::EmbeddingTable;
use crate::error::RecsysError;
use crate::mlp::{Activation, Mlp};
use crate::nns::{dot, ExactIndex, Metric};

/// Structural configuration of the YouTubeDNN model.
#[derive(Debug, Clone, PartialEq)]
pub struct YoutubeDnnConfig {
    /// Number of items (movies).
    pub num_items: usize,
    /// Number of genres.
    pub num_genres: usize,
    /// Number of age groups.
    pub num_age_groups: usize,
    /// Number of gender values.
    pub num_genders: usize,
    /// Number of occupations.
    pub num_occupations: usize,
    /// Number of ranking-only context values (e.g. recency buckets).
    pub num_ranking_contexts: usize,
    /// Embedding dimensionality (32 in the paper).
    pub embedding_dim: usize,
    /// Hidden sizes of the filtering DNN (the paper's 128-64-32: the last entry is the
    /// user-embedding dimensionality).
    pub filtering_hidden: Vec<usize>,
    /// Hidden sizes of the ranking DNN (the paper's 128-1: the last entry must be 1).
    pub ranking_hidden: Vec<usize>,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl YoutubeDnnConfig {
    /// The MovieLens-1M configuration of Table I.
    pub fn movielens() -> Self {
        Self {
            num_items: 3706,
            num_genres: 18,
            num_age_groups: 7,
            num_genders: 2,
            num_occupations: 21,
            num_ranking_contexts: 8,
            embedding_dim: 32,
            filtering_hidden: vec![128, 64, 32],
            ranking_hidden: vec![128, 1],
            seed: 42,
        }
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_items: 50,
            num_genres: 5,
            num_age_groups: 3,
            num_genders: 2,
            num_occupations: 4,
            num_ranking_contexts: 3,
            embedding_dim: 8,
            filtering_hidden: vec![16, 8],
            ranking_hidden: vec![16, 1],
            seed: 7,
        }
    }

    fn validate(&self) -> Result<(), RecsysError> {
        let nonzero = [
            ("num_items", self.num_items),
            ("num_genres", self.num_genres),
            ("num_age_groups", self.num_age_groups),
            ("num_genders", self.num_genders),
            ("num_occupations", self.num_occupations),
            ("num_ranking_contexts", self.num_ranking_contexts),
            ("embedding_dim", self.embedding_dim),
        ];
        for (name, value) in nonzero {
            if value == 0 {
                return Err(RecsysError::InvalidConfig {
                    reason: format!("{name} must be nonzero"),
                });
            }
        }
        if self.filtering_hidden.is_empty() || self.ranking_hidden.is_empty() {
            return Err(RecsysError::InvalidConfig {
                reason: "filtering and ranking DNN stacks need at least one layer".to_string(),
            });
        }
        if *self.ranking_hidden.last().expect("non-empty") != 1 {
            return Err(RecsysError::InvalidConfig {
                reason: "the ranking DNN must end in a single CTR output".to_string(),
            });
        }
        Ok(())
    }
}

/// The sparse profile of one user, as consumed by both stages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UserProfile {
    /// Multi-hot watch history (item indices).
    pub history: Vec<usize>,
    /// Multi-hot genre preferences (genre indices).
    pub genres: Vec<usize>,
    /// Age-group index.
    pub age_group: usize,
    /// Gender index.
    pub gender: usize,
    /// Occupation index.
    pub occupation: usize,
    /// Ranking-only context index (e.g. recency bucket).
    pub ranking_context: usize,
}

/// The YouTubeDNN model: embedding tables plus the two DNN towers.
#[derive(Debug, Clone, PartialEq)]
pub struct YoutubeDnn {
    config: YoutubeDnnConfig,
    /// ItET: item embeddings searched by the filtering NNS and looked up by ranking.
    item_table: EmbeddingTable,
    /// UIET 1: watch-history embeddings (pooled).
    history_table: EmbeddingTable,
    /// UIET 2: genre-preference embeddings (pooled).
    genre_table: EmbeddingTable,
    /// UIET 3: age-group embeddings.
    age_table: EmbeddingTable,
    /// UIET 4: gender embeddings.
    gender_table: EmbeddingTable,
    /// UIET 5: occupation embeddings.
    occupation_table: EmbeddingTable,
    /// UIET 6 (ranking only): context embeddings.
    ranking_context_table: EmbeddingTable,
    /// Filtering DNN: concatenated UIET outputs -> user embedding.
    filtering_mlp: Mlp,
    /// Ranking DNN: concatenated UIET outputs + item embedding -> CTR.
    ranking_mlp: Mlp,
}

// The filtering and ranking methods stay `pub` although no other crate calls most of
// them yet: this is Table I's YouTubeDNN, the model the serve path is to filter and
// rank with.
impl YoutubeDnn {
    /// Number of user-item embedding tables used by the filtering stage (Table I).
    pub const FILTERING_UIETS: usize = 5;
    /// Number of user-item embedding tables used by the ranking stage (Table I).
    pub const RANKING_UIETS: usize = 6;

    /// Build the model with randomly initialized parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if the configuration is structurally
    /// invalid.
    pub fn new(config: YoutubeDnnConfig) -> Result<Self, RecsysError> {
        config.validate()?;
        let dim = config.embedding_dim;
        let seed = config.seed;
        let filtering_input = Self::FILTERING_UIETS * dim;
        let mut filtering_sizes = vec![filtering_input];
        filtering_sizes.extend_from_slice(&config.filtering_hidden);
        let ranking_input = (Self::RANKING_UIETS + 1) * dim; // 6 UIETs + the item embedding
        let mut ranking_sizes = vec![ranking_input];
        ranking_sizes.extend_from_slice(&config.ranking_hidden);
        Ok(Self {
            item_table: EmbeddingTable::new(config.num_items, dim, seed)?,
            history_table: EmbeddingTable::new(config.num_items, dim, seed.wrapping_add(1))?,
            genre_table: EmbeddingTable::new(config.num_genres, dim, seed.wrapping_add(2))?,
            age_table: EmbeddingTable::new(config.num_age_groups, dim, seed.wrapping_add(3))?,
            gender_table: EmbeddingTable::new(config.num_genders, dim, seed.wrapping_add(4))?,
            occupation_table: EmbeddingTable::new(
                config.num_occupations,
                dim,
                seed.wrapping_add(5),
            )?,
            ranking_context_table: EmbeddingTable::new(
                config.num_ranking_contexts,
                dim,
                seed.wrapping_add(6),
            )?,
            filtering_mlp: Mlp::new(&filtering_sizes, Activation::Linear, seed.wrapping_add(7))?,
            ranking_mlp: Mlp::new(&ranking_sizes, Activation::Sigmoid, seed.wrapping_add(8))?,
            config,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &YoutubeDnnConfig {
        &self.config
    }

    /// The item embedding table (ItET).
    pub fn item_table(&self) -> &EmbeddingTable {
        &self.item_table
    }

    /// The user-item embedding tables used by the filtering stage, in mapping order
    /// (history, genre, age, gender, occupation).
    pub fn filtering_uiets(&self) -> [&EmbeddingTable; Self::FILTERING_UIETS] {
        [
            &self.history_table,
            &self.genre_table,
            &self.age_table,
            &self.gender_table,
            &self.occupation_table,
        ]
    }

    /// The user-item embedding tables used by the ranking stage, in mapping order (the
    /// five shared tables plus the ranking-only context table).
    pub fn ranking_uiets(&self) -> [&EmbeddingTable; Self::RANKING_UIETS] {
        [
            &self.history_table,
            &self.genre_table,
            &self.age_table,
            &self.gender_table,
            &self.occupation_table,
            &self.ranking_context_table,
        ]
    }

    /// Layer shapes of the filtering DNN stack (input, output) per layer.
    pub fn filtering_layer_shapes(&self) -> Vec<(usize, usize)> {
        self.filtering_mlp.layer_shapes()
    }

    /// Layer shapes of the ranking DNN stack (input, output) per layer.
    pub fn ranking_layer_shapes(&self) -> Vec<(usize, usize)> {
        self.ranking_mlp.layer_shapes()
    }

    /// Number of embedding-table lookups the filtering stage performs for this profile
    /// (the quantity that drives the ET-lookup latency analysis).
    pub fn filtering_lookups(&self, profile: &UserProfile) -> usize {
        profile.history.len() + profile.genres.len() + 3
    }

    /// Number of embedding-table lookups the ranking stage performs per candidate item.
    pub fn ranking_lookups_per_item(&self, profile: &UserProfile) -> usize {
        profile.history.len() + profile.genres.len() + 3 + 1 + 1
    }

    /// Validate every index a filtering-stage forward pass will touch.
    fn validate_filtering_profile(&self, profile: &UserProfile) -> Result<(), RecsysError> {
        self.history_table.check_indices(&profile.history)?;
        self.genre_table.check_indices(&profile.genres)?;
        self.age_table
            .check_indices(std::slice::from_ref(&profile.age_group))?;
        self.gender_table
            .check_indices(std::slice::from_ref(&profile.gender))?;
        self.occupation_table
            .check_indices(std::slice::from_ref(&profile.occupation))?;
        Ok(())
    }

    /// Fill the concatenated filtering input into a caller-provided `5 × dim` buffer with
    /// no per-field allocation.
    fn filtering_input_into(
        &self,
        profile: &UserProfile,
        out: &mut [f32],
    ) -> Result<(), RecsysError> {
        let dim = self.config.embedding_dim;
        self.history_table
            .pool_mean_into(&profile.history, &mut out[..dim])?;
        self.genre_table
            .pool_mean_into(&profile.genres, &mut out[dim..2 * dim])?;
        out[2 * dim..3 * dim].copy_from_slice(self.age_table.lookup(profile.age_group)?);
        out[3 * dim..4 * dim].copy_from_slice(self.gender_table.lookup(profile.gender)?);
        out[4 * dim..5 * dim].copy_from_slice(self.occupation_table.lookup(profile.occupation)?);
        Ok(())
    }

    fn filtering_input(&self, profile: &UserProfile) -> Result<Vec<f32>, RecsysError> {
        let mut input = vec![0.0; Self::FILTERING_UIETS * self.config.embedding_dim];
        self.filtering_input_into(profile, &mut input)?;
        Ok(input)
    }

    /// Filtering-stage forward pass: the 32-dimension user embedding.
    ///
    /// # Errors
    ///
    /// Returns an error if any profile index is out of range.
    pub fn user_embedding(&self, profile: &UserProfile) -> Result<Vec<f32>, RecsysError> {
        let input = self.filtering_input(profile)?;
        self.filtering_mlp.forward(&input)
    }

    /// Batched filtering-stage forward pass: the user embeddings of every profile packed
    /// row-major into one flat buffer, computed with per-worker scratch (no per-profile
    /// field allocation) and the profiles fanned out across CPU cores.
    ///
    /// Per profile the result is bit-identical to [`YoutubeDnn::user_embedding`].
    ///
    /// # Errors
    ///
    /// Returns an error if any profile index is out of range; validation happens before
    /// any inference work.
    pub fn user_embedding_batch(&self, profiles: &[UserProfile]) -> Result<Vec<f32>, RecsysError> {
        for profile in profiles {
            self.validate_filtering_profile(profile)?;
        }
        let out_dim = self.filtering_mlp.output_dim();
        let mut out = vec![0.0f32; profiles.len() * out_dim];
        par_chunks(&mut out, out_dim, |first, run| {
            let mut input = vec![0.0f32; Self::FILTERING_UIETS * self.config.embedding_dim];
            let mut scratch = self.filtering_mlp.scratch();
            for (i, slot) in run.chunks_mut(out_dim).enumerate() {
                self.filtering_input_into(&profiles[first + i], &mut input)
                    .expect("profile validated before batch dispatch");
                let user = self
                    .filtering_mlp
                    .forward_into(&input, &mut scratch)
                    .expect("input width is fixed by the config");
                slot.copy_from_slice(user);
            }
        });
        Ok(out)
    }

    /// An exact-search index over the item embedding table (the FAISS-style software
    /// baseline). Build it once and reuse it across queries — constructing it copies the
    /// whole ItET.
    ///
    /// # Errors
    ///
    /// Returns an error if the table is structurally invalid (cannot happen for a table
    /// built by [`YoutubeDnn::new`]).
    pub fn item_index(&self) -> Result<ExactIndex, RecsysError> {
        ExactIndex::new(
            self.config.embedding_dim,
            self.item_table
                .iter_rows()
                .map(|row| row.to_vec())
                .collect(),
        )
    }

    /// Retrieve the `k` candidate items whose embeddings are nearest (cosine) to the
    /// user embedding — the exact-search (FAISS-style) filtering baseline.
    ///
    /// # Errors
    ///
    /// Returns an error if any profile index is out of range.
    pub fn filtering_candidates(
        &self,
        profile: &UserProfile,
        k: usize,
    ) -> Result<Vec<usize>, RecsysError> {
        let user = self.user_embedding(profile)?;
        self.item_index()?.top_k(&user, k, Metric::Cosine)
    }

    /// Batched candidate retrieval: one ItET index build serves the whole batch, user
    /// embeddings and searches are computed batch-at-a-time across CPU cores. Per profile
    /// the result is identical to [`YoutubeDnn::filtering_candidates`].
    ///
    /// # Errors
    ///
    /// Returns an error if any profile index is out of range.
    pub fn filtering_candidates_batch(
        &self,
        profiles: &[UserProfile],
        k: usize,
    ) -> Result<Vec<Vec<usize>>, RecsysError> {
        if self.filtering_mlp.output_dim() != self.config.embedding_dim {
            return Err(RecsysError::ShapeMismatch {
                what: "user embedding",
                expected: self.config.embedding_dim,
                actual: self.filtering_mlp.output_dim(),
            });
        }
        let users = self.user_embedding_batch(profiles)?;
        self.item_index()?.top_k_batch(&users, k, Metric::Cosine)
    }

    /// Fill the shared (item-independent) prefix of the ranking input: the six UIET
    /// segments. The final `dim` slots are left for the per-item embedding.
    fn ranking_prefix_into(
        &self,
        profile: &UserProfile,
        out: &mut [f32],
    ) -> Result<(), RecsysError> {
        let dim = self.config.embedding_dim;
        self.filtering_input_into(profile, &mut out[..Self::FILTERING_UIETS * dim])?;
        out[5 * dim..6 * dim]
            .copy_from_slice(self.ranking_context_table.lookup(profile.ranking_context)?);
        Ok(())
    }

    fn ranking_input(&self, profile: &UserProfile, item: usize) -> Result<Vec<f32>, RecsysError> {
        let dim = self.config.embedding_dim;
        let mut input = vec![0.0; (Self::RANKING_UIETS + 1) * dim];
        self.ranking_prefix_into(profile, &mut input)?;
        input[Self::RANKING_UIETS * dim..].copy_from_slice(self.item_table.lookup(item)?);
        Ok(input)
    }

    /// Ranking-stage forward pass: the predicted click-through rate of one user/item pair.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub fn ranking_score(&self, profile: &UserProfile, item: usize) -> Result<f32, RecsysError> {
        let input = self.ranking_input(profile, item)?;
        Ok(self.ranking_mlp.forward(&input)?[0])
    }

    /// Score a batch of candidate items for one user. The six item-independent UIET
    /// segments are pooled once for the whole batch (instead of once per item), the
    /// per-item tail is gathered as a slice, and the items are fanned out across CPU
    /// cores with per-worker scratch. Per item the score is bit-identical to
    /// [`YoutubeDnn::ranking_score`].
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range; validation happens before any
    /// scoring work.
    pub fn ranking_scores_batch(
        &self,
        profile: &UserProfile,
        items: &[usize],
    ) -> Result<Vec<f32>, RecsysError> {
        self.validate_filtering_profile(profile)?;
        self.ranking_context_table
            .check_indices(std::slice::from_ref(&profile.ranking_context))?;
        self.item_table.check_indices(items)?;
        let dim = self.config.embedding_dim;
        let mut prefix = vec![0.0f32; (Self::RANKING_UIETS + 1) * dim];
        self.ranking_prefix_into(profile, &mut prefix)
            .expect("profile validated above");
        let mut out = vec![0.0f32; items.len()];
        par_runs(&mut out, |first, run| {
            let mut input = prefix.clone();
            let mut scratch = self.ranking_mlp.scratch();
            for (i, slot) in run.iter_mut().enumerate() {
                input[Self::RANKING_UIETS * dim..]
                    .copy_from_slice(self.item_table.row(items[first + i]));
                *slot = self
                    .ranking_mlp
                    .forward_into(&input, &mut scratch)
                    .expect("input width is fixed by the config")[0];
            }
        });
        Ok(out)
    }

    /// Score every candidate and return them ordered by decreasing CTR, truncated to `k`.
    /// Candidates are scored batch-at-a-time via [`YoutubeDnn::ranking_scores_batch`].
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub fn rank_candidates(
        &self,
        profile: &UserProfile,
        candidates: &[usize],
        k: usize,
    ) -> Result<Vec<usize>, RecsysError> {
        let scores = self.ranking_scores_batch(profile, candidates)?;
        let scored: Vec<(usize, f32)> = candidates.iter().copied().zip(scores).collect();
        Ok(crate::topk::top_k_by_score(&scored, k))
    }

    /// One BPR (Bayesian personalized ranking) training step on the filtering tower: push
    /// the user embedding towards `positive_item` and away from `negative_item`.
    ///
    /// Returns the BPR loss before the update.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub fn train_filtering_step(
        &mut self,
        profile: &UserProfile,
        positive_item: usize,
        negative_item: usize,
        learning_rate: f32,
    ) -> Result<f32, RecsysError> {
        let input = self.filtering_input(profile)?;
        let user = self.filtering_mlp.forward(&input)?;
        self.item_table
            .check_indices(&[positive_item, negative_item])?;
        // Borrow the item rows in place (no copies); the borrows end before the updates.
        let margin = {
            let positive = self.item_table.row(positive_item);
            let negative = self.item_table.row(negative_item);
            dot(&user, positive) - dot(&user, negative)
        };
        let sigmoid = 1.0 / (1.0 + (-margin).exp());
        let loss = -(sigmoid.max(1e-12)).ln();
        // dL/dmargin = -(1 - sigmoid); dmargin/du = v+ - v-; dmargin/dv+ = u; dmargin/dv- = -u.
        let coeff = -(1.0 - sigmoid);
        let grad_user: Vec<f32> = {
            let positive = self.item_table.row(positive_item);
            let negative = self.item_table.row(negative_item);
            positive
                .iter()
                .zip(negative.iter())
                .map(|(p, n)| coeff * (p - n))
                .collect()
        };
        let grad_positive: Vec<f32> = user.iter().map(|u| coeff * u).collect();
        let grad_negative: Vec<f32> = user.iter().map(|u| -coeff * u).collect();

        let grad_input = self
            .filtering_mlp
            .backward(&input, &grad_user, learning_rate)?;
        self.item_table
            .sgd_update(positive_item, &grad_positive, learning_rate)?;
        self.item_table
            .sgd_update(negative_item, &grad_negative, learning_rate)?;
        self.apply_filtering_input_gradient(profile, &grad_input, learning_rate)?;
        Ok(loss)
    }

    /// Scatter the gradient with respect to the concatenated filtering input back into the
    /// five UIETs (mean-pooled fields divide the gradient among their active rows).
    fn apply_filtering_input_gradient(
        &mut self,
        profile: &UserProfile,
        grad_input: &[f32],
        learning_rate: f32,
    ) -> Result<(), RecsysError> {
        let dim = self.config.embedding_dim;
        let segment = |field: usize| &grad_input[field * dim..(field + 1) * dim];

        if !profile.history.is_empty() {
            let scale = 1.0 / profile.history.len() as f32;
            let grad: Vec<f32> = segment(0).iter().map(|g| g * scale).collect();
            for &item in &profile.history {
                self.history_table.sgd_update(item, &grad, learning_rate)?;
            }
        }
        if !profile.genres.is_empty() {
            let scale = 1.0 / profile.genres.len() as f32;
            let grad: Vec<f32> = segment(1).iter().map(|g| g * scale).collect();
            for &genre in &profile.genres {
                self.genre_table.sgd_update(genre, &grad, learning_rate)?;
            }
        }
        self.age_table
            .sgd_update(profile.age_group, segment(2), learning_rate)?;
        self.gender_table
            .sgd_update(profile.gender, segment(3), learning_rate)?;
        self.occupation_table
            .sgd_update(profile.occupation, segment(4), learning_rate)?;
        Ok(())
    }

    /// One binary-cross-entropy training step on the ranking tower for a labelled
    /// user/item pair (`label` = 1.0 for a click, 0.0 otherwise).
    ///
    /// Returns the BCE loss before the update.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub fn train_ranking_step(
        &mut self,
        profile: &UserProfile,
        item: usize,
        label: f32,
        learning_rate: f32,
    ) -> Result<f32, RecsysError> {
        let input = self.ranking_input(profile, item)?;
        let prediction = self.ranking_mlp.forward(&input)?[0];
        let clamped = prediction.clamp(1e-6, 1.0 - 1e-6);
        let loss = -(label * clamped.ln() + (1.0 - label) * (1.0 - clamped).ln());
        // dL/dp for BCE; the sigmoid derivative is applied inside the MLP backward pass.
        let grad = (clamped - label) / (clamped * (1.0 - clamped));
        self.ranking_mlp.backward(&input, &[grad], learning_rate)?;
        Ok(loss)
    }

    /// Total parameter count across embeddings and both DNN stacks.
    #[cfg(test)]
    pub(crate) fn parameter_count(&self) -> usize {
        self.item_table.parameter_count()
            + self.history_table.parameter_count()
            + self.genre_table.parameter_count()
            + self.age_table.parameter_count()
            + self.gender_table.parameter_count()
            + self.occupation_table.parameter_count()
            + self.ranking_context_table.parameter_count()
            + self.filtering_mlp.parameter_count()
            + self.ranking_mlp.parameter_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn profile() -> UserProfile {
        UserProfile {
            history: vec![1, 4, 9],
            genres: vec![0, 2],
            age_group: 1,
            gender: 0,
            occupation: 3,
            ranking_context: 2,
        }
    }

    #[test]
    fn movielens_config_matches_table_i() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::movielens()).unwrap();
        assert_eq!(model.filtering_uiets().len(), 5);
        assert_eq!(model.ranking_uiets().len(), 6);
        assert_eq!(model.config().embedding_dim, 32);
        // Filtering stack 128-64-32 on a 5x32 concatenated input.
        assert_eq!(
            model.filtering_layer_shapes(),
            vec![(160, 128), (128, 64), (64, 32)]
        );
        // Ranking stack 128-1 on a (6+1)x32 concatenated input.
        assert_eq!(model.ranking_layer_shapes(), vec![(224, 128), (128, 1)]);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut config = YoutubeDnnConfig::tiny();
        config.num_items = 0;
        assert!(YoutubeDnn::new(config).is_err());
        let mut config = YoutubeDnnConfig::tiny();
        config.ranking_hidden = vec![16, 2];
        assert!(YoutubeDnn::new(config).is_err());
        let mut config = YoutubeDnnConfig::tiny();
        config.filtering_hidden.clear();
        assert!(YoutubeDnn::new(config).is_err());
    }

    #[test]
    fn user_embedding_has_configured_dimension() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let embedding = model.user_embedding(&profile()).unwrap();
        assert_eq!(embedding.len(), 8);
    }

    #[test]
    fn out_of_range_profile_is_rejected() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let mut bad = profile();
        bad.history = vec![999];
        assert!(model.user_embedding(&bad).is_err());
        let mut bad = profile();
        bad.occupation = 99;
        assert!(model.ranking_score(&bad, 0).is_err());
    }

    #[test]
    fn filtering_candidates_are_distinct_valid_items() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let candidates = model.filtering_candidates(&profile(), 10).unwrap();
        assert_eq!(candidates.len(), 10);
        let mut unique = candidates.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 10);
        assert!(candidates.iter().all(|&item| item < 50));
    }

    #[test]
    fn ranking_score_is_a_probability() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let score = model.ranking_score(&profile(), 3).unwrap();
        assert!(score > 0.0 && score < 1.0);
    }

    #[test]
    fn rank_candidates_orders_by_score() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let candidates: Vec<usize> = (0..20).collect();
        let ranked = model.rank_candidates(&profile(), &candidates, 5).unwrap();
        assert_eq!(ranked.len(), 5);
        let scores: Vec<f32> = ranked
            .iter()
            .map(|&item| model.ranking_score(&profile(), item).unwrap())
            .collect();
        for pair in scores.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    fn random_profiles(count: usize, seed: u64) -> Vec<UserProfile> {
        let config = YoutubeDnnConfig::tiny();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| UserProfile {
                history: (0..rng.gen_range(0..6usize))
                    .map(|_| rng.gen_range(0..config.num_items))
                    .collect(),
                genres: (0..rng.gen_range(0..3usize))
                    .map(|_| rng.gen_range(0..config.num_genres))
                    .collect(),
                age_group: rng.gen_range(0..config.num_age_groups),
                gender: rng.gen_range(0..config.num_genders),
                occupation: rng.gen_range(0..config.num_occupations),
                ranking_context: rng.gen_range(0..config.num_ranking_contexts),
            })
            .collect()
    }

    #[test]
    fn user_embedding_batch_matches_single_profile_path() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let profiles = random_profiles(90, 6);
        let batch = model.user_embedding_batch(&profiles).unwrap();
        let dim = model.config().embedding_dim;
        assert_eq!(batch.len(), profiles.len() * dim);
        for (i, profile) in profiles.iter().enumerate() {
            let single = model.user_embedding(profile).unwrap();
            assert_eq!(&batch[i * dim..(i + 1) * dim], single.as_slice());
        }
    }

    #[test]
    fn user_embedding_batch_validates_before_running() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let mut profiles = random_profiles(3, 7);
        profiles[2].history.push(999);
        assert!(model.user_embedding_batch(&profiles).is_err());
    }

    #[test]
    fn filtering_candidates_batch_matches_single_profile_path() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let profiles = random_profiles(25, 8);
        let batch = model.filtering_candidates_batch(&profiles, 7).unwrap();
        assert_eq!(batch.len(), profiles.len());
        for (profile, candidates) in profiles.iter().zip(batch.iter()) {
            assert_eq!(candidates, &model.filtering_candidates(profile, 7).unwrap());
        }
    }

    #[test]
    fn ranking_scores_batch_matches_single_item_path() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let user = profile();
        let items: Vec<usize> = (0..50).collect();
        let scores = model.ranking_scores_batch(&user, &items).unwrap();
        for (&item, &score) in items.iter().zip(scores.iter()) {
            assert_eq!(score, model.ranking_score(&user, item).unwrap());
        }
        assert!(model.ranking_scores_batch(&user, &[999]).is_err());
    }

    #[test]
    fn bpr_training_raises_positive_item_score() {
        let mut model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let user = profile();
        let positive = 7;
        let negative = 23;
        let score = |model: &YoutubeDnn| {
            let u = model.user_embedding(&user).unwrap();
            dot(&u, model.item_table().lookup(positive).unwrap())
                - dot(&u, model.item_table().lookup(negative).unwrap())
        };
        let before = score(&model);
        for _ in 0..50 {
            model
                .train_filtering_step(&user, positive, negative, 0.05)
                .unwrap();
        }
        let after = score(&model);
        assert!(after > before, "margin {before} -> {after}");
    }

    #[test]
    fn bpr_training_reduces_loss() {
        let mut model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let user = profile();
        let first = model.train_filtering_step(&user, 2, 30, 0.05).unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = model.train_filtering_step(&user, 2, 30, 0.05).unwrap();
        }
        assert!(last < first);
    }

    #[test]
    fn ranking_training_learns_labels() {
        let mut model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Items below 25 are "clicked", the rest are not, for a fixed user.
        let user = profile();
        for _ in 0..200 {
            let item = rng.gen_range(0..50);
            let label = if item < 25 { 1.0 } else { 0.0 };
            model.train_ranking_step(&user, item, label, 0.05).unwrap();
        }
        let clicked = model.ranking_score(&user, 5).unwrap();
        let unclicked = model.ranking_score(&user, 45).unwrap();
        assert!(
            clicked > unclicked,
            "clicked {clicked} vs unclicked {unclicked}"
        );
    }

    #[test]
    fn lookup_counts_track_profile_size() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        let user = profile();
        assert_eq!(model.filtering_lookups(&user), 3 + 2 + 3);
        assert_eq!(model.ranking_lookups_per_item(&user), 3 + 2 + 3 + 1 + 1);
    }

    #[test]
    fn parameter_count_is_positive_and_stable() {
        let model = YoutubeDnn::new(YoutubeDnnConfig::tiny()).unwrap();
        assert!(model.parameter_count() > 1000);
        assert_eq!(
            model.parameter_count(),
            YoutubeDnn::new(YoutubeDnnConfig::tiny())
                .unwrap()
                .parameter_count()
        );
    }
}

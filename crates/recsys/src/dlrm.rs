//! The DLRM ranking model (Naumov et al., 2019) as evaluated by the paper on the Criteo
//! Kaggle click-through-rate dataset.
//!
//! DLRM combines:
//!
//! * a **bottom MLP** over the continuous (dense) features — hidden sizes 256-128-32 in
//!   Table I, producing a 32-dimension dense embedding;
//! * one **embedding table per categorical feature** (26 for Criteo Kaggle, int8-mapped
//!   onto the CMA banks by iMARS);
//! * a **feature interaction** layer taking the pairwise dot products of all embedding
//!   vectors (dense embedding included);
//! * a **top MLP** over the concatenation of the dense embedding and the interactions —
//!   hidden sizes 256-64-1 in Table I — ending in a sigmoid CTR output.

use crate::batch::par_map;
use crate::embedding::EmbeddingTable;
use crate::error::RecsysError;
use crate::mlp::{Activation, Mlp, MlpBatchScratch};
use crate::nns::dot;
use crate::quantization::QuantizedTable;

/// Structural configuration of the DLRM model.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmConfig {
    /// Number of dense (continuous) features (13 for Criteo Kaggle).
    pub num_dense_features: usize,
    /// Cardinality of each categorical feature (26 entries for Criteo Kaggle).
    pub sparse_cardinalities: Vec<usize>,
    /// Embedding dimensionality (32 in the paper).
    pub embedding_dim: usize,
    /// Hidden sizes of the bottom MLP (the paper's 256-128-32; the last entry must equal
    /// `embedding_dim`).
    pub bottom_hidden: Vec<usize>,
    /// Hidden sizes of the top MLP (the paper's 256-64-1; the last entry must be 1).
    pub top_hidden: Vec<usize>,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl DlrmConfig {
    /// The Criteo Kaggle configuration of Table I: 13 dense features, 26 categorical
    /// features capped at 30,000 values each, 32-dimension embeddings, bottom MLP
    /// 256-128-32, top MLP 256-64-1.
    pub fn criteo_kaggle() -> Self {
        Self {
            num_dense_features: 13,
            sparse_cardinalities: criteo_cardinalities(),
            embedding_dim: 32,
            bottom_hidden: vec![256, 128, 32],
            top_hidden: vec![256, 64, 1],
            seed: 42,
        }
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_dense_features: 4,
            sparse_cardinalities: vec![10, 20, 5],
            embedding_dim: 8,
            bottom_hidden: vec![16, 8],
            top_hidden: vec![16, 1],
            seed: 3,
        }
    }

    fn validate(&self) -> Result<(), RecsysError> {
        if self.num_dense_features == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: "DLRM needs at least one dense feature".to_string(),
            });
        }
        if self.sparse_cardinalities.is_empty() {
            return Err(RecsysError::InvalidConfig {
                reason: "DLRM needs at least one categorical feature".to_string(),
            });
        }
        if self.sparse_cardinalities.contains(&0) {
            return Err(RecsysError::InvalidConfig {
                reason: "categorical feature cardinalities must be nonzero".to_string(),
            });
        }
        if self.embedding_dim == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: "embedding dimensionality must be nonzero".to_string(),
            });
        }
        match self.bottom_hidden.last() {
            Some(&last) if last == self.embedding_dim => {}
            _ => {
                return Err(RecsysError::InvalidConfig {
                    reason: "the bottom MLP must end in the embedding dimensionality".to_string(),
                })
            }
        }
        match self.top_hidden.last() {
            Some(&1) => {}
            _ => {
                return Err(RecsysError::InvalidConfig {
                    reason: "the top MLP must end in a single CTR output".to_string(),
                })
            }
        }
        Ok(())
    }

    /// Number of interaction terms: pairwise dot products among the categorical embeddings
    /// plus the dense embedding.
    pub fn interaction_count(&self) -> usize {
        let vectors = self.sparse_cardinalities.len() + 1;
        vectors * (vectors - 1) / 2
    }

    /// Width of the top MLP input: the dense embedding concatenated with the interactions.
    pub(crate) fn top_input_width(&self) -> usize {
        self.embedding_dim + self.interaction_count()
    }
}

/// Per-feature value cardinalities representative of the Criteo Kaggle dataset, with the
/// 30,000-entry cap the paper applies when dimensioning the CMA banks ("the maximum size
/// of the ETs in the Criteo Kaggle is 30,000 entries").
pub fn criteo_cardinalities() -> Vec<usize> {
    vec![
        1460, 583, 30_000, 30_000, 305, 24, 12_517, 633, 3, 30_000, 5_683, 30_000, 3_194, 27,
        14_992, 30_000, 10, 5_652, 2_173, 4, 30_000, 18, 15, 30_000, 105, 30_000,
    ]
}

/// One Criteo-style sample: 13 normalized dense features and one categorical value per
/// sparse field.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DlrmSample {
    /// Normalized dense feature values.
    pub dense: Vec<f32>,
    /// One categorical index per sparse field.
    pub sparse: Vec<usize>,
}

impl DlrmSample {
    /// This sample as the borrowed view [`Dlrm::predict_batch_into`] reads.
    pub fn view(&self) -> DlrmSampleView<'_> {
        DlrmSampleView {
            dense: &self.dense,
            sparse: &self.sparse,
        }
    }
}

/// One sample's features, borrowed from wherever the caller keeps them: a
/// [`DlrmSample`] (see [`DlrmSample::view`]), or a serving batch's flat profile buffer
/// and its requests' categorical ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DlrmSampleView<'a> {
    /// Normalized dense feature values.
    pub dense: &'a [f32],
    /// One categorical index per sparse field.
    pub sparse: &'a [usize],
}

/// The DLRM model.
#[derive(Debug, Clone, PartialEq)]
pub struct Dlrm {
    config: DlrmConfig,
    bottom_mlp: Mlp,
    embedding_tables: Vec<EmbeddingTable>,
    top_mlp: Mlp,
}

/// The single-sample forward intermediates: the dense embedding, every feature vector
/// (dense first), and the pairwise interactions.
type ForwardFeatures = (Vec<f32>, Vec<Vec<f32>>, Vec<f32>);

/// Most samples one batched-GEMM block scores. Both MLPs stream their weights from
/// memory once per block, so a serving batch (at most 64 requests) reads them once; one
/// block's ping-pong activations, 64 samples × the widest layer (256 KB per buffer at a
/// 1024-wide layer), fit in a core's L2.
const MLP_BLOCK: usize = 64;

/// Reusable buffers for allocation-free batched inference with
/// [`Dlrm::predict_batch_into`]: batched-MLP scratch for both MLPs plus staging for one
/// block of bottom and top inputs. [`Dlrm::scratch`] builds it empty; every call grows it
/// (never shrinks it) to what that call's model and batch need, so a scratch serves any
/// model and its buffers stay as small as the largest block it has scored.
#[derive(Debug, Clone)]
pub struct DlrmScratch {
    bottom: MlpBatchScratch,
    top: MlpBatchScratch,
    bottom_input: Vec<f32>,
    top_input: Vec<f32>,
}

impl DlrmScratch {
    /// Grow until this scratch scores blocks of `block` samples of `model`.
    fn fit(&mut self, model: &Dlrm, block: usize) {
        self.bottom.grow_for(&model.bottom_mlp, block);
        self.top.grow_for(&model.top_mlp, block);
        let bottom_len = block * model.config.num_dense_features;
        if self.bottom_input.len() < bottom_len {
            self.bottom_input.resize(bottom_len, 0.0);
        }
        let top_len = block * model.config.top_input_width();
        if self.top_input.len() < top_len {
            self.top_input.resize(top_len, 0.0);
        }
    }
}

/// One independently seeded parameter block of a model under construction.
enum Block {
    Mlp(Mlp),
    Table(EmbeddingTable),
}

impl Dlrm {
    /// Build the model with randomly initialized parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if the configuration is structurally
    /// invalid.
    pub fn new(config: DlrmConfig) -> Result<Self, RecsysError> {
        config.validate()?;
        let mut bottom_sizes = vec![config.num_dense_features];
        bottom_sizes.extend_from_slice(&config.bottom_hidden);
        let mut top_sizes = vec![config.top_input_width()];
        top_sizes.extend_from_slice(&config.top_hidden);
        // Every block draws from its own seed, so the blocks are built on all cores and
        // each is the one a serial build draws. The top MLP, the largest block, is job 0:
        // the calling thread draws it while the other cores take the rest.
        let blocks = par_map(config.sparse_cardinalities.len() + 2, |job| match job {
            0 => Mlp::new(
                &top_sizes,
                Activation::Sigmoid,
                config.seed.wrapping_add(2000),
            )
            .map(Block::Mlp),
            1 => Mlp::new(
                &bottom_sizes,
                Activation::Linear,
                config.seed.wrapping_add(1000),
            )
            .map(Block::Mlp),
            table => EmbeddingTable::new(
                config.sparse_cardinalities[table - 2],
                config.embedding_dim,
                config.seed.wrapping_add(table as u64 - 2),
            )
            .map(Block::Table),
        });
        let mut mlps = Vec::with_capacity(2);
        let mut embedding_tables = Vec::with_capacity(blocks.len() - 2);
        for block in blocks {
            match block? {
                Block::Mlp(mlp) => mlps.push(mlp),
                Block::Table(table) => embedding_tables.push(table),
            }
        }
        let [top_mlp, bottom_mlp] =
            <[Mlp; 2]>::try_from(mlps).expect("jobs 0 and 1 build the MLPs");
        Ok(Self {
            bottom_mlp,
            top_mlp,
            embedding_tables,
            config,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// The categorical embedding tables, one per sparse field.
    pub fn embedding_tables(&self) -> &[EmbeddingTable] {
        &self.embedding_tables
    }

    /// Layer shapes of the bottom MLP.
    pub fn bottom_layer_shapes(&self) -> Vec<(usize, usize)> {
        self.bottom_mlp.layer_shapes()
    }

    /// Layer shapes of the top MLP.
    pub fn top_layer_shapes(&self) -> Vec<(usize, usize)> {
        self.top_mlp.layer_shapes()
    }

    /// Number of embedding-table lookups per inference (one per categorical field).
    pub fn lookups_per_inference(&self) -> usize {
        self.embedding_tables.len()
    }

    fn validate_sample(&self, sample: DlrmSampleView<'_>) -> Result<(), RecsysError> {
        if sample.dense.len() != self.config.num_dense_features {
            return Err(RecsysError::ShapeMismatch {
                what: "dense features",
                expected: self.config.num_dense_features,
                actual: sample.dense.len(),
            });
        }
        if sample.sparse.len() != self.embedding_tables.len() {
            return Err(RecsysError::ShapeMismatch {
                what: "sparse features",
                expected: self.embedding_tables.len(),
                actual: sample.sparse.len(),
            });
        }
        Ok(())
    }

    /// Gather the per-field embedding vectors plus the dense embedding, and their pairwise
    /// interactions.
    fn forward_features(&self, sample: &DlrmSample) -> Result<ForwardFeatures, RecsysError> {
        self.validate_sample(sample.view())?;
        let dense_embedding = self.bottom_mlp.forward(&sample.dense)?;
        let mut vectors: Vec<Vec<f32>> = Vec::with_capacity(self.embedding_tables.len() + 1);
        vectors.push(dense_embedding.clone());
        for (table, &index) in self.embedding_tables.iter().zip(sample.sparse.iter()) {
            vectors.push(table.lookup(index)?.to_vec());
        }
        let mut interactions = Vec::with_capacity(self.config.interaction_count());
        for i in 0..vectors.len() {
            for j in (i + 1)..vectors.len() {
                interactions.push(dot(&vectors[i], &vectors[j]));
            }
        }
        Ok((dense_embedding, vectors, interactions))
    }

    /// Forward pass: the predicted click-through rate for one sample.
    ///
    /// # Errors
    ///
    /// Returns an error if the sample's shape is wrong or any categorical index is out of
    /// range.
    pub fn predict(&self, sample: &DlrmSample) -> Result<f32, RecsysError> {
        let (dense_embedding, _, interactions) = self.forward_features(sample)?;
        let mut top_input = dense_embedding;
        top_input.extend(interactions);
        Ok(self.top_mlp.forward(&top_input)?[0])
    }

    /// An empty scratch for [`Dlrm::predict_batch_into`]; it allocates on first use.
    pub fn scratch(&self) -> DlrmScratch {
        DlrmScratch {
            bottom: MlpBatchScratch::empty(),
            top: MlpBatchScratch::empty(),
            bottom_input: Vec::new(),
            top_input: Vec::new(),
        }
    }

    /// The feature vector with interaction index `i` (0 = the dense embedding, `i > 0` =
    /// the embedding row of sparse field `i - 1`). Indices must already be validated.
    #[inline]
    fn feature_vector<'a>(
        &'a self,
        sparse: &[usize],
        dense_embedding: &'a [f32],
        i: usize,
    ) -> &'a [f32] {
        if i == 0 {
            dense_embedding
        } else {
            self.embedding_tables[i - 1].row(sparse[i - 1])
        }
    }

    /// Score one block of pre-validated samples, at most the size `scratch` was fitted
    /// to, using only the scratch buffers (no allocation, no error path): both MLPs run
    /// as a batched GEMM over the block's sample dimension, so every weight is streamed
    /// once per block instead of once per sample. Arithmetic is identical per sample to
    /// [`Dlrm::predict`], so results match bit-for-bit.
    fn predict_block<'a>(
        &self,
        samples: impl Iterator<Item = DlrmSampleView<'a>> + Clone,
        scratch: &mut DlrmScratch,
        out: &mut [f32],
    ) {
        let count = out.len();
        let dim = self.config.embedding_dim;
        let dense_width = self.config.num_dense_features;
        let top_width = self.config.top_input_width();
        for (s, sample) in samples.clone().enumerate() {
            scratch.bottom_input[s * dense_width..(s + 1) * dense_width]
                .copy_from_slice(sample.dense);
        }
        let dense = self
            .bottom_mlp
            .forward_batch_into(
                &scratch.bottom_input[..count * dense_width],
                &mut scratch.bottom,
            )
            .expect("samples validated and scratch fitted before scoring");
        let vectors = self.embedding_tables.len() + 1;
        for (s, sample) in samples.enumerate() {
            let dense_embedding = &dense[s * dim..(s + 1) * dim];
            let top_row = &mut scratch.top_input[s * top_width..(s + 1) * top_width];
            top_row[..dim].copy_from_slice(dense_embedding);
            let mut offset = dim;
            for i in 0..vectors {
                let vi = self.feature_vector(sample.sparse, dense_embedding, i);
                for j in (i + 1)..vectors {
                    let vj = self.feature_vector(sample.sparse, dense_embedding, j);
                    top_row[offset] = dot(vi, vj);
                    offset += 1;
                }
            }
        }
        let scores = self
            .top_mlp
            .forward_batch_into(&scratch.top_input[..count * top_width], &mut scratch.top)
            .expect("top input width is fixed by the config");
        out.copy_from_slice(scores);
    }

    /// Batched forward pass into `out`, one predicted click-through rate per sample, on
    /// the calling thread and without allocating once `scratch` has grown to the batch:
    /// the samples are borrowed views (the serve engine's come straight from its
    /// profile buffer and its requests), embedding rows are read in place, and both
    /// MLPs run as GEMMs over blocks of up to 64 samples that stream each weight once
    /// per block.
    ///
    /// Per sample the result is bit-identical to [`Dlrm::predict`].
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if `out` does not hold one score per
    /// sample, and an error if any sample's shape is wrong or any categorical index is
    /// out of range. Everything is validated before any inference work; `out` is
    /// untouched on error.
    pub fn predict_batch_into<'a, I>(
        &self,
        samples: I,
        scratch: &mut DlrmScratch,
        out: &mut [f32],
    ) -> Result<(), RecsysError>
    where
        I: IntoIterator<Item = DlrmSampleView<'a>>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let samples = samples.into_iter();
        if out.len() != samples.len() {
            return Err(RecsysError::ShapeMismatch {
                what: "dlrm scores",
                expected: samples.len(),
                actual: out.len(),
            });
        }
        for sample in samples.clone() {
            self.validate_sample(sample)?;
            for (table, index) in self.embedding_tables.iter().zip(sample.sparse) {
                table.check_indices(std::slice::from_ref(index))?;
            }
        }
        scratch.fit(self, samples.len().min(MLP_BLOCK));
        for (start, out) in (0..).step_by(MLP_BLOCK).zip(out.chunks_mut(MLP_BLOCK)) {
            let block = samples.clone().skip(start).take(out.len());
            self.predict_block(block, scratch, out);
        }
        Ok(())
    }

    /// [`Dlrm::predict_batch_into`] over owned samples, with a fresh scratch and output
    /// vector.
    ///
    /// # Errors
    ///
    /// As for [`Dlrm::predict_batch_into`].
    pub fn predict_batch(&self, samples: &[DlrmSample]) -> Result<Vec<f32>, RecsysError> {
        let mut out = vec![0.0f32; samples.len()];
        self.predict_batch_into(
            samples.iter().map(DlrmSample::view),
            &mut self.scratch(),
            &mut out,
        )?;
        Ok(out)
    }

    /// A copy of this model whose embedding tables went through an int8
    /// quantize-dequantize round trip (one symmetric scale per table, the format the CMA
    /// rows store) — the software twin of serving the embeddings from the in-memory
    /// fabric. The MLPs are untouched. Returns the model together with the largest
    /// per-table quantization step (worst-case absolute row error).
    pub fn with_quantized_embeddings(&self) -> (Dlrm, f32) {
        let mut model = self.clone();
        let mut max_error = 0.0f32;
        for table in &mut model.embedding_tables {
            let quantized = QuantizedTable::from_table(table);
            max_error = max_error.max(quantized.max_quantization_error());
            for index in 0..table.rows() {
                let row = quantized
                    .dequantized_row(index)
                    .expect("row index is in range");
                table
                    .lookup_mut(index)
                    .expect("row index is in range")
                    .copy_from_slice(&row);
            }
        }
        (model, max_error)
    }

    /// One binary-cross-entropy SGD step on a labelled sample (`label` 1.0 = click).
    ///
    /// Gradients flow through the top MLP, the interaction layer (into the embedding
    /// tables) and the bottom MLP. Returns the BCE loss before the update.
    ///
    /// # Errors
    ///
    /// Returns an error if the sample's shape is wrong or any categorical index is out of
    /// range.
    pub fn train_step(
        &mut self,
        sample: &DlrmSample,
        label: f32,
        learning_rate: f32,
    ) -> Result<f32, RecsysError> {
        let (dense_embedding, vectors, interactions) = self.forward_features(sample)?;
        let mut top_input = dense_embedding.clone();
        top_input.extend(interactions.iter().copied());
        let prediction = self.top_mlp.forward(&top_input)?[0];
        let clamped = prediction.clamp(1e-6, 1.0 - 1e-6);
        let loss = -(label * clamped.ln() + (1.0 - label) * (1.0 - clamped).ln());
        let grad_output = (clamped - label) / (clamped * (1.0 - clamped));
        let grad_top_input = self
            .top_mlp
            .backward(&top_input, &[grad_output], learning_rate)?;

        let dim = self.config.embedding_dim;
        // Gradient with respect to every feature vector (dense embedding = index 0).
        let mut grad_vectors = vec![vec![0.0f32; dim]; vectors.len()];
        // Dense-embedding part of the top input.
        grad_vectors[0].copy_from_slice(&grad_top_input[..dim]);
        // Interaction part: d dot(v_i, v_j)/dv_i = v_j.
        let mut offset = dim;
        for i in 0..vectors.len() {
            for j in (i + 1)..vectors.len() {
                let g = grad_top_input[offset];
                for d in 0..dim {
                    grad_vectors[i][d] += g * vectors[j][d];
                    grad_vectors[j][d] += g * vectors[i][d];
                }
                offset += 1;
            }
        }

        // Update the embedding tables.
        for (field, &index) in sample.sparse.iter().enumerate() {
            self.embedding_tables[field].sgd_update(
                index,
                &grad_vectors[field + 1],
                learning_rate,
            )?;
        }
        // Propagate the dense-embedding gradient through the bottom MLP.
        self.bottom_mlp
            .backward(&sample.dense, &grad_vectors[0], learning_rate)?;
        Ok(loss)
    }

    /// Total parameter count across embeddings and both MLPs.
    #[cfg(test)]
    pub(crate) fn parameter_count(&self) -> usize {
        self.embedding_tables
            .iter()
            .map(EmbeddingTable::parameter_count)
            .sum::<usize>()
            + self.bottom_mlp.parameter_count()
            + self.top_mlp.parameter_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_sample() -> DlrmSample {
        DlrmSample {
            dense: vec![0.1, -0.3, 0.5, 0.9],
            sparse: vec![1, 15, 4],
        }
    }

    #[test]
    fn criteo_config_matches_table_i() {
        let config = DlrmConfig::criteo_kaggle();
        assert_eq!(config.num_dense_features, 13);
        assert_eq!(config.sparse_cardinalities.len(), 26);
        assert_eq!(config.embedding_dim, 32);
        assert_eq!(config.bottom_hidden, vec![256, 128, 32]);
        assert_eq!(config.top_hidden, vec![256, 64, 1]);
        assert_eq!(*config.sparse_cardinalities.iter().max().unwrap(), 30_000);
        // 27 vectors (26 categorical + dense) -> 351 pairwise interactions.
        assert_eq!(config.interaction_count(), 351);
        assert_eq!(config.top_input_width(), 32 + 351);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut config = DlrmConfig::tiny();
        config.bottom_hidden = vec![16, 4];
        assert!(Dlrm::new(config).is_err());
        let mut config = DlrmConfig::tiny();
        config.top_hidden = vec![16, 2];
        assert!(Dlrm::new(config).is_err());
        let mut config = DlrmConfig::tiny();
        config.sparse_cardinalities.clear();
        assert!(Dlrm::new(config).is_err());
        let mut config = DlrmConfig::tiny();
        config.sparse_cardinalities[0] = 0;
        assert!(Dlrm::new(config).is_err());
        let mut config = DlrmConfig::tiny();
        config.num_dense_features = 0;
        assert!(Dlrm::new(config).is_err());
    }

    #[test]
    fn predict_returns_probability() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let p = model.predict(&tiny_sample()).unwrap();
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn sample_shape_is_validated() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let mut bad = tiny_sample();
        bad.dense.pop();
        assert!(model.predict(&bad).is_err());
        let mut bad = tiny_sample();
        bad.sparse.pop();
        assert!(model.predict(&bad).is_err());
        let mut bad = tiny_sample();
        bad.sparse[1] = 999;
        assert!(model.predict(&bad).is_err());
    }

    #[test]
    fn layer_shapes_follow_config() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        assert_eq!(model.bottom_layer_shapes(), vec![(4, 16), (16, 8)]);
        // Top input = 8 (dense embedding) + 6 interactions (4 vectors choose 2).
        assert_eq!(model.top_layer_shapes(), vec![(14, 16), (16, 1)]);
        assert_eq!(model.lookups_per_inference(), 3);
    }

    #[test]
    fn training_reduces_loss_on_a_learnable_rule() {
        // Click iff sparse field 0 has value < 5: the model must fit this quickly.
        let mut model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let samples: Vec<(DlrmSample, f32)> = (0..300)
            .map(|_| {
                let sample = DlrmSample {
                    dense: (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    sparse: vec![
                        rng.gen_range(0..10),
                        rng.gen_range(0..20),
                        rng.gen_range(0..5),
                    ],
                };
                let label = if sample.sparse[0] < 5 { 1.0 } else { 0.0 };
                (sample, label)
            })
            .collect();
        let mean_loss = |model: &Dlrm| -> f32 {
            samples
                .iter()
                .map(|(s, y)| {
                    let p = model.predict(s).unwrap().clamp(1e-6, 1.0 - 1e-6);
                    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
                })
                .sum::<f32>()
                / samples.len() as f32
        };
        let before = mean_loss(&model);
        for _ in 0..10 {
            for (sample, label) in &samples {
                model.train_step(sample, *label, 0.05).unwrap();
            }
        }
        let after = mean_loss(&model);
        assert!(after < before * 0.7, "loss {before} -> {after}");
    }

    #[test]
    fn training_improves_discrimination() {
        let mut model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let positive = DlrmSample {
            dense: vec![0.5, 0.5, 0.5, 0.5],
            sparse: vec![1, 1, 1],
        };
        let negative = DlrmSample {
            dense: vec![-0.5, -0.5, -0.5, -0.5],
            sparse: vec![8, 15, 4],
        };
        for _ in 0..100 {
            model.train_step(&positive, 1.0, 0.05).unwrap();
            model.train_step(&negative, 0.0, 0.05).unwrap();
        }
        assert!(model.predict(&positive).unwrap() > model.predict(&negative).unwrap());
    }

    #[test]
    fn predict_batch_matches_predict_bit_for_bit() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let samples: Vec<DlrmSample> = (0..137)
            .map(|_| DlrmSample {
                dense: (0..4).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
                sparse: vec![
                    rng.gen_range(0..10),
                    rng.gen_range(0..20),
                    rng.gen_range(0..5),
                ],
            })
            .collect();
        let batch = model.predict_batch(&samples).unwrap();
        assert_eq!(batch.len(), samples.len());
        for (sample, &score) in samples.iter().zip(batch.iter()) {
            assert_eq!(score, model.predict(sample).unwrap());
        }
    }

    /// `count` random samples for `config`.
    fn random_samples(config: &DlrmConfig, count: usize, rng: &mut StdRng) -> Vec<DlrmSample> {
        (0..count)
            .map(|_| DlrmSample {
                dense: (0..config.num_dense_features)
                    .map(|_| rng.gen_range(-1.0..1.0f32))
                    .collect(),
                sparse: config
                    .sparse_cardinalities
                    .iter()
                    .map(|&rows| rng.gen_range(0..rows))
                    .collect(),
            })
            .collect()
    }

    /// The serving benchmark's model shapes: 32 dense features, 26 fields of 1000 rows,
    /// and the paper's layer widths or the wide ones.
    fn benchmark_config(wide: bool) -> DlrmConfig {
        let (bottom_hidden, top_hidden) = if wide {
            (vec![512, 256, 32], vec![1024, 512, 256, 1])
        } else {
            (vec![256, 128, 32], vec![256, 64, 1])
        };
        DlrmConfig {
            num_dense_features: 32,
            sparse_cardinalities: vec![1000; 26],
            embedding_dim: 32,
            bottom_hidden,
            top_hidden,
            seed: 42,
        }
    }

    #[test]
    fn predict_batch_into_reuses_one_scratch_across_batch_sizes() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut scratch = model.scratch();
        for count in [64, 3, 65] {
            let samples = random_samples(model.config(), count, &mut rng);
            let mut scores = vec![f32::NAN; count];
            model
                .predict_batch_into(
                    samples.iter().map(DlrmSample::view),
                    &mut scratch,
                    &mut scores,
                )
                .unwrap();
            for (sample, &score) in samples.iter().zip(&scores) {
                assert_eq!(score.to_bits(), model.predict(sample).unwrap().to_bits());
            }
        }
    }

    #[test]
    fn predict_batch_into_grows_a_scratch_from_a_smaller_model() {
        let small = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let model = Dlrm::new(benchmark_config(false)).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let mut scratch = small.scratch();
        small
            .predict_batch_into(
                random_samples(small.config(), 5, &mut rng)
                    .iter()
                    .map(DlrmSample::view),
                &mut scratch,
                &mut [0.0; 5],
            )
            .unwrap();
        let samples = random_samples(model.config(), 9, &mut rng);
        let mut scores = vec![0.0f32; 9];
        model
            .predict_batch_into(
                samples.iter().map(DlrmSample::view),
                &mut scratch,
                &mut scores,
            )
            .unwrap();
        for (sample, &score) in samples.iter().zip(&scores) {
            assert_eq!(score.to_bits(), model.predict(sample).unwrap().to_bits());
        }
    }

    #[test]
    fn predict_batch_into_rejects_an_output_of_the_wrong_length() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let samples = [tiny_sample(), tiny_sample()];
        let mut scratch = model.scratch();
        for len in [0, 1, 3] {
            let mut scores = vec![7.0f32; len];
            assert!(matches!(
                model.predict_batch_into(
                    samples.iter().map(DlrmSample::view),
                    &mut scratch,
                    &mut scores
                ),
                Err(RecsysError::ShapeMismatch { .. })
            ));
            assert!(scores.iter().all(|&score| score == 7.0));
        }
    }

    /// The serial build `Dlrm::new` must equal: the tables in field order, then the
    /// bottom MLP, then the top MLP, one after another on one thread.
    fn serial_reference(config: DlrmConfig) -> Dlrm {
        let mut bottom_sizes = vec![config.num_dense_features];
        bottom_sizes.extend_from_slice(&config.bottom_hidden);
        let mut top_sizes = vec![config.top_input_width()];
        top_sizes.extend_from_slice(&config.top_hidden);
        let embedding_tables = config
            .sparse_cardinalities
            .iter()
            .enumerate()
            .map(|(index, &cardinality)| {
                EmbeddingTable::new(
                    cardinality,
                    config.embedding_dim,
                    config.seed.wrapping_add(index as u64),
                )
                .unwrap()
            })
            .collect();
        Dlrm {
            bottom_mlp: Mlp::new(
                &bottom_sizes,
                Activation::Linear,
                config.seed.wrapping_add(1000),
            )
            .unwrap(),
            top_mlp: Mlp::new(
                &top_sizes,
                Activation::Sigmoid,
                config.seed.wrapping_add(2000),
            )
            .unwrap(),
            embedding_tables,
            config,
        }
    }

    #[test]
    fn parallel_construction_equals_the_serial_build() {
        for config in [
            DlrmConfig::tiny(),
            benchmark_config(false),
            benchmark_config(true),
        ] {
            // Not `assert_eq!`: a failure would print two models of a million floats.
            assert!(Dlrm::new(config.clone()).unwrap() == serial_reference(config));
        }
    }

    #[test]
    fn predict_batch_validates_before_scoring() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let mut bad = tiny_sample();
        bad.sparse[0] = 999;
        assert!(matches!(
            model.predict_batch(&[tiny_sample(), bad]),
            Err(RecsysError::IndexOutOfRange { .. })
        ));
        let mut bad = tiny_sample();
        bad.dense.pop();
        assert!(model.predict_batch(&[bad]).is_err());
        assert!(model.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn quantized_embedding_model_stays_close_to_fp32() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let (quantized, max_error) = model.with_quantized_embeddings();
        assert!(max_error > 0.0);
        // Every table row moved by at most the quantization step.
        for (original, rounded) in model
            .embedding_tables()
            .iter()
            .zip(quantized.embedding_tables().iter())
        {
            for index in 0..original.rows() {
                for (a, b) in original.row(index).iter().zip(rounded.row(index).iter()) {
                    assert!((a - b).abs() <= max_error + 1e-6);
                }
            }
        }
        // Predictions shift, but stay probabilities and mostly agree.
        let p_fp32 = model.predict(&tiny_sample()).unwrap();
        let p_int8 = quantized.predict(&tiny_sample()).unwrap();
        assert!(p_int8 > 0.0 && p_int8 < 1.0);
        assert!((p_fp32 - p_int8).abs() < 0.2);
    }

    #[test]
    fn parameter_count_includes_all_tables() {
        let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
        let embedding_params: usize = DlrmConfig::tiny()
            .sparse_cardinalities
            .iter()
            .map(|c| c * 8)
            .sum();
        assert!(model.parameter_count() > embedding_params);
    }
}

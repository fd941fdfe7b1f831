//! Recommendation-system algorithms for the iMARS reproduction.
//!
//! The iMARS paper evaluates two DNN-based recommendation models:
//!
//! * **YouTubeDNN** (Covington et al., RecSys 2016) on the MovieLens-1M dataset — both the
//!   candidate-generation (*filtering*) stage and the *ranking* stage;
//! * **DLRM** (Naumov et al., 2019) on the Criteo Kaggle click-through-rate dataset —
//!   ranking stage only.
//!
//! This crate implements those models from scratch, together with every algorithmic
//! ingredient the hardware mapping relies on:
//!
//! * [`embedding`] — embedding tables with lookup, sum-pooling and SGD updates, plus the
//!   zero-allocation batched gather/pool hot path;
//! * [`arena`] — shared contiguous row storage ([`RowArena`]) so sharded serving aliases
//!   one allocation per dtype instead of copying rows;
//! * [`simd`] — the f32 kernels (pooling accumulate, blocked dot) on the dispatch of
//!   [`imars_fabric::simd`], pinned bit-identical to their scalar references;
//! * [`batch`] — CSR pooling batches and the thread fan-out helpers of the offline
//!   studies and of model construction;
//! * [`mlp`] — fully connected networks with ReLU/sigmoid activations and backpropagation;
//! * [`youtube_dnn`] / [`dlrm`] — the two paper models;
//! * [`quantization`] — int8 symmetric quantization of embeddings (the format stored in
//!   the CMA rows);
//! * [`lsh`] — random-hyperplane locality-sensitive hashing producing the 256-bit
//!   signatures the TCAM search operates on;
//! * [`nns`] — exact cosine / dot-product nearest-neighbour search (the software
//!   baseline) and fixed-radius Hamming search (the IMC-friendly replacement);
//! * `topk`, [`metrics`] — top-k selection and hit-rate evaluation;
//! * [`training`] — sampled-softmax / logistic-loss training loops used by the accuracy
//!   experiments.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod arena;
pub mod batch;
pub mod dlrm;
pub mod embedding;
pub mod error;
pub mod lsh;
pub mod metrics;
pub mod mlp;
pub mod nns;
pub mod quantization;
pub mod simd;
pub(crate) mod topk;
pub mod training;
pub mod youtube_dnn;

pub use arena::RowArena;
pub use batch::{PoolingBatch, PoolingMode};
pub use dlrm::{Dlrm, DlrmConfig, DlrmScratch};
pub use embedding::EmbeddingTable;
pub use error::RecsysError;
pub use lsh::RandomHyperplaneLsh;
pub use mlp::{Mlp, MlpBatchScratch, MlpScratch};
pub use quantization::{QuantizationParams, QuantizedTable};
pub use youtube_dnn::{YoutubeDnn, YoutubeDnnConfig};

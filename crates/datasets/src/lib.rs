//! Synthetic dataset and workload generators for the iMARS reproduction.
//!
//! The paper evaluates on two public datasets that are not redistributable inside this
//! repository:
//!
//! * **MovieLens-1M** (Harper & Konstan) — 6,040 users, 3,706 rated movies, ~1 M ratings,
//!   used for the YouTubeDNN filtering + ranking pipeline and the accuracy study;
//! * **Criteo Kaggle** — 13 continuous and 26 categorical features per impression, used
//!   for the DLRM ranking-stage evaluation.
//!
//! This crate generates *synthetic equivalents* that preserve the statistics the iMARS
//! experiments actually depend on: user/item/feature cardinalities (which drive the
//! embedding-table-to-CMA mapping of Table I), Zipfian item popularity and clustered user
//! taste (which give the filtering model something real to learn, so the accuracy
//! ordering FP32 ≥ int8 ≥ LSH is reproduced), multi-hot history lengths (which drive the
//! ET-lookup pooling cost), and a leave-one-out test split (the protocol behind the hit
//! rate metric).

#![forbid(unsafe_code)]

pub mod criteo;
pub mod movielens;
pub mod workload;
pub mod zipf;

pub use criteo::{SyntheticCriteo, SyntheticCriteoConfig};
pub use movielens::{MovieLensStats, SyntheticMovieLens, SyntheticMovieLensConfig};
pub use workload::{InferenceWorkload, WorkloadConfig};
pub use zipf::ZipfSampler;

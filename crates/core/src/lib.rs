//! iMARS: an in-memory-computing accelerator architecture for recommendation systems.
//!
//! This is the system-assembly crate of the reproduction of *"iMARS: An In-Memory-
//! Computing Architecture for Recommendation Systems"* (Li et al., DAC 2022). It glues
//! the lower-level crates together:
//!
//! * [`et_mapping`] — maps every embedding table of a RecSys model onto the CMA
//!   bank/mat/array hierarchy (Table I of the paper);
//! * [`workloads`] — the paper's two evaluation workloads (YouTubeDNN on MovieLens-1M,
//!   DLRM on Criteo Kaggle) expressed as embedding-lookup traffic;
//! * [`error`] — the unified error type wrapping the device/fabric/recsys layers;
//! * [`system`] — the generic study/sweep runner (cartesian grids, deterministic seeded
//!   JSON reports to `target/imars-bench/`);
//! * [`et_lookup`] — the Table III embedding-table-lookup study (iMARS cost model vs the
//!   calibrated GPU baseline, plus table-size/pooling/dim sweeps);
//! * [`nns_eval`] — the Sec. IV-C2 NNS comparison (TCAM fixed radius vs LSH vs exact
//!   cosine: recall, candidate ratio, energy);
//! * [`accuracy`] — the Sec. IV-B accuracy study (fp32 vs int8 vs LSH retrieval on
//!   synthetic MovieLens; fp32-vs-int8 DLRM CTR AUC on synthetic Criteo);
//! * [`pipeline`] — the Fig. 2 stage-level latency/energy breakdowns;
//! * [`end_to_end`] — full-system per-query FOMs and the serve-cluster replay path;
//! * [`cache_scaling`] — the MARM cache scaling-law study: hit-rate/qps-vs-capacity
//!   curves per replacement policy, skew, and cache placement, with a winning-policy
//!   frontier.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod cache_scaling;
pub mod end_to_end;
pub mod error;
pub mod et_lookup;
pub mod et_mapping;
pub mod large_scale;
pub mod nns_eval;
pub mod pipeline;
pub mod system;
pub mod workloads;

pub use error::CoreError;
pub use et_lookup::EtLookupModel;
pub use et_mapping::{EtMapping, EtSpec, MappingSummary};
pub use system::{FomComparison, ParamValue, Study, StudyRow, SweepGrid};
pub use workloads::{RecsysWorkload, WorkloadKind};

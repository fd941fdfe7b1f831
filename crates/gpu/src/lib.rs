//! Calibrated analytical GPU baseline for the iMARS reproduction.
//!
//! The paper compares iMARS against a software implementation running on an Nvidia
//! GTX/RTX 1080-class GPU, measured with `nvidia-smi` (power) and `line_profiler`
//! (latency). Since this repository cannot run CUDA kernels, the GPU side is reproduced
//! as an **analytical performance/energy model**:
//!
//! * latency is assembled from kernel-launch overhead, per-embedding-table dispatch
//!   overhead, memory traffic over the effective DRAM bandwidth, and compute throughput —
//!   the standard roofline decomposition for short inference kernels, where launch
//!   overhead dominates at batch size 1;
//! * energy is latency times the average board power the paper's own numbers imply
//!   (every Table III entry and both NNS measurements work out to ≈22 W drawn during
//!   these memory-bound kernels).
//!
//! [`reference`](mod@reference) records every GPU figure the paper reports; unit tests keep the
//! analytical model within a small tolerance of each, so the speedup/energy-ratio
//! experiments in `imars-core` compare against a faithful baseline.

#![forbid(unsafe_code)]

pub mod kernels;
pub mod model;
pub mod reference;
pub mod specs;

pub use kernels::GpuCost;
pub use model::GpuModel;
pub use specs::GpuSpecs;

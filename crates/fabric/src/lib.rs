//! Architectural simulator for the iMARS in-memory-computing fabric.
//!
//! This crate models the hardware organization of iMARS (Fig. 3 of the paper) one level
//! above the circuit models of [`imars_device`]:
//!
//! * [`cma::CmaArray`] — a configurable memory array that really stores bits and can be
//!   operated in RAM mode (row read/write), TCAM mode (threshold Hamming search) and
//!   GPCiM mode (in-memory row accumulation), with every operation charged the
//!   corresponding array-level figure of merit;
//! * [`CrossbarBank`] — the crossbar arrays executing the fully connected DNN layers;
//! * [`interconnect`] — the RSC bus and the IBC network between mats;
//! * [`cost`] — energy/latency accounting shared by every component;
//! * [`simd`] — the workspace's one SIMD dispatch, the int8 pooling kernels and the TCAM
//!   threshold scan.
//!
//! Functional behaviour and cost accounting are deliberately coupled: the same call that
//! returns the pooled embedding also returns the energy and latency it consumed, so tests
//! can check numerical correctness while benches roll up the costs the paper reports.
//!
//! # Example
//!
//! ```
//! use imars_fabric::cma::CmaArray;
//! use imars_fabric::config::FabricConfig;
//! use imars_device::ArrayCharacterizer;
//!
//! let fom = ArrayCharacterizer::default().calibrated_fom();
//! let config = FabricConfig::paper_design_point();
//! let mut cma = CmaArray::new(config.cma_rows, config.cma_cols, fom);
//! let embedding = vec![1i8; config.embedding_dim];
//! let outcome = cma.write_embedding(0, &embedding).unwrap();
//! assert!(outcome.cost.energy_pj > 0.0);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod accumulator;
#[cfg(test)]
mod bank;
pub mod cma;
pub mod config;
#[cfg(test)]
mod controller;
pub mod cost;
pub(crate) mod crossbar;
pub mod error;
pub mod interconnect;
#[cfg(test)]
mod mat;
pub mod simd;

pub use accumulator::GpcimAccumulator;
pub use cma::{CmaArray, PackedTable};
pub use config::FabricConfig;
pub use cost::{Cost, CostBreakdown, CostComponent, Outcome};
pub use crossbar::CrossbarBank;
pub use error::FabricError;

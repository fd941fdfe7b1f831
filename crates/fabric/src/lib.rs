//! Architectural simulator for the iMARS in-memory-computing fabric.
//!
//! This crate models the hardware organization of iMARS (Fig. 3 of the paper) one level
//! above the circuit models of [`imars_device`]:
//!
//! * [`cma::CmaArray`] — a configurable memory array that really stores bits and can be
//!   operated in RAM mode (row read/write), TCAM mode (threshold Hamming search) and
//!   GPCiM mode (in-memory row accumulation), with every operation charged the
//!   corresponding array-level figure of merit;
//! * [`mat::Mat`] and [`bank::CmaBank`] — the two-level hierarchy (C CMAs per mat, M mats
//!   per bank) with the intra-mat and intra-bank adder trees and the serialized IBC
//!   network between them;
//! * [`crossbar::CrossbarBank`] — the crossbar arrays executing the fully connected DNN
//!   layers;
//! * [`interconnect`] and [`controller`] — the RSC bus, IBC network and the counter-based
//!   controller that orders mat outputs into groups matching the intra-bank adder fan-in;
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
pub mod bank;
pub mod cma;
pub mod config;
pub mod controller;
pub mod cost;
pub mod crossbar;
pub mod error;
pub mod interconnect;
pub mod mat;
pub mod simd;

pub use accumulator::GpcimAccumulator;
pub use bank::CmaBank;
pub use cma::{CmaArray, PackedTable};
pub use config::FabricConfig;
pub use cost::{Cost, CostBreakdown, CostComponent, Outcome};
pub use crossbar::{CrossbarArray, CrossbarBank};
pub use error::FabricError;

//! Facade crate for the iMARS reproduction workspace.
//!
//! Re-exports every layer of the stack under one roof so examples and downstream users
//! can depend on a single crate:
//!
//! * [`device`] — FeFET cells, crossbars, sense amplifiers, adder trees;
//! * [`fabric`] — the CMA fabric simulator (RAM/TCAM/GPCiM modes) and its cost model;
//! * [`recsys`] — DLRM / YouTubeDNN models, embedding tables, NNS, quantization;
//! * [`datasets`] — synthetic MovieLens/Criteo-style data and Zipf traffic;
//! * [`serve`] — the sharded, dynamically-batched serving engine with hot-row caching
//!   and Zipf traffic replay;
//! * [`gpu`] — the calibrated GPU baseline cost models;
//! * [`core`] — system assembly: ET-to-fabric mapping and paper workloads.

#![forbid(unsafe_code)]

pub use imars_core as core;
pub use imars_datasets as datasets;
pub use imars_device as device;
pub use imars_fabric as fabric;
pub use imars_gpu as gpu;
pub use imars_recsys as recsys;
pub use imars_serve as serve;

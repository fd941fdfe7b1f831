//! Circuit- and device-level models for the iMARS reproduction.
//!
//! The iMARS paper ("iMARS: An In-Memory-Computing Architecture for Recommendation
//! Systems", DAC 2022) characterizes a 256x256 FeFET-based configurable memory array
//! (CMA), near-memory adder trees, and FeFET crossbar arrays in HSPICE / RTL synthesis /
//! NeuroSim, and feeds the resulting array-level figures of merit (FoMs, Table II of the
//! paper) into its system-level evaluation.
//!
//! This crate replaces those closed tool flows with analytical, parameterized circuit
//! models built from a small set of technology constants (45 nm, predictive-technology
//! style), a Preisach-inspired FeFET device model, explicit wire/peripheral models, and a
//! documented calibration step that anchors the roll-up to the paper's published FoMs.
//!
//! The main entry point is [`characterization::ArrayCharacterizer`], which produces an
//! [`characterization::ArrayFom`] consumed by the `imars-fabric` architectural simulator.
//!
//! # Example
//!
//! ```
//! use imars_device::characterization::ArrayCharacterizer;
//! use imars_device::technology::TechnologyParams;
//!
//! let tech = TechnologyParams::predictive_45nm();
//! let characterizer = ArrayCharacterizer::new(tech);
//! let fom = characterizer.calibrated_fom();
//! // The calibrated CMA read matches the paper's Table II entry.
//! assert!((fom.cma.read.energy_pj - 3.2).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod adder_tree;
pub mod area;
pub mod calibration;
#[cfg(test)]
mod cell;
pub mod characterization;
pub(crate) mod crossbar;
pub mod error;
#[cfg(test)]
mod fefet;
pub(crate) mod sense_amp;
pub mod technology;
pub mod wire;

pub use calibration::CalibrationReport;
pub use characterization::{ArrayCharacterizer, ArrayFom, OperationFom};
pub use error::DeviceError;
pub use technology::TechnologyParams;

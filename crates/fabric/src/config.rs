//! Fabric configuration: the design parameters the paper calls B, M, C and R, plus data
//! formats and interconnect parameters.

use crate::error::FabricError;

/// Interconnect cost parameters for the RSC bus and the IBC network.
///
/// The paper does not tabulate per-beat figures for the buses (their contribution is
/// folded into the system-level results); these defaults are derived from the wire models
/// of `imars-device` at millimetre scale and kept explicit so the communication overhead
/// can be swept in the design-space benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectParams {
    /// Width of the RecSys communication (RSC) bus in bits.
    pub rsc_width_bits: usize,
    /// Latency of one RSC bus beat in nanoseconds.
    pub rsc_beat_latency_ns: f64,
    /// Energy of one RSC bus beat in picojoules.
    pub rsc_beat_energy_pj: f64,
    /// Payload of one IBC transfer in bytes (128 B = four 256-bit mat outputs).
    pub ibc_bytes_per_beat: usize,
    /// Latency of one IBC beat in nanoseconds.
    pub ibc_beat_latency_ns: f64,
    /// Energy of one IBC beat in picojoules.
    pub ibc_beat_energy_pj: f64,
    /// Per-operation controller overhead energy in picojoules.
    pub control_energy_pj: f64,
    /// Per-operation controller overhead latency in nanoseconds.
    pub control_latency_ns: f64,
}

impl Default for InterconnectParams {
    fn default() -> Self {
        Self {
            rsc_width_bits: 256,
            rsc_beat_latency_ns: 2.0,
            rsc_beat_energy_pj: 100.0,
            ibc_bytes_per_beat: 128,
            ibc_beat_latency_ns: 2.0,
            ibc_beat_energy_pj: 50.0,
            control_energy_pj: 1.0,
            control_latency_ns: 0.5,
        }
    }
}

/// Top-level configuration of the iMARS ET fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Number of CMA banks (`B`). One sparse feature maps to one bank.
    pub banks: usize,
    /// Number of mats per bank (`M`).
    pub mats_per_bank: usize,
    /// Number of CMAs per mat (`C`).
    pub cmas_per_mat: usize,
    /// Rows per CMA (`R`).
    pub cma_rows: usize,
    /// Columns per CMA.
    pub cma_cols: usize,
    /// Embedding dimensionality stored per row (32 in the paper).
    pub embedding_dim: usize,
    /// Bits per embedding element (int8 in the paper).
    pub element_bits: usize,
    /// Fan-in of the intra-bank adder tree (4 in the paper).
    pub intra_bank_fan_in: usize,
    /// Interconnect parameters.
    pub interconnect: InterconnectParams,
}

impl FabricConfig {
    /// The paper's design point, dimensioned for the largest evaluated dataset (Criteo
    /// Kaggle): `B = 32`, `M = 4`, `C = 32`, 256×256 CMAs, 32-dimension int8 embeddings,
    /// intra-bank fan-in of 4.
    pub fn paper_design_point() -> Self {
        Self {
            banks: 32,
            mats_per_bank: 4,
            cmas_per_mat: 32,
            cma_rows: 256,
            cma_cols: 256,
            embedding_dim: 32,
            element_bits: 8,
            intra_bank_fan_in: 4,
            interconnect: InterconnectParams::default(),
        }
    }

    /// Validate structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] if any count is zero, or the embedding does
    /// not fit in one CMA row.
    pub fn validate(&self) -> Result<(), FabricError> {
        let nonzero: [(&str, usize); 8] = [
            ("banks", self.banks),
            ("mats_per_bank", self.mats_per_bank),
            ("cmas_per_mat", self.cmas_per_mat),
            ("cma_rows", self.cma_rows),
            ("cma_cols", self.cma_cols),
            ("embedding_dim", self.embedding_dim),
            ("element_bits", self.element_bits),
            ("intra_bank_fan_in", self.intra_bank_fan_in),
        ];
        for (name, value) in nonzero {
            if value == 0 {
                return Err(FabricError::InvalidConfig {
                    reason: format!("{name} must be nonzero"),
                });
            }
        }
        if self.element_bits > 64 {
            return Err(FabricError::InvalidConfig {
                reason: format!(
                    "element_bits {} exceeds the supported maximum of 64",
                    self.element_bits
                ),
            });
        }
        if self.embedding_dim * self.element_bits > self.cma_cols {
            return Err(FabricError::InvalidConfig {
                reason: format!(
                    "an embedding of {} x {} bits does not fit in a {}-column CMA row",
                    self.embedding_dim, self.element_bits, self.cma_cols
                ),
            });
        }
        Ok(())
    }

    /// Number of embedding rows one CMA can hold.
    pub fn rows_per_cma(&self) -> usize {
        self.cma_rows
    }

    /// Bits of one packed embedding row.
    pub fn embedding_bits(&self) -> usize {
        self.embedding_dim * self.element_bits
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self::paper_design_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_point_matches_section_iv() {
        let c = FabricConfig::paper_design_point();
        assert_eq!(c.banks, 32);
        assert_eq!(c.mats_per_bank, 4);
        assert_eq!(c.cmas_per_mat, 32);
        assert_eq!(c.cma_rows, 256);
        assert_eq!(c.cma_cols, 256);
        assert_eq!(c.embedding_dim, 32);
        assert_eq!(c.element_bits, 8);
        assert_eq!(c.intra_bank_fan_in, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn capacity_helpers() {
        let c = FabricConfig::paper_design_point();
        assert_eq!(c.embedding_bits(), 256);
    }

    #[test]
    fn validate_rejects_zero_counts() {
        let mut c = FabricConfig::paper_design_point();
        c.banks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_oversized_embedding() {
        let mut c = FabricConfig::paper_design_point();
        c.embedding_dim = 64;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_oversized_element() {
        let mut c = FabricConfig::paper_design_point();
        c.element_bits = 128;
        assert!(c.validate().is_err());
    }

    #[test]
    fn interconnect_defaults_are_positive() {
        let i = InterconnectParams::default();
        assert!(i.rsc_beat_latency_ns > 0.0);
        assert!(i.ibc_beat_energy_pj > 0.0);
        assert_eq!(i.rsc_width_bits, 256);
        assert_eq!(i.ibc_bytes_per_beat, 128);
    }
}

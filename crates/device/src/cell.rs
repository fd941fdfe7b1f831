//! Memory-cell models: the 2-FeFET CMA cell (RAM/TCAM/GPCiM capable) and the single-FeFET
//! analog crossbar cell.
//!
//! A CMA cell stores one ternary symbol using two complementary FeFETs (following the
//! FeFET TCAM cell of Ni et al. and the configurable array of Reis et al.). The same cell
//! is read out in three ways:
//!
//! * **RAM mode** — one FeFET is selected through the wordline and its drain current is
//!   sensed on the bitline (stored bit).
//! * **TCAM mode** — the search lines drive the true/complement query bit onto the two
//!   FeFET gates; a mismatching cell pulls the row matchline down. Counting the discharge
//!   current of a row yields the Hamming distance between query and stored word.
//! * **GPCiM mode** — two wordlines are activated simultaneously and the combined bitline
//!   current is compared against multiple references to produce bitwise logic, the
//!   building block of in-memory addition.

use crate::fefet::{FeFet, FeFetState};
use crate::technology::TechnologyParams;

/// Ternary symbol stored by a CMA cell when used as a TCAM entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TernaryBit {
    /// Binary zero.
    Zero,
    /// Binary one.
    One,
    /// Wildcard: matches both query values (used for masking unused columns).
    DontCare,
}

impl TernaryBit {
    /// Convert a binary value into the corresponding ternary symbol.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            TernaryBit::One
        } else {
            TernaryBit::Zero
        }
    }

    /// The binary value stored, or `None` for a wildcard.
    pub fn as_bit(self) -> Option<bool> {
        match self {
            TernaryBit::Zero => Some(false),
            TernaryBit::One => Some(true),
            TernaryBit::DontCare => None,
        }
    }

    /// Whether a query bit matches this stored symbol.
    pub fn matches(self, query: bool) -> bool {
        match self {
            TernaryBit::DontCare => true,
            TernaryBit::Zero => !query,
            TernaryBit::One => query,
        }
    }
}

/// Two-FeFET configurable-memory-array cell.
///
/// The `true_device` stores the bit, the `complement_device` stores its complement; a
/// don't-care is encoded by erasing both devices so that neither pulls the matchline down.
#[derive(Debug, Clone, PartialEq)]
pub struct CmaCell {
    true_device: FeFet,
    complement_device: FeFet,
    stored: TernaryBit,
}

impl CmaCell {
    /// Create a cell initialized to [`TernaryBit::Zero`].
    pub fn new(tech: TechnologyParams) -> Self {
        let mut cell = Self {
            true_device: FeFet::new(tech.clone()),
            complement_device: FeFet::new(tech),
            stored: TernaryBit::Zero,
        };
        cell.write(TernaryBit::Zero);
        cell
    }

    /// Program the cell with a ternary symbol (both FeFETs receive a full write pulse).
    pub fn write(&mut self, value: TernaryBit) {
        match value {
            TernaryBit::One => {
                self.true_device.write_state(FeFetState::LowVt);
                self.complement_device.write_state(FeFetState::HighVt);
            }
            TernaryBit::Zero => {
                self.true_device.write_state(FeFetState::HighVt);
                self.complement_device.write_state(FeFetState::LowVt);
            }
            TernaryBit::DontCare => {
                self.true_device.write_state(FeFetState::HighVt);
                self.complement_device.write_state(FeFetState::HighVt);
            }
        }
        self.stored = value;
    }

    /// RAM-mode read: the binary value stored (a don't-care reads as zero, matching the
    /// behaviour of sensing only the true device).
    pub fn read_bit(&self) -> bool {
        self.true_device.read_state() == FeFetState::LowVt
    }

    /// TCAM-mode evaluation: whether a query bit matches the stored symbol.
    ///
    /// Electrically, a mismatch turns on one of the two FeFETs and discharges the
    /// matchline; this helper reports the *logical* outcome.
    pub fn tcam_matches(&self, query: bool) -> bool {
        self.stored.matches(query)
    }

    /// Matchline discharge current contributed by this cell for a given query bit, in
    /// microamperes. Mismatching cells contribute (close to) the on-current, matching
    /// cells only leakage — the per-row sum is what the threshold sense amplifier compares
    /// against the dummy-cell reference to implement distance-threshold matching.
    pub fn matchline_current_ua(&self, query: bool) -> f64 {
        if self.tcam_matches(query) {
            self.true_device.technology().fefet_off_current_ua
                + self.complement_device.technology().fefet_off_current_ua
        } else {
            // Exactly one of the two devices conducts on a mismatch.
            self.true_device.technology().fefet_on_current_ua
        }
    }

    /// Energy of programming the cell (both FeFET write pulses plus local bit/plate line
    /// switching), in femtojoules.
    pub fn write_energy_fj(&self) -> f64 {
        2.0 * self.true_device.write_energy_fj()
    }

    /// Latency of programming the cell, in nanoseconds. The two devices are written with
    /// complementary pulses applied simultaneously.
    pub fn write_latency_ns(&self) -> f64 {
        self.true_device.write_latency_ns()
    }
}

/// Single-FeFET analog crossbar cell storing a signed weight as a conductance level.
///
/// The crossbar arrays of iMARS execute the fully connected DNN layers; each cell encodes
/// a quantized weight as a partial-polarization state and its read current contributes to
/// the column's multiply-accumulate.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarCell {
    device: FeFet,
    /// Quantized weight the cell was programmed with, in `[-1.0, 1.0]` (normalized).
    weight: f64,
}

impl CrossbarCell {
    /// Create a cell holding weight zero.
    pub fn new(tech: TechnologyParams) -> Self {
        Self {
            device: FeFet::new(tech),
            weight: 0.0,
        }
    }

    /// Program the cell with a normalized weight in `[-1.0, 1.0]`; values outside that
    /// range are clamped.
    pub fn program_weight(&mut self, weight: f64) {
        self.weight = weight.clamp(-1.0, 1.0);
    }

    /// The currently programmed normalized weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Multiply-accumulate contribution of this cell for a normalized input activation in
    /// `[0.0, 1.0]` (the product `w * x`, which the analog column current realizes).
    pub fn mac_contribution(&self, activation: f64) -> f64 {
        self.weight * activation.clamp(0.0, 1.0)
    }

    /// Read current of the cell at full input activation, in microamperes, proportional to
    /// the absolute programmed conductance.
    pub fn read_current_ua(&self) -> f64 {
        self.device.technology().fefet_on_current_ua * self.weight.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::predictive_45nm()
    }

    #[test]
    fn ternary_bit_round_trip() {
        assert_eq!(TernaryBit::from_bit(true).as_bit(), Some(true));
        assert_eq!(TernaryBit::from_bit(false).as_bit(), Some(false));
        assert_eq!(TernaryBit::DontCare.as_bit(), None);
    }

    #[test]
    fn ternary_match_semantics() {
        assert!(TernaryBit::One.matches(true));
        assert!(!TernaryBit::One.matches(false));
        assert!(TernaryBit::Zero.matches(false));
        assert!(!TernaryBit::Zero.matches(true));
        assert!(TernaryBit::DontCare.matches(true));
        assert!(TernaryBit::DontCare.matches(false));
    }

    #[test]
    fn cma_cell_ram_read_matches_written_bit() {
        let mut cell = CmaCell::new(tech());
        cell.write(TernaryBit::One);
        assert!(cell.read_bit());
        cell.write(TernaryBit::Zero);
        assert!(!cell.read_bit());
    }

    #[test]
    fn cma_cell_dont_care_matches_everything() {
        let mut cell = CmaCell::new(tech());
        cell.write(TernaryBit::DontCare);
        assert!(cell.tcam_matches(true));
        assert!(cell.tcam_matches(false));
    }

    #[test]
    fn matchline_current_distinguishes_match_from_mismatch() {
        let mut cell = CmaCell::new(tech());
        cell.write(TernaryBit::One);
        let match_current = cell.matchline_current_ua(true);
        let mismatch_current = cell.matchline_current_ua(false);
        assert!(
            mismatch_current > 100.0 * match_current,
            "mismatch {mismatch_current} vs match {match_current}"
        );
    }

    #[test]
    fn cma_cell_write_cost_is_two_fefet_writes() {
        let cell = CmaCell::new(tech());
        let single = FeFet::new(tech()).write_energy_fj();
        assert!((cell.write_energy_fj() - 2.0 * single).abs() < 1e-12);
        assert!(cell.write_latency_ns() > 0.0);
    }

    #[test]
    fn crossbar_cell_mac_is_linear_in_weight_and_activation() {
        let mut cell = CrossbarCell::new(tech());
        cell.program_weight(0.5);
        assert!((cell.mac_contribution(1.0) - 0.5).abs() < 1e-12);
        assert!((cell.mac_contribution(0.5) - 0.25).abs() < 1e-12);
        cell.program_weight(-0.5);
        assert!((cell.mac_contribution(1.0) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn crossbar_cell_clamps_weight() {
        let mut cell = CrossbarCell::new(tech());
        cell.program_weight(7.0);
        assert_eq!(cell.weight(), 1.0);
        cell.program_weight(-7.0);
        assert_eq!(cell.weight(), -1.0);
    }

    #[test]
    fn crossbar_cell_activation_clamped() {
        let mut cell = CrossbarCell::new(tech());
        cell.program_weight(1.0);
        assert!((cell.mac_contribution(2.0) - 1.0).abs() < 1e-12);
        assert!((cell.mac_contribution(-1.0)).abs() < 1e-12);
    }

    #[test]
    fn crossbar_read_current_scales_with_weight() {
        let mut cell = CrossbarCell::new(tech());
        cell.program_weight(1.0);
        let full = cell.read_current_ua();
        cell.program_weight(0.25);
        let quarter = cell.read_current_ua();
        assert!((full * 0.25 - quarter).abs() < 1e-9);
    }
}

//! Analytical model of the near-memory adder trees.
//!
//! iMARS accumulates embedding rows hierarchically: an in-array accumulator inside each
//! CMA, a 256-bit **intra-mat adder tree** that sums the outputs of the `C` CMAs of a mat,
//! and a 256-bit **intra-bank adder tree** with a fan-in of four that combines mat outputs
//! (serialized over the IBC network when a bank has more than four mats). The paper
//! synthesizes both trees with the NanGate 45 nm library and reports one figure-of-merit
//! row each in Table II.
//!
//! The model here assembles the same numbers from first principles: full-adder gate
//! energy/delay, carry propagation within 8-bit blocks, tree depth, pipeline registers and
//! — dominant for the intra-bank tree — the long wires that haul the operands across CMAs
//! and mats.

use crate::error::DeviceError;
use crate::technology::TechnologyParams;
use crate::wire::Wire;

/// Figures of merit of one complete accumulation through an adder tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AdderTreeFom {
    /// Energy of one full accumulation in picojoules.
    pub energy_pj: f64,
    /// Latency of one full accumulation in nanoseconds.
    pub latency_ns: f64,
    /// Estimated layout area in square micrometres.
    pub area_um2: f64,
    /// Number of two-input adder nodes in the tree.
    pub adder_nodes: usize,
    /// Number of pipeline levels.
    pub levels: usize,
}

/// Parameterized adder-tree model.
///
/// The tree is physically distributed over the memory units it serves: at reduction level
/// `l` (1-based) there are `fan_in / 2^l` partial sums, each of which travelled
/// `2^(l-1) × leaf_pitch_um` from the previous level. This distributed-wire view is what
/// makes the intra-bank tree (whose leaves are entire mats) an order of magnitude more
/// expensive than the intra-mat tree (whose leaves are single CMAs), exactly the relation
/// Table II of the paper shows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdderTreeModel {
    tech: TechnologyParams,
    /// Word width in bits (256 for iMARS: 32 dimensions × int8).
    width_bits: usize,
    /// Number of operands accumulated by one pass through the tree.
    fan_in: usize,
    /// Physical pitch between adjacent leaf units (CMAs for the intra-mat tree, mats for
    /// the intra-bank tree), in micrometres.
    leaf_pitch_um: f64,
    /// Extra serialization beats required to gather the operands (1 = fully parallel).
    gather_beats: usize,
}

impl AdderTreeModel {
    /// Create an adder-tree model.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if `width_bits` or `fan_in` is smaller
    /// than 2, or if the technology parameters are invalid.
    pub fn new(
        tech: TechnologyParams,
        width_bits: usize,
        fan_in: usize,
        leaf_pitch_um: f64,
        gather_beats: usize,
    ) -> Result<Self, DeviceError> {
        tech.validate()?;
        if width_bits < 2 {
            return Err(DeviceError::InvalidParameter {
                name: "width_bits",
                reason: format!("adder width must be at least 2 bits, got {width_bits}"),
            });
        }
        if fan_in < 2 {
            return Err(DeviceError::InvalidParameter {
                name: "fan_in",
                reason: format!("adder tree fan-in must be at least 2, got {fan_in}"),
            });
        }
        Ok(Self {
            tech,
            width_bits,
            fan_in,
            leaf_pitch_um: leaf_pitch_um.max(0.0),
            gather_beats: gather_beats.max(1),
        })
    }

    /// The intra-mat adder tree of the paper's design point: sums the outputs of `c_cmas`
    /// CMAs of `cma_width_um` pitch each, 256-bit words, operands arriving in parallel.
    pub fn intra_mat(
        tech: TechnologyParams,
        c_cmas: usize,
        cma_width_um: f64,
    ) -> Result<Self, DeviceError> {
        Self::new(tech, 256, c_cmas.max(2), cma_width_um, 1)
    }

    /// The intra-bank adder tree of the paper's design point: fan-in of four, operands
    /// gathered over the serialized IBC network from mats that are `mat_width_um` wide.
    pub fn intra_bank(
        tech: TechnologyParams,
        mat_width_um: f64,
        ibc_beats: usize,
    ) -> Result<Self, DeviceError> {
        Self::new(tech, 256, 4, mat_width_um, ibc_beats.max(1))
    }

    /// Number of two-input adders needed to reduce `fan_in` operands to one.
    pub(crate) fn adder_nodes(&self) -> usize {
        self.fan_in - 1
    }

    /// Tree depth in levels (`ceil(log2(fan_in))`).
    pub(crate) fn levels(&self) -> usize {
        (usize::BITS - (self.fan_in - 1).leading_zeros()) as usize
    }

    /// Energy of one full-adder bit operation in femtojoules (≈4 gate transitions).
    fn full_adder_energy_fj(&self) -> f64 {
        4.0 * self.tech.logic_gate_energy_fj
    }

    /// Delay of carrying a sum across one 8-bit carry block, in nanoseconds.
    fn carry_block_delay_ns(&self) -> f64 {
        4.0 * self.tech.logic_gate_delay_ns
    }

    /// Wire length of reduction level `level` (1-based): the partial sums of that level
    /// travel past `2^(level-1)` leaf units to meet their sibling.
    fn level_wire_um(&self, level: usize) -> f64 {
        (1u64 << (level - 1)) as f64 * self.leaf_pitch_um
    }

    /// Number of partial-sum signals produced at reduction level `level` (1-based).
    fn level_signals(&self, level: usize) -> usize {
        let divisor = 1usize << level.min(63);
        self.fan_in.div_ceil(divisor)
    }

    /// Long on-chip wires need repeaters; this factor inflates the switched capacitance
    /// proportionally to the wire length (≈30 % extra per millimetre).
    fn repeater_factor(length_um: f64) -> f64 {
        1.0 + 0.3 * (length_um / 1000.0)
    }

    /// Evaluate the figures of merit of one complete accumulation.
    pub fn fom(&self) -> AdderTreeFom {
        let adders = self.adder_nodes();
        let levels = self.levels();
        let bits = self.width_bits as f64;

        // Arithmetic energy: every adder node switches `width_bits` full adders, plus a
        // pipeline register per level output.
        let adder_energy_fj = adders as f64 * bits * self.full_adder_energy_fj();
        let flop_energy_fj = levels as f64 * bits * self.tech.flop_energy_fj;

        // Operand delivery: the partial sums of each level travel between leaf units on
        // `width_bits` parallel tracks; roughly half the bits toggle per accumulation.
        let activity = 0.5;
        let mut wire_energy_fj = 0.0;
        let mut wire_delay_ns_total = 0.0;
        for level in 1..=levels {
            let length = self.level_wire_um(level);
            let signals = self.level_signals(level) as f64;
            let per_bit = Wire::new(length, 0.5, 1.0)
                .transition(&self.tech, self.tech.vdd_v)
                .energy_fj
                * Self::repeater_factor(length);
            wire_energy_fj += signals * bits * per_bit * activity;
            wire_delay_ns_total += Wire::new(length, bits * 0.5, 1.0)
                .transition(&self.tech, self.tech.vdd_v)
                .delay_ns;
        }

        let energy_pj = (adder_energy_fj + flop_energy_fj + wire_energy_fj) / 1000.0;

        // Latency: per level, carry propagation across the 8-bit blocks of the word plus
        // the wire flight time and a register; the whole accumulation repeats for each
        // gather beat when the operands arrive serialized.
        let carry_blocks = (self.width_bits as f64 / 8.0).ceil();
        let logic_delay_ns = levels as f64
            * (carry_blocks * self.carry_block_delay_ns() + 2.0 * self.tech.logic_gate_delay_ns);
        let latency_ns = self.gather_beats as f64 * (logic_delay_ns + wire_delay_ns_total);

        // Area: ~6 gates per full-adder bit plus one flop (~4 gate footprints) per
        // pipeline bit, with a NanGate-45-class gate footprint of ~1 µm².
        let gate_area_um2 = 1.0;
        let area_um2 =
            adders as f64 * bits * 6.0 * gate_area_um2 + levels as f64 * bits * 4.0 * gate_area_um2;

        AdderTreeFom {
            energy_pj,
            latency_ns,
            area_um2,
            adder_nodes: adders,
            levels,
        }
    }

    /// Functional reference: accumulate a slice of operands exactly (wrapping at the word
    /// width), mirroring what the hardware tree computes. Used by tests and by the fabric
    /// simulator to keep the functional and costed paths consistent.
    #[cfg(test)]
    pub fn accumulate(&self, operands: &[u64]) -> u64 {
        let mask = if self.width_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width_bits) - 1
        };
        operands
            .iter()
            .fold(0u64, |acc, &x| acc.wrapping_add(x) & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::predictive_45nm()
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(AdderTreeModel::new(tech(), 1, 4, 10.0, 1).is_err());
        assert!(AdderTreeModel::new(tech(), 256, 1, 10.0, 1).is_err());
        assert!(AdderTreeModel::new(tech(), 256, 4, 10.0, 1).is_ok());
    }

    #[test]
    fn levels_and_nodes_match_fan_in() {
        let t = AdderTreeModel::new(tech(), 256, 32, 10.0, 1).unwrap();
        assert_eq!(t.adder_nodes(), 31);
        assert_eq!(t.levels(), 5);
        let t4 = AdderTreeModel::new(tech(), 256, 4, 10.0, 1).unwrap();
        assert_eq!(t4.adder_nodes(), 3);
        assert_eq!(t4.levels(), 2);
    }

    #[test]
    fn energy_grows_with_fan_in() {
        let small = AdderTreeModel::new(tech(), 256, 4, 10.0, 1).unwrap().fom();
        let large = AdderTreeModel::new(tech(), 256, 32, 10.0, 1).unwrap().fom();
        assert!(large.energy_pj > small.energy_pj);
        assert!(large.latency_ns > small.latency_ns);
        assert!(large.area_um2 > small.area_um2);
    }

    #[test]
    fn latency_grows_with_gather_beats() {
        let parallel = AdderTreeModel::new(tech(), 256, 4, 100.0, 1).unwrap().fom();
        let serialized = AdderTreeModel::new(tech(), 256, 4, 100.0, 4).unwrap().fom();
        assert!(serialized.latency_ns > parallel.latency_ns);
    }

    #[test]
    fn intra_mat_design_point_is_in_the_table_ii_ballpark() {
        // Paper Table II: intra-mat adder tree 256-bit add = 137 pJ, 14.7 ns. The
        // uncalibrated analytical model must land within a factor of 3 of both.
        let cma_width = 256.0 * tech().cma_cell_pitch_um;
        let fom = AdderTreeModel::intra_mat(tech(), 32, cma_width)
            .unwrap()
            .fom();
        assert!(
            fom.energy_pj > 137.0 / 3.0 && fom.energy_pj < 137.0 * 3.0,
            "{}",
            fom.energy_pj
        );
        assert!(
            fom.latency_ns > 14.7 / 3.0 && fom.latency_ns < 14.7 * 3.0,
            "{}",
            fom.latency_ns
        );
    }

    #[test]
    fn intra_bank_design_point_is_in_the_table_ii_ballpark() {
        // Paper Table II: intra-bank adder tree 256-bit add = 956 pJ, 44.2 ns.
        let cma_width = 256.0 * tech().cma_cell_pitch_um;
        let mat_width = 32.0 * cma_width;
        let fom = AdderTreeModel::intra_bank(tech(), mat_width, 4)
            .unwrap()
            .fom();
        assert!(
            fom.energy_pj > 956.0 / 3.0 && fom.energy_pj < 956.0 * 3.0,
            "{}",
            fom.energy_pj
        );
        assert!(
            fom.latency_ns > 44.2 / 3.0 && fom.latency_ns < 44.2 * 3.0,
            "{}",
            fom.latency_ns
        );
    }

    #[test]
    fn intra_bank_costs_more_than_intra_mat() {
        let cma_width = 256.0 * tech().cma_cell_pitch_um;
        let mat_width = 32.0 * cma_width;
        let mat = AdderTreeModel::intra_mat(tech(), 32, cma_width)
            .unwrap()
            .fom();
        let bank = AdderTreeModel::intra_bank(tech(), mat_width, 4)
            .unwrap()
            .fom();
        assert!(bank.energy_pj > mat.energy_pj);
        assert!(bank.latency_ns > mat.latency_ns);
    }

    #[test]
    fn accumulate_wraps_at_width() {
        let t = AdderTreeModel::new(tech(), 8, 4, 1.0, 1).unwrap();
        assert_eq!(t.accumulate(&[200, 100]), (300u64) & 0xFF);
        let wide = AdderTreeModel::new(tech(), 64, 4, 1.0, 1).unwrap();
        assert_eq!(wide.accumulate(&[u64::MAX, 1]), 0);
    }

    #[test]
    fn accumulate_matches_reference_sum() {
        let t = AdderTreeModel::new(tech(), 32, 8, 1.0, 1).unwrap();
        let ops = [1u64, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(t.accumulate(&ops), 36);
    }
}

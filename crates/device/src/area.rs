//! Area models for the iMARS hardware blocks.
//!
//! The paper repeatedly trades area against performance (fan-in of the intra-bank adder
//! tree, width of the IBC, number of banks/mats/CMAs). This module provides the area side
//! of those trade-offs so the design-space exploration benches can reproduce the
//! discussion of Sec. III-A.

use crate::technology::TechnologyParams;

/// Area of the 8-bit per-column GPCiM accumulator in µm² per column (~8 gates per
/// accumulator bit-column at 45 nm). Shared with the fabric-level accumulator-width
/// model so wider variants stay anchored to the same figure.
pub const INT8_ACCUMULATOR_UM2_PER_COL: f64 = 8.0;

/// Area breakdown of one CMA array including its peripherals, in square micrometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmaArea {
    /// Cell matrix area.
    pub cell_matrix_um2: f64,
    /// Row/column decoders and wordline drivers.
    pub decoders_um2: f64,
    /// RAM sense amplifiers and write drivers (one per column).
    pub ram_periphery_um2: f64,
    /// CAM sense amplifiers, searchline drivers and the priority encoder (one SA per row).
    pub cam_periphery_um2: f64,
    /// In-array accumulator next to the RAM sense amplifiers.
    pub accumulator_um2: f64,
}

impl CmaArea {
    /// Total CMA area in square micrometres.
    pub fn total_um2(&self) -> f64 {
        self.cell_matrix_um2
            + self.decoders_um2
            + self.ram_periphery_um2
            + self.cam_periphery_um2
            + self.accumulator_um2
    }
}

/// Area model covering CMAs, crossbars and the near-memory logic.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    tech: TechnologyParams,
}

impl AreaModel {
    /// Create an area model for the given technology.
    pub fn new(tech: TechnologyParams) -> Self {
        Self { tech }
    }

    /// Area of one `rows x cols` CMA including peripherals.
    pub fn cma(&self, rows: usize, cols: usize) -> CmaArea {
        let pitch = self.tech.cma_cell_pitch_um;
        let cell_matrix_um2 = rows as f64 * cols as f64 * pitch * pitch;
        // Decoder: ~2 gates per addressable row plus predecode.
        let decoders_um2 = rows as f64 * 2.5 + cols as f64 * 1.0;
        // One RAM SA + write driver per column (~18 µm² each at 45 nm).
        let ram_periphery_um2 = cols as f64 * 18.0;
        // One CAM SA per row plus searchline drivers per column plus priority encoder.
        let cam_periphery_um2 = rows as f64 * 14.0 + cols as f64 * 6.0 + rows as f64 * 3.0;
        // 256-bit accumulator (~8 gates/bit).
        let accumulator_um2 = cols as f64 * INT8_ACCUMULATOR_UM2_PER_COL;
        CmaArea {
            cell_matrix_um2,
            decoders_um2,
            ram_periphery_um2,
            cam_periphery_um2,
            accumulator_um2,
        }
    }

    /// Area of one `rows x cols` crossbar including ADC/DAC periphery, in µm².
    pub fn crossbar(&self, rows: usize, cols: usize) -> f64 {
        let pitch = self.tech.crossbar_cell_pitch_um;
        rows as f64 * cols as f64 * pitch * pitch + cols as f64 * 60.0 + rows as f64 * 8.0
    }

    /// Area of an adder tree with the given fan-in and word width, in µm².
    pub(crate) fn adder_tree(&self, fan_in: usize, width_bits: usize) -> f64 {
        let adders = fan_in.saturating_sub(1) as f64;
        let levels = if fan_in <= 1 {
            0.0
        } else {
            (usize::BITS - (fan_in - 1).leading_zeros()) as f64
        };
        adders * width_bits as f64 * 6.0 + levels * width_bits as f64 * 4.0
    }

    /// Area of a serialized bus of the given width and length, in µm² (repeaters plus
    /// routing track footprint at one track per bit).
    pub fn bus(&self, width_bits: usize, length_um: f64) -> f64 {
        let track_pitch_um = 0.14;
        width_bits as f64 * length_um.max(0.0) * track_pitch_um
            + width_bits as f64 * (length_um.max(0.0) / 500.0).ceil() * 4.0
    }

    /// Total area of an iMARS ET subsystem with `banks` banks of `mats` mats of `cmas`
    /// CMAs each (rows x cols arrays), including intra-mat and intra-bank adder trees, in
    /// square millimetres.
    pub fn et_subsystem_mm2(
        &self,
        banks: usize,
        mats: usize,
        cmas: usize,
        rows: usize,
        cols: usize,
    ) -> f64 {
        let cma_um2 = self.cma(rows, cols).total_um2();
        let intra_mat_um2 = self.adder_tree(cmas.max(2), 256);
        let intra_bank_um2 = self.adder_tree(4, 256);
        let mat_um2 = cmas as f64 * cma_um2 + intra_mat_um2;
        let cma_width_um = cols as f64 * self.tech.cma_cell_pitch_um;
        let ibc_um2 = self.bus(256, mats as f64 * cmas as f64 * cma_width_um);
        let bank_um2 = mats as f64 * mat_um2 + intra_bank_um2 + ibc_um2;
        banks as f64 * bank_um2 / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AreaModel {
        AreaModel::new(TechnologyParams::predictive_45nm())
    }

    #[test]
    fn cma_area_total_is_sum_of_parts() {
        let area = model().cma(256, 256);
        let manual = area.cell_matrix_um2
            + area.decoders_um2
            + area.ram_periphery_um2
            + area.cam_periphery_um2
            + area.accumulator_um2;
        assert!((area.total_um2() - manual).abs() < 1e-9);
    }

    #[test]
    fn cell_matrix_dominates_large_arrays() {
        let area = model().cma(256, 256);
        assert!(area.cell_matrix_um2 > area.decoders_um2);
        assert!(area.cell_matrix_um2 > area.ram_periphery_um2);
    }

    #[test]
    fn area_scales_with_geometry() {
        let m = model();
        assert!(m.cma(256, 256).total_um2() > m.cma(128, 128).total_um2());
        assert!(m.crossbar(256, 128) > m.crossbar(64, 64));
        assert!(m.adder_tree(32, 256) > m.adder_tree(4, 256));
        assert!(m.bus(256, 1000.0) > m.bus(128, 1000.0));
    }

    #[test]
    fn adder_tree_degenerate_fan_in() {
        let m = model();
        assert_eq!(m.adder_tree(1, 256), 0.0);
        assert_eq!(m.adder_tree(0, 256), 0.0);
    }

    #[test]
    fn et_subsystem_area_scales_with_banks() {
        let m = model();
        let one = m.et_subsystem_mm2(1, 4, 32, 256, 256);
        let many = m.et_subsystem_mm2(32, 4, 32, 256, 256);
        assert!((many / one - 32.0).abs() < 1e-6);
    }

    #[test]
    fn paper_scale_fabric_is_tens_to_hundreds_of_mm2() {
        // 32 banks x 4 mats x 32 CMAs of 256x256 cells: a plausible large IMC fabric
        // should land between 10 mm^2 and 2000 mm^2 (sanity band, not a paper number).
        let area = model().et_subsystem_mm2(32, 4, 32, 256, 256);
        assert!(area > 10.0 && area < 2000.0, "area {area} mm2");
    }
}

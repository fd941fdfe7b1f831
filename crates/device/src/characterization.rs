//! Array-level characterization: assembles the per-operation figures of merit (FoMs) that
//! the paper reports in Table II and that the system-level evaluation consumes.
//!
//! | Component | Operation | Energy (pJ) | Latency (ns) |
//! |---|---|---|---|
//! | 256×256 CMA | Write | 49.1 | 10.0 |
//! | 256×256 CMA | Read | 3.2 | 0.3 |
//! | 256×256 CMA | Addition | 108.0 | 8.1 |
//! | 256×256 CMA | Search | 13.8 | 0.2 |
//! | Intra-mat adder tree | 256-bit Add | 137.0 | 14.7 |
//! | Intra-bank adder tree | 256-bit Add | 956.0 | 44.2 |
//! | 256×128 Crossbar | MatMul | 13.8 | 225.0 |
//!
//! [`ArrayCharacterizer::analytical_fom`] derives the same quantities from the circuit
//! models in this crate; [`ArrayCharacterizer::calibrated_fom`] anchors them to the
//! published values (see [`crate::calibration`]) so that the rest of the reproduction is
//! driven by exactly the numbers the paper used while the analytical path remains
//! available for technology exploration.

use crate::adder_tree::AdderTreeModel;
use crate::calibration::{calibrate, CalibrationReport};
use crate::crossbar::CrossbarArrayModel;
use crate::error::DeviceError;
use crate::sense_amp::{CamSenseAmp, DriverBank, RamSenseAmp};
use crate::technology::TechnologyParams;
use crate::wire::{ArrayWires, Wire};

/// Geometry of a memory array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayGeometry {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl ArrayGeometry {
    /// Create a geometry descriptor.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }

    /// Total number of cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

/// Energy/latency figure of merit of a single array-level operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationFom {
    /// Energy per operation in picojoules.
    pub energy_pj: f64,
    /// Latency per operation in nanoseconds.
    pub latency_ns: f64,
}

impl OperationFom {
    /// Create a figure of merit.
    pub fn new(energy_pj: f64, latency_ns: f64) -> Self {
        Self {
            energy_pj,
            latency_ns,
        }
    }

    /// Energy in microjoules (convenience for system-level roll-ups).
    pub fn energy_uj(&self) -> f64 {
        self.energy_pj * 1.0e-6
    }

    /// Latency in microseconds (convenience for system-level roll-ups).
    pub fn latency_us(&self) -> f64 {
        self.latency_ns * 1.0e-3
    }
}

/// Figures of merit of the four CMA access modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmaFom {
    /// Programming one 256-cell row (RAM mode write).
    pub write: OperationFom,
    /// Reading one 256-cell row (RAM mode read).
    pub read: OperationFom,
    /// One in-memory addition of two rows (GPCiM mode, bit-serial over the operand width).
    pub add: OperationFom,
    /// One TCAM search of the whole array against a query (threshold match).
    pub search: OperationFom,
}

/// The complete array-level characterization consumed by the architectural simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayFom {
    /// CMA geometry the figures refer to.
    pub cma_geometry: ArrayGeometry,
    /// Crossbar geometry the MatMul figure refers to.
    pub crossbar_geometry: ArrayGeometry,
    /// CMA access-mode figures.
    pub cma: CmaFom,
    /// One 256-bit accumulation through the intra-mat adder tree.
    pub intra_mat_add: OperationFom,
    /// One 256-bit accumulation through the intra-bank adder tree (fan-in 4).
    pub intra_bank_add: OperationFom,
    /// One matrix-vector multiplication on the crossbar array.
    pub crossbar_matmul: OperationFom,
}

impl ArrayFom {
    /// The exact figures of merit published in Table II of the paper.
    pub fn paper_reference() -> Self {
        Self {
            cma_geometry: ArrayGeometry::new(256, 256),
            crossbar_geometry: ArrayGeometry::new(256, 128),
            cma: CmaFom {
                write: OperationFom::new(49.1, 10.0),
                read: OperationFom::new(3.2, 0.3),
                add: OperationFom::new(108.0, 8.1),
                search: OperationFom::new(13.8, 0.2),
            },
            intra_mat_add: OperationFom::new(137.0, 14.7),
            intra_bank_add: OperationFom::new(956.0, 44.2),
            crossbar_matmul: OperationFom::new(13.8, 225.0),
        }
    }
}

/// Derives array-level figures of merit from the circuit models of this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayCharacterizer {
    tech: TechnologyParams,
    cma_geometry: ArrayGeometry,
    crossbar_geometry: ArrayGeometry,
    /// Number of CMAs per mat (fan-in of the intra-mat adder tree).
    cmas_per_mat: usize,
    /// Operand precision of the in-memory addition, in bits.
    operand_bits: usize,
}

impl ArrayCharacterizer {
    /// Create a characterizer at the paper's design point: 256×256 CMAs, 256×128
    /// crossbars, 32 CMAs per mat and int8 operands.
    pub fn new(tech: TechnologyParams) -> Self {
        Self {
            tech,
            cma_geometry: ArrayGeometry::new(256, 256),
            crossbar_geometry: ArrayGeometry::new(256, 128),
            cmas_per_mat: 32,
            operand_bits: 8,
        }
    }

    /// Override the CMA geometry (used by the design-space exploration benches).
    pub fn with_cma_geometry(mut self, rows: usize, cols: usize) -> Self {
        self.cma_geometry = ArrayGeometry::new(rows, cols);
        self
    }

    /// Technology parameters.
    pub fn technology(&self) -> &TechnologyParams {
        &self.tech
    }

    /// CMA geometry being characterized.
    pub fn cma_geometry(&self) -> ArrayGeometry {
        self.cma_geometry
    }

    /// Width of one CMA macro in micrometres (cell matrix only).
    pub(crate) fn cma_width_um(&self) -> f64 {
        self.cma_geometry.cols as f64 * self.tech.cma_cell_pitch_um
    }

    /// Figures of merit of one RAM-mode row write.
    fn characterize_write(&self) -> OperationFom {
        let g = self.cma_geometry;
        // A CMA cell programs its two FeFETs with complementary pulses applied at once;
        // each pulse charges one ferroelectric gate stack to the write voltage.
        let tech = &self.tech;
        let fefet_write_fj = tech.fefet_gate_cap_ff * tech.write_voltage_v * tech.write_voltage_v;
        let drivers = DriverBank::new(self.tech.clone(), g.rows, g.cols);
        let cell_program_fj = g.cols as f64 * (2.0 * fefet_write_fj);
        let wordline_fj = drivers.wordline_activation_energy_fj();
        let bitline_drive_fj = drivers.write_drive_energy_fj();
        let energy_pj = (cell_program_fj + wordline_fj + bitline_drive_fj) / 1000.0;
        let latency_ns = drivers.wordline_activation_latency_ns() + tech.fefet_write_pulse_ns;
        OperationFom::new(energy_pj, latency_ns)
    }

    /// Figures of merit of one RAM-mode row read.
    fn characterize_read(&self) -> OperationFom {
        let g = self.cma_geometry;
        let drivers = DriverBank::new(self.tech.clone(), g.rows, g.cols);
        let sa = RamSenseAmp::new(self.tech.clone());
        let bitline = ArrayWires::new(g.rows, g.cols).bitline(&self.tech);
        let energy_pj = (drivers.wordline_activation_energy_fj()
            + g.cols as f64 * sa.sense_energy_fj(&bitline))
            / 1000.0;
        let latency_ns = drivers.wordline_activation_latency_ns() + sa.sense_latency_ns(&bitline);
        OperationFom::new(energy_pj, latency_ns)
    }

    /// Figures of merit of one in-memory (GPCiM) addition of two rows, bit-serial across
    /// the operand precision with the accumulator next to the RAM sense amplifiers.
    fn characterize_add(&self) -> OperationFom {
        let g = self.cma_geometry;
        let drivers = DriverBank::new(self.tech.clone(), g.rows, g.cols);
        let sa = RamSenseAmp::new(self.tech.clone());
        let bitline = ArrayWires::new(g.rows, g.cols).bitline(&self.tech);
        // Per bit-slice cycle: two simultaneous wordline activations, a multi-reference
        // sense on every column (≈2 single senses), and the accumulator logic update.
        let cycle_energy_fj = 2.0 * drivers.wordline_activation_energy_fj()
            + g.cols as f64 * 2.0 * sa.sense_energy_fj(&bitline)
            + g.cols as f64 * (self.tech.flop_energy_fj + 4.0 * self.tech.logic_gate_energy_fj);
        let cycle_latency_ns = drivers.wordline_activation_latency_ns()
            + 2.0 * sa.sense_latency_ns(&bitline)
            + 4.0 * self.tech.logic_gate_delay_ns;
        let cycles = self.operand_bits as f64;
        OperationFom::new(cycles * cycle_energy_fj / 1000.0, cycles * cycle_latency_ns)
    }

    /// Figures of merit of one TCAM threshold search over the whole array.
    fn characterize_search(&self) -> OperationFom {
        let g = self.cma_geometry;
        let cam_sa = CamSenseAmp::new(self.tech.clone());
        // Searchline broadcast: the query toggles the metal searchlines; the cell gates are
        // isolated behind the select devices so only the wire capacitance switches.
        let sl_wire = Wire::new(g.rows as f64 * self.tech.cma_cell_pitch_um, 2.0, 1.5);
        let sl_energy_fj =
            g.cols as f64 * sl_wire.transition(&self.tech, self.tech.vdd_v).energy_fj;
        // Matchline precharge + evaluation on every row.
        let matchline = ArrayWires::new(g.rows, g.cols).matchline(&self.tech);
        let ml_energy_fj = g.rows as f64 * cam_sa.sense_energy_fj(&matchline);
        // Priority encoder across the rows (~2 gates per row).
        let encoder_fj = g.rows as f64 * 2.0 * self.tech.logic_gate_energy_fj;
        let energy_pj = (sl_energy_fj + ml_energy_fj + encoder_fj) / 1000.0;
        let latency_ns = sl_wire.transition(&self.tech, self.tech.vdd_v).delay_ns
            + cam_sa.sense_latency_ns(&matchline)
            + 3.0 * self.tech.logic_gate_delay_ns;
        OperationFom::new(energy_pj, latency_ns)
    }

    /// Figures of merit of the two near-memory adder trees.
    fn characterize_adder_trees(&self) -> Result<(OperationFom, OperationFom), DeviceError> {
        let cma_width = self.cma_width_um();
        let intra_mat =
            AdderTreeModel::intra_mat(self.tech.clone(), self.cmas_per_mat, cma_width)?.fom();
        let mat_width = self.cmas_per_mat as f64 * cma_width;
        let intra_bank = AdderTreeModel::intra_bank(self.tech.clone(), mat_width, 4)?.fom();
        Ok((
            OperationFom::new(intra_mat.energy_pj, intra_mat.latency_ns),
            OperationFom::new(intra_bank.energy_pj, intra_bank.latency_ns),
        ))
    }

    /// Figures of merit of the crossbar matrix-vector multiplication.
    fn characterize_crossbar(&self) -> Result<OperationFom, DeviceError> {
        let xbar = CrossbarArrayModel::new(
            self.tech.clone(),
            self.crossbar_geometry.rows,
            self.crossbar_geometry.cols,
            self.operand_bits,
            5,
        )?;
        let fom = xbar.matmul_fom();
        Ok(OperationFom::new(fom.energy_pj, fom.latency_ns))
    }

    /// Full analytical (uncalibrated) characterization.
    ///
    /// # Errors
    ///
    /// Propagates [`DeviceError`] from the underlying circuit models (invalid geometry or
    /// technology parameters).
    pub fn analytical_fom(&self) -> Result<ArrayFom, DeviceError> {
        let (intra_mat_add, intra_bank_add) = self.characterize_adder_trees()?;
        Ok(ArrayFom {
            cma_geometry: self.cma_geometry,
            crossbar_geometry: self.crossbar_geometry,
            cma: CmaFom {
                write: self.characterize_write(),
                read: self.characterize_read(),
                add: self.characterize_add(),
                search: self.characterize_search(),
            },
            intra_mat_add,
            intra_bank_add,
            crossbar_matmul: self.characterize_crossbar()?,
        })
    }

    /// Characterization calibrated to the paper's Table II together with the calibration
    /// report documenting every scale factor.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CalibrationOutOfRange`] if any analytical value is more than
    /// a factor of five away from its published counterpart (which would indicate the
    /// analytical model no longer tracks the reference), or any error from
    /// [`ArrayCharacterizer::analytical_fom`].
    pub fn calibrated_fom_with_report(&self) -> Result<(ArrayFom, CalibrationReport), DeviceError> {
        let analytical = self.analytical_fom()?;
        calibrate(&analytical, &ArrayFom::paper_reference())
    }

    /// Characterization calibrated to the paper's Table II.
    ///
    /// This is the FoM set every higher-level experiment uses. Unlike
    /// [`ArrayCharacterizer::calibrated_fom_with_report`] it cannot fail: at the paper's
    /// design point the analytical model is well within the calibration guard band (this
    /// is covered by unit tests), so any error here would be a programming error.
    ///
    /// # Panics
    ///
    /// Panics if the analytical model diverges from the reference by more than the
    /// calibration guard band, which only happens if the model code itself is changed.
    pub fn calibrated_fom(&self) -> ArrayFom {
        self.calibrated_fom_with_report()
            .expect("paper design point calibrates within the guard band")
            .0
    }
}

impl Default for ArrayCharacterizer {
    fn default() -> Self {
        Self::new(TechnologyParams::predictive_45nm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analytical model must stay within this factor of every Table II entry.
    const GUARD: f64 = 4.0;

    fn characterizer() -> ArrayCharacterizer {
        ArrayCharacterizer::new(TechnologyParams::predictive_45nm())
    }

    fn assert_within(name: &str, analytical: f64, reference: f64) {
        let ratio = if analytical > reference {
            analytical / reference
        } else {
            reference / analytical
        };
        assert!(
            ratio <= GUARD,
            "{name}: analytical {analytical:.3} vs reference {reference:.3} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn analytical_write_tracks_reference() {
        let fom = characterizer().analytical_fom().unwrap();
        let reference = ArrayFom::paper_reference();
        assert_within(
            "write energy",
            fom.cma.write.energy_pj,
            reference.cma.write.energy_pj,
        );
        assert_within(
            "write latency",
            fom.cma.write.latency_ns,
            reference.cma.write.latency_ns,
        );
    }

    #[test]
    fn analytical_read_tracks_reference() {
        let fom = characterizer().analytical_fom().unwrap();
        let reference = ArrayFom::paper_reference();
        assert_within(
            "read energy",
            fom.cma.read.energy_pj,
            reference.cma.read.energy_pj,
        );
        assert_within(
            "read latency",
            fom.cma.read.latency_ns,
            reference.cma.read.latency_ns,
        );
    }

    #[test]
    fn analytical_add_tracks_reference() {
        let fom = characterizer().analytical_fom().unwrap();
        let reference = ArrayFom::paper_reference();
        assert_within(
            "add energy",
            fom.cma.add.energy_pj,
            reference.cma.add.energy_pj,
        );
        assert_within(
            "add latency",
            fom.cma.add.latency_ns,
            reference.cma.add.latency_ns,
        );
    }

    #[test]
    fn analytical_search_tracks_reference() {
        let fom = characterizer().analytical_fom().unwrap();
        let reference = ArrayFom::paper_reference();
        assert_within(
            "search energy",
            fom.cma.search.energy_pj,
            reference.cma.search.energy_pj,
        );
        assert_within(
            "search latency",
            fom.cma.search.latency_ns,
            reference.cma.search.latency_ns,
        );
    }

    #[test]
    fn analytical_adder_trees_track_reference() {
        let fom = characterizer().analytical_fom().unwrap();
        let reference = ArrayFom::paper_reference();
        assert_within(
            "intra-mat energy",
            fom.intra_mat_add.energy_pj,
            reference.intra_mat_add.energy_pj,
        );
        assert_within(
            "intra-mat latency",
            fom.intra_mat_add.latency_ns,
            reference.intra_mat_add.latency_ns,
        );
        assert_within(
            "intra-bank energy",
            fom.intra_bank_add.energy_pj,
            reference.intra_bank_add.energy_pj,
        );
        assert_within(
            "intra-bank latency",
            fom.intra_bank_add.latency_ns,
            reference.intra_bank_add.latency_ns,
        );
    }

    #[test]
    fn analytical_crossbar_tracks_reference() {
        let fom = characterizer().analytical_fom().unwrap();
        let reference = ArrayFom::paper_reference();
        assert_within(
            "crossbar energy",
            fom.crossbar_matmul.energy_pj,
            reference.crossbar_matmul.energy_pj,
        );
        assert_within(
            "crossbar latency",
            fom.crossbar_matmul.latency_ns,
            reference.crossbar_matmul.latency_ns,
        );
    }

    #[test]
    fn calibrated_fom_equals_paper_reference() {
        let fom = characterizer().calibrated_fom();
        let reference = ArrayFom::paper_reference();
        assert_eq!(fom.cma.write, reference.cma.write);
        assert_eq!(fom.cma.read, reference.cma.read);
        assert_eq!(fom.cma.add, reference.cma.add);
        assert_eq!(fom.cma.search, reference.cma.search);
        assert_eq!(fom.intra_mat_add, reference.intra_mat_add);
        assert_eq!(fom.intra_bank_add, reference.intra_bank_add);
        assert_eq!(fom.crossbar_matmul, reference.crossbar_matmul);
    }

    #[test]
    fn paper_reference_matches_table_ii_exactly() {
        let r = ArrayFom::paper_reference();
        assert_eq!(r.cma.write.energy_pj, 49.1);
        assert_eq!(r.cma.write.latency_ns, 10.0);
        assert_eq!(r.cma.read.energy_pj, 3.2);
        assert_eq!(r.cma.read.latency_ns, 0.3);
        assert_eq!(r.cma.add.energy_pj, 108.0);
        assert_eq!(r.cma.add.latency_ns, 8.1);
        assert_eq!(r.cma.search.energy_pj, 13.8);
        assert_eq!(r.cma.search.latency_ns, 0.2);
        assert_eq!(r.intra_mat_add.energy_pj, 137.0);
        assert_eq!(r.intra_mat_add.latency_ns, 14.7);
        assert_eq!(r.intra_bank_add.energy_pj, 956.0);
        assert_eq!(r.intra_bank_add.latency_ns, 44.2);
        assert_eq!(r.crossbar_matmul.energy_pj, 13.8);
        assert_eq!(r.crossbar_matmul.latency_ns, 225.0);
    }

    #[test]
    fn read_is_faster_and_cheaper_than_write() {
        let fom = characterizer().analytical_fom().unwrap();
        assert!(fom.cma.read.energy_pj < fom.cma.write.energy_pj);
        assert!(fom.cma.read.latency_ns < fom.cma.write.latency_ns);
    }

    #[test]
    fn search_is_faster_than_read_of_all_rows() {
        // The whole point of the TCAM mode: one search visits every row in O(1) time,
        // which must be far cheaper than reading all rows sequentially.
        let fom = characterizer().analytical_fom().unwrap();
        let sequential_read_ns = fom.cma.read.latency_ns * fom.cma_geometry.rows as f64;
        assert!(fom.cma.search.latency_ns < sequential_read_ns / 10.0);
    }

    #[test]
    fn operation_fom_unit_conversions() {
        let fom = OperationFom::new(2000.0, 1500.0);
        assert!((fom.energy_uj() - 2.0e-3).abs() < 1e-12);
        assert!((fom.latency_us() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn geometry_cells() {
        assert_eq!(ArrayGeometry::new(256, 256).cells(), 65536);
        assert_eq!(ArrayGeometry::new(1, 5).cells(), 5);
    }

    #[test]
    fn smaller_array_geometry_changes_foms() {
        let small = characterizer()
            .with_cma_geometry(64, 64)
            .analytical_fom()
            .unwrap();
        let large = characterizer().analytical_fom().unwrap();
        assert!(small.cma.read.energy_pj < large.cma.read.energy_pj);
        assert!(small.cma.search.energy_pj < large.cma.search.energy_pj);
    }
}

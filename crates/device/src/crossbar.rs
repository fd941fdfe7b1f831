//! Device-level model of the FeFET crossbar arrays that execute the DNN stacks.
//!
//! The paper evaluates a 256×128 FeFET crossbar with NeuroSim and reports a single
//! matrix-vector-multiplication (MatMul) figure of merit (Table II: 13.8 pJ, 225 ns).
//! NeuroSim-style crossbar operation streams the input vector row by row (bit-serial /
//! row-serial activation), integrates the analog column currents, and digitizes each
//! column with an ADC. The latency is therefore dominated by the sequential row
//! activation, while the energy stays small because each row event only charges one
//! wordline and the column integrators.

use crate::error::DeviceError;
use crate::technology::TechnologyParams;
use crate::wire::Wire;

/// Figures of merit for one matrix-vector multiplication on a crossbar array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CrossbarFom {
    /// Energy of one full MVM in picojoules.
    pub energy_pj: f64,
    /// Latency of one full MVM in nanoseconds.
    pub latency_ns: f64,
    /// Estimated array area (cells plus ADC/DAC periphery) in square micrometres.
    pub area_um2: f64,
}

/// Device-level crossbar array model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CrossbarArrayModel {
    tech: TechnologyParams,
    rows: usize,
    cols: usize,
    /// Input activation precision in bits (activations are streamed bit-serially).
    input_bits: usize,
    /// ADC resolution in bits for each column read-out.
    adc_bits: usize,
}

impl CrossbarArrayModel {
    /// Create a crossbar array model.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidGeometry`] if either dimension is zero and
    /// [`DeviceError::InvalidParameter`] if the precision parameters are zero or the
    /// technology fails validation.
    pub fn new(
        tech: TechnologyParams,
        rows: usize,
        cols: usize,
        input_bits: usize,
        adc_bits: usize,
    ) -> Result<Self, DeviceError> {
        tech.validate()?;
        if rows == 0 || cols == 0 {
            return Err(DeviceError::InvalidGeometry {
                rows,
                cols,
                reason: "crossbar dimensions must be nonzero".to_string(),
            });
        }
        if input_bits == 0 {
            return Err(DeviceError::InvalidParameter {
                name: "input_bits",
                reason: "input precision must be at least 1 bit".to_string(),
            });
        }
        if adc_bits == 0 {
            return Err(DeviceError::InvalidParameter {
                name: "adc_bits",
                reason: "ADC resolution must be at least 1 bit".to_string(),
            });
        }
        Ok(Self {
            tech,
            rows,
            cols,
            input_bits,
            adc_bits,
        })
    }

    /// The paper's design point: a 256×128 crossbar with 8-bit activations and a 5-bit
    /// column ADC.
    #[cfg(test)]
    pub fn paper_design_point(tech: TechnologyParams) -> Self {
        Self::new(tech, 256, 128, 8, 5).expect("paper design point parameters are valid")
    }

    /// Energy of a single wordline (row) activation event, in femtojoules: DAC/driver plus
    /// the wordline swing.
    fn row_event_energy_fj(&self) -> f64 {
        let wl = Wire::new(
            self.cols as f64 * self.tech.crossbar_cell_pitch_um,
            self.cols as f64 * self.tech.fefet_gate_cap_ff,
            2.0,
        );
        self.tech.decoder_energy_fj * 0.1
            + wl.transition(&self.tech, self.tech.vdd_v * 0.4).energy_fj
    }

    /// Energy of one column ADC conversion, in femtojoules (~10 fJ per resolved bit at
    /// 45 nm for a SAR-class converter shared across the integration window).
    fn adc_conversion_energy_fj(&self) -> f64 {
        10.0 * self.adc_bits as f64
    }

    /// Time of one row activation slot, in nanoseconds. NeuroSim-style operation leaves
    /// the integration window open long enough to accumulate the analog column currents
    /// with the required signal-to-noise margin, which is what stretches a full 256-row
    /// MVM into the hundreds of nanoseconds.
    fn row_slot_ns(&self) -> f64 {
        let wl = Wire::new(
            self.cols as f64 * self.tech.crossbar_cell_pitch_um,
            self.cols as f64 * self.tech.fefet_gate_cap_ff,
            2.0,
        );
        let settle = wl.transition(&self.tech, self.tech.vdd_v).delay_ns;
        // Integration plus sampling overhead per row slot.
        settle + 0.8
    }

    /// Figures of merit of one full matrix-vector multiplication over the whole array.
    pub(crate) fn matmul_fom(&self) -> CrossbarFom {
        let row_events = self.rows as f64;
        let energy_fj = row_events * self.row_event_energy_fj()
            + self.cols as f64 * self.adc_conversion_energy_fj()
            + self.cols as f64 * self.rows as f64 * 0.02; // analog column integration
        let latency_ns = row_events * self.row_slot_ns() + self.adc_bits as f64 * 2.0;
        let cell_area = self.tech.crossbar_cell_pitch_um * self.tech.crossbar_cell_pitch_um;
        let area_um2 = self.rows as f64 * self.cols as f64 * cell_area
            + self.cols as f64 * 60.0 // per-column ADC footprint
            + self.rows as f64 * 8.0; // per-row driver footprint
        CrossbarFom {
            energy_pj: energy_fj / 1000.0,
            latency_ns,
            area_um2,
        }
    }

    /// Functional reference of the analog MVM: `y = W^T x` with weights and activations in
    /// normalized floating point. The fabric-level simulator uses integer fixed-point; this
    /// reference documents the ideal analog computation the array approximates.
    #[cfg(test)]
    pub(crate) fn ideal_matmul(
        &self,
        weights: &[Vec<f64>],
        input: &[f64],
    ) -> Result<Vec<f64>, DeviceError> {
        if weights.len() != self.rows {
            return Err(DeviceError::InvalidParameter {
                name: "weights",
                reason: format!("expected {} rows, got {}", self.rows, weights.len()),
            });
        }
        if input.len() != self.rows {
            return Err(DeviceError::InvalidParameter {
                name: "input",
                reason: format!("expected {} inputs, got {}", self.rows, input.len()),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, row) in weights.iter().enumerate() {
            if row.len() != self.cols {
                return Err(DeviceError::InvalidParameter {
                    name: "weights",
                    reason: format!("row {r} has {} columns, expected {}", row.len(), self.cols),
                });
            }
            for (c, w) in row.iter().enumerate() {
                out[c] += w * input[r];
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::predictive_45nm()
    }

    #[test]
    fn rejects_zero_geometry() {
        assert!(CrossbarArrayModel::new(tech(), 0, 128, 8, 5).is_err());
        assert!(CrossbarArrayModel::new(tech(), 256, 0, 8, 5).is_err());
        assert!(CrossbarArrayModel::new(tech(), 256, 128, 0, 5).is_err());
        assert!(CrossbarArrayModel::new(tech(), 256, 128, 8, 0).is_err());
    }

    #[test]
    fn paper_design_point_within_table_ii_ballpark() {
        // Table II: 256×128 crossbar MatMul = 13.8 pJ, 225 ns. The uncalibrated model must
        // land within a factor of 3 of both.
        let fom = CrossbarArrayModel::paper_design_point(tech()).matmul_fom();
        assert!(
            fom.energy_pj > 13.8 / 3.0 && fom.energy_pj < 13.8 * 3.0,
            "{}",
            fom.energy_pj
        );
        assert!(
            fom.latency_ns > 225.0 / 3.0 && fom.latency_ns < 225.0 * 3.0,
            "{}",
            fom.latency_ns
        );
    }

    #[test]
    fn latency_scales_with_rows() {
        let small = CrossbarArrayModel::new(tech(), 64, 128, 8, 5)
            .unwrap()
            .matmul_fom();
        let large = CrossbarArrayModel::new(tech(), 256, 128, 8, 5)
            .unwrap()
            .matmul_fom();
        assert!(large.latency_ns > small.latency_ns);
        assert!(large.energy_pj > small.energy_pj);
    }

    #[test]
    fn area_scales_with_cells() {
        let small = CrossbarArrayModel::new(tech(), 64, 64, 8, 5)
            .unwrap()
            .matmul_fom();
        let large = CrossbarArrayModel::new(tech(), 256, 128, 8, 5)
            .unwrap()
            .matmul_fom();
        assert!(large.area_um2 > small.area_um2);
    }

    #[test]
    fn ideal_matmul_matches_reference() {
        let xbar = CrossbarArrayModel::new(tech(), 2, 3, 8, 5).unwrap();
        let weights = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let input = vec![1.0, 0.5];
        let out = xbar.ideal_matmul(&weights, &input).unwrap();
        assert!((out[0] - 3.0).abs() < 1e-12);
        assert!((out[1] - 4.5).abs() < 1e-12);
        assert!((out[2] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_matmul_validates_shapes() {
        let xbar = CrossbarArrayModel::new(tech(), 2, 3, 8, 5).unwrap();
        assert!(xbar.ideal_matmul(&[vec![1.0; 3]], &[1.0, 1.0]).is_err());
        assert!(xbar
            .ideal_matmul(&[vec![1.0; 3], vec![1.0; 2]], &[1.0, 1.0])
            .is_err());
        assert!(xbar
            .ideal_matmul(&[vec![1.0; 3], vec![1.0; 3]], &[1.0])
            .is_err());
    }
}

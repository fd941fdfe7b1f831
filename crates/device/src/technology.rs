//! Technology parameters for the 45 nm FeFET/CMOS process assumed by the paper.
//!
//! The iMARS paper simulates its CMA in HSPICE with the 45 nm CMOS Predictive Technology
//! Model (PTM) plus a Preisach FeFET compact model, and synthesizes its digital logic
//! (adder trees, communication network) with the NanGate 45 nm open cell library. This
//! module captures the handful of technology constants those flows would provide:
//! supply/write voltages, device capacitances, wire parasitics and logic-gate energies.
//!
//! All units are explicit in the field names:
//! * capacitance — femtofarads (`_ff`)
//! * voltage — volts (`_v`)
//! * resistance — kilo-ohms (`_kohm`)
//! * length — micrometres (`_um`)
//! * energy — picojoules (`_pj`) or femtojoules (`_fj`)
//! * time — nanoseconds (`_ns`)

use crate::error::DeviceError;

/// Process/technology constants used by every circuit-level model in this crate.
///
/// Construct with [`TechnologyParams::predictive_45nm`] for the paper's operating point,
/// or start from that and modify fields to explore other technology corners.
#[derive(Debug, Clone, PartialEq)]
pub struct TechnologyParams {
    /// Technology node in nanometres (informational; used for area scaling).
    pub node_nm: f64,
    /// Nominal logic/read supply voltage.
    pub vdd_v: f64,
    /// FeFET program/erase (write) gate voltage magnitude.
    pub write_voltage_v: f64,
    /// FeFET gate capacitance including the ferroelectric layer, per device.
    pub fefet_gate_cap_ff: f64,
    /// FeFET drain junction capacitance loading the bitline, per device.
    pub fefet_drain_cap_ff: f64,
    /// FeFET on-state drain current at nominal read bias, in microamperes.
    pub fefet_on_current_ua: f64,
    /// FeFET off-state drain current, in microamperes.
    pub fefet_off_current_ua: f64,
    /// Low threshold voltage (erased / logic "1") of the FeFET.
    pub fefet_vth_low_v: f64,
    /// High threshold voltage (programmed / logic "0") of the FeFET.
    pub fefet_vth_high_v: f64,
    /// Ferroelectric coercive voltage; gate pulses below this magnitude do not switch
    /// polarization domains.
    pub fefet_coercive_voltage_v: f64,
    /// Width of the program/erase pulse required for full polarization switching.
    pub fefet_write_pulse_ns: f64,
    /// Wire capacitance per micrometre of routed metal.
    pub wire_cap_ff_per_um: f64,
    /// Wire resistance per micrometre of routed metal.
    pub wire_res_kohm_per_um: f64,
    /// Physical pitch of one CMA cell (two FeFETs plus access devices) in micrometres.
    pub cma_cell_pitch_um: f64,
    /// Physical pitch of one crossbar cell in micrometres.
    pub crossbar_cell_pitch_um: f64,
    /// Energy of a minimum-sized CMOS logic gate transition (NanGate-45-class), in
    /// femtojoules.
    pub logic_gate_energy_fj: f64,
    /// Delay of a minimum-sized CMOS logic gate (fanout-of-4 loaded), in nanoseconds.
    pub logic_gate_delay_ns: f64,
    /// Leakage power of a minimum-sized CMOS gate, in nanowatts.
    pub logic_gate_leakage_nw: f64,
    /// Energy per bit of a latch/flip-flop capture, in femtojoules.
    pub flop_energy_fj: f64,
    /// Energy of one sense-amplifier resolution (voltage-mode RAM SA), in femtojoules.
    pub ram_sense_amp_energy_fj: f64,
    /// Latency of one voltage-mode sense-amplifier resolution, in nanoseconds.
    pub ram_sense_amp_latency_ns: f64,
    /// Energy of one current-mode CAM sense-amplifier resolution (including the dummy
    /// 1T+1FeFET reference cell bias), in femtojoules.
    pub cam_sense_amp_energy_fj: f64,
    /// Latency of one current-mode CAM sense-amplifier resolution, in nanoseconds.
    pub cam_sense_amp_latency_ns: f64,
    /// Energy of a row/column decoder activation for a 256-entry decoder, in femtojoules.
    pub decoder_energy_fj: f64,
    /// Delay of a row/column decoder activation, in nanoseconds.
    pub decoder_delay_ns: f64,
}

impl TechnologyParams {
    /// Technology constants matching the paper's operating point: 45 nm PTM CMOS with an
    /// FeFET (FE-HfO2 gate stack) device, NanGate-45-class digital logic.
    ///
    /// The individual constants are representative values from the FeFET IMC literature
    /// cited by the paper (Ni et al. for the device, Reis et al. for the CMA circuit) and
    /// are the anchor point for the calibration performed in
    /// [`crate::calibration`].
    pub fn predictive_45nm() -> Self {
        Self {
            node_nm: 45.0,
            vdd_v: 1.0,
            write_voltage_v: 4.0,
            fefet_gate_cap_ff: 1.1,
            fefet_drain_cap_ff: 0.12,
            fefet_on_current_ua: 40.0,
            fefet_off_current_ua: 0.001,
            fefet_vth_low_v: 0.2,
            fefet_vth_high_v: 1.2,
            fefet_coercive_voltage_v: 2.4,
            fefet_write_pulse_ns: 10.0,
            wire_cap_ff_per_um: 0.20,
            wire_res_kohm_per_um: 0.0025,
            cma_cell_pitch_um: 0.30,
            crossbar_cell_pitch_um: 0.18,
            logic_gate_energy_fj: 1.0,
            logic_gate_delay_ns: 0.02,
            logic_gate_leakage_nw: 2.0,
            flop_energy_fj: 2.5,
            ram_sense_amp_energy_fj: 9.0,
            ram_sense_amp_latency_ns: 0.15,
            cam_sense_amp_energy_fj: 12.0,
            cam_sense_amp_latency_ns: 0.12,
            decoder_energy_fj: 120.0,
            decoder_delay_ns: 0.08,
        }
    }

    /// Validate that every parameter is physically meaningful (positive where required,
    /// threshold window consistent, coercive voltage below the write voltage).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), DeviceError> {
        let positives: [(&'static str, f64); 18] = [
            ("node_nm", self.node_nm),
            ("vdd_v", self.vdd_v),
            ("write_voltage_v", self.write_voltage_v),
            ("fefet_gate_cap_ff", self.fefet_gate_cap_ff),
            ("fefet_drain_cap_ff", self.fefet_drain_cap_ff),
            ("fefet_on_current_ua", self.fefet_on_current_ua),
            ("fefet_write_pulse_ns", self.fefet_write_pulse_ns),
            ("wire_cap_ff_per_um", self.wire_cap_ff_per_um),
            ("wire_res_kohm_per_um", self.wire_res_kohm_per_um),
            ("cma_cell_pitch_um", self.cma_cell_pitch_um),
            ("crossbar_cell_pitch_um", self.crossbar_cell_pitch_um),
            ("logic_gate_energy_fj", self.logic_gate_energy_fj),
            ("logic_gate_delay_ns", self.logic_gate_delay_ns),
            ("flop_energy_fj", self.flop_energy_fj),
            ("ram_sense_amp_energy_fj", self.ram_sense_amp_energy_fj),
            ("cam_sense_amp_energy_fj", self.cam_sense_amp_energy_fj),
            ("decoder_energy_fj", self.decoder_energy_fj),
            ("decoder_delay_ns", self.decoder_delay_ns),
        ];
        for (name, value) in positives {
            if value <= 0.0 || !value.is_finite() {
                return Err(DeviceError::InvalidParameter {
                    name,
                    reason: format!("must be a positive finite number, got {value}"),
                });
            }
        }
        if self.fefet_off_current_ua < 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "fefet_off_current_ua",
                reason: "must be non-negative".to_string(),
            });
        }
        if self.fefet_vth_high_v <= self.fefet_vth_low_v {
            return Err(DeviceError::InvalidParameter {
                name: "fefet_vth_high_v",
                reason: format!(
                    "high threshold ({}) must exceed low threshold ({})",
                    self.fefet_vth_high_v, self.fefet_vth_low_v
                ),
            });
        }
        if self.fefet_coercive_voltage_v >= self.write_voltage_v {
            return Err(DeviceError::InvalidParameter {
                name: "fefet_coercive_voltage_v",
                reason: format!(
                    "coercive voltage ({}) must be below the write voltage ({})",
                    self.fefet_coercive_voltage_v, self.write_voltage_v
                ),
            });
        }
        Ok(())
    }

    /// Threshold-voltage memory window of the FeFET (difference between the programmed
    /// and erased threshold voltages).
    #[cfg(test)]
    pub(crate) fn memory_window_v(&self) -> f64 {
        self.fefet_vth_high_v - self.fefet_vth_low_v
    }

    /// On/off drain-current ratio of the FeFET at nominal read bias.
    #[cfg(test)]
    pub(crate) fn on_off_ratio(&self) -> f64 {
        if self.fefet_off_current_ua <= 0.0 {
            f64::INFINITY
        } else {
            self.fefet_on_current_ua / self.fefet_off_current_ua
        }
    }
}

impl Default for TechnologyParams {
    fn default() -> Self {
        Self::predictive_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_45nm() {
        let tech = TechnologyParams::default();
        assert_eq!(tech.node_nm, 45.0);
        assert!(tech.validate().is_ok());
    }

    #[test]
    fn memory_window_is_positive() {
        let tech = TechnologyParams::predictive_45nm();
        assert!(tech.memory_window_v() > 0.5);
    }

    #[test]
    fn on_off_ratio_is_large() {
        let tech = TechnologyParams::predictive_45nm();
        assert!(tech.on_off_ratio() > 1.0e3);
    }

    #[test]
    fn on_off_ratio_infinite_when_no_leakage() {
        let mut tech = TechnologyParams::predictive_45nm();
        tech.fefet_off_current_ua = 0.0;
        assert!(tech.on_off_ratio().is_infinite());
    }

    #[test]
    fn validate_rejects_nonpositive_vdd() {
        let mut tech = TechnologyParams::predictive_45nm();
        tech.vdd_v = 0.0;
        let err = tech.validate().unwrap_err();
        assert!(matches!(
            err,
            DeviceError::InvalidParameter { name: "vdd_v", .. }
        ));
    }

    #[test]
    fn validate_rejects_inverted_threshold_window() {
        let mut tech = TechnologyParams::predictive_45nm();
        tech.fefet_vth_high_v = tech.fefet_vth_low_v - 0.1;
        assert!(tech.validate().is_err());
    }

    #[test]
    fn validate_rejects_coercive_above_write_voltage() {
        let mut tech = TechnologyParams::predictive_45nm();
        tech.fefet_coercive_voltage_v = tech.write_voltage_v + 1.0;
        assert!(tech.validate().is_err());
    }

    #[test]
    fn validate_rejects_nan() {
        let mut tech = TechnologyParams::predictive_45nm();
        tech.wire_cap_ff_per_um = f64::NAN;
        assert!(tech.validate().is_err());
    }

    #[test]
    fn modified_corner_still_validates() {
        let mut tech = TechnologyParams::predictive_45nm();
        tech.vdd_v = 0.8;
        tech.write_voltage_v = 3.6;
        assert!(tech.validate().is_ok());
    }
}

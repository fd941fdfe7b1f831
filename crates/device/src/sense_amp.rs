//! Sense-amplifier and driver peripheral models for the CMA.
//!
//! A CMA row/column is read out by one of two peripheral paths (Fig. 3(c) of the paper):
//!
//! * the **RAM sense amplifier** — a voltage-mode SA on each bitline used for lookups and
//!   for the bitwise results of GPCiM operations;
//! * the **CAM sense amplifier** — a current-mode SA on each matchline that compares the
//!   row's mismatch-discharge current against a reference current generated by a dummy
//!   `1T + 1FeFET` cell. The reference is programmable, which is how the threshold
//!   (fixed-radius) Hamming-distance match is realized.

use crate::technology::TechnologyParams;
use crate::wire::{ArrayWires, Wire};

/// Voltage-mode sense amplifier used for RAM-mode reads and GPCiM logic outputs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RamSenseAmp {
    tech: TechnologyParams,
}

impl RamSenseAmp {
    /// Create a RAM sense amplifier in the given technology.
    pub fn new(tech: TechnologyParams) -> Self {
        Self { tech }
    }

    /// Energy of resolving one bitline, including bitline precharge, in femtojoules.
    pub(crate) fn sense_energy_fj(&self, bitline: &Wire) -> f64 {
        let precharge = bitline.transition(&self.tech, self.tech.vdd_v * 0.5);
        self.tech.ram_sense_amp_energy_fj + precharge.energy_fj
    }

    /// Latency of resolving one bitline, including bitline development, in nanoseconds.
    pub(crate) fn sense_latency_ns(&self, bitline: &Wire) -> f64 {
        let develop = bitline.transition(&self.tech, self.tech.vdd_v * 0.1);
        self.tech.ram_sense_amp_latency_ns + develop.delay_ns
    }
}

/// Current-mode sense amplifier with a programmable dummy-cell reference, used for
/// threshold (fixed-radius) matching in TCAM mode.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CamSenseAmp {
    tech: TechnologyParams,
    /// Hamming-distance threshold the reference current is programmed to. A row whose
    /// number of mismatching cells is less than or equal to this threshold reports a match.
    threshold_mismatches: usize,
}

impl CamSenseAmp {
    /// Create a CAM sense amplifier with an exact-match reference (threshold 0).
    pub fn new(tech: TechnologyParams) -> Self {
        Self {
            tech,
            threshold_mismatches: 0,
        }
    }

    /// Program the dummy-cell reference so rows with at most `threshold` mismatching cells
    /// report a match (fixed-radius near-neighbour search).
    #[cfg(test)]
    pub(crate) fn set_threshold(&mut self, threshold: usize) {
        self.threshold_mismatches = threshold;
    }

    /// Currently programmed mismatch threshold.
    #[cfg(test)]
    pub fn threshold(&self) -> usize {
        self.threshold_mismatches
    }

    /// Reference current the dummy cell generates for the programmed threshold, in µA.
    ///
    /// The reference sits half a cell-current above the threshold count so that the
    /// comparison has symmetric margin.
    #[cfg(test)]
    pub(crate) fn reference_current_ua(&self) -> f64 {
        (self.threshold_mismatches as f64 + 0.5) * self.tech.fefet_on_current_ua
    }

    /// Decide whether a row with `mismatches` mismatching cells matches under the
    /// programmed threshold, given the per-cell mismatch current.
    #[cfg(test)]
    pub(crate) fn resolves_match(&self, mismatches: usize) -> bool {
        let row_current = mismatches as f64 * self.tech.fefet_on_current_ua;
        row_current < self.reference_current_ua()
    }

    /// Energy of one matchline evaluation (precharge plus current comparison), in fJ.
    pub(crate) fn sense_energy_fj(&self, matchline: &Wire) -> f64 {
        let precharge = matchline.transition(&self.tech, self.tech.vdd_v);
        self.tech.cam_sense_amp_energy_fj + precharge.energy_fj
    }

    /// Latency of one matchline evaluation, in nanoseconds.
    pub(crate) fn sense_latency_ns(&self, matchline: &Wire) -> f64 {
        let discharge = matchline.transition(&self.tech, self.tech.vdd_v * 0.3);
        self.tech.cam_sense_amp_latency_ns + discharge.delay_ns
    }
}

/// Searchline / wordline / bitline driver bank for an array of a given geometry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DriverBank {
    tech: TechnologyParams,
    wires: ArrayWires,
}

impl DriverBank {
    /// Create the driver bank of a `rows x cols` array.
    pub fn new(tech: TechnologyParams, rows: usize, cols: usize) -> Self {
        Self {
            tech,
            wires: ArrayWires::new(rows, cols),
        }
    }

    /// Energy of broadcasting a query on all searchlines (one per column, true and
    /// complement rails), in femtojoules.
    #[cfg(test)]
    pub(crate) fn search_broadcast_energy_fj(&self) -> f64 {
        let sl = self.wires.searchline(&self.tech);
        // Two rails (true + complement) per column; on average half of them switch.
        let per_line = sl.transition(&self.tech, self.tech.vdd_v).energy_fj;
        self.wires.cols as f64 * per_line
    }

    /// Energy of activating one wordline (decoder plus wordline swing), in femtojoules.
    pub(crate) fn wordline_activation_energy_fj(&self) -> f64 {
        let wl = self.wires.wordline(&self.tech);
        self.tech.decoder_energy_fj + wl.transition(&self.tech, self.tech.vdd_v).energy_fj
    }

    /// Latency of activating one wordline, in nanoseconds.
    pub(crate) fn wordline_activation_latency_ns(&self) -> f64 {
        let wl = self.wires.wordline(&self.tech);
        self.tech.decoder_delay_ns + wl.transition(&self.tech, self.tech.vdd_v).delay_ns
    }

    /// Energy of driving all bitlines to the write voltage for a row write, in fJ.
    pub(crate) fn write_drive_energy_fj(&self) -> f64 {
        let bl = self.wires.bitline(&self.tech);
        self.wires.cols as f64
            * bl.transition(&self.tech, self.tech.write_voltage_v)
                .energy_fj
            * 0.5
    }

    /// Array geometry served by this driver bank.
    #[cfg(test)]
    pub fn geometry(&self) -> (usize, usize) {
        (self.wires.rows, self.wires.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::predictive_45nm()
    }

    #[test]
    fn cam_sa_exact_match_by_default() {
        let sa = CamSenseAmp::new(tech());
        assert_eq!(sa.threshold(), 0);
        assert!(sa.resolves_match(0));
        assert!(!sa.resolves_match(1));
    }

    #[test]
    fn cam_sa_threshold_match() {
        let mut sa = CamSenseAmp::new(tech());
        sa.set_threshold(16);
        assert!(sa.resolves_match(0));
        assert!(sa.resolves_match(16));
        assert!(!sa.resolves_match(17));
        assert!(!sa.resolves_match(200));
    }

    #[test]
    fn cam_reference_current_monotone_in_threshold() {
        let mut sa = CamSenseAmp::new(tech());
        let r0 = sa.reference_current_ua();
        sa.set_threshold(8);
        let r8 = sa.reference_current_ua();
        assert!(r8 > r0);
    }

    #[test]
    fn ram_sense_energy_includes_bitline() {
        let t = tech();
        let sa = RamSenseAmp::new(t.clone());
        let small = ArrayWires::new(16, 16).bitline(&t);
        let large = ArrayWires::new(1024, 16).bitline(&t);
        assert!(sa.sense_energy_fj(&large) > sa.sense_energy_fj(&small));
        assert!(sa.sense_latency_ns(&large) > sa.sense_latency_ns(&small));
    }

    #[test]
    fn cam_sense_energy_positive_and_latency_fast() {
        let t = tech();
        let sa = CamSenseAmp::new(t.clone());
        let ml = ArrayWires::new(256, 256).matchline(&t);
        assert!(sa.sense_energy_fj(&ml) > 0.0);
        // TCAM search resolves in a fraction of a nanosecond per the paper (0.2 ns array
        // level); the single matchline path must therefore be well below that.
        assert!(sa.sense_latency_ns(&ml) < 0.5);
    }

    #[test]
    fn driver_bank_geometry_round_trip() {
        let bank = DriverBank::new(tech(), 256, 128);
        assert_eq!(bank.geometry(), (256, 128));
    }

    #[test]
    fn driver_energies_scale_with_array_size() {
        let small = DriverBank::new(tech(), 64, 64);
        let large = DriverBank::new(tech(), 256, 256);
        assert!(large.search_broadcast_energy_fj() > small.search_broadcast_energy_fj());
        assert!(large.wordline_activation_energy_fj() > small.wordline_activation_energy_fj());
        assert!(large.write_drive_energy_fj() > small.write_drive_energy_fj());
    }
}

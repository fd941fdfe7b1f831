//! Interconnect wire parasitics: wordlines, bitlines, matchlines, searchlines and the
//! short near-memory buses that feed the adder trees.
//!
//! The model is a standard lumped/distributed RC approximation: a wire of length `L` has
//! capacitance `c·L` and resistance `r·L`; its Elmore delay with a driver resistance
//! `R_drv` and load capacitance `C_load` is `R_drv·(C_wire + C_load) + r·L·(C_wire/2 +
//! C_load)`. Switching energy is `(C_wire + C_load)·V²` for a full-swing transition, with
//! an activity factor applied by the caller.

use crate::technology::TechnologyParams;

/// A routed wire with distributed RC parasitics plus an attached lumped load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    /// Physical length in micrometres.
    pub length_um: f64,
    /// Total lumped load capacitance attached along the wire (gates, junctions), in fF.
    pub load_cap_ff: f64,
    /// Driver output resistance in kilo-ohms.
    pub driver_res_kohm: f64,
}

/// Energy/delay figures for one full-swing transition of a [`Wire`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WireTransition {
    /// Switching energy in femtojoules.
    pub energy_fj: f64,
    /// Elmore delay in nanoseconds.
    pub delay_ns: f64,
    /// Total switched capacitance in femtofarads.
    pub total_cap_ff: f64,
}

impl Wire {
    /// Construct a wire description.
    pub fn new(length_um: f64, load_cap_ff: f64, driver_res_kohm: f64) -> Self {
        Self {
            length_um: length_um.max(0.0),
            load_cap_ff: load_cap_ff.max(0.0),
            driver_res_kohm: driver_res_kohm.max(0.0),
        }
    }

    /// Wire self-capacitance given the technology's per-micrometre capacitance, in fF.
    pub(crate) fn wire_cap_ff(&self, tech: &TechnologyParams) -> f64 {
        tech.wire_cap_ff_per_um * self.length_um
    }

    /// Wire resistance given the technology's per-micrometre resistance, in kΩ.
    pub(crate) fn wire_res_kohm(&self, tech: &TechnologyParams) -> f64 {
        tech.wire_res_kohm_per_um * self.length_um
    }

    /// Evaluate one full-swing transition at the given voltage swing.
    ///
    /// Energy: `C_total · V²` (fF·V² = fJ). Delay: Elmore delay of the driver resistance
    /// into the distributed wire plus the lumped load (kΩ·fF = ps, converted to ns).
    pub(crate) fn transition(&self, tech: &TechnologyParams, swing_v: f64) -> WireTransition {
        let c_wire = self.wire_cap_ff(tech);
        let r_wire = self.wire_res_kohm(tech);
        let c_total = c_wire + self.load_cap_ff;
        let energy_fj = c_total * swing_v * swing_v;
        // kΩ * fF = 1e3 * 1e-15 s = 1e-12 s = 1 ps.
        let delay_ps = self.driver_res_kohm * c_total + r_wire * (0.5 * c_wire + self.load_cap_ff);
        WireTransition {
            energy_fj,
            delay_ns: 0.69 * delay_ps * 1e-3,
            total_cap_ff: c_total,
        }
    }
}

/// Convenience constructors for the standard array wires of a CMA of a given geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ArrayWires {
    /// Number of rows in the array.
    pub rows: usize,
    /// Number of columns in the array.
    pub cols: usize,
}

impl ArrayWires {
    /// Describe the wires of a `rows x cols` array.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }

    /// A wordline spans all columns and is loaded by two FeFET gates per cell.
    pub fn wordline(&self, tech: &TechnologyParams) -> Wire {
        let length = self.cols as f64 * tech.cma_cell_pitch_um;
        let load = self.cols as f64 * 2.0 * tech.fefet_gate_cap_ff;
        Wire::new(length, load, 2.0)
    }

    /// A bitline spans all rows and is loaded by one FeFET drain junction per cell.
    pub fn bitline(&self, tech: &TechnologyParams) -> Wire {
        let length = self.rows as f64 * tech.cma_cell_pitch_um;
        let load = self.rows as f64 * tech.fefet_drain_cap_ff;
        Wire::new(length, load, 1.0)
    }

    /// A searchline spans all rows (it drives the query bit into one column of TCAM
    /// cells) and is loaded by two FeFET gates per cell.
    #[cfg(test)]
    pub(crate) fn searchline(&self, tech: &TechnologyParams) -> Wire {
        let length = self.rows as f64 * tech.cma_cell_pitch_um;
        let load = self.rows as f64 * 2.0 * tech.fefet_gate_cap_ff;
        Wire::new(length, load, 1.5)
    }

    /// A matchline spans all columns of one row and is loaded by two FeFET drain
    /// junctions per cell.
    pub(crate) fn matchline(&self, tech: &TechnologyParams) -> Wire {
        let length = self.cols as f64 * tech.cma_cell_pitch_um;
        let load = self.cols as f64 * 2.0 * tech.fefet_drain_cap_ff;
        Wire::new(length, load, 0.8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechnologyParams {
        TechnologyParams::predictive_45nm()
    }

    #[test]
    fn energy_scales_quadratically_with_swing() {
        let wire = Wire::new(100.0, 10.0, 1.0);
        let t1 = wire.transition(&tech(), 1.0);
        let t2 = wire.transition(&tech(), 2.0);
        assert!((t2.energy_fj / t1.energy_fj - 4.0).abs() < 1e-9);
    }

    #[test]
    fn delay_increases_with_length() {
        let short = Wire::new(10.0, 5.0, 1.0).transition(&tech(), 1.0);
        let long = Wire::new(1000.0, 5.0, 1.0).transition(&tech(), 1.0);
        assert!(long.delay_ns > short.delay_ns);
        assert!(long.energy_fj > short.energy_fj);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let wire = Wire::new(-5.0, -1.0, -1.0);
        let t = wire.transition(&tech(), 1.0);
        assert_eq!(t.energy_fj, 0.0);
        assert_eq!(t.delay_ns, 0.0);
    }

    #[test]
    fn array_wires_match_geometry() {
        let wires = ArrayWires::new(256, 256);
        let t = tech();
        let wl = wires.wordline(&t);
        let bl = wires.bitline(&t);
        assert!((wl.length_um - 256.0 * t.cma_cell_pitch_um).abs() < 1e-9);
        assert!((bl.length_um - 256.0 * t.cma_cell_pitch_um).abs() < 1e-9);
        // Wordline is loaded by gates, bitline by (smaller) drain junctions.
        assert!(wl.load_cap_ff > bl.load_cap_ff);
    }

    #[test]
    fn wordline_delay_is_sub_nanosecond_at_256_columns() {
        let wires = ArrayWires::new(256, 256);
        let t = tech();
        let wl = wires.wordline(&t).transition(&t, t.vdd_v);
        assert!(wl.delay_ns < 1.0, "wordline delay {} ns", wl.delay_ns);
    }

    #[test]
    fn matchline_cap_smaller_than_wordline_cap() {
        let wires = ArrayWires::new(256, 256);
        let t = tech();
        let ml = wires.matchline(&t).transition(&t, t.vdd_v);
        let wl = wires.wordline(&t).transition(&t, t.vdd_v);
        assert!(ml.total_cap_ff < wl.total_cap_ff);
    }
}

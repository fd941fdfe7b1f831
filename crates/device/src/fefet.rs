//! Behavioural ferroelectric FET (FeFET) device model.
//!
//! The paper's HSPICE flow uses the Preisach-based compact model of Ni et al. ("A circuit
//! compatible accurate compact model for ferroelectric FETs", VLSI 2018). For system-level
//! reproduction we only need the behaviour that matters architecturally:
//!
//! * the device stores non-volatile state as remnant polarization of many independent
//!   ferroelectric domains (a Preisach-style ensemble),
//! * gate pulses above the coercive voltage switch domains towards the pulse polarity,
//!   partial pulses switch only a fraction of the ensemble (minor loops),
//! * the polarization shifts the transistor threshold voltage between a low-Vth (erased,
//!   conducting at read bias) and a high-Vth (programmed, off at read bias) state,
//! * reading is non-destructive: the drain current at read bias depends on the stored
//!   state but does not disturb it.
//!
//! [`FeFet`] implements exactly that: a domain ensemble with a coercive-voltage
//! distribution, pulse-driven switching, and threshold/drain-current read-out.

use crate::error::DeviceError;
use crate::technology::TechnologyParams;

/// Logical storage state of a FeFET after a full program or erase operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeFetState {
    /// Erased: negative remnant polarization, low threshold voltage, device conducts at
    /// read bias. Conventionally stores logic `1`.
    LowVt,
    /// Programmed: positive remnant polarization, high threshold voltage, device is off at
    /// read bias. Conventionally stores logic `0`.
    HighVt,
}

impl FeFetState {
    /// The logic value conventionally associated with the state (`LowVt` ⇒ 1).
    pub fn as_bit(self) -> bool {
        matches!(self, FeFetState::LowVt)
    }

    /// The state conventionally associated with a logic value.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            FeFetState::LowVt
        } else {
            FeFetState::HighVt
        }
    }
}

/// A voltage pulse applied to the FeFET gate (relative to source/body).
///
/// Positive amplitudes program the device towards [`FeFetState::HighVt`]; negative
/// amplitudes erase it towards [`FeFetState::LowVt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarizationPulse {
    /// Pulse amplitude in volts (signed).
    pub amplitude_v: f64,
    /// Pulse width in nanoseconds.
    pub width_ns: f64,
}

impl PolarizationPulse {
    /// Construct a pulse, validating that the width is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if the width is non-positive or either
    /// field is non-finite.
    pub fn new(amplitude_v: f64, width_ns: f64) -> Result<Self, DeviceError> {
        if !width_ns.is_finite() || width_ns <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "width_ns",
                reason: format!("pulse width must be positive and finite, got {width_ns}"),
            });
        }
        if !amplitude_v.is_finite() {
            return Err(DeviceError::InvalidParameter {
                name: "amplitude_v",
                reason: "pulse amplitude must be finite".to_string(),
            });
        }
        Ok(Self {
            amplitude_v,
            width_ns,
        })
    }
}

/// Preisach-style behavioural FeFET model.
///
/// The ferroelectric layer is modelled as `n` independent domains, each with its own
/// coercive voltage drawn from a deterministic spread around the nominal coercive voltage.
/// The normalized polarization is the mean of the domain polarities; it maps linearly onto
/// the threshold-voltage window `[vth_low, vth_high]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeFet {
    tech: TechnologyParams,
    /// Per-domain polarity: `+1.0` (programmed towards high Vt) or `-1.0` (erased).
    domains: Vec<f64>,
    /// Per-domain coercive voltage in volts.
    coercive_v: Vec<f64>,
}

impl FeFet {
    /// Default number of Preisach domains used by [`FeFet::new`].
    pub const DEFAULT_DOMAINS: usize = 32;

    /// Create an erased FeFET with [`FeFet::DEFAULT_DOMAINS`] domains.
    pub fn new(tech: TechnologyParams) -> Self {
        Self::with_domains(tech, Self::DEFAULT_DOMAINS).expect("default domain count is valid")
    }

    /// Create an erased FeFET with an explicit domain count.
    ///
    /// The domain coercive voltages are spread deterministically over ±20 % of the nominal
    /// coercive voltage so that partial-switching (minor-loop) behaviour is reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if `domains` is zero or the technology
    /// parameters fail validation.
    pub fn with_domains(tech: TechnologyParams, domains: usize) -> Result<Self, DeviceError> {
        tech.validate()?;
        if domains == 0 {
            return Err(DeviceError::InvalidParameter {
                name: "domains",
                reason: "the Preisach ensemble needs at least one domain".to_string(),
            });
        }
        let nominal = tech.fefet_coercive_voltage_v;
        let coercive_v = (0..domains)
            .map(|i| {
                // Uniform deterministic spread in [-0.2, +0.2] of the nominal value.
                let frac = if domains == 1 {
                    0.0
                } else {
                    (i as f64 / (domains - 1) as f64) - 0.5
                };
                nominal * (1.0 + 0.4 * frac)
            })
            .collect();
        Ok(Self {
            tech,
            domains: vec![-1.0; domains],
            coercive_v,
        })
    }

    /// Technology parameters this device was built with.
    pub fn technology(&self) -> &TechnologyParams {
        &self.tech
    }

    /// Normalized remnant polarization in `[-1, +1]`.
    ///
    /// `-1` is the fully erased (low-Vt) state, `+1` the fully programmed (high-Vt) state.
    pub fn polarization(&self) -> f64 {
        self.domains.iter().sum::<f64>() / self.domains.len() as f64
    }

    /// Current threshold voltage, interpolated across the memory window according to the
    /// polarization state.
    pub fn threshold_voltage_v(&self) -> f64 {
        let p = self.polarization();
        let mid = 0.5 * (self.tech.fefet_vth_low_v + self.tech.fefet_vth_high_v);
        mid + 0.5 * p * self.tech.memory_window_v()
    }

    /// Apply a gate pulse, switching every domain whose coercive voltage the pulse
    /// amplitude exceeds. Pulses shorter than the nominal write pulse switch
    /// proportionally fewer domains (linear kinetic approximation).
    pub fn apply_pulse(&mut self, pulse: PolarizationPulse) {
        let magnitude = pulse.amplitude_v.abs();
        let polarity = if pulse.amplitude_v >= 0.0 { 1.0 } else { -1.0 };
        // Fraction of switchable domains that actually switch given the pulse width.
        let kinetics = (pulse.width_ns / self.tech.fefet_write_pulse_ns).clamp(0.0, 1.0);
        let switchable: Vec<usize> = self
            .coercive_v
            .iter()
            .enumerate()
            .filter(|(i, &vc)| magnitude >= vc && self.domains[*i] != polarity)
            .map(|(i, _)| i)
            .collect();
        let to_switch = ((switchable.len() as f64) * kinetics).round() as usize;
        for &i in switchable.iter().take(to_switch) {
            self.domains[i] = polarity;
        }
    }

    /// Fully program the device into [`FeFetState::HighVt`] using the nominal write pulse.
    pub fn program(&mut self) {
        let pulse = PolarizationPulse {
            amplitude_v: self.tech.write_voltage_v,
            width_ns: self.tech.fefet_write_pulse_ns,
        };
        self.apply_pulse(pulse);
    }

    /// Fully erase the device into [`FeFetState::LowVt`] using the nominal write pulse.
    pub fn erase(&mut self) {
        let pulse = PolarizationPulse {
            amplitude_v: -self.tech.write_voltage_v,
            width_ns: self.tech.fefet_write_pulse_ns,
        };
        self.apply_pulse(pulse);
    }

    /// Write a logical state (full program or erase).
    pub fn write_state(&mut self, state: FeFetState) {
        match state {
            FeFetState::HighVt => self.program(),
            FeFetState::LowVt => self.erase(),
        }
    }

    /// The stored logical state, thresholding the polarization at zero.
    pub fn read_state(&self) -> FeFetState {
        if self.polarization() > 0.0 {
            FeFetState::HighVt
        } else {
            FeFetState::LowVt
        }
    }

    /// Drain current at the nominal read bias (`vdd` on the gate), in microamperes.
    ///
    /// A low-Vt device conducts close to its on-current; a high-Vt device is essentially
    /// off. Intermediate polarization interpolates exponentially between the two, which is
    /// what gives multi-level crossbar cells their analog weight behaviour.
    pub fn read_current_ua(&self) -> f64 {
        let vth = self.threshold_voltage_v();
        let overdrive = self.tech.vdd_v - vth;
        if overdrive <= 0.0 {
            // Sub-threshold: exponential roll-off towards the off current.
            let slope_v_per_decade = 0.08;
            let decades = (-overdrive / slope_v_per_decade).min(12.0);
            (self.tech.fefet_on_current_ua * 10f64.powf(-decades))
                .max(self.tech.fefet_off_current_ua)
        } else {
            // Above threshold: linear-in-overdrive saturation current approximation,
            // normalized so the fully erased device carries the nominal on-current.
            let full_overdrive = self.tech.vdd_v - self.tech.fefet_vth_low_v;
            self.tech.fefet_on_current_ua * (overdrive / full_overdrive).clamp(0.0, 1.0)
        }
    }

    /// Energy of one full program/erase pulse in femtojoules.
    ///
    /// The dominant term is (dis)charging the gate stack to the write voltage; the model
    /// charges the ferroelectric gate capacitance once per pulse.
    pub fn write_energy_fj(&self) -> f64 {
        self.tech.fefet_gate_cap_ff * self.tech.write_voltage_v * self.tech.write_voltage_v
    }

    /// Latency of one full program/erase pulse in nanoseconds.
    pub fn write_latency_ns(&self) -> f64 {
        self.tech.fefet_write_pulse_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> FeFet {
        FeFet::new(TechnologyParams::predictive_45nm())
    }

    #[test]
    fn fresh_device_is_erased() {
        let d = device();
        assert_eq!(d.read_state(), FeFetState::LowVt);
        assert!(d.polarization() < 0.0);
    }

    #[test]
    fn program_and_erase_toggle_state() {
        let mut d = device();
        d.program();
        assert_eq!(d.read_state(), FeFetState::HighVt);
        assert!(d.polarization() > 0.9);
        d.erase();
        assert_eq!(d.read_state(), FeFetState::LowVt);
        assert!(d.polarization() < -0.9);
    }

    #[test]
    fn write_state_round_trips_bits() {
        let mut d = device();
        for bit in [true, false, true, true, false] {
            d.write_state(FeFetState::from_bit(bit));
            assert_eq!(d.read_state().as_bit(), bit);
        }
    }

    #[test]
    fn threshold_voltage_tracks_state() {
        let mut d = device();
        let erased_vth = d.threshold_voltage_v();
        d.program();
        let programmed_vth = d.threshold_voltage_v();
        assert!(programmed_vth > erased_vth);
        assert!((programmed_vth - d.technology().fefet_vth_high_v).abs() < 0.05);
        assert!((erased_vth - d.technology().fefet_vth_low_v).abs() < 0.05);
    }

    #[test]
    fn read_current_separates_states_by_orders_of_magnitude() {
        let mut d = device();
        let on = d.read_current_ua();
        d.program();
        let off = d.read_current_ua();
        assert!(on / off > 100.0, "on {on} / off {off}");
    }

    #[test]
    fn sub_coercive_pulse_does_not_switch() {
        let mut d = device();
        let weak = PolarizationPulse::new(1.0, 10.0).unwrap();
        d.apply_pulse(weak);
        assert_eq!(d.read_state(), FeFetState::LowVt);
        assert!(d.polarization() < -0.99);
    }

    #[test]
    fn partial_amplitude_pulse_switches_partially() {
        let mut d = device();
        // Amplitude inside the coercive-voltage spread switches only some domains.
        let nominal = d.technology().fefet_coercive_voltage_v;
        let partial = PolarizationPulse::new(nominal, 10.0).unwrap();
        d.apply_pulse(partial);
        let p = d.polarization();
        assert!(p > -1.0 && p < 1.0, "expected minor loop, got {p}");
    }

    #[test]
    fn short_pulse_switches_fewer_domains_than_long_pulse() {
        let tech = TechnologyParams::predictive_45nm();
        let mut short = FeFet::new(tech.clone());
        let mut long = FeFet::new(tech.clone());
        short.apply_pulse(PolarizationPulse::new(tech.write_voltage_v, 2.0).unwrap());
        long.apply_pulse(PolarizationPulse::new(tech.write_voltage_v, 10.0).unwrap());
        assert!(short.polarization() < long.polarization());
    }

    #[test]
    fn non_destructive_read() {
        let mut d = device();
        d.program();
        let before = d.polarization();
        let _ = d.read_current_ua();
        let _ = d.read_state();
        assert_eq!(d.polarization(), before);
    }

    #[test]
    fn pulse_validation() {
        assert!(PolarizationPulse::new(4.0, 0.0).is_err());
        assert!(PolarizationPulse::new(f64::NAN, 1.0).is_err());
        assert!(PolarizationPulse::new(4.0, 1.0).is_ok());
    }

    #[test]
    fn zero_domains_rejected() {
        let err = FeFet::with_domains(TechnologyParams::predictive_45nm(), 0).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::InvalidParameter {
                name: "domains",
                ..
            }
        ));
    }

    #[test]
    fn write_energy_scales_with_voltage() {
        let tech_lo = TechnologyParams::predictive_45nm();
        let mut tech_hi = tech_lo.clone();
        tech_hi.write_voltage_v = 5.0;
        let d_lo = FeFet::new(tech_lo);
        let d_hi = FeFet::new(tech_hi);
        assert!(d_hi.write_energy_fj() > d_lo.write_energy_fj());
    }
}

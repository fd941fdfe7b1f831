//! Calibration of the analytical circuit models against the paper's published Table II.
//!
//! The analytical models in this crate are built from technology constants and RC/gate
//! arithmetic; they land in the right ballpark of the HSPICE / RTL-synthesis / NeuroSim
//! numbers the paper reports, but not exactly on them (the closed tool flows capture
//! second-order effects an analytical model cannot). Following standard practice for
//! architecture-level simulators, every published figure of merit is used as an anchor:
//! the calibrated FoM equals the published value, and the per-quantity scale factor
//! (published / analytical) is recorded in a [`CalibrationReport`] so the adjustment is
//! explicit and auditable.
//!
//! Calibration refuses to produce a result when a scale factor leaves the guard band
//! `[1/MAX_SCALE, MAX_SCALE]`: a large factor means the analytical model no longer tracks
//! the reference and silently scaling it would hide a modelling bug.

use crate::characterization::{ArrayFom, CmaFom, OperationFom};
use crate::error::DeviceError;

/// Maximum tolerated ratio between a reference value and its analytical counterpart.
pub(crate) const MAX_SCALE: f64 = 5.0;

/// One calibrated quantity: the analytical value, the published reference and the applied
/// scale factor.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationEntry {
    /// Human-readable name of the quantity (e.g. `"cma.read.energy_pj"`).
    pub quantity: String,
    /// Value produced by the analytical model.
    pub analytical: f64,
    /// Published reference value.
    pub reference: f64,
    /// `reference / analytical`.
    pub scale: f64,
}

/// The full set of calibration factors applied to an [`ArrayFom`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationReport {
    /// One entry per calibrated scalar.
    pub entries: Vec<CalibrationEntry>,
}

impl CalibrationReport {
    /// Largest absolute deviation from unity among all scale factors.
    #[cfg(test)]
    pub(crate) fn worst_case_scale(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| {
                if e.scale >= 1.0 {
                    e.scale
                } else {
                    1.0 / e.scale
                }
            })
            .fold(1.0, f64::max)
    }

    /// Look up an entry by quantity name.
    pub fn entry(&self, quantity: &str) -> Option<&CalibrationEntry> {
        self.entries.iter().find(|e| e.quantity == quantity)
    }

    /// Geometric-mean scale factor across all entries (a single-number summary of how far
    /// the analytical model sits from the reference).
    #[cfg(test)]
    pub(crate) fn geometric_mean_scale(&self) -> f64 {
        if self.entries.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.entries.iter().map(|e| e.scale.abs().ln()).sum();
        (log_sum / self.entries.len() as f64).exp()
    }
}

fn calibrate_scalar(
    quantity: &str,
    analytical: f64,
    reference: f64,
    report: &mut CalibrationReport,
) -> Result<f64, DeviceError> {
    if analytical <= 0.0 || !analytical.is_finite() {
        return Err(DeviceError::CalibrationOutOfRange {
            quantity: quantity.to_string(),
            ratio: f64::INFINITY,
            max_ratio: MAX_SCALE,
        });
    }
    let scale = reference / analytical;
    let deviation = if scale >= 1.0 { scale } else { 1.0 / scale };
    if deviation > MAX_SCALE {
        return Err(DeviceError::CalibrationOutOfRange {
            quantity: quantity.to_string(),
            ratio: deviation,
            max_ratio: MAX_SCALE,
        });
    }
    report.entries.push(CalibrationEntry {
        quantity: quantity.to_string(),
        analytical,
        reference,
        scale,
    });
    Ok(reference)
}

fn calibrate_op(
    name: &str,
    analytical: OperationFom,
    reference: OperationFom,
    report: &mut CalibrationReport,
) -> Result<OperationFom, DeviceError> {
    let energy_pj = calibrate_scalar(
        &format!("{name}.energy_pj"),
        analytical.energy_pj,
        reference.energy_pj,
        report,
    )?;
    let latency_ns = calibrate_scalar(
        &format!("{name}.latency_ns"),
        analytical.latency_ns,
        reference.latency_ns,
        report,
    )?;
    Ok(OperationFom::new(energy_pj, latency_ns))
}

/// Calibrate an analytical [`ArrayFom`] against a reference, producing the anchored FoM
/// set and the report of applied scale factors.
///
/// # Errors
///
/// Returns [`DeviceError::CalibrationOutOfRange`] if any scale factor falls outside the
/// guard band `[1/`[`MAX_SCALE`]`, `[`MAX_SCALE`]`]` or if an analytical value is
/// non-positive.
pub(crate) fn calibrate(
    analytical: &ArrayFom,
    reference: &ArrayFom,
) -> Result<(ArrayFom, CalibrationReport), DeviceError> {
    let mut report = CalibrationReport::default();
    let cma = CmaFom {
        write: calibrate_op(
            "cma.write",
            analytical.cma.write,
            reference.cma.write,
            &mut report,
        )?,
        read: calibrate_op(
            "cma.read",
            analytical.cma.read,
            reference.cma.read,
            &mut report,
        )?,
        add: calibrate_op(
            "cma.add",
            analytical.cma.add,
            reference.cma.add,
            &mut report,
        )?,
        search: calibrate_op(
            "cma.search",
            analytical.cma.search,
            reference.cma.search,
            &mut report,
        )?,
    };
    let intra_mat_add = calibrate_op(
        "intra_mat_add",
        analytical.intra_mat_add,
        reference.intra_mat_add,
        &mut report,
    )?;
    let intra_bank_add = calibrate_op(
        "intra_bank_add",
        analytical.intra_bank_add,
        reference.intra_bank_add,
        &mut report,
    )?;
    let crossbar_matmul = calibrate_op(
        "crossbar_matmul",
        analytical.crossbar_matmul,
        reference.crossbar_matmul,
        &mut report,
    )?;
    Ok((
        ArrayFom {
            cma_geometry: reference.cma_geometry,
            crossbar_geometry: reference.crossbar_geometry,
            cma,
            intra_mat_add,
            intra_bank_add,
            crossbar_matmul,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::ArrayCharacterizer;
    use crate::technology::TechnologyParams;

    #[test]
    fn calibration_anchors_to_reference() {
        let characterizer = ArrayCharacterizer::new(TechnologyParams::predictive_45nm());
        let analytical = characterizer.analytical_fom().unwrap();
        let reference = ArrayFom::paper_reference();
        let (calibrated, report) = calibrate(&analytical, &reference).unwrap();
        assert_eq!(calibrated.cma.write, reference.cma.write);
        assert_eq!(calibrated.crossbar_matmul, reference.crossbar_matmul);
        assert_eq!(report.entries.len(), 14);
    }

    #[test]
    fn report_scales_are_within_guard_band() {
        let characterizer = ArrayCharacterizer::new(TechnologyParams::predictive_45nm());
        let (_, report) = characterizer.calibrated_fom_with_report().unwrap();
        assert!(report.worst_case_scale() <= MAX_SCALE);
        assert!(report.geometric_mean_scale() > 1.0 / MAX_SCALE);
        assert!(report.geometric_mean_scale() < MAX_SCALE);
    }

    #[test]
    fn report_lookup_by_name() {
        let characterizer = ArrayCharacterizer::new(TechnologyParams::predictive_45nm());
        let (_, report) = characterizer.calibrated_fom_with_report().unwrap();
        let entry = report.entry("cma.read.energy_pj").expect("entry exists");
        assert_eq!(entry.reference, 3.2);
        assert!(report.entry("nonexistent").is_none());
    }

    #[test]
    fn out_of_band_analytical_value_is_rejected() {
        let reference = ArrayFom::paper_reference();
        let mut analytical = reference;
        analytical.cma.read.energy_pj = reference.cma.read.energy_pj / (MAX_SCALE * 10.0);
        let err = calibrate(&analytical, &reference).unwrap_err();
        assert!(matches!(err, DeviceError::CalibrationOutOfRange { .. }));
    }

    #[test]
    fn nonpositive_analytical_value_is_rejected() {
        let reference = ArrayFom::paper_reference();
        let mut analytical = reference;
        analytical.cma.write.energy_pj = 0.0;
        assert!(calibrate(&analytical, &reference).is_err());
    }

    #[test]
    fn identity_calibration_has_unit_scales() {
        let reference = ArrayFom::paper_reference();
        let (calibrated, report) = calibrate(&reference, &reference).unwrap();
        assert_eq!(calibrated.cma.read, reference.cma.read);
        for entry in &report.entries {
            assert!((entry.scale - 1.0).abs() < 1e-12);
        }
        assert!((report.worst_case_scale() - 1.0).abs() < 1e-12);
        assert!((report.geometric_mean_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_defaults() {
        let report = CalibrationReport::default();
        assert_eq!(report.geometric_mean_scale(), 1.0);
        assert_eq!(report.worst_case_scale(), 1.0);
    }
}

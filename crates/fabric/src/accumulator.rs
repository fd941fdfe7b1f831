//! GPCiM accumulator precision variants.
//!
//! The paper's CMA accumulates pooled rows next to the RAM sense amplifiers with an
//! **int8 accumulator that saturates on every in-memory addition** (Sec. III-A1). That is
//! the cheapest design point, but long pooling chains (a user with hundreds of history
//! rows) clip early and lose signal. This module models the accumulator width as a design
//! knob:
//!
//! * **functional** — [`GpcimAccumulator::accumulate`] clamps the running sum to the
//!   accumulator's representable range after every row, exactly like the bit-serial
//!   hardware;
//! * **energy/latency** — the GPCiM addition is bit-serial over the accumulator width, so
//!   a 16-bit accumulator pays twice the cycles of the paper's 8-bit one
//!   ([`GpcimAccumulator::add_fom`]);
//! * **area** — the per-column accumulator registers and carry logic scale linearly with
//!   the width ([`GpcimAccumulator::area_um2`], anchored to the 8-bit figure used by
//!   `imars_device::area::AreaModel`).
//!
//! The design-space bench sweeps this knob against the pooling saturation error.

use imars_device::area::INT8_ACCUMULATOR_UM2_PER_COL;
use imars_device::characterization::OperationFom;

/// A GPCiM accumulator of a given bit width (8 = the paper's design point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GpcimAccumulator {
    bits: u32,
}

impl GpcimAccumulator {
    /// The paper's 8-bit saturating accumulator.
    pub const INT8: GpcimAccumulator = GpcimAccumulator { bits: 8 };
    /// The wider 16-bit variant (2× add cycles, 2× accumulator area, no saturation for
    /// pooling chains shorter than 256 rows).
    pub const INT16: GpcimAccumulator = GpcimAccumulator { bits: 16 };

    /// An accumulator of `bits` width. Widths of 8..=32 bits in whole-byte steps are
    /// supported (the bit-serial datapath processes whole byte slices).
    pub fn new(bits: u32) -> Option<Self> {
        if (8..=32).contains(&bits) && bits.is_multiple_of(8) {
            Some(Self { bits })
        } else {
            None
        }
    }

    /// Accumulator width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable partial sum.
    pub fn max(&self) -> i32 {
        ((1i64 << (self.bits - 1)) - 1) as i32
    }

    /// Smallest representable partial sum.
    pub fn min(&self) -> i32 {
        (-(1i64 << (self.bits - 1))) as i32
    }

    /// Scale the 8-bit in-memory addition figure of merit to this width: the GPCiM add is
    /// bit-serial over the accumulator, so energy and latency grow linearly with the
    /// width.
    pub fn add_fom(&self, int8_add: OperationFom) -> OperationFom {
        let scale = self.bits as f64 / 8.0;
        OperationFom::new(int8_add.energy_pj * scale, int8_add.latency_ns * scale)
    }

    /// Area of the per-column accumulator registers and carry logic for `cols` columns,
    /// in µm² (linear in the width, anchored to the 8-bit figure of the device-level
    /// area model).
    pub fn area_um2(&self, cols: usize) -> f64 {
        cols as f64 * INT8_ACCUMULATOR_UM2_PER_COL * self.bits as f64 / 8.0
    }

    /// Accumulate one int8 row into the running sums, clamping every lane to the
    /// accumulator's representable range (the bit-serial hardware saturates per
    /// addition). Rows shorter than the accumulator contribute zero to the rest.
    pub fn accumulate(&self, acc: &mut [i32], row: &[i8]) {
        let (lo, hi) = (self.min(), self.max());
        for (lane, &value) in acc.iter_mut().zip(row.iter()) {
            *lane = (*lane + value as i32).clamp(lo, hi);
        }
    }

    /// Worst-case absolute pooling error versus an exact (infinitely wide) accumulator
    /// for a chain of `rows` int8 rows: zero while the exact sum cannot leave the
    /// representable range (the positive extreme is `127·rows`, the negative
    /// `−128·rows`), growing linearly once either side clips.
    #[cfg(test)]
    pub(crate) fn worst_case_pooling_error(&self, rows: usize) -> i64 {
        let positive_excess = 127i64 * rows as i64 - self.max() as i64;
        let negative_excess = 128i64 * rows as i64 + self.min() as i64;
        positive_excess.max(negative_excess).max(0)
    }

    /// Longest pooling chain of arbitrary int8 rows this accumulator sums exactly
    /// (256 for the 16-bit variant, 1 for the paper's 8-bit design point).
    pub fn exact_pooling_rows(&self) -> usize {
        let positive = self.max() as i64 / 127;
        let negative = -(self.min() as i64) / 128;
        positive.min(negative).max(0) as usize
    }
}

impl Default for GpcimAccumulator {
    fn default() -> Self {
        Self::INT8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_accepts_byte_widths_only() {
        assert_eq!(GpcimAccumulator::new(8), Some(GpcimAccumulator::INT8));
        assert_eq!(GpcimAccumulator::new(16), Some(GpcimAccumulator::INT16));
        assert!(GpcimAccumulator::new(12).is_none());
        assert!(GpcimAccumulator::new(0).is_none());
        assert!(GpcimAccumulator::new(64).is_none());
    }

    #[test]
    fn ranges_match_two_complement() {
        assert_eq!(GpcimAccumulator::INT8.max(), 127);
        assert_eq!(GpcimAccumulator::INT8.min(), -128);
        assert_eq!(GpcimAccumulator::INT16.max(), 32767);
        assert_eq!(GpcimAccumulator::INT16.min(), -32768);
    }

    #[test]
    fn int8_accumulation_matches_saturating_i8_chain() {
        let rows: Vec<Vec<i8>> = vec![vec![100, -100, 5], vec![100, -100, 5], vec![7, 7, 7]];
        let mut acc = vec![0i32; 3];
        for row in &rows {
            GpcimAccumulator::INT8.accumulate(&mut acc, row);
        }
        let mut reference = [0i8; 3];
        for row in &rows {
            for (lane, &v) in reference.iter_mut().zip(row.iter()) {
                *lane = lane.saturating_add(v);
            }
        }
        let widened: Vec<i32> = reference.iter().map(|&v| v as i32).collect();
        assert_eq!(acc, widened);
    }

    #[test]
    fn int16_avoids_int8_saturation() {
        let mut narrow = vec![0i32; 1];
        let mut wide = vec![0i32; 1];
        for _ in 0..4 {
            GpcimAccumulator::INT8.accumulate(&mut narrow, &[100]);
            GpcimAccumulator::INT16.accumulate(&mut wide, &[100]);
        }
        assert_eq!(narrow, vec![127]);
        assert_eq!(wide, vec![400]);
    }

    #[test]
    fn wider_accumulator_costs_proportionally_more() {
        let base = OperationFom::new(108.0, 8.1);
        let wide = GpcimAccumulator::INT16.add_fom(base);
        assert!((wide.energy_pj - 216.0).abs() < 1e-9);
        assert!((wide.latency_ns - 16.2).abs() < 1e-9);
        let same = GpcimAccumulator::INT8.add_fom(base);
        assert_eq!(same.energy_pj, base.energy_pj);
        assert!((GpcimAccumulator::INT16.area_um2(256) - 2.0 * 256.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn worst_case_error_is_zero_until_the_range_is_exceeded() {
        assert_eq!(GpcimAccumulator::INT8.worst_case_pooling_error(1), 0);
        assert_eq!(GpcimAccumulator::INT16.worst_case_pooling_error(1), 0);
        assert_eq!(GpcimAccumulator::INT16.worst_case_pooling_error(256), 0);
        assert!(GpcimAccumulator::INT16.worst_case_pooling_error(257) > 0);
        assert!(GpcimAccumulator::INT8.worst_case_pooling_error(2) > 0);
        assert_eq!(GpcimAccumulator::INT8.exact_pooling_rows(), 1);
        assert_eq!(GpcimAccumulator::INT16.exact_pooling_rows(), 256);
    }

    #[test]
    fn full_width_accumulator_ranges_do_not_overflow() {
        let wide = GpcimAccumulator::new(32).unwrap();
        assert_eq!(wide.max(), i32::MAX);
        assert_eq!(wide.min(), i32::MIN);
        assert_eq!(wide.worst_case_pooling_error(1_000_000), 0);
        let mid = GpcimAccumulator::new(24).unwrap();
        assert_eq!(mid.max(), (1 << 23) - 1);
        assert_eq!(mid.min(), -(1 << 23));
    }
}

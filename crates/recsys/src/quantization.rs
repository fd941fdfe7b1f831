//! Int8 quantization of embedding tables.
//!
//! iMARS stores every embedding table with 8-bit integer precision (Sec. III-B) to cut
//! the memory footprint and make the rows fit the 256-bit CMA word (32 dimensions × 8
//! bits). This module implements symmetric per-table quantization: a single positive
//! scale maps `[-max_abs, +max_abs]` onto `[-127, +127]`, which is the scheme the
//! accuracy experiment of Sec. IV-B needs (int8 + cosine distance loses only ~0.6 % hit
//! rate versus FP32).

use crate::embedding::EmbeddingTable;
use crate::error::RecsysError;

/// Parameters of a symmetric int8 quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationParams {
    /// Scale such that `quantized = round(value / scale)`.
    pub scale: f32,
}

impl QuantizationParams {
    /// Derive the scale that maps the largest absolute value of `values` to 127.
    ///
    /// An all-zero input produces a scale of 1.0 (any scale represents zeros exactly).
    pub fn fit(values: impl IntoIterator<Item = f32>) -> Self {
        let max_abs = values.into_iter().map(f32::abs).fold(0.0f32, f32::max);
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        Self { scale }
    }

    /// Quantize one value to int8 with saturation.
    pub fn quantize(&self, value: f32) -> i8 {
        (value / self.scale).round().clamp(-127.0, 127.0) as i8
    }

    /// Dequantize one int8 value back to floating point.
    pub fn dequantize(&self, value: i8) -> f32 {
        value as f32 * self.scale
    }

    /// Quantize a slice.
    pub fn quantize_vec(&self, values: &[f32]) -> Vec<i8> {
        values.iter().map(|&v| self.quantize(v)).collect()
    }

    /// Dequantize a slice.
    pub fn dequantize_vec(&self, values: &[i8]) -> Vec<f32> {
        values.iter().map(|&v| self.dequantize(v)).collect()
    }
}

/// An embedding table quantized to int8 with a single per-table scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTable {
    rows: usize,
    dim: usize,
    params: QuantizationParams,
    data: Vec<i8>,
}

impl QuantizedTable {
    /// Quantize a floating-point embedding table.
    pub fn from_table(table: &EmbeddingTable) -> Self {
        let params = QuantizationParams::fit(table.iter_rows().flatten().copied());
        let data = table
            .iter_rows()
            .flat_map(|row| row.iter().map(|&v| params.quantize(v)))
            .collect();
        Self {
            rows: table.rows(),
            dim: table.dim(),
            params,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Quantization parameters used by this table.
    pub fn params(&self) -> QuantizationParams {
        self.params
    }

    /// Borrow one quantized row.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] if `index` is not a valid row.
    pub fn row(&self, index: usize) -> Result<&[i8], RecsysError> {
        if index >= self.rows {
            return Err(RecsysError::IndexOutOfRange {
                what: "quantized embedding row",
                index,
                len: self.rows,
            });
        }
        Ok(&self.data[index * self.dim..(index + 1) * self.dim])
    }

    /// Dequantize one row back to floating point.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] if `index` is not a valid row.
    pub fn dequantized_row(&self, index: usize) -> Result<Vec<f32>, RecsysError> {
        Ok(self.params.dequantize_vec(self.row(index)?))
    }

    /// Iterate over all quantized rows in index order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[i8]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Worst-case absolute quantization error of this table (half a quantization step).
    pub fn max_quantization_error(&self) -> f32 {
        self.params.scale * 0.5
    }

    /// Move the table's row storage into a shared [`crate::arena::RowArena`] without
    /// copying any element, returning the quantization parameters alongside it. The
    /// serving tier keeps the params to dequantize pooled sums.
    pub fn into_arena(self) -> (crate::arena::RowArena<i8>, QuantizationParams) {
        let arena = crate::arena::RowArena::from_vec(self.data, self.dim)
            .expect("QuantizedTable invariants guarantee a valid arena shape");
        (arena, self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_maps_extreme_to_127() {
        let params = QuantizationParams::fit([0.5, -2.0, 1.0]);
        assert_eq!(params.quantize(-2.0), -127);
        assert_eq!(params.quantize(2.0), 127);
        assert_eq!(params.quantize(0.0), 0);
    }

    #[test]
    fn all_zero_input_uses_unit_scale() {
        let params = QuantizationParams::fit([0.0, 0.0]);
        assert_eq!(params.scale, 1.0);
        assert_eq!(params.quantize(0.0), 0);
    }

    #[test]
    fn quantize_saturates_out_of_range() {
        let params = QuantizationParams { scale: 0.01 };
        assert_eq!(params.quantize(100.0), 127);
        assert_eq!(params.quantize(-100.0), -127);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let params = QuantizationParams::fit([1.0, -1.0]);
        for i in -100..=100 {
            let value = i as f32 / 100.0;
            let recovered = params.dequantize(params.quantize(value));
            assert!((value - recovered).abs() <= params.scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn quantized_table_preserves_shape_and_bounds_error() {
        let table = EmbeddingTable::new(50, 16, 11).unwrap();
        let quantized = QuantizedTable::from_table(&table);
        assert_eq!(quantized.rows(), 50);
        assert_eq!(quantized.dim(), 16);
        let max_err = quantized.max_quantization_error();
        for (index, row) in table.iter_rows().enumerate() {
            let recovered = quantized.dequantized_row(index).unwrap();
            for (&orig, rec) in row.iter().zip(recovered.iter()) {
                assert!((orig - rec).abs() <= max_err + 1e-6);
            }
        }
    }

    #[test]
    fn quantized_rows_are_int8_saturated() {
        let table = EmbeddingTable::new(10, 8, 5).unwrap();
        let quantized = QuantizedTable::from_table(&table);
        assert!(quantized
            .iter_rows()
            .flatten()
            .all(|&v| (-127..=127).contains(&(v as i32))));
    }

    #[test]
    fn row_index_validation() {
        let table = EmbeddingTable::new(3, 4, 1).unwrap();
        let quantized = QuantizedTable::from_table(&table);
        assert!(quantized.row(2).is_ok());
        assert!(quantized.row(3).is_err());
        assert!(quantized.dequantized_row(3).is_err());
    }

    #[test]
    fn vec_helpers_round_trip() {
        let params = QuantizationParams::fit([4.0]);
        let values = vec![0.5, -1.0, 4.0];
        let q = params.quantize_vec(&values);
        let d = params.dequantize_vec(&q);
        for (orig, rec) in values.iter().zip(d.iter()) {
            assert!((orig - rec).abs() <= params.scale * 0.5 + 1e-6);
        }
    }
}

//! Embedding tables: the data structure at the heart of both RecSys stages.
//!
//! An embedding table maps a categorical (sparse) feature value to a dense vector of
//! `dim` learned parameters. The operations the paper accelerates are:
//!
//! * **lookup** — fetch the row of one feature value;
//! * **pooling** — element-wise sum of the rows of a multi-hot feature (e.g. the list of
//!   movies a user watched);
//! * **update** — SGD gradient step on the looked-up rows during training.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{par_chunks, PoolingBatch, PoolingMode};
use crate::error::RecsysError;

/// An integer type usable as an embedding-row index. Implemented for `u32` (the compact
/// batch format) and `usize` (the single-request convenience format) so the zero-
/// allocation pooling kernels accept either without conversion copies.
pub trait RowIndex: Copy + Send + Sync {
    /// Widen to `usize` for addressing.
    fn as_index(self) -> usize;
}

impl RowIndex for u32 {
    #[inline]
    fn as_index(self) -> usize {
        self as usize
    }
}

impl RowIndex for usize {
    #[inline]
    fn as_index(self) -> usize {
        self
    }
}

/// A dense embedding table of `rows × dim` 32-bit floating-point parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    rows: usize,
    dim: usize,
    /// Row-major storage.
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// Create a table initialized with small random values drawn from
    /// `U(-1/sqrt(dim), 1/sqrt(dim))`, the conventional initialization for embedding
    /// layers.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `rows` or `dim` is zero.
    pub fn new(rows: usize, dim: usize, seed: u64) -> Result<Self, RecsysError> {
        if rows == 0 || dim == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: format!("embedding table must have nonzero shape, got {rows}x{dim}"),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = 1.0 / (dim as f32).sqrt();
        let data = (0..rows * dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Ok(Self { rows, dim, data })
    }

    /// Create a table with all parameters zero.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `rows` or `dim` is zero.
    pub fn zeros(rows: usize, dim: usize) -> Result<Self, RecsysError> {
        if rows == 0 || dim == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: format!("embedding table must have nonzero shape, got {rows}x{dim}"),
            });
        }
        Ok(Self {
            rows,
            dim,
            data: vec![0.0; rows * dim],
        })
    }

    /// Number of rows (distinct feature values).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the row of one feature value.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] if `index` is not a valid row.
    pub fn lookup(&self, index: usize) -> Result<&[f32], RecsysError> {
        if index >= self.rows {
            return Err(RecsysError::IndexOutOfRange {
                what: "embedding row",
                index,
                len: self.rows,
            });
        }
        Ok(&self.data[index * self.dim..(index + 1) * self.dim])
    }

    /// Mutably borrow the row of one feature value.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] if `index` is not a valid row.
    pub fn lookup_mut(&mut self, index: usize) -> Result<&mut [f32], RecsysError> {
        if index >= self.rows {
            return Err(RecsysError::IndexOutOfRange {
                what: "embedding row",
                index,
                len: self.rows,
            });
        }
        Ok(&mut self.data[index * self.dim..(index + 1) * self.dim])
    }

    /// Borrow the row of one feature value without an error path.
    ///
    /// This is the hot-path accessor: batch kernels validate all indices once up front
    /// and then gather rows with no per-lookup branching or allocation.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid row; use [`EmbeddingTable::lookup`] for the
    /// checked variant.
    #[inline]
    pub fn row(&self, index: usize) -> &[f32] {
        &self.data[index * self.dim..(index + 1) * self.dim]
    }

    /// Validate that every index addresses a valid row.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] naming the first offending index.
    #[inline]
    pub fn check_indices<I: RowIndex>(&self, indices: &[I]) -> Result<(), RecsysError> {
        for &index in indices {
            if index.as_index() >= self.rows {
                return Err(RecsysError::IndexOutOfRange {
                    what: "embedding row",
                    index: index.as_index(),
                    len: self.rows,
                });
            }
        }
        Ok(())
    }

    /// Accumulate the selected rows into `out` (which must be zeroed by the caller).
    /// Indices must already be validated.
    ///
    /// The per-row element-wise add dispatches to the widest SIMD kernel the host
    /// supports (see [`crate::simd`]); every path is bit-identical to the scalar loop
    /// because each output element sees exactly one add per row in index order.
    #[inline]
    fn accumulate_rows<I: RowIndex>(&self, indices: &[I], out: &mut [f32]) {
        for &index in indices {
            let row = &self.data[index.as_index() * self.dim..][..self.dim];
            crate::simd::add_assign_f32(out, row);
        }
    }

    /// Sum-pool the rows of a multi-hot feature. An empty index list pools to the zero
    /// vector (the behaviour of an absent feature).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] if any index is out of range.
    pub fn pool(&self, indices: &[usize]) -> Result<Vec<f32>, RecsysError> {
        let mut pooled = vec![0.0f32; self.dim];
        self.pool_into(indices, &mut pooled)?;
        Ok(pooled)
    }

    /// Sum-pool the rows of a multi-hot feature into a caller-provided buffer, with no
    /// allocation. Produces bit-identical results to [`EmbeddingTable::pool`] (same
    /// accumulation order).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if `out` is not exactly `dim` long or
    /// [`RecsysError::IndexOutOfRange`] if any index is out of range (in which case `out`
    /// is left zeroed).
    #[inline]
    pub fn pool_into<I: RowIndex>(
        &self,
        indices: &[I],
        out: &mut [f32],
    ) -> Result<(), RecsysError> {
        if out.len() != self.dim {
            return Err(RecsysError::ShapeMismatch {
                what: "pooling output",
                expected: self.dim,
                actual: out.len(),
            });
        }
        out.fill(0.0);
        self.check_indices(indices)?;
        self.accumulate_rows(indices, out);
        Ok(())
    }

    /// Mean-pool the rows of a multi-hot feature into a caller-provided buffer, with no
    /// allocation. Produces bit-identical results to [`EmbeddingTable::pool_mean`].
    ///
    /// # Errors
    ///
    /// As for [`EmbeddingTable::pool_into`].
    pub(crate) fn pool_mean_into<I: RowIndex>(
        &self,
        indices: &[I],
        out: &mut [f32],
    ) -> Result<(), RecsysError> {
        self.pool_into(indices, out)?;
        if !indices.is_empty() {
            let inv = 1.0 / indices.len() as f32;
            for value in out.iter_mut() {
                *value *= inv;
            }
        }
        Ok(())
    }

    /// Pool a whole batch of multi-hot requests into a caller-provided `batch.len() × dim`
    /// row-major buffer, with zero per-lookup allocation and the requests fanned out
    /// across CPU cores.
    ///
    /// Per request the result is bit-identical to [`EmbeddingTable::pool`] /
    /// [`EmbeddingTable::pool_mean`]: workers own contiguous request runs, so neither the
    /// accumulation order nor the output placement depends on the worker count.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if `out` is not exactly `batch.len() * dim`
    /// long, or [`RecsysError::IndexOutOfRange`] if any request references an invalid
    /// row. Validation happens before any pooling work.
    #[inline]
    pub fn gather_pool_batch(
        &self,
        batch: &PoolingBatch,
        mode: PoolingMode,
        out: &mut [f32],
    ) -> Result<(), RecsysError> {
        if out.len() != batch.len() * self.dim {
            return Err(RecsysError::ShapeMismatch {
                what: "batch pooling output",
                expected: batch.len() * self.dim,
                actual: out.len(),
            });
        }
        self.check_indices(batch.indices())?;
        par_chunks(out, self.dim, |first, run| {
            self.pool_run(batch, mode, first, run)
        });
        Ok(())
    }

    /// Pool the contiguous request run starting at `first_request` into `out`. Indices
    /// must already be validated. The mode dispatch is hoisted out of the request loop
    /// so each arm is a branch-free monomorphic loop.
    #[inline]
    fn pool_run(
        &self,
        batch: &PoolingBatch,
        mode: PoolingMode,
        first_request: usize,
        out: &mut [f32],
    ) {
        match mode {
            PoolingMode::Sum => {
                for (i, request_out) in out.chunks_mut(self.dim).enumerate() {
                    request_out.fill(0.0);
                    self.accumulate_rows(batch.request(first_request + i), request_out);
                }
            }
            PoolingMode::Mean => {
                for (i, request_out) in out.chunks_mut(self.dim).enumerate() {
                    let indices = batch.request(first_request + i);
                    request_out.fill(0.0);
                    self.accumulate_rows(indices, request_out);
                    if !indices.is_empty() {
                        let inv = 1.0 / indices.len() as f32;
                        for value in request_out.iter_mut() {
                            *value *= inv;
                        }
                    }
                }
            }
        }
    }

    /// Mean-pool the rows of a multi-hot feature (sum divided by the number of indices).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] if any index is out of range.
    pub fn pool_mean(&self, indices: &[usize]) -> Result<Vec<f32>, RecsysError> {
        let mut pooled = self.pool(indices)?;
        if !indices.is_empty() {
            let inv = 1.0 / indices.len() as f32;
            for value in &mut pooled {
                *value *= inv;
            }
        }
        Ok(pooled)
    }

    /// Apply one SGD step to a row: `row -= learning_rate * gradient`.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] if `index` is out of range or
    /// [`RecsysError::ShapeMismatch`] if the gradient has the wrong length.
    pub(crate) fn sgd_update(
        &mut self,
        index: usize,
        gradient: &[f32],
        learning_rate: f32,
    ) -> Result<(), RecsysError> {
        if gradient.len() != self.dim {
            return Err(RecsysError::ShapeMismatch {
                what: "embedding gradient",
                expected: self.dim,
                actual: gradient.len(),
            });
        }
        let row = self.lookup_mut(index)?;
        for (weight, grad) in row.iter_mut().zip(gradient.iter()) {
            *weight -= learning_rate * grad;
        }
        Ok(())
    }

    /// Iterate over all rows in index order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The full parameter count of the table.
    #[cfg(test)]
    pub(crate) fn parameter_count(&self) -> usize {
        self.rows * self.dim
    }

    /// Move the table's row storage into a shared [`crate::arena::RowArena`] without
    /// copying any element — the `Vec` itself becomes the arena's single allocation.
    /// This is how the serving tier loads paper-scale catalogues: one arena per dtype,
    /// shard views as offset ranges.
    pub fn into_arena(self) -> crate::arena::RowArena<f32> {
        crate::arena::RowArena::from_vec(self.data, self.dim)
            .expect("EmbeddingTable invariants guarantee a valid arena shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_has_bounded_values() {
        let table = EmbeddingTable::new(100, 16, 7).unwrap();
        let bound = 1.0 / 4.0;
        assert!(table.iter_rows().flatten().all(|&v| v.abs() <= bound));
        assert_eq!(table.rows(), 100);
        assert_eq!(table.dim(), 16);
        assert_eq!(table.parameter_count(), 1600);
    }

    #[test]
    fn same_seed_same_table() {
        let a = EmbeddingTable::new(10, 8, 3).unwrap();
        let b = EmbeddingTable::new(10, 8, 3).unwrap();
        assert_eq!(a, b);
        let c = EmbeddingTable::new(10, 8, 4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn zero_shape_rejected() {
        assert!(EmbeddingTable::new(0, 8, 0).is_err());
        assert!(EmbeddingTable::new(8, 0, 0).is_err());
        assert!(EmbeddingTable::zeros(0, 8).is_err());
    }

    #[test]
    fn lookup_returns_the_row() {
        let mut table = EmbeddingTable::zeros(4, 3).unwrap();
        table
            .lookup_mut(2)
            .unwrap()
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(table.lookup(2).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(table.lookup(0).unwrap(), &[0.0, 0.0, 0.0]);
        assert!(table.lookup(4).is_err());
    }

    #[test]
    fn pooling_sums_rows() {
        let mut table = EmbeddingTable::zeros(3, 2).unwrap();
        table.lookup_mut(0).unwrap().copy_from_slice(&[1.0, 1.0]);
        table.lookup_mut(1).unwrap().copy_from_slice(&[2.0, -1.0]);
        table.lookup_mut(2).unwrap().copy_from_slice(&[0.5, 0.5]);
        assert_eq!(table.pool(&[0, 1]).unwrap(), vec![3.0, 0.0]);
        assert_eq!(table.pool(&[0, 1, 2]).unwrap(), vec![3.5, 0.5]);
        assert_eq!(table.pool(&[]).unwrap(), vec![0.0, 0.0]);
        assert!(table.pool(&[7]).is_err());
    }

    #[test]
    fn mean_pooling_divides_by_count() {
        let mut table = EmbeddingTable::zeros(2, 2).unwrap();
        table.lookup_mut(0).unwrap().copy_from_slice(&[2.0, 4.0]);
        table.lookup_mut(1).unwrap().copy_from_slice(&[4.0, 0.0]);
        assert_eq!(table.pool_mean(&[0, 1]).unwrap(), vec![3.0, 2.0]);
        assert_eq!(table.pool_mean(&[]).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn repeated_indices_count_twice_in_pooling() {
        let mut table = EmbeddingTable::zeros(1, 2).unwrap();
        table.lookup_mut(0).unwrap().copy_from_slice(&[1.0, 2.0]);
        assert_eq!(table.pool(&[0, 0]).unwrap(), vec![2.0, 4.0]);
    }

    #[test]
    fn pool_into_matches_pool_bit_for_bit() {
        let table = EmbeddingTable::new(64, 16, 21).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = vec![0.0f32; 16];
        for _ in 0..50 {
            let count = rng.gen_range(0..20usize);
            let indices: Vec<usize> = (0..count).map(|_| rng.gen_range(0..64)).collect();
            let expected = table.pool(&indices).unwrap();
            table.pool_into(&indices, &mut out).unwrap();
            assert_eq!(out, expected);
            let expected_mean = table.pool_mean(&indices).unwrap();
            table.pool_mean_into(&indices, &mut out).unwrap();
            assert_eq!(out, expected_mean);
        }
    }

    #[test]
    fn pool_into_validates_shapes_and_indices() {
        let table = EmbeddingTable::new(4, 3, 0).unwrap();
        let mut short = vec![0.0f32; 2];
        assert!(table.pool_into(&[0usize], &mut short).is_err());
        let mut out = vec![0.0f32; 3];
        assert!(table.pool_into(&[9u32], &mut out).is_err());
        assert!(table.pool_into(&[3u32], &mut out).is_ok());
    }

    #[test]
    fn row_matches_lookup() {
        let table = EmbeddingTable::new(8, 4, 2).unwrap();
        for i in 0..8 {
            assert_eq!(table.row(i), table.lookup(i).unwrap());
        }
    }

    #[test]
    fn gather_pool_batch_matches_per_request_pooling() {
        let table = EmbeddingTable::new(128, 32, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let requests: Vec<Vec<u32>> = (0..97)
            .map(|_| {
                let count = rng.gen_range(0..24usize);
                (0..count).map(|_| rng.gen_range(0..128u32)).collect()
            })
            .collect();
        let batch = PoolingBatch::from_requests(&requests);
        let mut out = vec![0.0f32; batch.len() * 32];

        table
            .gather_pool_batch(&batch, PoolingMode::Sum, &mut out)
            .unwrap();
        for (request, chunk) in requests.iter().zip(out.chunks(32)) {
            let indices: Vec<usize> = request.iter().map(|&i| i as usize).collect();
            assert_eq!(chunk, table.pool(&indices).unwrap().as_slice());
        }

        table
            .gather_pool_batch(&batch, PoolingMode::Mean, &mut out)
            .unwrap();
        for (request, chunk) in requests.iter().zip(out.chunks(32)) {
            let indices: Vec<usize> = request.iter().map(|&i| i as usize).collect();
            assert_eq!(chunk, table.pool_mean(&indices).unwrap().as_slice());
        }
    }

    #[test]
    fn gather_pool_batch_validates_before_pooling() {
        let table = EmbeddingTable::new(10, 4, 3).unwrap();
        let batch = PoolingBatch::from_requests(&[vec![1u32, 2], vec![99]]);
        let mut out = vec![0.0f32; 2 * 4];
        assert!(matches!(
            table.gather_pool_batch(&batch, PoolingMode::Sum, &mut out),
            Err(RecsysError::IndexOutOfRange { .. })
        ));
        let good = PoolingBatch::from_requests(&[vec![1u32, 2], vec![9]]);
        let mut short = vec![0.0f32; 4];
        assert!(matches!(
            table.gather_pool_batch(&good, PoolingMode::Sum, &mut short),
            Err(RecsysError::ShapeMismatch { .. })
        ));
        assert!(table
            .gather_pool_batch(&good, PoolingMode::Sum, &mut out)
            .is_ok());
    }

    #[test]
    fn sgd_update_moves_against_gradient() {
        let mut table = EmbeddingTable::zeros(2, 2).unwrap();
        table.sgd_update(1, &[1.0, -2.0], 0.1).unwrap();
        assert_eq!(table.lookup(1).unwrap(), &[-0.1, 0.2]);
        assert!(table.sgd_update(1, &[1.0], 0.1).is_err());
        assert!(table.sgd_update(9, &[1.0, 1.0], 0.1).is_err());
    }
}

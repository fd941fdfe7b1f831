//! Shared row-major storage for paper-scale embedding tables.
//!
//! Serving a sharded catalogue used to copy every row into its shard's private
//! `Vec<T>`, so an 8-shard million-row table cost roughly twice its own size while
//! loading. A [`RowArena`] is the fix: **one contiguous allocation per dtype**, wrapped
//! in an [`Arc`] so every shard view, cluster storage, and engine handle shares the same
//! buffer and a shard is just an offset range into it.
//!
//! Conversion from the training-side tables is zero-copy: [`EmbeddingTable::into_arena`]
//! and [`QuantizedTable::into_arena`] move the table's `Vec` into the arena without
//! touching the elements. Cloning an arena clones the `Arc`, never the rows;
//! [`RowArena::shares_storage`] lets memory-accounting tests assert that two handles
//! really alias one allocation.
//!
//! [`EmbeddingTable::into_arena`]: crate::embedding::EmbeddingTable::into_arena
//! [`QuantizedTable::into_arena`]: crate::quantization::QuantizedTable::into_arena

use std::sync::Arc;

use crate::embedding::RowIndex;
use crate::error::RecsysError;

/// A reference-counted contiguous `rows × dim` row-major table. Cheap to clone (the
/// buffer is shared, not copied); rows are immutable once the arena is built.
#[derive(Debug, Clone)]
pub struct RowArena<T> {
    rows: usize,
    dim: usize,
    data: Arc<Vec<T>>,
}

impl<T: Copy> RowArena<T> {
    /// Take ownership of a row-major buffer without copying its elements.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `dim` is zero or `data.len()` is not a
    /// multiple of `dim`.
    pub(crate) fn from_vec(data: Vec<T>, dim: usize) -> Result<Self, RecsysError> {
        if dim == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: "row arena dim must be nonzero".to_string(),
            });
        }
        if !data.len().is_multiple_of(dim) {
            return Err(RecsysError::InvalidConfig {
                reason: format!(
                    "row arena buffer of {} elements is not a whole number of dim-{} rows",
                    data.len(),
                    dim
                ),
            });
        }
        let rows = data.len() / dim;
        Ok(Self {
            rows,
            dim,
            data: Arc::new(data),
        })
    }

    /// Copy a sequence of equal-length rows into one contiguous allocation.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `dim` is zero or
    /// [`RecsysError::ShapeMismatch`] if any row is not `dim` long.
    pub fn from_rows<'a, I>(rows: I, dim: usize) -> Result<Self, RecsysError>
    where
        T: 'a,
        I: IntoIterator<Item = &'a [T]>,
    {
        if dim == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: "row arena dim must be nonzero".to_string(),
            });
        }
        let mut data = Vec::new();
        for row in rows {
            if row.len() != dim {
                return Err(RecsysError::ShapeMismatch {
                    what: "row arena row",
                    expected: dim,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Self::from_vec(data, dim)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow one row. This is the hot-path accessor: callers validate indices once up
    /// front and then address rows with no per-lookup branching.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid row.
    #[inline]
    pub fn row(&self, index: usize) -> &[T] {
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
                    what: "row arena row",
                    index: index.as_index(),
                    len: self.rows,
                });
            }
        }
        Ok(())
    }

    /// Iterate over all rows in index order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// True when `self` and `other` alias the same underlying allocation — the invariant
    /// memory-accounting tests pin: shard views of one table must share storage, not
    /// copy rows.
    #[inline]
    pub fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Address of the shared buffer, for allocation-identity assertions.
    #[inline]
    pub fn storage_ptr(&self) -> *const T {
        self.data.as_ptr()
    }

    /// Bytes of row data resident in the shared allocation.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Number of live handles (shard views, engine handles, …) sharing this allocation.
    #[inline]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::EmbeddingTable;
    use crate::quantization::QuantizedTable;

    #[test]
    fn from_vec_validates_shape() {
        assert!(RowArena::<f32>::from_vec(vec![0.0; 8], 0).is_err());
        assert!(RowArena::<f32>::from_vec(vec![0.0; 7], 4).is_err());
        let arena = RowArena::from_vec(vec![0.0f32; 8], 4).unwrap();
        assert_eq!(arena.rows(), 2);
        assert_eq!(arena.dim(), 4);
    }

    #[test]
    fn from_rows_copies_and_validates() {
        let rows: Vec<Vec<i8>> = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let arena = RowArena::from_rows(rows.iter().map(|r| r.as_slice()), 3).unwrap();
        assert_eq!(arena.row(0), &[1, 2, 3]);
        assert_eq!(arena.row(1), &[4, 5, 6]);
        let ragged: Vec<Vec<i8>> = vec![vec![1, 2, 3], vec![4]];
        assert!(RowArena::from_rows(ragged.iter().map(|r| r.as_slice()), 3).is_err());
    }

    #[test]
    fn clones_share_one_allocation() {
        let arena = RowArena::from_vec((0..64).map(|i| i as f32).collect(), 8).unwrap();
        let views: Vec<RowArena<f32>> = (0..8).map(|_| arena.clone()).collect();
        for view in &views {
            assert!(view.shares_storage(&arena));
            assert_eq!(view.storage_ptr(), arena.storage_ptr());
        }
        assert_eq!(arena.handle_count(), 9);
        assert_eq!(arena.resident_bytes(), 64 * std::mem::size_of::<f32>());
    }

    #[test]
    fn embedding_table_into_arena_is_zero_copy() {
        let table = EmbeddingTable::new(16, 4, 3).unwrap();
        let expected: Vec<Vec<f32>> = table.iter_rows().map(|r| r.to_vec()).collect();
        let data_ptr = table.lookup(0).unwrap().as_ptr();
        let arena = table.into_arena();
        // The Vec moved into the arena: same allocation, no element copies.
        assert_eq!(arena.storage_ptr(), data_ptr);
        assert_eq!(arena.rows(), 16);
        assert_eq!(arena.dim(), 4);
        for (i, row) in expected.iter().enumerate() {
            assert_eq!(arena.row(i), row.as_slice());
        }
    }

    #[test]
    fn quantized_table_into_arena_is_zero_copy() {
        let table = EmbeddingTable::new(16, 4, 3).unwrap();
        let quantized = QuantizedTable::from_table(&table);
        let expected: Vec<Vec<i8>> = quantized.iter_rows().map(|r| r.to_vec()).collect();
        let expected_params = quantized.params();
        let data_ptr = quantized.row(0).unwrap().as_ptr();
        let (arena, params) = quantized.into_arena();
        assert_eq!(arena.storage_ptr(), data_ptr);
        assert_eq!(params.scale, expected_params.scale);
        for (i, row) in expected.iter().enumerate() {
            assert_eq!(arena.row(i), row.as_slice());
        }
    }

    #[test]
    fn check_indices_names_first_offender() {
        let arena = RowArena::from_vec(vec![0i8; 12], 4).unwrap();
        assert!(arena.check_indices(&[0u32, 1, 2]).is_ok());
        assert!(matches!(
            arena.check_indices(&[0u32, 3]),
            Err(RecsysError::IndexOutOfRange { index: 3, .. })
        ));
    }
}

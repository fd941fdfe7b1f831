//! Functional + costed model of one configurable memory array (CMA).
//!
//! A CMA is a `rows × cols` FeFET array (256×256 at the paper's design point) that can be
//! operated in three modes (Fig. 3(c)):
//!
//! * **RAM mode** — read or write one row through the wordline/bitline drivers and RAM
//!   sense amplifiers. Rows store either packed int8 embeddings (32 dimensions × 8 bits)
//!   or raw bit signatures (for LSH).
//! * **TCAM mode** — search every valid row against a query in parallel; rows whose
//!   Hamming distance to the query does not exceed the programmed threshold report a
//!   match (fixed-radius near-neighbour search).
//! * **GPCiM mode** — in-memory addition of rows, used for embedding pooling; the
//!   accumulator next to the RAM sense amplifiers holds the running sum.
//!
//! Every operation returns an [`Outcome`] carrying both the functional result and the
//! energy/latency charged from the array-level figures of merit.

use serde::{Deserialize, Serialize};

use imars_device::characterization::ArrayFom;

use crate::accumulator::GpcimAccumulator;
use crate::cost::{Cost, CostComponent, Outcome};
use crate::error::FabricError;
use crate::simd::{self, BitRows, FlatQueries, UNWRITTEN};

/// Pack a slice of int8 embedding elements into 64-bit words (little-endian bytes).
pub fn pack_embedding(elements: &[i8]) -> Vec<u64> {
    let mut words = vec![0u64; elements.len().div_ceil(8)];
    for (i, &value) in elements.iter().enumerate() {
        let byte = value as u8 as u64;
        words[i / 8] |= byte << ((i % 8) * 8);
    }
    words
}

/// Unpack `dim` int8 embedding elements from 64-bit words produced by [`pack_embedding`].
pub fn unpack_embedding(words: &[u64], dim: usize) -> Vec<i8> {
    let mut out = vec![0i8; dim];
    unpack_embedding_into(words, &mut out);
    out
}

/// Unpack int8 embedding elements into a caller-provided buffer (one element per output
/// slot), with no allocation. Words beyond the input read as zero.
pub fn unpack_embedding_into(words: &[u64], out: &mut [i8]) {
    for (i, slot) in out.iter_mut().enumerate() {
        let word = words.get(i / 8).copied().unwrap_or(0);
        *slot = ((word >> ((i % 8) * 8)) & 0xFF) as u8 as i8;
    }
}

/// Lane-wise saturating int8 addition of two packed words: each of the 8 bytes is treated
/// as an `i8` and added with saturation at ±(2⁷−1)/−2⁷, exactly like the GPCiM
/// accumulator next to the RAM sense amplifiers. Branch-free SWAR, so the software
/// baseline and the functional simulator share one quantized pooling kernel.
#[inline]
pub fn saturating_add_packed_i8(a: u64, b: u64) -> u64 {
    const SIGN: u64 = 0x8080_8080_8080_8080;
    const LOW: u64 = !SIGN;
    // Per-lane wrapping add: sum the low 7 bits, then restore the sign bits with xor so
    // no carry crosses a lane boundary.
    let wrapped = ((a & LOW) + (b & LOW)) ^ ((a ^ b) & SIGN);
    // Signed overflow per lane: operands share a sign that differs from the result's.
    let overflow = !(a ^ b) & (a ^ wrapped) & SIGN;
    // Spread each lane's overflow bit to the full byte, and build the saturated value
    // from the operand sign: negative lanes clamp to 0x80 (−128), positive to 0x7F (127).
    let mask = (overflow >> 7).wrapping_mul(0xFF);
    let saturated = LOW ^ ((a & SIGN) >> 7).wrapping_mul(0xFF);
    (wrapped & !mask) | (saturated & mask)
}

/// A dense int8 embedding table stored in the packed row format of the CMA (8 elements
/// per 64-bit word, little-endian bytes) — the software twin of a bank of RAM-mode rows.
///
/// Pooling over a `PackedTable` runs the same [`saturating_add_packed_i8`] kernel the
/// functional CMA simulator uses, so the two produce bit-identical int8 sums; it serves
/// as the int8 software baseline in the benchmark suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedTable {
    rows: usize,
    dim: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl PackedTable {
    /// Pack a sequence of int8 rows, all of length `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if `dim` is zero or any row is not
    /// `dim` long. Rejecting dim 0 up front keeps `words_per_row = dim.div_ceil(8)`
    /// phantom-word free: the old `.max(1)` floor gave zero-dimensional rows one packed
    /// word that pooling then accumulated.
    pub fn from_rows<'a, I>(rows: I, dim: usize) -> Result<Self, FabricError>
    where
        I: IntoIterator<Item = &'a [i8]>,
    {
        if dim == 0 {
            return Err(FabricError::DimensionMismatch {
                expected: 1,
                actual: 0,
                what: "packed table dimension",
            });
        }
        let words_per_row = dim.div_ceil(8);
        let mut data = Vec::new();
        let mut count = 0usize;
        for row in rows {
            if row.len() != dim {
                return Err(FabricError::DimensionMismatch {
                    expected: dim,
                    actual: row.len(),
                    what: "packed table row",
                });
            }
            let start = data.len();
            data.resize(start + words_per_row, 0);
            for (i, &value) in row.iter().enumerate() {
                data[start + i / 8] |= (value as u8 as u64) << ((i % 8) * 8);
            }
            count += 1;
        }
        Ok(Self {
            rows: count,
            dim,
            words_per_row,
            data,
        })
    }

    /// Number of packed rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// 64-bit words per packed row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of one row. Panics if `index` is out of range.
    #[inline]
    pub fn row_words(&self, index: usize) -> &[u64] {
        &self.data[index * self.words_per_row..(index + 1) * self.words_per_row]
    }

    /// Pool the selected rows with lane-wise saturating int8 addition, writing the
    /// unpacked sum into `out` and using `acc` as the packed accumulator — no allocation.
    /// An empty selection pools to the zero vector.
    ///
    /// The accumulation order is the index order, matching the serialized in-CMA GPCiM
    /// additions, so the result is bit-identical to [`CmaArray::pool_rows`] over the same
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if `acc` is not `words_per_row` long or
    /// `out` is not `dim` long, and [`FabricError::RowOutOfRange`] for a bad row index.
    pub fn pool_into(
        &self,
        indices: &[u32],
        acc: &mut [u64],
        out: &mut [i8],
    ) -> Result<(), FabricError> {
        if acc.len() != self.words_per_row {
            return Err(FabricError::DimensionMismatch {
                expected: self.words_per_row,
                actual: acc.len(),
                what: "packed accumulator words",
            });
        }
        if out.len() != self.dim {
            return Err(FabricError::DimensionMismatch {
                expected: self.dim,
                actual: out.len(),
                what: "pooling output elements",
            });
        }
        for &index in indices {
            if index as usize >= self.rows {
                return Err(FabricError::RowOutOfRange {
                    row: index as usize,
                    rows: self.rows,
                });
            }
        }
        acc.fill(0);
        for &index in indices {
            simd::saturating_accumulate_packed(acc, self.row_words(index as usize));
        }
        unpack_embedding_into(acc, out);
        Ok(())
    }

    /// Convenience allocating wrapper around [`PackedTable::pool_into`].
    ///
    /// # Errors
    ///
    /// As for [`PackedTable::pool_into`].
    pub fn pool(&self, indices: &[u32]) -> Result<Vec<i8>, FabricError> {
        let mut acc = vec![0u64; self.words_per_row];
        let mut out = vec![0i8; self.dim];
        self.pool_into(indices, &mut acc, &mut out)?;
        Ok(out)
    }
}

/// Number of 64-bit words needed to hold `bits` bits.
pub fn words_for_bits(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Hamming distance between two equal-length bit vectors stored as 64-bit words — the
/// scalar reference of the TCAM scan kernel in [`crate::simd`].
#[inline]
pub fn hamming_distance(a: &[u64], b: &[u64]) -> u32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum()
}

/// A single configurable memory array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmaArray {
    rows: usize,
    cols: usize,
    fom: ArrayFom,
    /// The cells, as one row-major bit matrix: row `r` is the `words_for_bits(cols)`
    /// words starting at `r * words_for_bits(cols)`, zero beyond what was written to it.
    ///
    /// Empty until the first write, then grown to end at the highest row ever written —
    /// so the extent is a function of the set of written rows, not of the write order,
    /// and a dense fill grows by amortized doubling. The cost of the flat layout is the
    /// sparse case: one write to row `r` of an otherwise empty array holds `r + 1` rows
    /// (8 KB for the last row of a 256×256 array).
    words: Vec<u64>,
    /// Per row of the grown extent, how many leading bits are valid, or [`UNWRITTEN`].
    valid_bits: Vec<usize>,
    /// Number of written rows (the entries of `valid_bits` that are not [`UNWRITTEN`]).
    occupied: usize,
}

impl CmaArray {
    /// Create an empty array with the given geometry and figures of merit. Allocates
    /// nothing; storage appears with the first write.
    pub fn new(rows: usize, cols: usize, fom: ArrayFom) -> Self {
        Self {
            rows,
            cols,
            fom,
            words: Vec::new(),
            valid_bits: Vec::new(),
            occupied: 0,
        }
    }

    /// The one reader of the row format: the full-width words of a written row and its
    /// valid-bit count, or `None` for a row that was never written.
    #[inline]
    fn row_view(&self, row: usize) -> Option<(&[u64], usize)> {
        match self.valid_bits.get(row) {
            Some(&valid_bits) if valid_bits != UNWRITTEN => {
                let stride = words_for_bits(self.cols);
                Some((&self.words[row * stride..][..stride], valid_bits))
            }
            _ => None,
        }
    }

    /// The cells as the TCAM scan kernel reads them — the only way any search, count or
    /// distance reaches the words.
    #[inline]
    fn bit_rows(&self) -> BitRows<'_> {
        BitRows {
            words: &self.words,
            stride: words_for_bits(self.cols),
            valid_bits: &self.valid_bits,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows that currently hold data.
    pub fn occupied_rows(&self) -> usize {
        self.occupied
    }

    /// The figures of merit this array charges its operations with.
    pub fn fom(&self) -> &ArrayFom {
        &self.fom
    }

    fn check_row(&self, row: usize) -> Result<(), FabricError> {
        if row >= self.rows {
            return Err(FabricError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        Ok(())
    }

    /// RAM-mode write of raw bits into a row. Fewer words than the row holds are
    /// zero-extended to the row's width; every supplied word is stored, also past
    /// `valid_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::RowOutOfRange`] if `row` is outside the array and
    /// [`FabricError::DimensionMismatch`] if `valid_bits` exceeds the columns, if fewer
    /// words are supplied than `valid_bits` needs, or more than the row holds.
    pub fn write_row_bits(
        &mut self,
        row: usize,
        bits: &[u64],
        valid_bits: usize,
    ) -> Result<Outcome<()>, FabricError> {
        self.check_row(row)?;
        if valid_bits > self.cols {
            return Err(FabricError::DimensionMismatch {
                expected: self.cols,
                actual: valid_bits,
                what: "row bits",
            });
        }
        if bits.len() < words_for_bits(valid_bits) {
            return Err(FabricError::DimensionMismatch {
                expected: words_for_bits(valid_bits),
                actual: bits.len(),
                what: "bit words",
            });
        }
        let stride = words_for_bits(self.cols);
        if bits.len() > stride {
            return Err(FabricError::DimensionMismatch {
                expected: stride,
                actual: bits.len(),
                what: "bit words",
            });
        }
        if row >= self.valid_bits.len() {
            self.valid_bits.resize(row + 1, UNWRITTEN);
            self.words.resize((row + 1) * stride, 0);
        }
        let cells = &mut self.words[row * stride..][..stride];
        cells[..bits.len()].copy_from_slice(bits);
        cells[bits.len()..].fill(0);
        if self.valid_bits[row] == UNWRITTEN {
            self.occupied += 1;
        }
        self.valid_bits[row] = valid_bits;
        Ok(Outcome::single(
            (),
            CostComponent::CmaWrite,
            Cost::from_fom(self.fom.cma.write),
        ))
    }

    /// RAM-mode write of a packed int8 embedding into a row.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if the embedding does not fit in the row
    /// and [`FabricError::RowOutOfRange`] if the row is outside the array.
    pub fn write_embedding(
        &mut self,
        row: usize,
        embedding: &[i8],
    ) -> Result<Outcome<()>, FabricError> {
        let bits_needed = embedding.len() * 8;
        if bits_needed > self.cols {
            return Err(FabricError::DimensionMismatch {
                expected: self.cols / 8,
                actual: embedding.len(),
                what: "embedding elements",
            });
        }
        let packed = pack_embedding(embedding);
        self.write_row_bits(row, &packed, bits_needed)
    }

    /// RAM-mode read of the raw bits of a row: always `words_for_bits(cols)` words.
    /// Unwritten rows read as all zeros.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::RowOutOfRange`] if the row is outside the array.
    pub fn read_row_bits(&self, row: usize) -> Result<Outcome<Vec<u64>>, FabricError> {
        self.check_row(row)?;
        let bits = match self.row_view(row) {
            Some((words, _)) => words.to_vec(),
            None => vec![0u64; words_for_bits(self.cols)],
        };
        Ok(Outcome::single(
            bits,
            CostComponent::CmaRead,
            Cost::from_fom(self.fom.cma.read),
        ))
    }

    /// RAM-mode read of an int8 embedding of `dim` elements from a row.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::RowOutOfRange`] if the row is outside the array and
    /// [`FabricError::DimensionMismatch`] if `dim` elements do not fit in a row.
    pub fn read_embedding(&self, row: usize, dim: usize) -> Result<Outcome<Vec<i8>>, FabricError> {
        if dim * 8 > self.cols {
            return Err(FabricError::DimensionMismatch {
                expected: self.cols / 8,
                actual: dim,
                what: "embedding elements",
            });
        }
        Ok(self
            .read_row_bits(row)?
            .map(|bits| unpack_embedding(&bits, dim)))
    }

    /// GPCiM-mode pooling: element-wise saturating int8 sum of the selected rows.
    ///
    /// The hardware reads the first row into the accumulator and then performs one
    /// in-memory addition per remaining row; the cost model charges exactly that
    /// (`1 read + (n-1) additions`), matching the worst-case accounting of Sec. IV-C1
    /// where all lookups of one embedding table land in the same array and serialize.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::EmptySelection`] when `rows` is empty,
    /// [`FabricError::RowOutOfRange`] if any row is outside the array, or
    /// [`FabricError::DimensionMismatch`] if `dim` elements do not fit in a row.
    pub fn pool_rows(&self, rows: &[usize], dim: usize) -> Result<Outcome<Vec<i8>>, FabricError> {
        self.check_pool_selection(rows, dim, "pool_rows")?;
        // Shared quantized pooling kernel: lane-wise saturating adds on the packed words
        // (identical per-element semantics to unpacking and saturating_add-ing one row at
        // a time, since no carry crosses a lane). Unwritten rows contribute zero.
        let mut acc = vec![0u64; words_for_bits(dim * 8)];
        for &row in rows {
            if let Some((words, _)) = self.row_view(row) {
                simd::saturating_accumulate_packed(&mut acc, words);
            }
        }
        let mut sum = vec![0i8; dim];
        unpack_embedding_into(&acc, &mut sum);
        Ok(self.pool_outcome(sum, rows.len(), Cost::from_fom(self.fom.cma.add)))
    }

    /// GPCiM-mode pooling with an explicit accumulator width: like
    /// [`CmaArray::pool_rows`] but the running sums live in an accumulator of the given
    /// precision, clamping per addition at that precision's range, and the in-memory
    /// additions are charged the width-scaled figure of merit (the GPCiM add is
    /// bit-serial over the accumulator).
    ///
    /// With [`GpcimAccumulator::INT8`] the returned sums equal [`CmaArray::pool_rows`]
    /// widened to `i32`, at identical cost. With [`GpcimAccumulator::INT16`] pooling
    /// chains up to 256 rows are exact, at 2× the per-addition energy and latency.
    ///
    /// # Errors
    ///
    /// As for [`CmaArray::pool_rows`].
    pub fn pool_rows_with(
        &self,
        rows: &[usize],
        dim: usize,
        accumulator: GpcimAccumulator,
    ) -> Result<Outcome<Vec<i32>>, FabricError> {
        self.check_pool_selection(rows, dim, "pool_rows_with")?;
        let mut acc = vec![0i32; dim];
        let mut scratch = vec![0i8; dim];
        for &row in rows {
            // Unwritten rows contribute zero, as in pool_rows.
            if let Some((words, _)) = self.row_view(row) {
                unpack_embedding_into(words, &mut scratch);
                accumulator.accumulate(&mut acc, &scratch);
            }
        }
        let add = Cost::from_fom(accumulator.add_fom(self.fom.cma.add));
        Ok(self.pool_outcome(acc, rows.len(), add))
    }

    /// Shared validation of a pooling selection: non-empty, the embedding fits one row,
    /// every index is inside the array.
    fn check_pool_selection(
        &self,
        rows: &[usize],
        dim: usize,
        operation: &'static str,
    ) -> Result<(), FabricError> {
        if rows.is_empty() {
            return Err(FabricError::EmptySelection { operation });
        }
        if dim * 8 > self.cols {
            return Err(FabricError::DimensionMismatch {
                expected: self.cols / 8,
                actual: dim,
                what: "embedding elements",
            });
        }
        for &row in rows {
            self.check_row(row)?;
        }
        Ok(())
    }

    /// Shared cost assembly of a pooling result: `1 read + (n−1)` in-memory additions of
    /// the given per-addition cost, attributed to the read/add components.
    fn pool_outcome<T>(&self, value: T, pooled_rows: usize, add: Cost) -> Outcome<T> {
        let read = Cost::from_fom(self.fom.cma.read);
        let mut outcome = Outcome::single(value, CostComponent::CmaRead, read);
        outcome.cost = read.serial(add.repeat(pooled_rows - 1));
        outcome
            .breakdown
            .charge(CostComponent::CmaAdd, add.repeat(pooled_rows - 1));
        outcome
    }

    /// The one owner of the TCAM search contract: every query width is validated before
    /// any work, and `queries` searches are charged one search figure of merit each,
    /// composed serially — whether `scan` forms match lists or only counts them.
    fn searched<T>(
        &self,
        query_words: impl IntoIterator<Item = usize>,
        queries: usize,
        scan: impl FnOnce() -> T,
    ) -> Result<Outcome<T>, FabricError> {
        let stride = words_for_bits(self.cols);
        if let Some(actual) = query_words.into_iter().find(|&words| words > stride) {
            return Err(FabricError::DimensionMismatch {
                expected: stride,
                actual,
                what: "query words",
            });
        }
        Ok(Outcome::single(
            scan(),
            CostComponent::CmaSearch,
            Cost::from_fom(self.fom.cma.search).repeat(queries),
        ))
    }

    /// TCAM-mode threshold search: return the indices of all valid rows whose Hamming
    /// distance to `query` (over the row's valid bits) is at most `threshold`.
    ///
    /// The whole-array search costs one search figure of merit regardless of the number
    /// of stored rows — that O(1) behaviour is the core argument for using a CAM for the
    /// nearest-neighbour search of the filtering stage.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if the query is wider than the row.
    pub fn search(
        &self,
        query: &[u64],
        threshold: u32,
    ) -> Result<Outcome<Vec<usize>>, FabricError> {
        self.searched([query.len()], 1, || {
            let queries = FlatQueries {
                bits: query,
                words: query.len(),
                count: 1,
            };
            let mut matches = Vec::new();
            let out = std::slice::from_mut(&mut matches);
            simd::scan_matches(&self.bit_rows(), &queries, threshold, out);
            matches
        })
    }

    /// Batched TCAM-mode threshold search: one [`CmaArray::search`] per query, with the
    /// per-query results in query order.
    ///
    /// One physical array holds a single match-line per row, so the searches serialize on
    /// the array: the batch is charged `queries.len()` search figures of merit composed
    /// serially. (Spreading a batch across arrays, which would parallelize the latency, is
    /// the interconnect layer's job, not the array's.) The functional result of each query
    /// is identical to a one-at-a-time [`CmaArray::search`].
    ///
    /// The software twin is query-blocked: the array is streamed once per run of
    /// equal-width queries (once per batch, when all queries are as wide as each other),
    /// each tile of rows matched against every query while it is in cache.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if any query is wider than the row;
    /// validation happens before any search work.
    pub fn search_batch(
        &self,
        queries: &[Vec<u64>],
        threshold: u32,
    ) -> Result<Outcome<Vec<Vec<usize>>>, FabricError> {
        self.searched(queries.iter().map(Vec::len), queries.len(), || {
            let mut matches = vec![Vec::new(); queries.len()];
            let mut flat = Vec::new();
            let mut done = 0;
            for run in queries.chunk_by(|a, b| a.len() == b.len()) {
                flat.clear();
                flat.extend(run.iter().flatten());
                let run_queries = FlatQueries {
                    bits: &flat,
                    words: run[0].len(),
                    count: run.len(),
                };
                let out = &mut matches[done..done + run.len()];
                simd::scan_matches(&self.bit_rows(), &run_queries, threshold, out);
                done += run.len();
            }
            matches
        })
    }

    /// Capped, count-only [`CmaArray::search_batch`] over flat queries: `counts[q]`
    /// becomes `min(matches, cap)`, where `matches` is the number of valid rows within
    /// `threshold` of the query held in the `query_words` words starting at
    /// `q * query_words` of `queries` — the length of the list `search_batch` would return
    /// for it, without forming the list. For a caller that keeps both buffers the call
    /// allocates nothing.
    ///
    /// The cap is where the host twin may stop: a query is not scanned past the tile of
    /// rows in which its count reaches `cap`, and the scan ends once every query has
    /// reached it. `usize::MAX` counts every match; a query with fewer matches than its
    /// cap is scanned to the last row either way.
    ///
    /// The charge is [`CmaArray::search_batch`]'s, for the reason given there: one
    /// serialized search figure of merit per query, whatever the cap — the modelled array
    /// search does not depend on how many rows match.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::DimensionMismatch`] if `query_words` is wider than the row
    /// or `queries` does not hold exactly `counts.len()` queries of that width;
    /// validation happens before any search work, and `counts` is left untouched.
    pub fn count_batch(
        &self,
        queries: &[u64],
        query_words: usize,
        threshold: u32,
        cap: usize,
        counts: &mut [usize],
    ) -> Result<Outcome<()>, FabricError> {
        let expected = counts.len().saturating_mul(query_words);
        if queries.len() != expected {
            return Err(FabricError::DimensionMismatch {
                expected,
                actual: queries.len(),
                what: "flat query words",
            });
        }
        self.searched([query_words], counts.len(), || {
            let queries = FlatQueries {
                bits: queries,
                words: query_words,
                count: counts.len(),
            };
            counts.fill(0);
            simd::scan_counts(&self.bit_rows(), &queries, threshold, cap, counts);
        })
    }

    /// Hamming distances of every valid row to the query (software reference used by the
    /// accuracy experiments and by tests to cross-check the TCAM threshold semantics).
    pub fn distances(&self, query: &[u64]) -> Vec<(usize, u32)> {
        simd::scan_distances(&self.bit_rows(), query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imars_device::characterization::ArrayFom;

    fn array() -> CmaArray {
        CmaArray::new(256, 256, ArrayFom::paper_reference())
    }

    #[test]
    fn pack_unpack_round_trip() {
        let values: Vec<i8> = (-16..16).collect();
        let packed = pack_embedding(&values);
        assert_eq!(unpack_embedding(&packed, values.len()), values);
    }

    #[test]
    fn pack_handles_negative_values() {
        let values = vec![-128i8, 127, -1, 0];
        let packed = pack_embedding(&values);
        assert_eq!(unpack_embedding(&packed, 4), values);
    }

    #[test]
    fn swar_saturating_add_matches_scalar_for_all_pairs() {
        // Exhaustive over every (i8, i8) pair, packed 8 pairs per word.
        let mut pairs: Vec<(i8, i8)> = Vec::with_capacity(1 << 16);
        for a in i8::MIN..=i8::MAX {
            for b in i8::MIN..=i8::MAX {
                pairs.push((a, b));
            }
        }
        for chunk in pairs.chunks(8) {
            let a: Vec<i8> = chunk.iter().map(|p| p.0).collect();
            let b: Vec<i8> = chunk.iter().map(|p| p.1).collect();
            let packed = saturating_add_packed_i8(pack_embedding(&a)[0], pack_embedding(&b)[0]);
            let result = unpack_embedding(&[packed], chunk.len());
            let expected: Vec<i8> = chunk.iter().map(|p| p.0.saturating_add(p.1)).collect();
            assert_eq!(result, expected, "lanes {a:?} + {b:?}");
        }
    }

    #[test]
    fn unpack_into_matches_allocating_unpack() {
        let values: Vec<i8> = (-60..60).step_by(7).collect();
        let packed = pack_embedding(&values);
        let mut out = vec![0i8; values.len()];
        unpack_embedding_into(&packed, &mut out);
        assert_eq!(out, unpack_embedding(&packed, values.len()));
    }

    #[test]
    fn packed_table_round_trips_rows() {
        let rows: Vec<Vec<i8>> = (0..5)
            .map(|r| (0..13).map(|i| (r * 17 + i * 3 - 40) as i8).collect())
            .collect();
        let table = PackedTable::from_rows(rows.iter().map(|r| r.as_slice()), 13).unwrap();
        assert_eq!(table.rows(), 5);
        assert_eq!(table.dim(), 13);
        assert_eq!(table.words_per_row(), 2);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&unpack_embedding(table.row_words(i), 13), row);
        }
    }

    #[test]
    fn packed_table_rejects_ragged_rows() {
        let a = [1i8; 8];
        let b = [1i8; 7];
        let result = PackedTable::from_rows([a.as_slice(), b.as_slice()], 8);
        assert!(matches!(result, Err(FabricError::DimensionMismatch { .. })));
    }

    #[test]
    fn packed_table_rejects_dim_zero() {
        // A dim-0 table used to get a phantom packed word per row (`div_ceil(8).max(1)`)
        // that pooling then accumulated; dim 0 is now an error across pack/unpack/pool.
        let result = PackedTable::from_rows(std::iter::empty(), 0);
        assert!(matches!(
            result,
            Err(FabricError::DimensionMismatch {
                actual: 0,
                what: "packed table dimension",
                ..
            })
        ));
        let rows = [[0i8; 0]];
        let with_rows = PackedTable::from_rows(rows.iter().map(|r| r.as_slice()), 0);
        assert!(matches!(
            with_rows,
            Err(FabricError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn pack_unpack_dim_zero_are_empty_and_consistent() {
        // The free pack/unpack helpers treat dim 0 as a true zero-word row.
        assert!(pack_embedding(&[]).is_empty());
        assert!(unpack_embedding(&[], 0).is_empty());
        let mut out: [i8; 0] = [];
        unpack_embedding_into(&[], &mut out);
    }

    #[test]
    fn packed_table_pool_matches_scalar_saturating_reference() {
        let rows: Vec<Vec<i8>> = vec![
            vec![100i8; 32],
            vec![50i8; 32],
            vec![-128i8; 32],
            (0..32).map(|i| (i as i8) - 16).collect(),
        ];
        let table = PackedTable::from_rows(rows.iter().map(|r| r.as_slice()), 32).unwrap();
        let selections: Vec<Vec<u32>> =
            vec![vec![], vec![3], vec![0, 1], vec![0, 1, 2, 3], vec![2, 2, 0]];
        for indices in &selections {
            let mut expected = vec![0i8; 32];
            for &index in indices {
                for (acc, &v) in expected.iter_mut().zip(rows[index as usize].iter()) {
                    *acc = acc.saturating_add(v);
                }
            }
            assert_eq!(
                table.pool(indices).unwrap(),
                expected,
                "selection {indices:?}"
            );
        }
    }

    #[test]
    fn packed_table_pool_matches_cma_pool_rows() {
        let rows: Vec<Vec<i8>> = (0..6)
            .map(|r| {
                (0..32)
                    .map(|i| ((r * 31 + i * 13) % 255 - 127) as i8)
                    .collect()
            })
            .collect();
        let table = PackedTable::from_rows(rows.iter().map(|r| r.as_slice()), 32).unwrap();
        let mut cma = array();
        for (i, row) in rows.iter().enumerate() {
            cma.write_embedding(i, row).unwrap();
        }
        let indices: Vec<u32> = vec![0, 2, 3, 5, 2];
        let rows_usize: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
        assert_eq!(
            table.pool(&indices).unwrap(),
            cma.pool_rows(&rows_usize, 32).unwrap().value
        );
    }

    #[test]
    fn packed_table_pool_into_validates() {
        let rows = [[1i8; 8]];
        let table = PackedTable::from_rows(rows.iter().map(|r| r.as_slice()), 8).unwrap();
        let mut acc = vec![0u64; 1];
        let mut out = vec![0i8; 8];
        assert!(table.pool_into(&[5], &mut acc, &mut out).is_err());
        let mut bad_acc = vec![0u64; 2];
        assert!(table.pool_into(&[0], &mut bad_acc, &mut out).is_err());
        let mut bad_out = vec![0i8; 4];
        assert!(table.pool_into(&[0], &mut acc, &mut bad_out).is_err());
        assert!(table.pool_into(&[0], &mut acc, &mut out).is_ok());
        assert_eq!(out, vec![1i8; 8]);
    }

    #[test]
    fn hamming_distance_basics() {
        assert_eq!(hamming_distance(&[0], &[0]), 0);
        assert_eq!(hamming_distance(&[0b1011], &[0b0001]), 2);
        assert_eq!(hamming_distance(&[u64::MAX], &[0]), 64);
    }

    #[test]
    fn write_and_read_embedding_round_trip() {
        let mut cma = array();
        let embedding: Vec<i8> = (0..32).map(|i| i as i8 - 16).collect();
        let write = cma.write_embedding(3, &embedding).unwrap();
        assert_eq!(write.cost, Cost::new(49.1, 10.0));
        let read = cma.read_embedding(3, 32).unwrap();
        assert_eq!(read.value, embedding);
        assert_eq!(read.cost, Cost::new(3.2, 0.3));
    }

    #[test]
    fn unwritten_row_reads_as_zeros() {
        let cma = array();
        let read = cma.read_embedding(17, 32).unwrap();
        assert!(read.value.iter().all(|&v| v == 0));
    }

    #[test]
    fn row_out_of_range_is_rejected() {
        let mut cma = array();
        assert!(matches!(
            cma.write_embedding(256, &[1i8; 32]),
            Err(FabricError::RowOutOfRange { .. })
        ));
        assert!(cma.read_row_bits(999).is_err());
    }

    #[test]
    fn oversized_embedding_is_rejected() {
        let mut cma = array();
        let too_big = vec![1i8; 33];
        assert!(matches!(
            cma.write_embedding(0, &too_big),
            Err(FabricError::DimensionMismatch { .. })
        ));
        assert!(cma.read_embedding(0, 33).is_err());
    }

    #[test]
    fn pool_rows_sums_elementwise() {
        let mut cma = array();
        cma.write_embedding(0, &[1i8; 32]).unwrap();
        cma.write_embedding(1, &[2i8; 32]).unwrap();
        cma.write_embedding(2, &[3i8; 32]).unwrap();
        let pooled = cma.pool_rows(&[0, 1, 2], 32).unwrap();
        assert!(pooled.value.iter().all(|&v| v == 6));
        // 1 read + 2 in-memory additions.
        let expected = Cost::new(3.2 + 2.0 * 108.0, 0.3 + 2.0 * 8.1);
        assert!((pooled.cost.energy_pj - expected.energy_pj).abs() < 1e-9);
        assert!((pooled.cost.latency_ns - expected.latency_ns).abs() < 1e-9);
    }

    #[test]
    fn pool_rows_saturates() {
        let mut cma = array();
        cma.write_embedding(0, &[100i8; 32]).unwrap();
        cma.write_embedding(1, &[100i8; 32]).unwrap();
        let pooled = cma.pool_rows(&[0, 1], 32).unwrap();
        assert!(pooled.value.iter().all(|&v| v == 127));
        let mut negative = array();
        negative.write_embedding(0, &[-100i8; 32]).unwrap();
        negative.write_embedding(1, &[-100i8; 32]).unwrap();
        let pooled = negative.pool_rows(&[0, 1], 32).unwrap();
        assert!(pooled.value.iter().all(|&v| v == -128));
    }

    #[test]
    fn pool_single_row_is_just_a_read() {
        let mut cma = array();
        cma.write_embedding(5, &[7i8; 32]).unwrap();
        let pooled = cma.pool_rows(&[5], 32).unwrap();
        assert!(pooled.value.iter().all(|&v| v == 7));
        assert_eq!(pooled.cost, Cost::new(3.2, 0.3));
    }

    #[test]
    fn pool_rows_rejects_empty_selection() {
        let cma = array();
        assert!(matches!(
            cma.pool_rows(&[], 32),
            Err(FabricError::EmptySelection { .. })
        ));
    }

    #[test]
    fn pool_rows_with_int8_matches_pool_rows() {
        let mut cma = array();
        for row in 0..6 {
            let values: Vec<i8> = (0..32)
                .map(|i| ((row as i32 * 43 + i * 29) % 255 - 127) as i8)
                .collect();
            cma.write_embedding(row, &values).unwrap();
        }
        let rows = vec![0, 2, 5, 2, 4];
        let narrow = cma.pool_rows(&rows, 32).unwrap();
        let wide = cma
            .pool_rows_with(&rows, 32, GpcimAccumulator::INT8)
            .unwrap();
        let widened: Vec<i32> = narrow.value.iter().map(|&v| v as i32).collect();
        assert_eq!(wide.value, widened);
        assert_eq!(wide.cost, narrow.cost);
    }

    #[test]
    fn pool_rows_with_int16_avoids_saturation_at_double_add_cost() {
        let mut cma = array();
        cma.write_embedding(0, &[100i8; 32]).unwrap();
        cma.write_embedding(1, &[100i8; 32]).unwrap();
        cma.write_embedding(2, &[100i8; 32]).unwrap();
        let rows = vec![0, 1, 2];
        let wide = cma
            .pool_rows_with(&rows, 32, GpcimAccumulator::INT16)
            .unwrap();
        assert!(wide.value.iter().all(|&v| v == 300));
        let narrow = cma.pool_rows(&rows, 32).unwrap();
        assert!(narrow.value.iter().all(|&v| v == 127));
        // 1 read + 2 additions at twice the int8 add figure of merit.
        let expected = Cost::new(3.2 + 2.0 * 216.0, 0.3 + 2.0 * 16.2);
        assert!((wide.cost.energy_pj - expected.energy_pj).abs() < 1e-9);
        assert!((wide.cost.latency_ns - expected.latency_ns).abs() < 1e-9);
    }

    #[test]
    fn pool_rows_with_validates_like_pool_rows() {
        let cma = array();
        assert!(matches!(
            cma.pool_rows_with(&[], 32, GpcimAccumulator::INT16),
            Err(FabricError::EmptySelection { .. })
        ));
        assert!(cma
            .pool_rows_with(&[999], 32, GpcimAccumulator::INT16)
            .is_err());
        assert!(cma
            .pool_rows_with(&[0], 33, GpcimAccumulator::INT16)
            .is_err());
    }

    #[test]
    fn search_finds_rows_within_threshold() {
        let mut cma = array();
        cma.write_row_bits(0, &[0b0000_1111u64, 0, 0, 0], 256)
            .unwrap();
        cma.write_row_bits(1, &[0b0000_0111u64, 0, 0, 0], 256)
            .unwrap();
        cma.write_row_bits(2, &[0xFFFF_FFFFu64, 0, 0, 0], 256)
            .unwrap();
        let query = vec![0b0000_1111u64, 0, 0, 0];
        let exact = cma.search(&query, 0).unwrap();
        assert_eq!(exact.value, vec![0]);
        let near = cma.search(&query, 1).unwrap();
        assert_eq!(near.value, vec![0, 1]);
        let far = cma.search(&query, 64).unwrap();
        assert_eq!(far.value, vec![0, 1, 2]);
        assert_eq!(exact.cost, Cost::new(13.8, 0.2));
    }

    #[test]
    fn search_cost_does_not_depend_on_occupancy() {
        let mut sparse = array();
        sparse.write_row_bits(0, &[1, 0, 0, 0], 256).unwrap();
        let mut dense = array();
        for row in 0..200 {
            dense
                .write_row_bits(row, &[row as u64, 0, 0, 0], 256)
                .unwrap();
        }
        let query = vec![0u64, 0, 0, 0];
        assert_eq!(
            sparse.search(&query, 3).unwrap().cost,
            dense.search(&query, 3).unwrap().cost
        );
    }

    #[test]
    fn search_matches_software_distances() {
        let mut cma = array();
        for row in 0..50 {
            cma.write_row_bits(row, &[row as u64 * 0x9E37_79B9, 0, 0, 0], 256)
                .unwrap();
        }
        let query = vec![0x1234_5678u64, 0, 0, 0];
        let threshold = 20;
        let matches = cma.search(&query, threshold).unwrap().value;
        let reference: Vec<usize> = cma
            .distances(&query)
            .into_iter()
            .filter(|(_, d)| *d <= threshold)
            .map(|(row, _)| row)
            .collect();
        assert_eq!(matches, reference);
    }

    #[test]
    fn search_batch_matches_per_query_search() {
        let mut cma = array();
        for row in 0..60 {
            cma.write_row_bits(row, &[row as u64 * 0x0101_0101_0101, 0, 0, 0], 256)
                .unwrap();
        }
        let queries: Vec<Vec<u64>> = (0..7)
            .map(|q| vec![q as u64 * 0x1111_2222, 0, 0, 0])
            .collect();
        let threshold = 18;
        let batch = cma.search_batch(&queries, threshold).unwrap();
        assert_eq!(batch.value.len(), queries.len());
        let mut serial_cost = Cost::ZERO;
        for (query, matches) in queries.iter().zip(batch.value.iter()) {
            let single = cma.search(query, threshold).unwrap();
            assert_eq!(matches, &single.value);
            serial_cost += single.cost;
        }
        // The batch serializes on the one match-line per row: n searches charged serially.
        assert!((batch.cost.energy_pj - serial_cost.energy_pj).abs() < 1e-9);
        assert!((batch.cost.latency_ns - serial_cost.latency_ns).abs() < 1e-9);
        assert_eq!(
            batch.breakdown.component(CostComponent::CmaSearch),
            batch.cost
        );
    }

    #[test]
    fn search_batch_handles_empty_and_validates_widths() {
        let cma = array();
        let empty = cma.search_batch(&[], 5).unwrap();
        assert!(empty.value.is_empty());
        assert_eq!(empty.cost, Cost::ZERO);
        let bad = vec![vec![0u64; 1], vec![0u64; 10]];
        assert!(matches!(
            cma.search_batch(&bad, 5),
            Err(FabricError::DimensionMismatch { .. })
        ));
    }

    /// `count_batch` over `queries` flattened at `query_words`: the counts and the outcome.
    fn count_flat(
        cma: &CmaArray,
        queries: &[Vec<u64>],
        query_words: usize,
        threshold: u32,
        cap: usize,
    ) -> (Vec<usize>, Outcome<()>) {
        let flat: Vec<u64> = queries.iter().flatten().copied().collect();
        // Dirty on entry: every slot must be overwritten, not added to.
        let mut counts = vec![usize::MAX; queries.len()];
        let outcome = cma
            .count_batch(&flat, query_words, threshold, cap, &mut counts)
            .unwrap();
        (counts, outcome)
    }

    #[test]
    fn count_batch_is_search_batch_without_the_lists() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xC0_0175);
        // Holes, rows valid over fewer words than the stride, rows with no valid bits,
        // more rows than one scan tile — and an array nothing was ever written to.
        let mut cma = CmaArray::new(700, 256, ArrayFom::paper_reference());
        for row in 0..700 {
            let valid_bits = match row % 7 {
                // The first scan tile stays dense, so both paths of the kernel run.
                _ if row < 256 => 256,
                0 => continue,
                1 => 0,
                2 => rng.gen_range(0..=256),
                _ => 256,
            };
            let bits: Vec<u64> = (0..4).map(|_| rng.gen_range(0..=u64::MAX)).collect();
            cma.write_row_bits(row, &bits, valid_bits).unwrap();
        }
        let empty = array();
        for cma in [&cma, &empty] {
            // Queries as wide as a row, and shorter, down to zero words.
            for query_words in 0..=4usize {
                let queries: Vec<Vec<u64>> = (0..9)
                    .map(|_| {
                        (0..query_words)
                            .map(|_| rng.gen_range(0..=u64::MAX))
                            .collect()
                    })
                    .collect();
                for threshold in [0, (query_words * 32) as u32, 256] {
                    let lists = cma.search_batch(&queries, threshold).unwrap();
                    let lengths: Vec<usize> = lists.value.iter().map(Vec::len).collect();
                    // Caps at every query's own length and either side of it, so each
                    // query is cut exactly at, just before and just past its last match.
                    let caps = lengths
                        .iter()
                        .flat_map(|&len| [len.saturating_sub(1), len, len + 1])
                        .chain([0, 1, usize::MAX]);
                    for cap in caps {
                        let (counts, outcome) =
                            count_flat(cma, &queries, query_words, threshold, cap);
                        let capped: Vec<usize> = lengths.iter().map(|&len| len.min(cap)).collect();
                        assert_eq!(counts, capped, "query words {query_words} cap {cap}");
                        // The charge does not depend on how far the host twin scanned.
                        assert_eq!(outcome.cost, lists.cost);
                        assert_eq!(outcome.breakdown, lists.breakdown);
                    }
                }
            }
        }
        assert!(cma.search_batch(&[vec![0; 4]], 128).unwrap().value[0].len() > 100);
        // No queries: no counts, no charge.
        let (counts, outcome) = count_flat(&cma, &[], 4, 5, usize::MAX);
        assert!(counts.is_empty());
        assert_eq!(outcome.cost, Cost::ZERO);

        // A query that never reaches the cap beside queries that reach it in the first
        // tile: rows 0..256 are all zeros and the two all-ones rows sit in the last tile,
        // so the open query must be scanned to the end after the others have stopped.
        let mut cma = CmaArray::new(700, 256, ArrayFom::paper_reference());
        for row in 0..700 {
            let word = match row {
                0..=255 => 0,
                600 | 699 => u64::MAX,
                _ => 0x5555_5555_5555_5555,
            };
            cma.write_row_bits(row, &[word; 4], 256).unwrap();
        }
        let queries = vec![vec![0; 4], vec![u64::MAX; 4], vec![0; 4]];
        let lists = cma.search_batch(&queries, 8).unwrap().value;
        assert_eq!(lists[1], vec![600, 699]);
        let (counts, _) = count_flat(&cma, &queries, 4, 8, 10);
        assert_eq!(counts, vec![10, 2, 10]);
    }

    #[test]
    fn count_batch_validates_before_any_work() {
        let mut cma = array();
        cma.write_row_bits(0, &[0; 4], 256).unwrap();
        let mut counts = vec![7usize; 2];
        // A query wider than the row: rejected like `search_batch` rejects it.
        // A cap of 0 needs no scan at all, and still does not skip the validation.
        for cap in [usize::MAX, 0] {
            assert!(matches!(
                cma.count_batch(&[0; 10], 5, 0, cap, &mut counts),
                Err(FabricError::DimensionMismatch {
                    expected: 4,
                    actual: 5,
                    what: "query words",
                })
            ));
            // A flat buffer that does not hold `counts.len()` queries of the stated width.
            assert!(matches!(
                cma.count_batch(&[0; 7], 4, 0, cap, &mut counts),
                Err(FabricError::DimensionMismatch {
                    expected: 8,
                    actual: 7,
                    what: "flat query words",
                })
            ));
            assert_eq!(
                counts,
                vec![7, 7],
                "a rejected call leaves the counts alone"
            );
        }
        assert!(cma.search_batch(&[vec![0; 4], vec![0; 5]], 0).is_err());
        assert!(cma
            .count_batch(&[0; 8], 4, 0, usize::MAX, &mut counts)
            .is_ok());
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn occupancy_tracking() {
        let mut cma = array();
        assert_eq!(cma.occupied_rows(), 0);
        cma.write_embedding(0, &[1i8; 32]).unwrap();
        cma.write_embedding(10, &[1i8; 32]).unwrap();
        cma.write_embedding(0, &[2i8; 32]).unwrap();
        assert_eq!(cma.occupied_rows(), 2);
        assert_eq!(cma.rows(), 256);
        assert_eq!(cma.cols(), 256);
    }

    #[test]
    fn query_wider_than_row_rejected() {
        let cma = array();
        let query = vec![0u64; 10];
        assert!(cma.search(&query, 0).is_err());
    }

    #[test]
    fn a_row_wider_than_the_array_is_rejected() {
        let mut cma = array();
        assert!(matches!(
            cma.write_row_bits(0, &[u64::MAX; 10], 256),
            Err(FabricError::DimensionMismatch {
                expected: 4,
                actual: 10,
                what: "bit words",
            })
        ));
        assert_eq!(cma.occupied_rows(), 0, "a rejected write stores nothing");
        assert!(cma.write_row_bits(0, &[u64::MAX; 4], 256).is_ok());
    }

    #[test]
    fn every_row_reads_back_at_the_array_width() {
        let mut cma = array();
        assert_eq!(cma.read_row_bits(3).unwrap().value, vec![0u64; 4]);
        cma.write_row_bits(3, &[u64::MAX; 4], 256).unwrap();
        // A shorter overwrite is zero-extended: nothing of the old row shows through.
        cma.write_row_bits(3, &[7], 64).unwrap();
        assert_eq!(cma.read_row_bits(3).unwrap().value, vec![7, 0, 0, 0]);
        // Words past `valid_bits` are stored, as RAM mode would.
        cma.write_row_bits(4, &[1, 2, 3], 64).unwrap();
        assert_eq!(cma.read_row_bits(4).unwrap().value, vec![1, 2, 3, 0]);
    }

    #[test]
    fn a_zero_column_array_works_in_every_mode() {
        let mut cma = CmaArray::new(4, 0, ArrayFom::paper_reference());
        assert!(cma.write_row_bits(0, &[1], 0).is_err());
        assert!(cma.write_row_bits(2, &[], 1).is_err());
        cma.write_row_bits(2, &[], 0).unwrap();
        assert_eq!(cma.occupied_rows(), 1);
        assert!(cma.read_row_bits(2).unwrap().value.is_empty());
        assert!(cma.read_row_bits(0).unwrap().value.is_empty());
        // Nothing to compare, so the one written row is at distance zero.
        assert_eq!(cma.search(&[], 0).unwrap().value, vec![2]);
        assert_eq!(
            cma.search_batch(&[vec![], vec![]], 0).unwrap().value,
            vec![vec![2], vec![2]]
        );
        assert_eq!(cma.distances(&[5]), vec![(2, 0)]);
        assert!(cma.search(&[0], 0).is_err());
        assert!(cma.pool_rows(&[2, 0], 0).unwrap().value.is_empty());
        assert!(cma
            .pool_rows_with(&[2], 0, GpcimAccumulator::INT16)
            .unwrap()
            .value
            .is_empty());
    }

    #[test]
    fn no_heap_until_written_and_growth_stops_at_the_highest_row() {
        let mut cma = array();
        assert_eq!((cma.words.capacity(), cma.valid_bits.capacity()), (0, 0));
        // An empty array still searches, at the full charge: one empty list per query.
        let queries = vec![vec![0u64; 4], vec![1], vec![]];
        let empty = cma.search_batch(&queries, 256).unwrap();
        assert_eq!(empty.value, vec![Vec::<usize>::new(); 3]);
        assert_eq!(empty.cost, Cost::from_fom(cma.fom().cma.search).repeat(3));
        assert_eq!((cma.words.capacity(), cma.valid_bits.capacity()), (0, 0));

        cma.write_row_bits(9, &[1, 2, 3, 4], 256).unwrap();
        assert_eq!((cma.words.len(), cma.valid_bits.len()), (10 * 4, 10));
        assert_eq!(cma.occupied_rows(), 1);
        cma.write_row_bits(9, &[5, 6, 7, 8], 200).unwrap();
        cma.write_row_bits(2, &[9], 8).unwrap();
        assert_eq!((cma.words.len(), cma.valid_bits.len()), (10 * 4, 10));
        assert_eq!(cma.occupied_rows(), 2);
    }

    /// The representation this array had before it became a flat bit matrix — a tree of
    /// heap rows, each kept at its written length — with every mode spelled out over
    /// it. The reference the flat store is driven against.
    struct TreeOfRows {
        cols: usize,
        rows: std::collections::BTreeMap<usize, (Vec<u64>, usize)>,
    }

    impl TreeOfRows {
        fn distances(&self, query: &[u64]) -> Vec<(usize, u32)> {
            self.rows
                .iter()
                .map(|(&row, (bits, valid_bits))| {
                    let words = words_for_bits(*valid_bits);
                    let q = &query[..words.min(query.len())];
                    let s = &bits[..words.min(bits.len())];
                    (row, hamming_distance(q, s))
                })
                .collect()
        }

        fn search(&self, query: &[u64], threshold: u32) -> Vec<usize> {
            self.distances(query)
                .into_iter()
                .filter(|&(_, distance)| distance <= threshold)
                .map(|(row, _)| row)
                .collect()
        }

        fn read_row_bits(&self, row: usize) -> Vec<u64> {
            let mut bits = self
                .rows
                .get(&row)
                .map_or(Vec::new(), |(bits, _)| bits.clone());
            bits.resize(words_for_bits(self.cols), 0);
            bits
        }

        /// Unpacked, one element at a time: independent of the packed SWAR/SIMD kernel.
        fn pool_rows(&self, rows: &[usize], dim: usize) -> Vec<i8> {
            let mut sum = vec![0i8; dim];
            for (bits, _) in rows.iter().filter_map(|row| self.rows.get(row)) {
                for (acc, value) in sum.iter_mut().zip(unpack_embedding(bits, dim)) {
                    *acc = acc.saturating_add(value);
                }
            }
            sum
        }

        fn pool_rows_with(&self, rows: &[usize], dim: usize, acc: GpcimAccumulator) -> Vec<i32> {
            let mut sum = vec![0i32; dim];
            for (bits, _) in rows.iter().filter_map(|row| self.rows.get(row)) {
                acc.accumulate(&mut sum, &unpack_embedding(bits, dim));
            }
            sum
        }
    }

    #[test]
    fn the_flat_store_matches_the_tree_of_rows_it_replaced() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const ROWS: usize = 48;
        for (case, cols) in [64usize, 100, 256, 320].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xCA3 + case as u64);
            let stride = words_for_bits(cols);
            let mut cma = CmaArray::new(ROWS, cols, ArrayFom::paper_reference());
            let mut tree = TreeOfRows {
                cols,
                rows: Default::default(),
            };
            // Fewer writes than rows, drawn with replacement: holes and overwrites both.
            for write in 0..40 {
                let row = rng.gen_range(0..ROWS);
                let valid_bits = match write % 8 {
                    0 => 0,
                    1 => cols,
                    _ => rng.gen_range(0..=cols),
                };
                let len = rng.gen_range(words_for_bits(valid_bits)..=stride);
                let bits: Vec<u64> = (0..len).map(|_| rng.gen_range(0..=u64::MAX)).collect();
                cma.write_row_bits(row, &bits, valid_bits).unwrap();
                tree.rows.insert(row, (bits, valid_bits));
                assert_eq!(cma.occupied_rows(), tree.rows.len(), "cols {cols}");
            }
            assert!(tree.rows.len() < ROWS, "the sequence must leave holes");

            // Queries shorter than a row, and exactly a row.
            let queries: Vec<Vec<u64>> = (0..12)
                .map(|q| {
                    let len = if q % 3 == 0 {
                        stride
                    } else {
                        rng.gen_range(0..=stride)
                    };
                    (0..len).map(|_| rng.gen_range(0..=u64::MAX)).collect()
                })
                .collect();
            let threshold = (cols / 2) as u32;
            let expected: Vec<Vec<usize>> =
                queries.iter().map(|q| tree.search(q, threshold)).collect();
            assert!(expected.iter().any(|hits| !hits.is_empty()), "cols {cols}");
            assert_eq!(
                cma.search_batch(&queries, threshold).unwrap().value,
                expected
            );
            for (query, hits) in queries.iter().zip(&expected) {
                assert_eq!(&cma.search(query, threshold).unwrap().value, hits);
                assert_eq!(cma.distances(query), tree.distances(query), "cols {cols}");
            }
            for row in 0..ROWS {
                assert_eq!(
                    cma.read_row_bits(row).unwrap().value,
                    tree.read_row_bits(row)
                );
            }
            for _ in 0..24 {
                let dim = rng.gen_range(0..=cols / 8);
                let picked: Vec<usize> = (0..rng.gen_range(1..=6))
                    .map(|_| rng.gen_range(0..ROWS))
                    .collect();
                assert_eq!(
                    cma.pool_rows(&picked, dim).unwrap().value,
                    tree.pool_rows(&picked, dim),
                    "cols {cols} rows {picked:?} dim {dim}"
                );
                for acc in [GpcimAccumulator::INT8, GpcimAccumulator::INT16] {
                    assert_eq!(
                        cma.pool_rows_with(&picked, dim, acc).unwrap().value,
                        tree.pool_rows_with(&picked, dim, acc),
                        "cols {cols} rows {picked:?} dim {dim}"
                    );
                }
            }

            // The extent and the cells are a function of the written set: the final rows,
            // written once each from the top down, make an equal array.
            let mut again = CmaArray::new(ROWS, cols, ArrayFom::paper_reference());
            for (&row, (bits, valid_bits)) in tree.rows.iter().rev() {
                again.write_row_bits(row, bits, *valid_bits).unwrap();
            }
            assert_eq!(again, cma, "cols {cols}");
        }
    }
}

//! Runtime-dispatched kernels of the fabric: the SIMD widenings of the packed int8
//! saturating add, and the TCAM threshold scan.
//!
//! The scalar SWAR kernel in [`crate::cma`] processes one 64-bit word (8 int8 lanes) per
//! step. On x86-64 the same lane-wise saturating add exists as a single instruction over
//! 16 bytes (`PADDSB`, SSE2) or 32 bytes (`VPADDSB`, AVX2), so this module widens the
//! pooling inner loop to 2 or 4 packed words per step and falls back to the scalar SWAR
//! kernel for the ragged tail.
//!
//! # Dispatch and the scalar-reference contract
//!
//! The implementation level is picked once per process by [`active_level`]:
//!
//! * `IMARS_FORCE_SCALAR` (any non-empty value other than `0`) forces the scalar path —
//!   CI runs the whole test suite a second time under this override;
//! * otherwise AVX2 is used when `is_x86_feature_detected!("avx2")` reports it;
//! * otherwise SSE2, which is part of the x86-64 baseline;
//! * non-x86-64 targets always take the scalar path.
//!
//! Saturating int8 addition is a pure lane-wise operation — no carries, rounding, or
//! reassociation cross a lane boundary — so every path is **bit-identical** to the scalar
//! SWAR kernel by construction, and the `*_scalar` functions stay exported as the
//! always-on reference that property tests pin each SIMD path against.
//!
//! # The TCAM threshold scan
//!
//! The functional twin of a TCAM search is a scan: the Hamming distance of every stored
//! row to the query, kept when it is within the threshold. The hardware does it in one
//! O(1) array operation; on the host it is the largest cost of the paper's serving point,
//! so the scan is one kernel (`scan_body`, reached through [`crate::cma::CmaArray`]'s
//! `search`, `search_batch`, `count_batch` and `distances`) shaped by three measurements:
//!
//! * **`popcnt`.** A 256-bit row is four popcounts. The x86-64 baseline has no popcount
//!   instruction, so `u64::count_ones` compiles to a dozen shift-mask-add steps per word
//!   and the scan was bound by them, not by memory. The kernel is plain safe code
//!   compiled twice — for the baseline, and under `#[target_feature(enable = "popcnt")]`
//!   — and the second instantiation is used whenever [`active_level`] is not
//!   [`SimdLevel::Scalar`] and the CPU reports the instruction. `count_ones` is exact
//!   either way, so the two are bit-identical by construction; the property test pins
//!   both against [`crate::cma::hamming_distance`] one row at a time.
//! * **Tiled over the batch.** A tile of 256 rows is matched against every query of the
//!   batch before the next tile is touched, so a catalogue is streamed from memory once
//!   per batch instead of once per query.
//! * **Branch-free.** At the paper's radius about a quarter of the rows match, the worst
//!   case for a branch predictor: `if distance <= threshold { push }` mispredicts on a
//!   large share of rows and, once `popcnt` is in, was half of what was left. The kernel
//!   stores every row index into a stack tile and advances the cursor by the comparison's
//!   result (`hits[n] = row; n += (d <= t) as usize`), then appends each tile's hits with
//!   one `extend`. The count-only twin keeps the cursor and drops the store.
//!
//! Whether a tile is *dense* — every row written, valid into its last word — is read from
//! the rows' valid-bit counts once per tile, a property of the data rather than a mode.
//! Dense tiles are read as plain words, unrolled for the paper's four-word row and with a
//! generic loop for other widths; holes, partly valid rows and queries shorter than a row
//! take the row-at-a-time loop of the same kernel, which keeps their semantics.

use std::ops::Range;
use std::sync::OnceLock;

use crate::cma::{hamming_distance, saturating_add_packed_i8, words_for_bits};

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable SWAR / element-wise loops — the bit-identity reference.
    Scalar,
    /// 16-byte lanes (`PADDSB`), always available on x86-64.
    Sse2,
    /// 32-byte lanes (`VPADDSB`), detected at runtime.
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name, used in study JSON and bench metrics.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// True when the `IMARS_FORCE_SCALAR` environment variable asks for the scalar path.
pub fn force_scalar() -> bool {
    std::env::var_os("IMARS_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

fn detect_level() -> SimdLevel {
    if force_scalar() {
        return SimdLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::Scalar
}

/// The implementation level every packed int8 kernel in this process dispatches to.
/// Detected once and cached.
pub fn active_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect_level)
}

/// Scalar reference: accumulate one packed row into a packed accumulator with lane-wise
/// saturating int8 adds, one 64-bit word at a time. Rows shorter than the accumulator
/// contribute zero to the remaining words.
#[inline]
pub fn saturating_accumulate_packed_scalar(acc: &mut [u64], row: &[u64]) {
    for (a, &r) in acc.iter_mut().zip(row.iter()) {
        *a = saturating_add_packed_i8(*a, r);
    }
}

/// Dispatched widening of [`saturating_accumulate_packed_scalar`]: 32-byte lanes under
/// AVX2, 16-byte lanes under SSE2, with the scalar SWAR kernel covering the tail words.
/// Bit-identical to the scalar reference on every input.
#[inline]
pub fn saturating_accumulate_packed(acc: &mut [u64], row: &[u64]) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { accumulate_packed_avx2(acc, row) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { accumulate_packed_sse2(acc, row) },
        _ => saturating_accumulate_packed_scalar(acc, row),
    }
}

/// Scalar reference: element-wise saturating int8 add over unpacked lanes, zipped to the
/// shorter of the two slices.
#[inline]
pub fn saturating_add_assign_i8_scalar(acc: &mut [i8], src: &[i8]) {
    for (a, &s) in acc.iter_mut().zip(src.iter()) {
        *a = a.saturating_add(s);
    }
}

/// Dispatched widening of [`saturating_add_assign_i8_scalar`] over unpacked int8 lanes —
/// the kernel behind the serving tier's int8 pooling accumulate. Bit-identical to the
/// scalar reference on every input.
#[inline]
pub fn saturating_add_assign_i8(acc: &mut [i8], src: &[i8]) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { add_assign_i8_avx2(acc, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { add_assign_i8_sse2(acc, src) },
        _ => saturating_add_assign_i8_scalar(acc, src),
    }
}

/// Marker in [`BitRows::valid_bits`] for a row inside the extent that was never written:
/// a scan skips it. No real count can collide with it — a row of `usize::MAX` bits could
/// not be allocated.
pub(crate) const UNWRITTEN: usize = usize::MAX;

/// Rows per tile of the threshold scan: 8 KB of 256-bit rows, so a tile, the batch's
/// queries and the hit buffer sit in L1 together while every query is matched against it.
const SCAN_TILE: usize = 256;

/// Words per row of the paper's 256-bit signature, the width the scan is unrolled for.
const SIGNATURE_WORDS: usize = 4;

/// A row-major bit matrix as the threshold scan reads it: row `r` is the `stride` words
/// starting at `r * stride`, of which the first `valid_bits[r]` bits are valid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BitRows<'a> {
    pub words: &'a [u64],
    pub stride: usize,
    /// Per row, how many leading bits are valid, or [`UNWRITTEN`].
    pub valid_bits: &'a [usize],
}

/// A batch of queries as one flat buffer: query `q` is the `words` words starting at
/// `q * words`. `words` may be less than the rows' stride (a query shorter than a row is
/// compared over its own words only), even zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlatQueries<'a> {
    pub bits: &'a [u64],
    pub words: usize,
    pub count: usize,
}

impl<'a> FlatQueries<'a> {
    #[inline(always)]
    fn get(&self, query: usize) -> &'a [u64] {
        &self.bits[query * self.words..][..self.words]
    }
}

impl BitRows<'_> {
    /// The row ranges a scan visits, in order: [`SCAN_TILE`] rows each, the last ragged.
    #[inline(always)]
    fn tiles(&self) -> impl Iterator<Item = Range<usize>> {
        let extent = self.valid_bits.len();
        (0..extent)
            .step_by(SCAN_TILE)
            .map(move |start| start..extent.min(start + SCAN_TILE))
    }

    /// True when every row of `tile` is written with valid bits in its last word, so the
    /// dense paths can read the words without looking at the rows one by one. Read from the
    /// data once per tile; `&` rather than `&&`, so there is no early exit to mispredict.
    #[inline(always)]
    fn is_dense(&self, tile: Range<usize>) -> bool {
        let Some(below_last_word) = self.stride.checked_sub(1).map(|words| words * 64) else {
            return false;
        };
        self.valid_bits[tile].iter().fold(true, |dense, &bits| {
            dense & (bits != UNWRITTEN) & (bits > below_last_word)
        })
    }
}

/// The one reader of the bit matrix: the Hamming distance of `query` to every written row
/// of `tile`, in ascending row order, over the whole words that hold the row's valid bits
/// (or over the query's words, when it is shorter). `dense` is [`BitRows::is_dense`] of
/// the same tile.
#[inline(always)]
fn tile_distances(
    rows: &BitRows<'_>,
    tile: Range<usize>,
    dense: bool,
    query: &[u64],
    mut emit: impl FnMut(usize, u32),
) {
    let stride = rows.stride;
    if dense && query.len() == stride {
        let cells = &rows.words[tile.start * stride..tile.end * stride];
        if let Ok(query) = <&[u64; SIGNATURE_WORDS]>::try_from(query) {
            for (row, cells) in tile.zip(cells.chunks_exact(SIGNATURE_WORDS)) {
                let distance = (cells[0] ^ query[0]).count_ones()
                    + (cells[1] ^ query[1]).count_ones()
                    + (cells[2] ^ query[2]).count_ones()
                    + (cells[3] ^ query[3]).count_ones();
                emit(row, distance);
            }
        } else {
            for (row, cells) in tile.zip(cells.chunks_exact(stride)) {
                emit(row, hamming_distance(query, cells));
            }
        }
        return;
    }
    for row in tile {
        let valid_bits = rows.valid_bits[row];
        if valid_bits == UNWRITTEN {
            continue;
        }
        let prefix = words_for_bits(valid_bits).min(query.len());
        let cells = &rows.words[row * stride..][..prefix];
        emit(row, hamming_distance(&query[..prefix], cells));
    }
}

/// The threshold scan, written once: stream each tile of rows against every query of the
/// batch, compact the rows within `threshold` into a stack buffer without branching on
/// the comparison, and hand each (tile, query) to `end_tile(query, hits, count)`: the
/// matching rows are `hits[..count]`. With `LIST` false the buffer is never written and
/// only `count` means anything — the count-only twin.
#[inline(always)]
fn scan_body<const LIST: bool>(
    rows: &BitRows<'_>,
    queries: &FlatQueries<'_>,
    threshold: u32,
    mut end_tile: impl FnMut(usize, &[usize; SCAN_TILE], usize),
) {
    let mut hits = [0usize; SCAN_TILE];
    for tile in rows.tiles() {
        let dense = rows.is_dense(tile.clone());
        for query in 0..queries.count {
            let mut count = 0usize;
            tile_distances(
                rows,
                tile.clone(),
                dense,
                queries.get(query),
                |row, distance| {
                    if LIST {
                        hits[count] = row;
                    }
                    count += usize::from(distance <= threshold);
                },
            );
            end_tile(query, &hits, count);
        }
    }
}

/// [`scan_body`] compiled for the x86-64 baseline (or the host, elsewhere): `count_ones`
/// is the portable bit-twiddling popcount. The bit-identity reference of the scan.
fn scan_baseline<const LIST: bool>(
    rows: &BitRows<'_>,
    queries: &FlatQueries<'_>,
    threshold: u32,
    end_tile: impl FnMut(usize, &[usize; SCAN_TILE], usize),
) {
    scan_body::<LIST>(rows, queries, threshold, end_tile);
}

/// [`scan_body`] compiled with the `popcnt` instruction: the same safe code, one
/// instruction per word where the baseline spends a dozen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn scan_popcnt<const LIST: bool>(
    rows: &BitRows<'_>,
    queries: &FlatQueries<'_>,
    threshold: u32,
    end_tile: impl FnMut(usize, &[usize; SCAN_TILE], usize),
) {
    scan_body::<LIST>(rows, queries, threshold, end_tile);
}

/// Dispatched threshold scan: `popcnt` when the process dispatches to SIMD at all and the
/// CPU has the instruction, the baseline instantiation otherwise.
fn scan<const LIST: bool>(
    rows: &BitRows<'_>,
    queries: &FlatQueries<'_>,
    threshold: u32,
    end_tile: impl FnMut(usize, &[usize; SCAN_TILE], usize),
) {
    #[cfg(target_arch = "x86_64")]
    if active_level() != SimdLevel::Scalar && is_x86_feature_detected!("popcnt") {
        // SAFETY: `scan_popcnt` is safe code whose only requirement is the `popcnt`
        // target feature, detected on this CPU by the condition above.
        return unsafe { scan_popcnt::<LIST>(rows, queries, threshold, end_tile) };
    }
    scan_baseline::<LIST>(rows, queries, threshold, end_tile);
}

/// Threshold search of every query against the bit matrix: the rows within `threshold`
/// Hamming distance of query `q` are appended to `matches[q]` in ascending row order.
pub(crate) fn scan_matches(
    rows: &BitRows<'_>,
    queries: &FlatQueries<'_>,
    threshold: u32,
    matches: &mut [Vec<usize>],
) {
    scan::<true>(rows, queries, threshold, |query, hits, count| {
        matches[query].extend_from_slice(&hits[..count]);
    });
}

/// Count-only twin of [`scan_matches`]: the number of rows within `threshold` of query
/// `q` is added to `counts[q]`, and no list is ever formed.
pub(crate) fn scan_counts(
    rows: &BitRows<'_>,
    queries: &FlatQueries<'_>,
    threshold: u32,
    counts: &mut [usize],
) {
    scan::<false>(rows, queries, threshold, |query, _, count| {
        counts[query] += count;
    });
}

/// The distance of `query` to every written row, in ascending row order — the software
/// reference the threshold semantics are checked against, so it runs the baseline
/// instantiation of the same tile reader at every dispatch level.
pub(crate) fn scan_distances(rows: &BitRows<'_>, query: &[u64]) -> Vec<(usize, u32)> {
    let mut distances = Vec::new();
    for tile in rows.tiles() {
        let dense = rows.is_dense(tile.clone());
        tile_distances(rows, tile, dense, query, |row, distance| {
            distances.push((row, distance));
        });
    }
    distances
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn accumulate_packed_sse2(acc: &mut [u64], row: &[u64]) {
    use std::arch::x86_64::{__m128i, _mm_adds_epi8, _mm_loadu_si128, _mm_storeu_si128};
    let n = acc.len().min(row.len());
    let pairs = n / 2;
    let acc_ptr = acc.as_mut_ptr();
    let row_ptr = row.as_ptr();
    for i in 0..pairs {
        let a = _mm_loadu_si128(acc_ptr.add(i * 2) as *const __m128i);
        let r = _mm_loadu_si128(row_ptr.add(i * 2) as *const __m128i);
        _mm_storeu_si128(acc_ptr.add(i * 2) as *mut __m128i, _mm_adds_epi8(a, r));
    }
    for i in pairs * 2..n {
        acc[i] = saturating_add_packed_i8(acc[i], row[i]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_packed_avx2(acc: &mut [u64], row: &[u64]) {
    use std::arch::x86_64::{__m256i, _mm256_adds_epi8, _mm256_loadu_si256, _mm256_storeu_si256};
    let n = acc.len().min(row.len());
    let quads = n / 4;
    let acc_ptr = acc.as_mut_ptr();
    let row_ptr = row.as_ptr();
    for i in 0..quads {
        let a = _mm256_loadu_si256(acc_ptr.add(i * 4) as *const __m256i);
        let r = _mm256_loadu_si256(row_ptr.add(i * 4) as *const __m256i);
        _mm256_storeu_si256(acc_ptr.add(i * 4) as *mut __m256i, _mm256_adds_epi8(a, r));
    }
    for i in quads * 4..n {
        acc[i] = saturating_add_packed_i8(acc[i], row[i]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn add_assign_i8_sse2(acc: &mut [i8], src: &[i8]) {
    use std::arch::x86_64::{__m128i, _mm_adds_epi8, _mm_loadu_si128, _mm_storeu_si128};
    let n = acc.len().min(src.len());
    let blocks = n / 16;
    let acc_ptr = acc.as_mut_ptr();
    let src_ptr = src.as_ptr();
    for i in 0..blocks {
        let a = _mm_loadu_si128(acc_ptr.add(i * 16) as *const __m128i);
        let s = _mm_loadu_si128(src_ptr.add(i * 16) as *const __m128i);
        _mm_storeu_si128(acc_ptr.add(i * 16) as *mut __m128i, _mm_adds_epi8(a, s));
    }
    for i in blocks * 16..n {
        acc[i] = acc[i].saturating_add(src[i]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_i8_avx2(acc: &mut [i8], src: &[i8]) {
    use std::arch::x86_64::{__m256i, _mm256_adds_epi8, _mm256_loadu_si256, _mm256_storeu_si256};
    let n = acc.len().min(src.len());
    let blocks = n / 32;
    let acc_ptr = acc.as_mut_ptr();
    let src_ptr = src.as_ptr();
    for i in 0..blocks {
        let a = _mm256_loadu_si256(acc_ptr.add(i * 32) as *const __m256i);
        let s = _mm256_loadu_si256(src_ptr.add(i * 32) as *const __m256i);
        _mm256_storeu_si256(acc_ptr.add(i * 32) as *mut __m256i, _mm256_adds_epi8(a, s));
    }
    for i in blocks * 32..n {
        acc[i] = acc[i].saturating_add(src[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pack(elements: &[i8]) -> Vec<u64> {
        crate::cma::pack_embedding(elements)
    }

    #[test]
    fn active_level_is_cached_and_consistent() {
        assert_eq!(active_level(), active_level());
        assert!(!active_level().name().is_empty());
    }

    #[test]
    fn packed_simd_matches_scalar_across_dims_and_saturation() {
        let mut rng = StdRng::seed_from_u64(0x51_3D);
        for dim in 1..=129usize {
            for case in 0..4 {
                let (a, b): (Vec<i8>, Vec<i8>) = match case {
                    // Saturation-heavy corners: every lane at the extremes.
                    0 => (vec![127i8; dim], vec![127i8; dim]),
                    1 => (vec![-128i8; dim], vec![-128i8; dim]),
                    2 => (vec![127i8; dim], vec![-128i8; dim]),
                    _ => (
                        (0..dim).map(|_| rng.gen_range(i8::MIN..=i8::MAX)).collect(),
                        (0..dim).map(|_| rng.gen_range(i8::MIN..=i8::MAX)).collect(),
                    ),
                };
                let row = pack(&b);
                let mut simd_acc = pack(&a);
                let mut scalar_acc = simd_acc.clone();
                saturating_accumulate_packed(&mut simd_acc, &row);
                saturating_accumulate_packed_scalar(&mut scalar_acc, &row);
                assert_eq!(simd_acc, scalar_acc, "dim {dim} case {case}");
            }
        }
    }

    #[test]
    fn packed_simd_handles_short_rows() {
        // A row shorter than the accumulator must leave the tail words untouched.
        let mut acc = pack(&[10i8; 40]);
        let row = pack(&[100i8; 24]);
        let mut reference = acc.clone();
        saturating_accumulate_packed(&mut acc, &row);
        saturating_accumulate_packed_scalar(&mut reference, &row);
        assert_eq!(acc, reference);
        assert_eq!(acc[3..], pack(&[10i8; 40])[3..]);
    }

    #[test]
    fn unpacked_simd_matches_scalar_at_every_offset() {
        let mut rng = StdRng::seed_from_u64(0xA1107);
        let base: Vec<i8> = (0..256).map(|_| rng.gen_range(i8::MIN..=i8::MAX)).collect();
        let src: Vec<i8> = (0..256).map(|_| rng.gen_range(i8::MIN..=i8::MAX)).collect();
        // Misaligned starts exercise the unaligned loads; lengths sweep the tail loop.
        for offset in 0..8usize {
            for dim in (1..=129).step_by(7).chain([129]) {
                let mut simd_acc = base[offset..offset + dim].to_vec();
                let mut scalar_acc = simd_acc.clone();
                saturating_add_assign_i8(&mut simd_acc, &src[offset..offset + dim]);
                saturating_add_assign_i8_scalar(&mut scalar_acc, &src[offset..offset + dim]);
                assert_eq!(simd_acc, scalar_acc, "offset {offset} dim {dim}");
            }
        }
    }

    #[test]
    fn unpacked_simd_saturates_like_scalar() {
        for (fill_a, fill_b) in [(127i8, 127i8), (-128, -128), (-128, 127), (127, 1)] {
            let mut simd_acc = vec![fill_a; 100];
            let mut scalar_acc = vec![fill_a; 100];
            let src = vec![fill_b; 100];
            saturating_add_assign_i8(&mut simd_acc, &src);
            saturating_add_assign_i8_scalar(&mut scalar_acc, &src);
            assert_eq!(simd_acc, scalar_acc);
        }
    }

    /// The cells of one matrix of the scan property tests: `words` words, all zero
    /// (`fill` 0), all one (1) or random.
    fn bit_matrix(rng: &mut StdRng, words: usize, fill: usize) -> Vec<u64> {
        (0..words)
            .map(|_| match fill {
                0 => 0,
                1 => u64::MAX,
                _ => rng.gen_range(0..=u64::MAX),
            })
            .collect()
    }

    /// Every (dispatched, baseline) scan of `queries` against `rows`, checked against
    /// `hamming_distance` filtered one row at a time.
    fn assert_scan_matches_reference(rows: &BitRows<'_>, queries: &FlatQueries<'_>, what: &str) {
        let stride = rows.stride as u32;
        // The mid value sits just under the mean distance of random bits: hits and misses mix.
        let thresholds = [0, (stride * 32).saturating_sub(2), stride * 64, u32::MAX];
        for threshold in thresholds {
            let reference: Vec<Vec<usize>> = (0..queries.count)
                .map(|q| {
                    let query = queries.get(q);
                    (0..rows.valid_bits.len())
                        .filter(|&row| {
                            let valid_bits = rows.valid_bits[row];
                            if valid_bits == UNWRITTEN {
                                return false;
                            }
                            let prefix = words_for_bits(valid_bits).min(query.len());
                            let cells = &rows.words[row * rows.stride..][..prefix];
                            hamming_distance(&query[..prefix], cells) <= threshold
                        })
                        .collect()
                })
                .collect();
            assert!(reference.iter().all(|hits| hits.is_sorted()));

            let mut dispatched = vec![Vec::new(); queries.count];
            scan_matches(rows, queries, threshold, &mut dispatched);
            assert_eq!(dispatched, reference, "{what} threshold {threshold}");
            let mut baseline = vec![Vec::new(); queries.count];
            scan_baseline::<true>(rows, queries, threshold, |query, hits, count| {
                baseline[query].extend_from_slice(&hits[..count]);
            });
            assert_eq!(baseline, reference, "{what} threshold {threshold}");

            let lengths: Vec<usize> = reference.iter().map(Vec::len).collect();
            let mut counts = vec![0usize; queries.count];
            scan_counts(rows, queries, threshold, &mut counts);
            assert_eq!(counts, lengths, "{what} threshold {threshold}");
            let mut baseline_counts = vec![0usize; queries.count];
            scan_baseline::<false>(rows, queries, threshold, |query, _, count| {
                baseline_counts[query] += count;
            });
            assert_eq!(baseline_counts, lengths, "{what} threshold {threshold}");
        }
    }

    #[test]
    fn scan_simd_matches_scalar_and_the_row_at_a_time_reference() {
        let mut rng = StdRng::seed_from_u64(0x7CA3_5CA9);
        // Strides either side of the unrolled 4-word path; row counts straddling a tile.
        for stride in 1..=9usize {
            for (case, row_count) in [0usize, 1, 255, 256, 257, 1000].into_iter().enumerate() {
                for fill in 0..3 {
                    let valid_bits = vec![stride * 64; row_count];
                    let words = bit_matrix(&mut rng, row_count * stride, fill);
                    let rows = BitRows {
                        words: &words,
                        stride,
                        valid_bits: &valid_bits,
                    };
                    let count = [1usize, 70, 3, 64, 17, 2][(case + stride + fill) % 6];
                    let bits: Vec<u64> = (0..count * stride)
                        .map(|i| match (fill + i / stride) % 3 {
                            0 => 0,
                            1 => u64::MAX,
                            _ => rng.gen_range(0..=u64::MAX),
                        })
                        .collect();
                    let queries = FlatQueries {
                        bits: &bits,
                        words: stride,
                        count,
                    };
                    let what = format!("stride {stride} rows {row_count} fill {fill}");
                    assert_scan_matches_reference(&rows, &queries, &what);
                }
            }
        }
    }

    #[test]
    fn scan_keeps_row_semantics_where_tiles_are_not_dense() {
        let mut rng = StdRng::seed_from_u64(0x401E5);
        // 600 rows: the first tile dense, the second with holes and partly valid rows,
        // the third (ragged) dense again — so both paths run inside one scan.
        for stride in [1usize, 4, 5] {
            let mut valid_bits = vec![stride * 64; 600];
            for bits in &mut valid_bits[256..512] {
                *bits = match rng.gen_range(0..4) {
                    0 => UNWRITTEN,
                    1 => 0,
                    2 => rng.gen_range(0..=stride * 64),
                    _ => stride * 64,
                };
            }
            let words = bit_matrix(&mut rng, 600 * stride, 2);
            let rows = BitRows {
                words: &words,
                stride,
                valid_bits: &valid_bits,
            };
            // Queries as wide as a row, and shorter (down to no words at all).
            for query_words in 0..=stride {
                let bits: Vec<u64> = (0..5 * query_words)
                    .map(|_| rng.gen_range(0..=u64::MAX))
                    .collect();
                let queries = FlatQueries {
                    bits: &bits,
                    words: query_words,
                    count: 5,
                };
                let what = format!("stride {stride} query words {query_words}");
                assert_scan_matches_reference(&rows, &queries, &what);
                let distances = scan_distances(&rows, queries.get(0));
                let written = valid_bits.iter().filter(|&&bits| bits != UNWRITTEN);
                assert_eq!(distances.len(), written.count(), "{what}");
                for (row, distance) in distances {
                    let prefix = words_for_bits(valid_bits[row]).min(query_words);
                    let cells = &words[row * stride..][..prefix];
                    assert_eq!(distance, hamming_distance(&bits[..prefix], cells));
                }
            }
        }
    }
}

//! Range-partitioned embedding shards.
//!
//! A production catalogue does not live in one flat table: rows are partitioned across
//! shards (here: contiguous row ranges, the layout RecFlash-style frequency placement
//! assumes, since Zipf rank order is row order in the synthetic catalogues). The shard
//! layer owns the row storage and routes a row id to its shard. A batch is fetched and
//! pooled on the serving worker's own thread: the runtime's workers are the serve
//! path's parallelism, and a thread spawned per batch would only oversubscribe them.
//!
//! Storage is generic over the row element: `f32` shards mirror an
//! `EmbeddingTable`, `i8` shards mirror the
//! packed int8 rows of
//! [`PackedTable`](imars_fabric::cma::PackedTable) /
//! `QuantizedTable`. Pooling uses the same
//! accumulation semantics as those sources (plain f32 adds, lane-wise saturating int8
//! adds), so shard-served results are bit-identical to the unsharded reference.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex};

use imars_fabric::cost::{Cost, CostBreakdown};
use imars_recsys::arena::RowArena;
use imars_recsys::batch::PoolingBatch;
use imars_recsys::embedding::EmbeddingTable;
use imars_recsys::quantization::QuantizedTable;

use crate::cache::{CachePolicy, CacheStats, HotRowCache};
use crate::cluster::ClusterCounters;
use crate::error::ServeError;
use crate::placement::plurality_shard;
use crate::trace::PoolTrace;

/// A row element that can be pool-accumulated. `f32` uses plain addition (the
/// [`EmbeddingTable`] semantics); `i8` uses saturating addition (the GPCiM accumulator
/// semantics shared with [`imars_fabric::cma::saturating_add_packed_i8`]).
pub trait Lane: Copy + Default + Send + Sync + std::fmt::Debug + 'static {
    /// Bytes one element occupies on the wire (little-endian), used by the socket
    /// transport's length-prefixed frames.
    const WIRE_BYTES: usize;

    /// Accumulate `value` into `acc`.
    fn accumulate(acc: &mut Self, value: Self);

    /// Accumulate a whole row into `acc`, element by element in index order. The
    /// default is the scalar zip over [`Lane::accumulate`]; `f32` and `i8` override it
    /// with the runtime-dispatched SIMD kernels, which are pinned bit-identical to this
    /// scalar loop.
    #[inline]
    fn accumulate_slice(acc: &mut [Self], src: &[Self]) {
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            Self::accumulate(a, s);
        }
    }

    /// Append the little-endian wire encoding of `self` to `out`.
    fn to_wire(self, out: &mut Vec<u8>);

    /// Decode one element from its wire bytes (`WIRE_BYTES` long).
    fn from_wire(bytes: &[u8]) -> Self;
}

impl Lane for f32 {
    const WIRE_BYTES: usize = 4;

    #[inline]
    fn accumulate(acc: &mut Self, value: Self) {
        *acc += value;
    }

    #[inline]
    fn accumulate_slice(acc: &mut [Self], src: &[Self]) {
        imars_recsys::simd::add_assign_f32(acc, src);
    }

    #[inline]
    fn to_wire(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn from_wire(bytes: &[u8]) -> Self {
        f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

impl Lane for i8 {
    const WIRE_BYTES: usize = 1;

    #[inline]
    fn accumulate(acc: &mut Self, value: Self) {
        *acc = acc.saturating_add(value);
    }

    #[inline]
    fn accumulate_slice(acc: &mut [Self], src: &[Self]) {
        imars_fabric::simd::saturating_add_assign_i8(acc, src);
    }

    #[inline]
    fn to_wire(self, out: &mut Vec<u8>) {
        out.push(self as u8);
    }

    #[inline]
    fn from_wire(bytes: &[u8]) -> Self {
        bytes[0] as i8
    }
}

/// The engine's abstraction over a row store. The in-process [`ShardedTable`] and the
/// multi-node [`ClusterClient`](crate::cluster::ClusterClient) both implement it, so
/// the cache/pooling layer above is byte-for-byte the same code on both paths — which
/// is what makes the single-node and clustered outputs bit-identical. The engine holds
/// its source as a `Box<dyn RowSource<T>>`: topology is chosen once, at construction,
/// and everything the engine asks about it afterwards is a method of this trait or of
/// its precision-independent half, [`ShardTopology`].
pub(crate) trait RowSource<T: Lane>: ShardTopology {
    /// Copy the requested rows into the paired output chunks. Indices must be
    /// pre-validated; chunks are `dim` wide.
    fn fetch_rows(&mut self, work: Vec<(u32, &mut [T])>) -> Result<(), ServeError>;

    /// Sum-pool a CSR batch straight off the store (the cache-disabled path),
    /// accumulating each request in index order.
    fn pool_direct(&mut self, batch: &PoolingBatch, out: &mut [T]) -> Result<(), ServeError>;

    /// Clone into a fresh box through the source's own `Clone`, so a cluster router
    /// clone gets its own reply queue (and re-dials its sockets) exactly as a direct
    /// clone would.
    fn clone_box(&self) -> Box<dyn RowSource<T>>;
}

/// What a [`RowSource`] answers without naming a row type: its shape, its shards, and
/// the counters, degraded rows, trace events and fault deltas it accumulates. The
/// defaults are the in-process answers ("no cluster, nothing to report").
pub(crate) trait ShardTopology: Send + Sync + std::fmt::Debug {
    /// Elements per row.
    fn dim(&self) -> usize;

    /// Validate that every index addresses a valid row.
    fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError>;

    /// Number of shards the rows are partitioned across.
    fn num_shards(&self) -> usize;

    /// The home shard of one request's history (shard-aware batching): the shard
    /// owning most of its rows, ties toward the lower shard id.
    fn home_shard(&self, history: &[u32]) -> usize;

    /// Aggregated counters of the per-shard-node caches (all-zero without them).
    fn node_cache_stats(&self) -> CacheStats;

    /// Zero the counters this source owns (node caches; on a cluster, the shared
    /// cluster counters too). Resident cache rows are kept.
    fn reset_stats(&mut self);

    /// Bytes of row storage resident in this process. `None` when the rows live on a
    /// cluster's shard nodes instead.
    fn resident_bytes(&self) -> Option<usize> {
        None
    }

    /// The interconnect cost accumulated since the last collection — zero for a source
    /// with no interconnect to cross.
    fn take_interconnect(&mut self) -> (Cost, CostBreakdown) {
        (Cost::ZERO, CostBreakdown::new())
    }

    /// The shared cluster counters, for reporters that outlive this source. `None` for
    /// a source that is not a cluster.
    fn cluster_counters(&self) -> Option<Arc<ClusterCounters>> {
        None
    }

    /// Take the row ids the last fetches could not serve (their owner was dead and
    /// they had no replica; the chunks were zero-filled). Empty for sources that
    /// cannot degrade — only the fault-tolerant cluster client ever reports rows
    /// here. The caller owns the list; the source's record is cleared.
    fn take_missing(&mut self) -> Vec<u32> {
        Vec::new()
    }

    /// Arm per-fetch tracing: until [`ShardTopology::trace_drain`] is called, the
    /// source records dispatch/reply/timeout/retry/hedge/promotion events stamped on
    /// `clock`. Default is a no-op — only the cluster client has sub-request structure
    /// worth tracing; the in-process [`ShardedTable`] fetch is a single flat copy.
    fn trace_arm(&mut self, _clock: &std::sync::Arc<dyn crate::clock::Clock>) {}

    /// Take the fetch events recorded since [`ShardTopology::trace_arm`], disarming
    /// tracing. Empty for sources that do not record events.
    fn trace_drain(&mut self) -> Vec<crate::trace::FetchEvent> {
        Vec::new()
    }

    /// Take the shard-node server spans that arrived with replies since
    /// [`ShardTopology::trace_arm`]. Empty for sources without shard nodes. Call this
    /// *before* [`ShardTopology::trace_drain`], which disarms the sink.
    fn trace_drain_node_spans(&mut self) -> Vec<crate::trace::NodeSpanRecord> {
        Vec::new()
    }

    /// Drain the per-shard fault-counter deltas (timeouts / retries / promotions)
    /// accumulated since the last drain, for the metrics plane's per-window
    /// attribution. Empty for sources that cannot fault. Unlike the shared
    /// cluster counters, this is clone-local state: draining it per batch is
    /// deterministic regardless of what other worker clones are doing.
    fn take_fault_deltas(&mut self) -> Vec<crate::metrics::ShardFaultDelta> {
        Vec::new()
    }

    /// Whether this source serves fetches through per-shard-node caches (the
    /// [`CachePlacement::Shard`](crate::cache::CachePlacement::Shard) layout). When
    /// true, [`RowSource::fetch_rows`] absorbs repeated rows at the node and the
    /// router-side pooling path skips its own cache probes.
    fn node_cached(&self) -> bool {
        false
    }
}

impl<T: Lane> Clone for Box<dyn RowSource<T>> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Run `fetch` against `source` inside `trace`'s fetch window: stamp the begin, arm
/// the source's event capture, fetch, stamp the end and drain what the source
/// recorded. `None` runs `fetch` alone — the untraced path stays byte-identical to an
/// engine that never traced.
pub(crate) fn traced_fetch<S: ShardTopology + ?Sized, R>(
    source: &mut S,
    trace: Option<&mut PoolTrace>,
    fetch: impl FnOnce(&mut S) -> R,
) -> R {
    let Some(trace) = trace else {
        return fetch(source);
    };
    trace.fetch_begin_us = trace.clock.now_us();
    source.trace_arm(&trace.clock);
    let result = fetch(source);
    trace.fetch_end_us = trace.clock.now_us();
    trace.node_spans = source.trace_drain_node_spans();
    trace.events = source.trace_drain();
    result
}

/// One batch's flat lookups staged for pooling behind a flight table: each unique row
/// that `probe` could not serve is fetched from the source exactly once, and repeated
/// lookups of it are copied from the first occurrence's staging slot. The one
/// coalescing routine of the crate — the engine's cached pooling path (probe = the
/// router cache) and the cluster's cache-off direct path (probe = never) both call it,
/// so the routed traffic, and its bus charge, counts each unique row once per batch
/// either way.
pub(crate) struct Flight<T> {
    staging: Vec<T>,
    dim: usize,
    /// `(row, staging position)` of every row fetched from the source, in
    /// first-lookup order.
    pub(crate) fetched: Vec<(u32, usize)>,
    /// `(destination, source)` staging positions of lookups coalesced onto an earlier
    /// fetch of the same row in this batch.
    pub(crate) coalesced: Vec<(usize, usize)>,
}

impl<T: Lane> Flight<T> {
    /// Walk `batch`'s lookups in flat order: `probe(row, chunk)` returns `true` when it
    /// filled `chunk` itself (a cache hit); every other lookup joins the flight table.
    /// Then fetch the unique rows from `source`, the fetch window and router events
    /// captured into `trace` when set. Indices must be pre-validated.
    pub(crate) fn fetch<S: RowSource<T> + ?Sized>(
        source: &mut S,
        batch: &PoolingBatch,
        mut probe: impl FnMut(u32, &mut [T]) -> bool,
        trace: Option<&mut PoolTrace>,
    ) -> Result<Self, ServeError> {
        let dim = source.dim();
        let mut staging = vec![T::default(); batch.total_lookups() * dim];
        let mut fetched: Vec<(u32, usize)> = Vec::new();
        let mut coalesced: Vec<(usize, usize)> = Vec::new();
        {
            let mut in_flight: HashMap<u32, usize> = HashMap::new();
            let mut misses: Vec<(u32, &mut [T])> = Vec::new();
            for ((position, &row), chunk) in batch
                .indices()
                .iter()
                .enumerate()
                .zip(staging.chunks_mut(dim))
            {
                if probe(row, chunk) {
                    continue;
                }
                match in_flight.entry(row) {
                    Entry::Occupied(entry) => coalesced.push((position, *entry.get())),
                    Entry::Vacant(entry) => {
                        entry.insert(position);
                        fetched.push((row, position));
                        misses.push((row, chunk));
                    }
                }
            }
            traced_fetch(source, trace, |source| source.fetch_rows(misses))?;
        }
        Ok(Self {
            staging,
            dim,
            fetched,
            coalesced,
        })
    }

    /// The staged row at flat lookup `position`.
    pub(crate) fn row(&self, position: usize) -> &[T] {
        &self.staging[position * self.dim..(position + 1) * self.dim]
    }

    /// Fill the coalesced lookups from their first occurrence, then sum-pool each
    /// request from the staging buffer: request `i` accumulates staging rows
    /// `offsets[i]..offsets[i+1]` with [`Lane::accumulate`]. The accumulation order
    /// (flat request order) is the bit-exactness contract.
    pub(crate) fn pool(mut self, offsets: &[usize], out: &mut [T]) {
        let dim = self.dim;
        for &(destination, source) in &self.coalesced {
            self.staging
                .copy_within(source * dim..(source + 1) * dim, destination * dim);
        }
        for (slot, run) in out.chunks_mut(dim).zip(offsets.windows(2)) {
            slot.fill(T::default());
            for position in run[0]..run[1] {
                T::accumulate_slice(slot, self.row(position));
            }
        }
    }
}

/// An embedding table split into contiguous row-range shards, optionally fronted by
/// one hot-row cache per shard (the in-process model of per-shard-node caching: each
/// shard serves repeated fetches from its own cache instead of its row storage).
///
/// Shards do **not** own row copies: every shard is an offset range into one shared
/// [`RowArena`] allocation per dtype, so sharding a million-row table costs no row
/// memory beyond the arena itself (the old per-shard `Vec<T>` layout cost ~2× while
/// loading). Clones of this table alias the same arena.
#[derive(Debug, Clone)]
pub struct ShardedTable<T> {
    rows_per_shard: usize,
    num_shards: usize,
    /// The shared row storage; shard `s` views global rows
    /// `s * rows_per_shard .. min((s + 1) * rows_per_shard, rows)`.
    arena: RowArena<T>,
    /// One cache per shard when node caching is installed (shared across engine
    /// clones, like a shard node's cache is shared across its workers). Locked per
    /// row fetch; a batch's fetches run in flat order on one thread, so the per-shard
    /// access sequence — and therefore every counter — is deterministic on the
    /// simulated replay path.
    node_caches: Option<Arc<Vec<Mutex<HotRowCache<T>>>>>,
}

impl<T: Lane> ShardedTable<T> {
    /// Build a sharded table from rows in index order, split into at most `shards`
    /// contiguous ranges. Fewer shards are created when there are fewer rows than
    /// requested shards. The rows are copied once into a fresh arena; loading an
    /// existing table should prefer the zero-copy [`ShardedTable::from_arena`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `dim` or `shards` is zero, or
    /// [`ServeError::ShapeMismatch`] if any row is not `dim` long.
    pub fn from_rows<'a, I>(rows: I, dim: usize, shards: usize) -> Result<Self, ServeError>
    where
        I: IntoIterator<Item = &'a [T]>,
        T: 'a,
    {
        if dim == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "sharded table needs nonzero dim and shard count, got dim={dim} shards={shards}"
                ),
            });
        }
        let arena = RowArena::from_rows(rows, dim).map_err(|error| match error {
            imars_recsys::RecsysError::ShapeMismatch {
                expected, actual, ..
            } => ServeError::ShapeMismatch {
                what: "sharded table row",
                expected,
                actual,
            },
            other => ServeError::InvalidConfig {
                reason: other.to_string(),
            },
        })?;
        Self::from_arena(arena, shards)
    }

    /// Partition an existing [`RowArena`] into at most `shards` contiguous row-range
    /// views without copying a single row — the table shares the arena's allocation
    /// with the caller and with every clone of itself.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `shards` is zero.
    pub fn from_arena(arena: RowArena<T>, shards: usize) -> Result<Self, ServeError> {
        if shards == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "sharded table needs nonzero dim and shard count, got dim={} shards={shards}",
                    arena.dim()
                ),
            });
        }
        let rows_per_shard = arena.rows().div_ceil(shards).max(1);
        let num_shards = arena.rows().div_ceil(rows_per_shard);
        Ok(Self {
            rows_per_shard,
            num_shards,
            arena,
            node_caches: None,
        })
    }

    /// Install one hot-row cache per shard (capacity `per_shard_capacity` rows each,
    /// replaced under `policy`), turning this table into the in-process model of
    /// per-shard-node caching: [`ShardedTable::fetch_into`] serves repeated rows from
    /// the owning shard's cache instead of its storage. A zero capacity removes the
    /// caches again. The caches are shared across clones of this table, the way a
    /// shard node's cache is shared across its workers.
    pub fn install_node_caches(&mut self, per_shard_capacity: usize, policy: CachePolicy) {
        self.node_caches = (per_shard_capacity > 0).then(|| {
            Arc::new(
                (0..self.num_shards)
                    .map(|_| {
                        Mutex::new(HotRowCache::with_policy(
                            per_shard_capacity,
                            self.arena.dim(),
                            policy,
                        ))
                    })
                    .collect::<Vec<_>>(),
            )
        });
    }

    /// Whether per-shard-node caches are installed.
    pub fn node_cached(&self) -> bool {
        self.node_caches.is_some()
    }

    /// Counters of one shard's node cache (`None` without node caches or for an
    /// out-of-range shard).
    pub fn node_cache_stats_of(&self, shard: usize) -> Option<CacheStats> {
        let caches = self.node_caches.as_ref()?;
        let cache = caches.get(shard)?;
        Some(cache.lock().expect("node cache lock").stats())
    }

    /// Aggregated counters of the per-shard-node caches (all-zero when none are
    /// installed).
    pub fn node_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        if let Some(caches) = &self.node_caches {
            for cache in caches.iter() {
                total.merge(&cache.lock().expect("node cache lock").stats());
            }
        }
        total
    }

    /// Zero the node caches' counters (resident rows are kept).
    pub fn reset_node_cache_stats(&mut self) {
        if let Some(caches) = &self.node_caches {
            for cache in caches.iter() {
                cache.lock().expect("node cache lock").reset_stats();
            }
        }
    }

    /// Serve one row fetch through a shard's node cache: a hit copies the cached row,
    /// a miss reads storage and admits the row per the cache's policy.
    fn fetch_via_cache(&self, cache: &Mutex<HotRowCache<T>>, row: u32, chunk: &mut [T]) {
        let mut cache = cache.lock().expect("node cache lock");
        if let Some(data) = cache.lookup(row) {
            chunk.copy_from_slice(data);
        } else {
            chunk.copy_from_slice(self.row(row));
            cache.insert(row, chunk);
        }
    }

    /// Total number of rows across all shards.
    pub fn rows(&self) -> usize {
        self.arena.rows()
    }

    /// Elements per row.
    pub fn dim(&self) -> usize {
        self.arena.dim()
    }

    /// Number of shards actually created.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shared row storage every shard views. Memory-accounting tests use this to
    /// assert that sharding aliases one allocation instead of copying rows.
    pub fn arena(&self) -> &RowArena<T> {
        &self.arena
    }

    /// Rows per shard (the last shard may hold fewer).
    pub fn rows_per_shard(&self) -> usize {
        self.rows_per_shard
    }

    /// The shard owning a row id.
    #[inline]
    pub fn shard_of(&self, row: u32) -> usize {
        row as usize / self.rows_per_shard
    }

    /// Borrow one row straight from the shared arena. Panics if `row` is out of range;
    /// use [`ShardedTable::check_indices`] up front on untrusted input.
    #[inline]
    pub fn row(&self, row: u32) -> &[T] {
        self.arena.row(row as usize)
    }

    /// Validate that every index addresses a valid row.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::RowOutOfRange`] naming the first offending index.
    pub fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError> {
        for &index in indices {
            if index as usize >= self.arena.rows() {
                return Err(ServeError::RowOutOfRange {
                    row: index as usize,
                    rows: self.arena.rows(),
                });
            }
        }
        Ok(())
    }

    /// Copy the requested rows into per-row output chunks, in flat order, each through
    /// its shard's node cache when one is installed. Indices must already be validated;
    /// `work` pairs a row id with its destination chunk.
    pub fn fetch_into(&self, work: Vec<(u32, &mut [T])>) {
        debug_assert!(work
            .iter()
            .all(|(_, chunk)| chunk.len() == self.arena.dim()));
        match &self.node_caches {
            Some(caches) => {
                for (row, chunk) in work {
                    self.fetch_via_cache(&caches[self.shard_of(row)], row, chunk);
                }
            }
            None => {
                for (row, chunk) in work {
                    chunk.copy_from_slice(self.row(row));
                }
            }
        }
    }

    /// Sum-pool a CSR batch of multi-hot requests into `out` (`batch.len() × dim`,
    /// row-major), accumulating each request's rows in index order with
    /// [`Lane::accumulate`]. An empty request pools to the all-default (zero) row.
    ///
    /// For `f32` this is bit-identical to
    /// [`EmbeddingTable::pool`](imars_recsys::embedding::EmbeddingTable::pool) over the
    /// same rows; for `i8` it is bit-identical to
    /// [`PackedTable::pool`](imars_fabric::cma::PackedTable::pool).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShapeMismatch`] if `out` is not `batch.len() * dim` long,
    /// or [`ServeError::RowOutOfRange`] if any request references an invalid row.
    pub fn pool_batch(&self, batch: &PoolingBatch, out: &mut [T]) -> Result<(), ServeError> {
        let dim = self.arena.dim();
        if out.len() != batch.len() * dim {
            return Err(ServeError::ShapeMismatch {
                what: "batch pooling output",
                expected: batch.len() * dim,
                actual: out.len(),
            });
        }
        self.check_indices(batch.indices())?;
        for (i, slot) in out.chunks_mut(dim).enumerate() {
            slot.fill(T::default());
            for &row in batch.request(i) {
                T::accumulate_slice(slot, self.row(row));
            }
        }
        Ok(())
    }
}

impl<T: Lane> RowSource<T> for ShardedTable<T> {
    fn fetch_rows(&mut self, work: Vec<(u32, &mut [T])>) -> Result<(), ServeError> {
        self.fetch_into(work);
        Ok(())
    }

    fn pool_direct(&mut self, batch: &PoolingBatch, out: &mut [T]) -> Result<(), ServeError> {
        self.pool_batch(batch, out)
    }

    fn clone_box(&self) -> Box<dyn RowSource<T>> {
        Box::new(self.clone())
    }
}

impl<T: Lane> ShardTopology for ShardedTable<T> {
    fn dim(&self) -> usize {
        ShardedTable::dim(self)
    }

    fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError> {
        ShardedTable::check_indices(self, indices)
    }

    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn home_shard(&self, history: &[u32]) -> usize {
        plurality_shard(
            history.iter().map(|&row| self.shard_of(row)),
            self.num_shards,
        )
    }

    fn node_cache_stats(&self) -> CacheStats {
        ShardedTable::node_cache_stats(self)
    }

    fn reset_stats(&mut self) {
        self.reset_node_cache_stats();
    }

    fn resident_bytes(&self) -> Option<usize> {
        Some(self.arena.resident_bytes())
    }

    fn node_cached(&self) -> bool {
        ShardedTable::node_cached(self)
    }
}

/// Shard a full-precision embedding table.
///
/// # Errors
///
/// As for [`ShardedTable::from_rows`].
pub fn shard_embedding(
    table: &EmbeddingTable,
    shards: usize,
) -> Result<ShardedTable<f32>, ServeError> {
    ShardedTable::from_rows(table.iter_rows(), table.dim(), shards)
}

/// Shard an int8-quantized embedding table.
///
/// # Errors
///
/// As for [`ShardedTable::from_rows`].
pub fn shard_quantized(
    table: &QuantizedTable,
    shards: usize,
) -> Result<ShardedTable<i8>, ServeError> {
    ShardedTable::from_rows(table.iter_rows(), table.dim(), shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imars_fabric::cma::PackedTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
        EmbeddingTable::new(rows, dim, seed).unwrap()
    }

    #[test]
    fn construction_validates_and_partitions() {
        let t = table(100, 8, 1);
        let sharded = shard_embedding(&t, 4).unwrap();
        assert_eq!(sharded.rows(), 100);
        assert_eq!(sharded.dim(), 8);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.rows_per_shard(), 25);
        assert_eq!(sharded.shard_of(0), 0);
        assert_eq!(sharded.shard_of(24), 0);
        assert_eq!(sharded.shard_of(25), 1);
        assert_eq!(sharded.shard_of(99), 3);
        assert!(ShardedTable::<f32>::from_rows(std::iter::empty(), 0, 4).is_err());
        assert!(ShardedTable::<f32>::from_rows(std::iter::empty(), 4, 0).is_err());
        let ragged: Vec<&[f32]> = vec![&[1.0, 2.0], &[3.0]];
        assert!(matches!(
            ShardedTable::from_rows(ragged, 2, 2),
            Err(ServeError::ShapeMismatch { .. })
        ));
    }

    /// The arena tentpole's memory accounting: sharding a table moves ONE allocation
    /// into the arena (pointer-identical to the table's own buffer) and shard views are
    /// offset ranges over it — no per-shard row copies, in either dtype.
    #[test]
    fn sharding_reuses_the_table_allocation_without_row_copies() {
        let t = table(1000, 8, 7);
        let data_ptr = t.lookup(0).unwrap().as_ptr();
        let arena = t.into_arena();
        let sharded = ShardedTable::from_arena(arena.clone(), 8).unwrap();
        assert_eq!(sharded.num_shards(), 8);
        assert_eq!(sharded.arena().storage_ptr(), data_ptr);
        assert!(sharded.arena().shares_storage(&arena));
        // Two handles (ours + the table's), one allocation's worth of bytes.
        assert_eq!(arena.handle_count(), 2);
        assert_eq!(
            arena.resident_bytes(),
            1000 * 8 * std::mem::size_of::<f32>()
        );

        let quantized = QuantizedTable::from_table(&table(1000, 8, 9));
        let int8_ptr = quantized.row(0).unwrap().as_ptr();
        let (int8_arena, _) = quantized.into_arena();
        let sharded = ShardedTable::from_arena(int8_arena.clone(), 8).unwrap();
        assert_eq!(sharded.arena().storage_ptr(), int8_ptr);
        assert_eq!(int8_arena.handle_count(), 2);
        assert_eq!(int8_arena.resident_bytes(), 1000 * 8);
    }

    #[test]
    fn fewer_rows_than_shards_collapses() {
        let t = table(3, 4, 2);
        let sharded = shard_embedding(&t, 16).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.rows_per_shard(), 1);
        for row in 0..3u32 {
            assert_eq!(sharded.row(row), t.lookup(row as usize).unwrap());
        }
    }

    #[test]
    fn rows_match_the_source_table_across_shards() {
        let t = table(97, 16, 3);
        for shards in [1, 2, 3, 8, 97] {
            let sharded = shard_embedding(&t, shards).unwrap();
            for row in 0..97u32 {
                assert_eq!(
                    sharded.row(row),
                    t.lookup(row as usize).unwrap(),
                    "shards={shards} row={row}"
                );
            }
        }
    }

    #[test]
    fn check_indices_names_the_offender() {
        let sharded = shard_embedding(&table(10, 4, 4), 2).unwrap();
        assert!(sharded.check_indices(&[0, 9]).is_ok());
        assert!(matches!(
            sharded.check_indices(&[0, 10]),
            Err(ServeError::RowOutOfRange { row: 10, rows: 10 })
        ));
    }

    #[test]
    fn fetch_into_copies_rows_in_parallel() {
        let t = table(256, 8, 5);
        let sharded = shard_embedding(&t, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let rows: Vec<u32> = (0..300).map(|_| rng.gen_range(0..256u32)).collect();
        let mut out = vec![0.0f32; rows.len() * 8];
        let work: Vec<(u32, &mut [f32])> = rows.iter().copied().zip(out.chunks_mut(8)).collect();
        sharded.fetch_into(work);
        for (&row, chunk) in rows.iter().zip(out.chunks(8)) {
            assert_eq!(chunk, t.lookup(row as usize).unwrap());
        }
    }

    #[test]
    fn f32_pool_batch_matches_embedding_table_bit_for_bit() {
        let t = table(128, 16, 7);
        let sharded = shard_embedding(&t, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let requests: Vec<Vec<u32>> = (0..50)
            .map(|_| {
                let count = rng.gen_range(0..20usize);
                (0..count).map(|_| rng.gen_range(0..128u32)).collect()
            })
            .collect();
        let batch = PoolingBatch::from_requests(&requests);
        let mut out = vec![0.0f32; batch.len() * 16];
        sharded.pool_batch(&batch, &mut out).unwrap();
        for (request, chunk) in requests.iter().zip(out.chunks(16)) {
            let indices: Vec<usize> = request.iter().map(|&r| r as usize).collect();
            assert_eq!(chunk, t.pool(&indices).unwrap().as_slice());
        }
    }

    #[test]
    fn i8_pool_batch_matches_packed_table_bit_for_bit() {
        let rows: Vec<Vec<i8>> = (0..64)
            .map(|r| {
                (0..32)
                    .map(|i| ((r * 37 + i * 11) % 255 - 127) as i8)
                    .collect()
            })
            .collect();
        let packed = PackedTable::from_rows(rows.iter().map(|r| r.as_slice()), 32).unwrap();
        let sharded = ShardedTable::from_rows(rows.iter().map(|r| r.as_slice()), 32, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let requests: Vec<Vec<u32>> = (0..40)
            .map(|_| {
                let count = rng.gen_range(0..12usize);
                (0..count).map(|_| rng.gen_range(0..64u32)).collect()
            })
            .collect();
        let batch = PoolingBatch::from_requests(&requests);
        let mut out = vec![0i8; batch.len() * 32];
        sharded.pool_batch(&batch, &mut out).unwrap();
        for (request, chunk) in requests.iter().zip(out.chunks(32)) {
            assert_eq!(chunk, packed.pool(request).unwrap().as_slice());
        }
    }

    #[test]
    fn pool_batch_validates_shape_and_indices() {
        let sharded = shard_embedding(&table(10, 4, 10), 2).unwrap();
        let batch = PoolingBatch::from_requests(&[vec![1u32, 2]]);
        let mut short = vec![0.0f32; 2];
        assert!(matches!(
            sharded.pool_batch(&batch, &mut short),
            Err(ServeError::ShapeMismatch { .. })
        ));
        let bad = PoolingBatch::from_requests(&[vec![99u32]]);
        let mut out = vec![0.0f32; 4];
        assert!(matches!(
            sharded.pool_batch(&bad, &mut out),
            Err(ServeError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn quantized_sharding_round_trips() {
        let t = table(60, 8, 11);
        let quantized = QuantizedTable::from_table(&t);
        let sharded = shard_quantized(&quantized, 3).unwrap();
        assert_eq!(sharded.rows(), 60);
        for row in 0..60u32 {
            assert_eq!(sharded.row(row), quantized.row(row as usize).unwrap());
        }
    }
}

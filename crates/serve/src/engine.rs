//! The serving engine: dynamic batching in front of the sharded, cached embedding layer,
//! TCAM candidate filtering, and batched DLRM ranking.
//!
//! One batch flows through the paper's pipeline as three stages, each a read-only model
//! shared by every clone of the engine plus one worker's scratch and cost charge:
//!
//! 1. **pooling** — each query's multi-hot item history is sum-pooled through the hot-row
//!    cache and the embedding shards into a user profile (the GPCiM workload: one CMA RAM
//!    read per cache *miss*, one in-memory add per accumulated row);
//! 2. **filtering** — the profile is LSH-signed and matched against the item signatures
//!    in TCAM mode ([`CmaArray::count_batch`], one serialized search charge per query);
//! 3. **ranking** — the profile is the dense input of a [`Dlrm`] sample, and the batch is
//!    scored by [`Dlrm::predict_batch_into`] on the worker's own thread.
//!
//! Everything downstream of the batcher operates on whole batches, and all numeric
//! results are bit-identical whether the cache is enabled or not (cached rows are exact
//! copies and accumulation order is the request order) — the equivalence the test suite
//! pins down.
//!
//! Replay timing is a discrete-event simulation: arrivals come from the trace's virtual
//! clock, service times are measured on the real machine, and a request's reported
//! latency is queue wait (virtual) plus the measured service time of its batch.

use std::time::Instant;

use imars_device::characterization::ArrayFom;
use imars_fabric::cma::CmaArray;
use imars_fabric::cost::{Cost, CostComponent};
use imars_recsys::arena::RowArena;
use imars_recsys::batch::{par_map, PoolingBatch};
use imars_recsys::dlrm::{Dlrm, DlrmSampleView, DlrmScratch};
use imars_recsys::embedding::EmbeddingTable;
use imars_recsys::lsh::RandomHyperplaneLsh;
use imars_recsys::quantization::{QuantizationParams, QuantizedTable};

use imars_datasets::workload::InferenceQuery;

use crate::batcher::{BatchPolicy, DynamicBatcher, FlushedBatch};
use crate::cache::{CachePlacement, CachePolicy, CacheStats, HotRowCache, RowSet};
use crate::clock::Clock;
use crate::cluster::{
    connect_cluster, spawn_cluster_with, ClusterConfig, ClusterHandle, ClusterOptions,
    NodeCacheConfig,
};
use crate::error::ServeError;
use crate::metrics::{MetricsConfig, MetricsScraper};
use crate::placement::ShardPlan;
use crate::replay::ReplayWorkload;
use crate::shard::{traced_fetch, Flight, Lane, RowSource, ShardTopology, ShardedTable};
use crate::telemetry::{ClusterStats, RuntimeStats, ServeReport, ServeTelemetry};
use crate::trace::{BatchTrace, TraceConfig, TraceLog, Tracer};
use std::sync::Arc;

/// Numeric format of the item embedding rows the engine serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePrecision {
    /// Full-precision rows, plain f32 accumulation (the GPU-baseline format).
    Fp32,
    /// Int8-quantized rows with saturating accumulation (the CMA row format); pooled
    /// profiles are dequantized before filtering and ranking.
    Int8,
}

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of embedding shards (contiguous row ranges).
    pub shards: usize,
    /// Hot-row cache capacity in rows (0 disables the cache). Under
    /// [`CachePlacement::Shard`] this is the *total* budget, split evenly across the
    /// shard nodes (rounded up per shard).
    pub cache_capacity: usize,
    /// Replacement/admission policy of the hot-row cache.
    pub cache_policy: CachePolicy,
    /// Where the hot-row cache lives: one cache at the router (the classic layout) or
    /// one per shard node, co-located with the rows it fronts.
    pub cache_placement: CachePlacement,
    /// Row format served from the shards.
    pub precision: ServePrecision,
    /// Dynamic batching policy.
    pub policy: BatchPolicy,
    /// LSH signature width in bits (the paper uses 256).
    pub signature_bits: usize,
    /// TCAM fixed-radius threshold for candidate filtering.
    pub search_radius: u32,
    /// Seed of the LSH hyperplanes.
    pub lsh_seed: u64,
}

impl ServeConfig {
    /// The paper-shaped serving point: 4 shards, 256-bit signatures, a fixed radius that
    /// passes O(100) candidates on a few-thousand-item catalogue, and a 64-deep /
    /// 500 µs batching window.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; the `Result` mirrors [`BatchPolicy::new`].
    pub fn paper_serving(cache_capacity: usize) -> Result<Self, ServeError> {
        Ok(Self {
            shards: 4,
            cache_capacity,
            cache_policy: CachePolicy::Clock,
            cache_placement: CachePlacement::Router,
            precision: ServePrecision::Fp32,
            policy: BatchPolicy::new(64, 500.0)?,
            signature_bits: 256,
            search_radius: 112,
            lsh_seed: 77,
        })
    }

    /// Capacity of the router-side cache under this layout: the full budget for
    /// [`CachePlacement::Router`], zero when the rows are cached at the shard nodes
    /// (the router then still runs its capacity-0 cache as the coalescing ledger).
    fn router_cache_capacity(&self) -> usize {
        match self.cache_placement {
            CachePlacement::Router => self.cache_capacity,
            CachePlacement::Shard => 0,
        }
    }

    /// The per-shard-node cache both topologies install: the total budget split evenly
    /// (rounded up) over the `shards` actually built. `None` when the cache stays at the
    /// router or the budget is zero.
    fn node_cache_config(&self, shards: usize) -> Option<NodeCacheConfig> {
        let capacity = match self.cache_placement {
            CachePlacement::Router => 0,
            CachePlacement::Shard => self.cache_capacity.div_ceil(shards.max(1)),
        };
        (capacity > 0).then_some(NodeCacheConfig {
            capacity,
            policy: self.cache_policy,
        })
    }
}

/// One timed serving request: the inference query plus the features the engine needs to
/// execute it (multi-hot item history and DLRM categorical values).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Request id (trace position).
    pub id: u64,
    /// Arrival timestamp in microseconds on the trace's virtual clock.
    pub arrival_us: f64,
    /// The underlying inference query (user, candidate budget, top-k).
    pub query: InferenceQuery,
    /// Multi-hot item history: catalogue rows pooled into the user profile.
    pub history: Vec<u32>,
    /// One categorical value per DLRM sparse field.
    pub sparse: Vec<usize>,
}

/// The served result of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Request id the response answers.
    pub id: u64,
    /// Predicted click-through rate from the ranking stage.
    pub score: f32,
    /// Candidates the TCAM filtering stage passed to ranking (capped at the query's
    /// candidate budget).
    pub candidates: usize,
    /// End-to-end latency in microseconds (queue wait + batch service); filled by
    /// [`ServeEngine::replay`], zero for direct [`ServeEngine::process_batch`] calls.
    pub latency_us: f64,
}

/// The result of one replay run: every response plus the aggregated report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Responses in completion order (batch by batch, arrival order within a batch).
    pub responses: Vec<ServeResponse>,
    /// Aggregated latency/throughput/cache/cost report.
    pub report: ServeReport,
    /// Sampled query traces (empty unless [`ServeEngine::enable_tracing`] was called).
    pub trace: TraceLog,
}

/// The cached item row store at one precision: a row source — in-process shards or a
/// cluster router, chosen at construction and never matched on afterwards — fronted by
/// the router-side hot-row cache, plus the flight table its batches pool through.
#[derive(Debug, Clone)]
struct Store<T: Lane> {
    source: Box<dyn RowSource<T>>,
    cache: HotRowCache<T>,
    /// The engine's one flight table, refilled per batch. It lives here rather than in
    /// [`PoolScratch`] because its fetched-row buffer has the store's row type.
    flight: Flight<T>,
}

/// What the pooling stage writes per batch, kept across batches so a warm engine pools
/// without allocating: the batch in CSR form, its dense profiles, the int8 sums an int8
/// store pools into before dequantizing, and the rows a degraded cluster zero-filled.
/// Every buffer only grows.
#[derive(Debug, Clone, Default)]
struct PoolScratch {
    batch: PoolingBatch,
    dense: Vec<f32>,
    int8: Vec<i8>,
    /// The batch's degraded rows, built once per batch: the cache refuses to admit
    /// them, and the engine counts the queries that touched one.
    degraded: RowSet,
}

/// Where a constructor wants the catalogue rows to live.
enum Topology<'a> {
    /// [`ServeConfig::shards`] in-process shards viewing the arena.
    InProcess,
    /// Shard nodes behind a cluster router: in-process worker threads, or (with
    /// `sockets`) separate processes behind Unix-domain sockets.
    Cluster {
        cluster: &'a ClusterConfig,
        histogram: Option<&'a [u64]>,
        sockets: Option<&'a [std::path::PathBuf]>,
        options: ClusterOptions,
    },
}

impl<T: Lane> Store<T> {
    /// Put the catalogue `arena` behind the row source `topology` asks for and front it
    /// with the router cache. A cluster topology also returns the handle owning its
    /// shard nodes.
    fn build(
        arena: RowArena<T>,
        config: &ServeConfig,
        topology: Topology<'_>,
    ) -> Result<(Self, Option<ClusterHandle>), ServeError> {
        let dim = arena.dim();
        let (source, handle): (Box<dyn RowSource<T>>, _) = match topology {
            Topology::InProcess => {
                let mut shards = ShardedTable::from_arena(arena, config.shards)?;
                if let Some(cache) = config.node_cache_config(shards.num_shards()) {
                    shards.install_node_caches(cache.capacity, cache.policy);
                }
                (Box::new(shards), None)
            }
            Topology::Cluster {
                cluster,
                histogram,
                sockets,
                mut options,
            } => {
                let plan = ShardPlan::build(
                    arena.rows(),
                    cluster.shards,
                    cluster.placement,
                    cluster.hot_replicas,
                    histogram,
                )?;
                options.node_cache = config.node_cache_config(plan.num_shards());
                let (client, handle) = match sockets {
                    None => spawn_cluster_with(&arena, plan, cluster, options)?,
                    Some(sockets) => connect_cluster(&arena, plan, cluster, sockets, options)?,
                };
                (Box::new(client), Some(handle))
            }
        };
        let cache =
            HotRowCache::with_policy(config.router_cache_capacity(), dim, config.cache_policy);
        let flight = Flight::default();
        Ok((
            Self {
                source,
                cache,
                flight,
            },
            handle,
        ))
    }

    /// Pool a CSR batch through the cache and the row source: probe the cache per
    /// lookup in flat order, recording where each lookup's row is (a cache slot, or the
    /// flight's one fetch of it); fetch the unique misses from the source into the
    /// flight's row buffer; sum-pool each request in request order straight from the
    /// cache slots and fetched rows; and only then admit the fetched rows to the cache.
    /// Pooling must come first: an admission can evict a slot that a later lookup of the
    /// same batch points at.
    ///
    /// Accumulation order is always the request's index order, and cached rows are
    /// exact copies of source rows, so the pooled profiles are bit-identical with the
    /// cache on, off, or at any capacity — and identical across the single-node and
    /// cluster sources.
    ///
    /// Leaves in `degraded` the rows the source reported missing (zero-filled by a
    /// degraded cluster; none outside one) and returns them. A missing row contributes
    /// zero to its pools and is **never** admitted to the cache: degradation must stay
    /// transient, not poison future batches after the shard recovers. `trace`, when set,
    /// captures the fetch window and the router's per-sub-request events for the batch;
    /// `None` leaves the pooling path byte-identical to the untraced engine.
    fn pool_profiles(
        &mut self,
        batch: &PoolingBatch,
        profiles: &mut [T],
        degraded: &mut RowSet,
        mut trace: Option<&mut BatchTrace>,
    ) -> Result<Vec<u32>, ServeError> {
        let Self {
            source,
            cache,
            flight,
        } = self;
        let source = source.as_mut();
        let dim = source.dim();
        debug_assert_eq!(profiles.len(), batch.len() * dim, "pooled profile buffer");
        let lookups = batch.total_lookups() as u64;
        degraded.clear();
        if cache.capacity() == 0 && !source.node_cached() {
            // Disabled-cache fast path: pool straight off the source, zero cache probes.
            // Counted as all-miss so hit-rate reporting stays comparable across configs.
            // Sources with per-shard-node caches skip this: they still want the router's
            // capacity-0 cache as the miss-coalescing ledger, so each unique row is
            // fetched (and counted at the nodes) exactly once per batch.
            if let Some(trace) = trace.as_deref_mut() {
                trace.misses = lookups;
            }
            traced_fetch(source, trace, |source| source.pool_direct(batch, profiles))?;
            cache.record_misses(lookups);
            let missing = source.take_missing();
            degraded.extend(&missing);
            return Ok(missing);
        }
        source.check_indices(batch.indices())?;
        flight.fetch(
            source,
            batch.indices(),
            |row| cache.lookup_slot(row),
            trace.as_deref_mut(),
        )?;
        // Every repeated miss was counted as one by its probe, but rode an earlier
        // fetch of the same row instead of causing its own.
        for _ in 0..flight.coalesced {
            cache.coalesce_last_miss();
        }
        if let Some(trace) = trace {
            trace.misses = flight.fetched.len() as u64;
            trace.coalesced = flight.coalesced as u64;
            trace.hits = lookups - trace.misses - trace.coalesced;
        }
        flight.pool(batch.offsets(), cache.slots(), profiles);
        // Admit the fetched rows, in lookup order so CLOCK state stays deterministic —
        // except rows a degraded cluster zero-filled, which must not be cached.
        let missing = source.take_missing();
        degraded.extend(&missing);
        for (index, &row) in flight.fetched.iter().enumerate() {
            if !degraded.contains(&row) {
                cache.insert(row, flight.fetched_row(index));
            }
        }
        Ok(missing)
    }
}

/// The item row store in one of the two served precisions — the engine's only store
/// enum. Everything but [`ItemStore::pool_dense`] asks the same question of either
/// precision's [`Store`].
#[derive(Debug, Clone)]
enum ItemStore {
    Fp32(Store<f32>),
    /// Int8 rows plus the parameters that dequantize their pooled sums.
    Int8(Store<i8>, QuantizationParams),
}

impl ItemStore {
    /// The precision-independent face of the row source.
    fn source(&self) -> &dyn ShardTopology {
        match self {
            ItemStore::Fp32(store) => store.source.as_ref(),
            ItemStore::Int8(store, _) => store.source.as_ref(),
        }
    }

    fn source_mut(&mut self) -> &mut dyn ShardTopology {
        match self {
            ItemStore::Fp32(store) => store.source.as_mut(),
            ItemStore::Int8(store, _) => store.source.as_mut(),
        }
    }

    /// Router-side cache counters only. The metrics plane's per-window cache
    /// attribution reads these instead of [`ItemStore::cache_stats`]: the node-cache
    /// counters are shared atomics that other worker clones mutate concurrently, so
    /// folding them into a window would make the per-window split nondeterministic.
    fn router_cache_stats(&self) -> CacheStats {
        match self {
            ItemStore::Fp32(store) => store.cache.stats(),
            ItemStore::Int8(store, _) => store.cache.stats(),
        }
    }

    /// The run's combined cache counters: the router cache merged with whatever the
    /// per-shard-node caches absorbed. A router miss that a node cache served is *not*
    /// a storage read, so node hits are subtracted back out of the router's misses —
    /// `misses` stays "rows actually read from shard storage", which is exactly what
    /// the GPCiM cost model charges a CMA RAM read for. With node caches off the node
    /// side is all-zero and this degenerates to the router cache's own counters.
    fn cache_stats(&self) -> CacheStats {
        let (router, node) = (self.router_cache_stats(), self.source().node_cache_stats());
        CacheStats {
            hits: router.hits + node.hits,
            coalesced: router.coalesced + node.coalesced,
            // Saturating: replica/hedge duplicates can make node lookups outnumber
            // router misses on a faulted cluster.
            misses: router.misses.saturating_sub(node.hits),
            insertions: router.insertions + node.insertions,
            evictions: router.evictions + node.evictions,
            rejections: router.rejections + node.rejections,
        }
    }

    fn reset_cache_stats(&mut self) {
        match self {
            ItemStore::Fp32(store) => store.cache.reset_stats(),
            ItemStore::Int8(store, _) => store.cache.reset_stats(),
        }
        self.source_mut().reset_stats();
    }
}

/// The pooling stage: the item store, the scratch its batches pool into, and the GPCiM
/// charge per CMA row read and per in-memory add, fixed at build. Its model is the
/// store's row source, shallow to clone already: an in-process arena is one `Arc`, and
/// a cluster router clone shares its plan and counters. The store's router cache and
/// flight table are this worker's own.
#[derive(Debug, Clone)]
struct PoolStage {
    store: ItemStore,
    scratch: PoolScratch,
    read: Cost,
    add: Cost,
}

impl PoolStage {
    /// Pool every request's history into the dense profiles the other two stages read
    /// (`dim` per request, in request order; an int8 store pools into its reused sums,
    /// then dequantizes) and charge it: one CMA RAM read per cache miss (hits are
    /// served from the buffer next to the compute), one in-memory add per accumulated
    /// row beyond each request's first, and the RSC bus for cross-shard fetches.
    /// Zero-filled rows of a degraded cluster, and the queries that touched one, are
    /// counted in `telemetry`. A warm batch allocates nothing here.
    fn pool(
        &mut self,
        requests: &[ServeRequest],
        telemetry: &mut ServeTelemetry,
        trace: Option<&mut BatchTrace>,
    ) -> Result<&[f32], ServeError> {
        let misses_before = self.store.cache_stats().misses;
        let PoolScratch {
            batch,
            dense,
            int8,
            degraded,
        } = &mut self.scratch;
        batch.refill(requests.iter().map(|request| request.history.as_slice()));
        dense.resize(requests.len() * self.store.source().dim(), 0.0);
        let missing = match &mut self.store {
            ItemStore::Fp32(store) => store.pool_profiles(batch, dense, degraded, trace)?,
            ItemStore::Int8(store, params) => {
                int8.resize(dense.len(), 0);
                let missing = store.pool_profiles(batch, int8, degraded, trace)?;
                for (out, &quantized) in dense.iter_mut().zip(int8.iter()) {
                    *out = params.dequantize(quantized);
                }
                missing
            }
        };
        if !missing.is_empty() {
            telemetry.missing_row_lookups += missing.len() as u64;
            for i in 0..batch.len() {
                if batch.request(i).iter().any(|row| degraded.contains(row)) {
                    telemetry.degraded_queries += 1;
                }
            }
        }
        let misses = self
            .store
            .cache_stats()
            .misses
            .saturating_sub(misses_before);
        let added = (0..batch.len()).map(|i| batch.request(i).len().saturating_sub(1));
        let (reads, adds) = (
            self.read.repeat(misses as usize),
            self.add.repeat(added.sum()),
        );
        telemetry.cost.charge(CostComponent::CmaRead, reads);
        telemetry.cost.charge(CostComponent::CmaAdd, adds);
        telemetry.total_cost += reads.serial(adds);
        let (interconnect, breakdown) = self.store.source_mut().take_interconnect();
        if interconnect != Cost::ZERO {
            telemetry.cost.merge(&breakdown);
            telemetry.total_cost += interconnect;
        }
        Ok(dense)
    }
}

/// The filtering stage's read-only model, one per process: the LSH hasher and the TCAM
/// loaded with every item row's signature.
#[derive(Debug)]
struct FilterModel {
    lsh: RandomHyperplaneLsh,
    tcam: CmaArray,
}

/// The candidate-filtering stage: the shared [`FilterModel`], the radius it matches
/// within, and this worker's reused signature and match-count buffers.
#[derive(Debug, Clone)]
struct FilterStage {
    model: Arc<FilterModel>,
    radius: u32,
    /// The batch's LSH signatures, flat at `lsh.signature_words()` words per query.
    signatures: Vec<u64>,
    /// Each query's TCAM match count, capped at the batch's largest `candidates`.
    match_counts: Vec<usize>,
}

impl FilterStage {
    /// Load a TCAM of array figures `fom` with every item row's signature. The
    /// signatures are computed on every core, a run of rows per job, and written to the
    /// TCAM in row order.
    fn build(
        items: &EmbeddingTable,
        config: &ServeConfig,
        fom: ArrayFom,
    ) -> Result<Self, ServeError> {
        let lsh = RandomHyperplaneLsh::new(items.dim(), config.signature_bits, config.lsh_seed)?;
        let mut tcam = CmaArray::new(items.rows(), config.signature_bits, fom);
        // About a microsecond per row: enough jobs to keep both cores busy, few enough
        // that claiming them costs nothing.
        const ROWS_PER_JOB: usize = 256;
        let words = lsh.signature_words();
        let runs = par_map(items.rows().div_ceil(ROWS_PER_JOB), |run| {
            let rows = run * ROWS_PER_JOB..items.rows().min((run + 1) * ROWS_PER_JOB);
            let mut signatures = vec![0u64; rows.len() * words];
            for (row, signature) in rows.zip(signatures.chunks_exact_mut(words)) {
                lsh.signature_into(items.lookup(row)?, signature)?;
            }
            Ok::<_, ServeError>(signatures)
        });
        let mut row = 0;
        for run in runs {
            for signature in run?.chunks_exact(words) {
                tcam.write_row_bits(row, signature, config.signature_bits)?;
                row += 1;
            }
        }
        Ok(Self {
            model: Arc::new(FilterModel { lsh, tcam }),
            radius: config.search_radius,
            signatures: Vec::new(),
            match_counts: Vec::new(),
        })
    }

    /// Sign each dense profile and count its TCAM matches within the radius, one
    /// serialized search charged per query. A response reports how many rows matched,
    /// capped at its own `candidates`, not which, so the stage asks the array for the
    /// counts up to the batch's largest cap; the host twin stops scanning a query there.
    fn filter(
        &mut self,
        requests: &[ServeRequest],
        dense: &[f32],
        telemetry: &mut ServeTelemetry,
    ) -> Result<&[usize], ServeError> {
        let FilterModel { lsh, tcam } = self.model.as_ref();
        let signature_words = lsh.signature_words();
        self.signatures.resize(requests.len() * signature_words, 0);
        self.match_counts.resize(requests.len(), 0);
        for (profile, signature) in dense
            .chunks(lsh.dim())
            .zip(self.signatures.chunks_mut(signature_words))
        {
            lsh.signature_into(profile, signature)?;
        }
        let cap = requests.iter().map(|r| r.query.candidates).max();
        let search = tcam.count_batch(
            &self.signatures,
            signature_words,
            self.radius,
            cap.unwrap_or_default(),
            &mut self.match_counts,
        )?;
        telemetry.cost.merge(&search.breakdown);
        telemetry.total_cost += search.cost;
        Ok(&self.match_counts)
    }
}

/// The ranking stage: the shared DLRM, and this worker's model scratch (empty until the
/// first batch grows it) and score buffer. The serving cost model charges ranking
/// nothing.
#[derive(Debug, Clone)]
struct RankStage {
    model: Arc<Dlrm>,
    scratch: DlrmScratch,
    scores: Vec<f32>,
}

impl RankStage {
    /// Score the batch on the worker's own thread: each request's profile, read in
    /// place from `dense`, is the dense input of its DLRM sample; its categorical ids
    /// are its own.
    fn rank(&mut self, requests: &[ServeRequest], dense: &[f32]) -> Result<&[f32], ServeError> {
        let profiles = dense.chunks_exact(self.model.config().num_dense_features);
        let samples = requests.iter().zip(profiles).map(|(request, dense)| {
            let sparse = &request.sparse;
            DlrmSampleView { dense, sparse }
        });
        self.scores.resize(requests.len(), 0.0);
        self.model
            .predict_batch_into(samples, &mut self.scratch, &mut self.scores)?;
        Ok(&self.scores)
    }
}

/// The serving engine: the paper's pipeline as three stages — pooling, filtering,
/// ranking — plus this engine's observers (telemetry, tracer, metrics).
///
/// Cloning an engine is how the threaded runtime makes its workers, and it copies no
/// model: the DLRM and the filter's LSH planes and TCAM sit behind one `Arc` each, and
/// the row source shares its arena or cluster plan. What a clone copies is per worker:
/// each stage's scratch, the router's hot-row cache (warm rows included) and flight
/// table, and the observers, which every clone keeps and reports on its own.
#[derive(Debug, Clone)]
pub struct ServeEngine {
    pool: PoolStage,
    filter: FilterStage,
    rank: RankStage,
    config: ServeConfig,
    telemetry: ServeTelemetry,
    tracer: Option<Tracer>,
    /// The live metrics plane, armed by [`ServeEngine::enable_metrics`]: buckets
    /// arrivals / completions / latencies / faults into fixed event-time windows.
    /// Per-clone state — the threaded runtime merges its workers' scrapers.
    metrics: Option<MetricsScraper>,
}

impl ServeEngine {
    /// Build an engine serving `model` over the item catalogue `items` (one embedding
    /// row per item; row order is popularity rank for the synthetic catalogues).
    ///
    /// The DLRM dense input is the pooled item profile, so
    /// `model.config().num_dense_features` must equal `items.dim()`. The TCAM is loaded
    /// with the LSH signature of every item row at construction (signatures are computed
    /// from the full-precision rows in both precisions, mirroring offline signature
    /// generation).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for mismatched dimensions or a zero
    /// signature width, and propagates shard/LSH construction errors.
    pub fn new(
        model: Dlrm,
        items: &EmbeddingTable,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::build(model, items, config, Topology::InProcess).map(|(engine, _)| engine)
    }

    /// Build an engine whose catalogue lives on a multi-node shard cluster instead of
    /// the in-process table: each shard node owns a partition (placed by
    /// `cluster.placement`, optionally informed by an access `histogram` — required for
    /// frequency placement) behind its own bounded queue and worker threads, and every
    /// cross-shard row fetch is charged to the RSC bus next to the GPCiM cost.
    ///
    /// The returned [`ClusterHandle`] owns the shard node threads — keep it alive while
    /// the engine (or any clone of it) serves, and call
    /// [`shutdown`](ClusterHandle::shutdown) to join them. Ranked outputs are
    /// bit-identical to the single-node engine over the same catalogue and trace.
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::new`], plus [`ServeError::InvalidConfig`] for a bad
    /// cluster shape or a frequency placement without a histogram.
    pub fn new_clustered(
        model: Dlrm,
        items: &EmbeddingTable,
        config: ServeConfig,
        cluster: &ClusterConfig,
        histogram: Option<&[u64]>,
    ) -> Result<(Self, ClusterHandle), ServeError> {
        Self::new_clustered_with(
            model,
            items,
            config,
            cluster,
            histogram,
            ClusterOptions::default(),
        )
    }

    /// [`ServeEngine::new_clustered`] with [`ClusterOptions`]: chaos fault injection
    /// into the shard nodes and/or an injected clock for the router's resilient path.
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::new_clustered`].
    pub fn new_clustered_with(
        model: Dlrm,
        items: &EmbeddingTable,
        config: ServeConfig,
        cluster: &ClusterConfig,
        histogram: Option<&[u64]>,
        options: ClusterOptions,
    ) -> Result<(Self, ClusterHandle), ServeError> {
        let topology = Topology::Cluster {
            cluster,
            histogram,
            sockets: None,
            options,
        };
        Self::build(model, items, config, topology).map(Self::with_handle)
    }

    /// A clustered engine whose shards are separate *processes*: each socket path must
    /// have a [`run_shard_node`](crate::transport::run_shard_node) listening on it. The
    /// router pushes every shard its row partition over the wire (a `LOAD` frame), so
    /// the nodes themselves start empty. Fault-free, the results are bit-identical to
    /// [`ServeEngine::new_clustered`] — `serve_replay --transport uds` asserts exactly
    /// that.
    ///
    /// # Errors
    ///
    /// [`ServeError::TransportClosed`] when a node cannot be reached, plus everything
    /// [`ServeEngine::new_clustered`] returns.
    pub fn new_clustered_sockets(
        model: Dlrm,
        items: &EmbeddingTable,
        config: ServeConfig,
        cluster: &ClusterConfig,
        histogram: Option<&[u64]>,
        sockets: &[std::path::PathBuf],
        options: ClusterOptions,
    ) -> Result<(Self, ClusterHandle), ServeError> {
        let topology = Topology::Cluster {
            cluster,
            histogram,
            sockets: Some(sockets),
            options,
        };
        Self::build(model, items, config, topology).map(Self::with_handle)
    }

    /// The one constructor body: the three stages — the filter, the catalogue arena in
    /// the configured precision behind the store `topology` asks for, the model — and
    /// an engine with zeroed telemetry.
    fn build(
        model: Dlrm,
        items: &EmbeddingTable,
        config: ServeConfig,
        topology: Topology<'_>,
    ) -> Result<(Self, Option<ClusterHandle>), ServeError> {
        if let Topology::Cluster { cluster, .. } = &topology {
            cluster.validate()?;
        }
        if model.config().num_dense_features != items.dim() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "the DLRM dense input is the pooled item profile: num_dense_features ({}) must equal the item embedding dim ({})",
                    model.config().num_dense_features,
                    items.dim()
                ),
            });
        }
        let fom = ArrayFom::paper_reference();
        let filter = FilterStage::build(items, &config, fom)?;
        let (store, handle) = match config.precision {
            ServePrecision::Fp32 => {
                let arena = RowArena::from_rows(items.iter_rows(), items.dim())
                    .expect("embedding table rows are uniform");
                let (store, handle) = Store::build(arena, &config, topology)?;
                (ItemStore::Fp32(store), handle)
            }
            ServePrecision::Int8 => {
                // Quantize once, then move the buffer straight into the shared arena:
                // every shard views that single allocation, no per-shard copies.
                let (arena, params) = QuantizedTable::from_table(items).into_arena();
                let (store, handle) = Store::build(arena, &config, topology)?;
                (ItemStore::Int8(store, params), handle)
            }
        };
        let engine = Self {
            pool: PoolStage {
                store,
                scratch: PoolScratch::default(),
                read: Cost::from_fom(fom.cma.read),
                add: Cost::from_fom(fom.cma.add),
            },
            filter,
            rank: RankStage {
                scratch: model.scratch(),
                scores: Vec::new(),
                model: Arc::new(model),
            },
            config,
            telemetry: ServeTelemetry::default(),
            tracer: None,
            metrics: None,
        };
        Ok((engine, handle))
    }

    /// A [`Topology::Cluster`] build always comes with the handle owning its shard nodes.
    fn with_handle((engine, handle): (Self, Option<ClusterHandle>)) -> (Self, ClusterHandle) {
        (
            engine,
            handle.expect("a cluster topology returns its handle"),
        )
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of items in the catalogue.
    pub fn num_items(&self) -> usize {
        self.filter.model.tcam.rows()
    }

    /// Number of embedding shards actually created (may be fewer than requested for a
    /// small catalogue).
    pub(crate) fn num_shards(&self) -> usize {
        self.pool.store.source().num_shards()
    }

    /// Bytes of item-row storage resident in the engine's shared arena — the
    /// memory-accounting figure the paper-scale study reports. `None` when the
    /// catalogue lives on a cluster's shard nodes rather than in-process.
    pub fn catalogue_resident_bytes(&self) -> Option<usize> {
        self.pool.store.source().resident_bytes()
    }

    /// Cache counters accumulated so far.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.pool.store.cache_stats()
    }

    /// Shard-cluster counters (None when serving from the in-process table).
    pub(crate) fn cluster_stats(&self) -> Option<ClusterStats> {
        self.pool
            .store
            .source()
            .cluster_counters()
            .map(|counters| counters.snapshot())
    }

    /// Live handles on each stage's read-only model: the pooling stage's row source,
    /// the filter's LSH and TCAM, and the ranking DLRM.
    #[cfg(test)]
    pub(crate) fn model_handles(&self) -> [usize; 3] {
        [
            self.pool.store.source().model_handles(),
            Arc::strong_count(&self.filter.model),
            Arc::strong_count(&self.rank.model),
        ]
    }

    /// Serving counters accumulated so far.
    pub fn telemetry(&self) -> &ServeTelemetry {
        &self.telemetry
    }

    /// Zero the telemetry and cache counters (resident cache rows are kept). The replay
    /// drivers call this at the start of a run; the threaded runtime calls it on each
    /// worker's engine clone so per-worker counters start from zero.
    pub(crate) fn reset_stats(&mut self) {
        self.telemetry = ServeTelemetry::default();
        self.pool.store.reset_cache_stats();
        if let Some(tracer) = &mut self.tracer {
            tracer.reset();
        }
        if let Some(scraper) = &mut self.metrics {
            let config = MetricsConfig {
                interval_us: scraper.interval_us(),
            };
            *scraper = MetricsScraper::new(&config, self.pool.store.source().num_shards());
        }
    }

    /// Arm the live metrics plane: every subsequent replay buckets arrivals,
    /// completions, latencies, router-cache traffic and per-shard fault deltas into
    /// fixed event-time windows of `config.interval_us`, reported as
    /// [`ServeReport::metrics`]. Windowing is by *event time*, so the resulting
    /// series is byte-identical across worker counts on a frozen manual clock.
    pub fn enable_metrics(&mut self, config: MetricsConfig) {
        self.metrics = Some(MetricsScraper::new(&config, self.num_shards()));
    }

    /// Take this clone's scraper (the threaded runtime collects one per worker and
    /// merges them window-wise). `None` when metrics are off.
    pub(crate) fn take_metrics(&mut self) -> Option<MetricsScraper> {
        self.metrics.take()
    }

    /// Turn on per-query tracing with `config` (a `sample_every` of 0 turns it off
    /// again). Sampled queries get full span trees in
    /// [`ReplayOutcome::trace`], per-stage histograms land in
    /// [`ServeTelemetry::stages`](crate::telemetry::ServeTelemetry::stages), and
    /// untraced batches run the exact untraced code path — with sampling off, outputs
    /// and counters are bit-identical to an engine that never traced.
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        self.tracer = config.enabled().then(|| Tracer::new(config));
    }

    /// The active tracing configuration, if tracing is enabled.
    pub fn trace_config(&self) -> Option<TraceConfig> {
        self.tracer.as_ref().map(Tracer::config)
    }

    /// Put the tracer's spans on `clock` (the threaded runtime injects its own clock
    /// so trace timestamps share the queue/latency timeline).
    pub(crate) fn set_trace_clock(&mut self, clock: Arc<dyn Clock>) {
        if let Some(tracer) = &mut self.tracer {
            tracer.set_clock(clock);
        }
    }

    /// Take the accumulated trace log (empty when tracing is off).
    pub(crate) fn take_trace_log(&mut self) -> TraceLog {
        self.tracer
            .as_mut()
            .map(Tracer::take_log)
            .unwrap_or_default()
    }

    /// Execute one coalesced batch through the three stages: pooling, filtering and
    /// ranking, each charging its own cost. Responses are in request order with
    /// `latency_us` zero (the replay driver fills latencies from its clock). Once warm,
    /// an untraced batch allocates two things: the returned responses and the TCAM
    /// search's cost breakdown.
    ///
    /// # Errors
    ///
    /// Returns an error if any history row is outside the catalogue or any sample shape
    /// does not fit the model.
    pub fn process_batch(
        &mut self,
        requests: &[ServeRequest],
    ) -> Result<Vec<ServeResponse>, ServeError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // Per-batch trace gate: only a batch containing a sampled query pays any
        // tracing work — every other batch takes the exact untraced code path.
        let mut trace = match &self.tracer {
            Some(tracer) if tracer.wants(requests.iter().map(|r| r.id)) => {
                Some(BatchTrace::new(tracer.clock()))
            }
            _ => None,
        };
        let dense = self
            .pool
            .pool(requests, &mut self.telemetry, trace.as_mut())?;
        if let Some(trace) = &mut trace {
            trace.pool_end_us = trace.clock.now_us();
        }
        let match_counts = self.filter.filter(requests, dense, &mut self.telemetry)?;
        if let Some(trace) = &mut trace {
            trace.filter_end_us = trace.clock.now_us();
        }
        let scores = self.rank.rank(requests, dense)?;
        if let (Some(mut trace), Some(tracer)) = (trace, &mut self.tracer) {
            trace.rank_end_us = trace.clock.now_us();
            tracer.stash(trace);
        }

        self.telemetry.queries += requests.len() as u64;
        self.telemetry.batches += 1;
        self.telemetry.batch_size_sum += requests.len() as u64;
        let responses = requests
            .iter()
            .zip(scores)
            .zip(match_counts)
            .map(|((request, &score), &matches)| {
                let candidates = matches.min(request.query.candidates);
                self.telemetry.candidates_sum += candidates as u64;
                ServeResponse {
                    id: request.id,
                    score,
                    candidates,
                    latency_us: 0.0,
                }
            })
            .collect();
        Ok(responses)
    }

    /// Replay a timed trace through the dynamic batcher and the engine.
    ///
    /// Timing is a discrete-event simulation: batches flush on the trace's virtual clock
    /// (size or deadline, see [`BatchPolicy`]), the engine serves one batch at a time,
    /// and each batch's service time is measured on the real machine. A request's
    /// latency is its batch's completion time minus its arrival. Telemetry and cache
    /// statistics are reset at the start (resident cache rows are kept — replaying twice
    /// on one engine starts the second run warm; use a fresh engine for cold-start
    /// numbers).
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::process_batch`].
    pub fn replay(&mut self, workload: &ReplayWorkload) -> Result<ReplayOutcome, ServeError> {
        self.reset_stats();
        let mut batcher: DynamicBatcher<ServeRequest> = DynamicBatcher::new(self.config.policy);
        let mut engine_free_us = 0.0f64;
        let mut responses = Vec::with_capacity(workload.len());
        let mut serve = |engine: &mut Self, batch: FlushedBatch<ServeRequest>| {
            let timeline = Timeline::Virtual {
                engine_free_us: &mut engine_free_us,
            };
            let served = engine.serve_batch(&batch.requests, batch.trigger_us, timeline)?;
            responses.extend(served);
            Ok::<(), ServeError>(())
        };
        for request in workload.requests() {
            let arrival_us = request.arrival_us;
            if let Some(batch) = batcher.poll(arrival_us) {
                serve(self, batch)?;
            }
            if let Some(batch) = batcher.offer(request.clone(), arrival_us) {
                serve(self, batch)?;
            }
        }
        if let Some(deadline_us) = batcher.deadline_us() {
            // The remainder would have flushed at its deadline; drain it there.
            let batch = batcher
                .drain(deadline_us)
                .expect("pending batch has a deadline");
            serve(self, batch)?;
        }
        let report = self.report(
            "serve_replay",
            self.telemetry.clone(),
            self.pool.store.cache_stats(),
            None,
            self.metrics.as_ref(),
        );
        let trace = self.take_trace_log();
        Ok(ReplayOutcome {
            responses,
            report,
            trace,
        })
    }

    /// The report of one run: this engine's shape next to the run's counters — its own
    /// for [`ServeEngine::replay`], the merge over its worker clones for the threaded
    /// runtime. The cluster counters are shared across clones, so they are snapshotted
    /// here, once (merging per worker would double-count).
    pub(crate) fn report(
        &self,
        name: &str,
        telemetry: ServeTelemetry,
        cache: CacheStats,
        runtime: Option<RuntimeStats>,
        metrics: Option<&MetricsScraper>,
    ) -> ServeReport {
        ServeReport {
            name: name.to_string(),
            policy: self.config.policy,
            shards: self.num_shards(),
            cache_capacity: self.config.cache_capacity,
            cache_policy: self.config.cache_policy.label().to_string(),
            cache_placement: self.config.cache_placement.label().to_string(),
            telemetry,
            cache,
            runtime,
            cluster: self.cluster_stats(),
            metrics: metrics.map(MetricsScraper::series),
        }
    }

    /// Serve one flushed batch and account for it on `timeline` — the one post-batch
    /// routine behind both [`ServeEngine::replay`] and the threaded runtime's workers:
    /// time [`ServeEngine::process_batch`] into the busy counter, place the completion,
    /// stamp every response's latency into the histogram, finalize the batch's traces
    /// and record it on the metrics plane. `trigger_us` is the batch's flush time.
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::process_batch`]; nothing is recorded for a failed batch.
    pub(crate) fn serve_batch(
        &mut self,
        requests: &[ServeRequest],
        trigger_us: f64,
        timeline: Timeline<'_>,
    ) -> Result<Vec<ServeResponse>, ServeError> {
        // The router-cache marker the metrics plane diffs this batch's cache traffic
        // against — free when metrics are off.
        let marker = self
            .metrics
            .as_ref()
            .map(|_| self.pool.store.router_cache_stats());
        let started = Instant::now();
        let mut responses = self.process_batch(requests)?;
        let service_us = started.elapsed().as_secs_f64() * 1e6;
        self.telemetry.busy_us += service_us;
        let (virtual_start_us, completion_us) = match timeline {
            Timeline::Virtual { engine_free_us } => {
                let start_us = engine_free_us.max(trigger_us);
                *engine_free_us = start_us + service_us;
                (Some(start_us), *engine_free_us)
            }
            Timeline::Measured(clock) => (None, clock.now_us()),
        };
        self.telemetry.makespan_us = self.telemetry.makespan_us.max(completion_us);
        for (response, request) in responses.iter_mut().zip(requests) {
            // Clamped: on the measured timeline the arrival and the completion are read
            // by different threads.
            response.latency_us = (completion_us - request.arrival_us).max(0.0);
            self.telemetry.latency.record(response.latency_us);
        }
        if let Some(tracer) = &mut self.tracer {
            // On the virtual timeline the batch's measured stage marks are re-anchored:
            // pooling starts at the simulated service start.
            let queries: Vec<(u64, f64)> = requests
                .iter()
                .map(|request| (request.id, request.arrival_us))
                .collect();
            tracer.finalize_batch(
                &queries,
                trigger_us,
                virtual_start_us,
                completion_us,
                &mut self.telemetry.stages,
            );
        }
        if let (Some(before), Some(scraper)) = (marker, &mut self.metrics) {
            // On the measured timeline arrivals are the submit stamps, so the per-window
            // queue depth reflects what producers actually experienced.
            let after = self.pool.store.router_cache_stats();
            let faults = self.pool.store.source_mut().take_fault_deltas();
            for request in requests {
                scraper.record_arrival(request.arrival_us);
            }
            let latencies: Vec<f64> = responses.iter().map(|r| r.latency_us).collect();
            scraper.record_batch(
                completion_us,
                &latencies,
                after.hits.saturating_sub(before.hits),
                after.misses.saturating_sub(before.misses),
                &faults,
            );
        }
        Ok(responses)
    }
}

/// The timeline a served batch completes on — all the simulated replay and the
/// threaded runtime disagree about after [`ServeEngine::process_batch`] returns.
/// Latency runs from each request's `arrival_us` on either.
pub(crate) enum Timeline<'a> {
    /// [`ServeEngine::replay`]'s discrete-event timeline: the batch starts at its flush
    /// trigger or when the engine frees up (`engine_free_us`, advanced to this batch's
    /// completion), whichever is later, and completes its measured service time after
    /// that.
    Virtual {
        /// When the engine finished the previous batch.
        engine_free_us: &'a mut f64,
    },
    /// The threaded runtime's measured timeline: the completion is read off its clock,
    /// the same one that stamped the arrivals at submit.
    Measured(&'a dyn Clock),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayConfig;
    use imars_recsys::dlrm::DlrmConfig;

    const ITEM_DIM: usize = 4;
    const NUM_ITEMS: usize = 1024;

    fn tiny_model() -> Dlrm {
        // DlrmConfig::tiny has num_dense_features = 4 = ITEM_DIM.
        Dlrm::new(DlrmConfig::tiny()).unwrap()
    }

    fn items() -> EmbeddingTable {
        EmbeddingTable::new(NUM_ITEMS, ITEM_DIM, 99).unwrap()
    }

    fn config(cache_capacity: usize, precision: ServePrecision) -> ServeConfig {
        ServeConfig {
            shards: 4,
            cache_capacity,
            cache_policy: CachePolicy::Clock,
            cache_placement: CachePlacement::Router,
            precision,
            policy: BatchPolicy::new(32, 300.0).unwrap(),
            signature_bits: 64,
            search_radius: 27,
            lsh_seed: 7,
        }
    }

    fn engine(cache_capacity: usize, precision: ServePrecision) -> ServeEngine {
        ServeEngine::new(tiny_model(), &items(), config(cache_capacity, precision)).unwrap()
    }

    fn replay_config(queries: usize) -> ReplayConfig {
        ReplayConfig {
            queries,
            num_users: 200,
            num_items: NUM_ITEMS,
            zipf_exponent: 1.2,
            history_len: 16,
            offered_qps: 100_000.0,
            candidates_per_query: 100,
            top_k: 10,
            sparse_cardinalities: DlrmConfig::tiny().sparse_cardinalities,
            seed: 2024,
            item_permutation_seed: None,
        }
    }

    /// The type contract the serving benchmark relies on, checked at compile time: it
    /// `#[derive(Debug)]`s a struct holding an engine, and the threaded runtime moves
    /// clones into worker threads.
    #[allow(dead_code)]
    fn engine_is_clone_send_debug() {
        fn assert_contract<T: Clone + Send + std::fmt::Debug>() {}
        assert_contract::<ServeEngine>();
    }

    #[test]
    fn construction_validates_dimensions() {
        let wrong_dim = EmbeddingTable::new(64, ITEM_DIM + 1, 0).unwrap();
        assert!(matches!(
            ServeEngine::new(tiny_model(), &wrong_dim, config(8, ServePrecision::Fp32)),
            Err(ServeError::InvalidConfig { .. })
        ));
        let engine = engine(8, ServePrecision::Fp32);
        assert_eq!(engine.num_items(), NUM_ITEMS);
        assert_eq!(engine.config().shards, 4);
    }

    #[test]
    fn the_parallel_signature_pass_loads_the_tcam_of_the_serial_loop() {
        // 1000 rows end in a partial run of rows; 256-bit signatures are four words.
        let items = EmbeddingTable::new(1000, ITEM_DIM, 5).unwrap();
        let config = ServeConfig {
            signature_bits: 256,
            ..config(0, ServePrecision::Fp32)
        };
        let engine = ServeEngine::new(tiny_model(), &items, config.clone()).unwrap();
        let lsh = RandomHyperplaneLsh::new(ITEM_DIM, 256, config.lsh_seed).unwrap();
        let mut serial = CmaArray::new(1000, 256, ArrayFom::paper_reference());
        let mut signature = vec![0u64; lsh.signature_words()];
        for row in 0..1000 {
            lsh.signature_into(items.lookup(row).unwrap(), &mut signature)
                .unwrap();
            serial.write_row_bits(row, &signature, 256).unwrap();
        }
        for row in 0..1000 {
            assert_eq!(
                engine.filter.model.tcam.read_row_bits(row).unwrap().value,
                serial.read_row_bits(row).unwrap().value,
                "row {row}"
            );
        }
    }

    #[test]
    fn cached_and_uncached_replays_match_bit_for_bit() {
        let workload = ReplayWorkload::generate(&replay_config(2000)).unwrap();
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            let cached = engine(128, precision).replay(&workload).unwrap();
            let uncached = engine(0, precision).replay(&workload).unwrap();
            assert_eq!(cached.responses.len(), 2000);
            assert_eq!(uncached.responses.len(), 2000);
            for (a, b) in cached.responses.iter().zip(uncached.responses.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "query {} ({precision:?})",
                    a.id
                );
                assert_eq!(a.candidates, b.candidates, "query {} ({precision:?})", a.id);
            }
            // The cache changes the modeled energy (fewer CMA reads), not the results.
            assert!(cached.report.cache.hit_rate() > 0.0);
            assert_eq!(uncached.report.cache.hits, 0);
            assert!(
                cached.report.telemetry.total_cost.energy_pj
                    < uncached.report.telemetry.total_cost.energy_pj
            );
        }
    }

    #[test]
    fn zipf_skew_yields_majority_hit_rate() {
        // The acceptance shape: ≥ 10k queries at exponent 1.2 through the sharded +
        // cached engine, cache capacity an eighth of the catalogue.
        let workload = ReplayWorkload::generate(&replay_config(10_000)).unwrap();
        let mut engine = engine(128, ServePrecision::Fp32);
        let outcome = engine.replay(&workload).unwrap();
        let hit_rate = outcome.report.cache.hit_rate();
        assert!(hit_rate > 0.5, "hit rate {hit_rate} at skew 1.2");
        assert_eq!(outcome.report.telemetry.queries, 10_000);
    }

    #[test]
    fn an_unbounded_max_batch_is_a_threshold_not_an_allocation() {
        let workload = ReplayWorkload::generate(&replay_config(50)).unwrap();
        let config = ServeConfig {
            policy: BatchPolicy::new(usize::MAX, 100.0).unwrap(),
            ..config(0, ServePrecision::Fp32)
        };
        let mut unbounded = ServeEngine::new(tiny_model(), &items(), config).unwrap();
        let outcome = unbounded.replay(&workload).unwrap();
        let expected = engine(0, ServePrecision::Fp32).replay(&workload).unwrap();
        assert_eq!(outcome.responses.len(), 50);
        for (a, b) in outcome.responses.iter().zip(&expected.responses) {
            assert_eq!((a.id, a.score.to_bits()), (b.id, b.score.to_bits()));
        }
    }

    #[test]
    fn replay_produces_coherent_latency_and_throughput() {
        let workload = ReplayWorkload::generate(&replay_config(1500)).unwrap();
        let mut engine = engine(64, ServePrecision::Fp32);
        let outcome = engine.replay(&workload).unwrap();
        let t = &outcome.report.telemetry;
        assert_eq!(t.queries, 1500);
        assert!(t.batches > 0);
        assert!(t.mean_batch_size() <= 32.0 + 1e-9);
        let p50 = t.latency.quantile_us(0.50);
        let p95 = t.latency.quantile_us(0.95);
        let p99 = t.latency.quantile_us(0.99);
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99 && p99 <= t.latency.max_us());
        assert!(t.served_qps() > 0.0);
        assert!(t.busy_us > 0.0);
        assert!(t.makespan_us >= workload.requests().last().unwrap().arrival_us);
        // Every request is answered exactly once.
        let mut ids: Vec<u64> = outcome.responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1500u64).collect::<Vec<_>>());
        // Candidate budgets are respected.
        assert!(outcome.responses.iter().all(|r| r.candidates <= 100));
    }

    #[test]
    fn process_batch_charges_the_gpcim_cost_model() {
        let mut engine = engine(0, ServePrecision::Fp32);
        let requests: Vec<ServeRequest> = (0..8)
            .map(|i| ServeRequest {
                id: i,
                arrival_us: 0.0,
                query: InferenceQuery {
                    user_index: i as usize,
                    candidates: 100,
                    top_k: 10,
                },
                history: vec![(i as u32) % 64, 3, 7],
                sparse: vec![1, 2, 3],
            })
            .collect();
        let responses = engine.process_batch(&requests).unwrap();
        assert_eq!(responses.len(), 8);
        let fom = ArrayFom::paper_reference();
        // Cache disabled: every lookup (8 × 3) is a miss => a CMA read; pooling three
        // rows costs two adds per request; one TCAM search per query.
        let telemetry = engine.telemetry();
        let expected_reads = Cost::from_fom(fom.cma.read).repeat(24);
        let expected_adds = Cost::from_fom(fom.cma.add).repeat(16);
        let expected_searches = Cost::from_fom(fom.cma.search).repeat(8);
        let reads = telemetry.cost.component(CostComponent::CmaRead);
        let adds = telemetry.cost.component(CostComponent::CmaAdd);
        let searches = telemetry.cost.component(CostComponent::CmaSearch);
        assert!((reads.energy_pj - expected_reads.energy_pj).abs() < 1e-9);
        assert!((adds.energy_pj - expected_adds.energy_pj).abs() < 1e-9);
        assert!((searches.energy_pj - expected_searches.energy_pj).abs() < 1e-9);
        let expected_total =
            expected_reads.energy_pj + expected_adds.energy_pj + expected_searches.energy_pj;
        assert!((telemetry.total_cost.energy_pj - expected_total).abs() < 1e-9);
        assert_eq!(telemetry.queries, 8);
        assert_eq!(telemetry.batches, 1);
    }

    #[test]
    fn reused_filter_buffers_do_not_change_the_answers() {
        let workload = ReplayWorkload::generate(&replay_config(64)).unwrap();
        let mut requests = workload.requests().to_vec();
        for request in &mut requests {
            // Uncapped, so `candidates` is the TCAM match count itself.
            request.query.candidates = NUM_ITEMS;
        }
        let answers = |responses: &[ServeResponse]| -> Vec<(u64, u32, usize)> {
            responses
                .iter()
                .map(|r| (r.id, r.score.to_bits(), r.candidates))
                .collect()
        };
        let fresh = |batch: &[ServeRequest]| {
            answers(
                &engine(0, ServePrecision::Fp32)
                    .process_batch(batch)
                    .unwrap(),
            )
        };
        // One engine: a wide batch, a narrow one over its dirty buffers, the wide one
        // again. Each must answer as an engine that never served anything would.
        let mut reused = engine(0, ServePrecision::Fp32);
        let small = &requests[40..45];
        let first = answers(&reused.process_batch(&requests).unwrap());
        let narrow = answers(&reused.process_batch(small).unwrap());
        let again = answers(&reused.process_batch(&requests).unwrap());
        assert_eq!(first, fresh(&requests));
        assert_eq!(narrow, fresh(small));
        assert_eq!(narrow, first[40..45]);
        assert_eq!(again, first);
        let counts: Vec<usize> = first.iter().map(|answer| answer.2).collect();
        assert!(counts.iter().any(|&count| count != counts[0]), "{counts:?}");
    }

    #[test]
    fn a_batch_wide_scan_cap_answers_each_request_at_its_own_cap() {
        let workload = ReplayWorkload::generate(&replay_config(16)).unwrap();
        let mut requests = workload.requests().to_vec();
        let caps = [0, 1, 100, NUM_ITEMS].into_iter().cycle();
        for (request, candidates) in requests.iter_mut().zip(caps) {
            request.query.candidates = candidates;
        }
        let mut engine = engine(0, ServePrecision::Fp32);
        let responses = engine.process_batch(&requests).unwrap();
        // The uncapped match lists of the same signatures, from the list search.
        let FilterStage {
            model, signatures, ..
        } = &engine.filter;
        let signatures: Vec<Vec<u64>> = signatures
            .chunks(model.lsh.signature_words())
            .map(<[u64]>::to_vec)
            .collect();
        let lists = model
            .tcam
            .search_batch(&signatures, engine.config.search_radius)
            .unwrap()
            .value;
        assert_eq!(lists.len(), requests.len());
        for ((request, response), list) in requests.iter().zip(&responses).zip(&lists) {
            let expected = list.len().min(request.query.candidates);
            assert_eq!(response.candidates, expected, "query {}", request.id);
        }
        // The uncapped requests see counts past every smaller cap in the batch.
        assert!(requests
            .iter()
            .zip(&responses)
            .any(|(request, response)| request.query.candidates == NUM_ITEMS
                && response.candidates > 100));
    }

    #[test]
    fn process_batch_rejects_out_of_catalogue_history() {
        let mut engine = engine(8, ServePrecision::Fp32);
        let request = ServeRequest {
            id: 0,
            arrival_us: 0.0,
            query: InferenceQuery {
                user_index: 0,
                candidates: 10,
                top_k: 5,
            },
            history: vec![NUM_ITEMS as u32],
            sparse: vec![1, 2, 3],
        };
        assert!(matches!(
            engine.process_batch(&[request]),
            Err(ServeError::RowOutOfRange { .. })
        ));
        assert!(engine.process_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn traced_and_untraced_replays_are_bit_identical() {
        let workload = ReplayWorkload::generate(&replay_config(1200)).unwrap();
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            let plain = engine(64, precision).replay(&workload).unwrap();
            let mut traced_engine = engine(64, precision);
            traced_engine.enable_tracing(TraceConfig {
                sample_every: 4,
                seed: 42,
                capacity: 4096,
                slow_k: 4,
            });
            let traced = traced_engine.replay(&workload).unwrap();
            assert_eq!(plain.responses.len(), traced.responses.len());
            for (a, b) in plain.responses.iter().zip(traced.responses.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {}", a.id);
                assert_eq!(a.candidates, b.candidates);
            }
            // Counters are untouched by tracing: same cache traffic, same modeled cost.
            assert_eq!(plain.report.cache, traced.report.cache);
            assert_eq!(
                plain.report.telemetry.total_cost.energy_pj.to_bits(),
                traced.report.telemetry.total_cost.energy_pj.to_bits()
            );
            // The untraced run records nothing; the traced run sampled something.
            assert!(plain.trace.is_empty());
            assert_eq!(plain.trace.sampled(), 0);
            assert_eq!(plain.report.telemetry.stages.sampled, 0);
            assert!(traced.trace.sampled() > 0);
        }
        // sample_every = 0 disables the tracer entirely.
        let mut off = engine(64, ServePrecision::Fp32);
        off.enable_tracing(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        assert!(off.trace_config().is_none());
    }

    #[test]
    fn simulated_traces_nest_and_stage_counts_match_sampling() {
        use crate::trace::Stage;
        let workload = ReplayWorkload::generate(&replay_config(2000)).unwrap();
        let mut engine = engine(128, ServePrecision::Fp32);
        engine.enable_tracing(TraceConfig {
            sample_every: 8,
            seed: 7,
            capacity: 4096,
            slow_k: 8,
        });
        let outcome = engine.replay(&workload).unwrap();
        let stages = &outcome.report.telemetry.stages;
        let sampled = outcome.trace.sampled();
        assert!(sampled > 0);
        assert_eq!(stages.sampled, sampled);
        // Per-stage counts equal the sampled-query count, and the stage p50s nest
        // under the end-to-end p50 within histogram resolution (one log bucket ≈ 9%).
        let total_p50 = stages.total.quantile_us(0.5);
        for (name, histogram) in stages.stages() {
            assert_eq!(histogram.count(), sampled, "stage {name}");
            assert!(
                histogram.quantile_us(0.5) <= total_p50 * 1.1 + 1e-9,
                "stage {name} p50 {} above e2e p50 {total_p50}",
                histogram.quantile_us(0.5)
            );
        }
        assert_eq!(stages.total.count(), sampled);
        // Span trees nest inside each query's end-to-end window, in pipeline order.
        assert_eq!(outcome.trace.len() as u64, sampled);
        for trace in outcome.trace.traces() {
            assert!(outcome.responses.iter().any(|r| r.id == trace.id));
            assert_eq!(trace.spans.len(), 6);
            let batch_form = trace.span(Stage::BatchForm).unwrap();
            assert_eq!(batch_form.begin_us, trace.start_us);
            let lookup = trace.span(Stage::CacheLookup).unwrap();
            let fetch = trace.span(Stage::ClusterFetch).unwrap();
            assert!(lookup.end_us <= fetch.begin_us + 1e-9);
            let rank = trace.span(Stage::MlpRank).unwrap();
            // Marks and completion come from two monotonic clocks; allow sub-us skew.
            assert!(
                rank.end_us <= trace.end_us + 0.5,
                "rank end {} spills past completion {}",
                rank.end_us,
                trace.end_us
            );
        }
        // The slow log holds the worst sampled latencies, worst first.
        let slow = outcome.trace.slow_queries();
        assert_eq!(slow.len(), 8);
        for pair in slow.windows(2) {
            assert!(pair[0].latency_us() >= pair[1].latency_us());
        }
        assert!(outcome.trace.render_slow_log().contains("cluster_fetch"));
    }

    #[test]
    fn warm_replay_hits_more_than_cold() {
        let workload = ReplayWorkload::generate(&replay_config(1000)).unwrap();
        let mut engine = engine(256, ServePrecision::Fp32);
        let cold = engine.replay(&workload).unwrap();
        let warm = engine.replay(&workload).unwrap();
        assert!(
            warm.report.cache.hit_rate() >= cold.report.cache.hit_rate(),
            "warm {} < cold {}",
            warm.report.cache.hit_rate(),
            cold.report.cache.hit_rate()
        );
        // Warm or cold, the numeric results are identical.
        for (a, b) in cold.responses.iter().zip(warm.responses.iter()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    fn custom_engine(
        shards: usize,
        capacity: usize,
        precision: ServePrecision,
        policy: CachePolicy,
        placement: CachePlacement,
    ) -> ServeEngine {
        let cfg = ServeConfig {
            shards,
            cache_policy: policy,
            cache_placement: placement,
            ..config(capacity, precision)
        };
        ServeEngine::new(tiny_model(), &items(), cfg).unwrap()
    }

    /// The tentpole's bit-identity pin: moving the cache from the router into
    /// per-shard-node caches must not change a single output bit, at either precision
    /// and across shard counts — only the counters move.
    #[test]
    fn per_shard_cache_replay_is_bit_identical_to_the_router_cache() {
        let workload = ReplayWorkload::generate(&replay_config(2000)).unwrap();
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            for shards in [1usize, 2, 8] {
                let policy = CachePolicy::Clock;
                let router = custom_engine(shards, 128, precision, policy, CachePlacement::Router)
                    .replay(&workload)
                    .unwrap();
                let sharded = custom_engine(shards, 128, precision, policy, CachePlacement::Shard)
                    .replay(&workload)
                    .unwrap();
                for (a, b) in router.responses.iter().zip(sharded.responses.iter()) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "query {} ({precision:?}, {shards} shards)",
                        a.id
                    );
                    assert_eq!(a.candidates, b.candidates);
                }
                // Every lookup is accounted for under both placements, and the shard
                // placement still absorbs the Zipf head.
                assert_eq!(
                    router.report.cache.lookups(),
                    sharded.report.cache.lookups(),
                    "({precision:?}, {shards} shards)"
                );
                assert!(
                    sharded.report.cache.hit_rate() > 0.3,
                    "shard-placement hit rate {} ({precision:?}, {shards} shards)",
                    sharded.report.cache.hit_rate()
                );
                assert_eq!(sharded.report.cache_placement, "shard");
            }
        }
    }

    /// The admission-quality ordering the cache-scaling study plots: at a capacity far
    /// below the Zipf head, frequency-informed policies beat CLOCK, and TinyLFU's
    /// admission filter beats plain LFU — with bit-identical responses throughout.
    #[test]
    fn cache_policies_rank_by_hit_rate_under_zipf_skew() {
        let workload = ReplayWorkload::generate(&replay_config(10_000)).unwrap();
        let mut rates = Vec::new();
        let mut reference: Option<Vec<ServeResponse>> = None;
        for policy in CachePolicy::ALL {
            let outcome =
                custom_engine(4, 32, ServePrecision::Fp32, policy, CachePlacement::Router)
                    .replay(&workload)
                    .unwrap();
            match &reference {
                None => reference = Some(outcome.responses.clone()),
                Some(expected) => {
                    for (a, b) in outcome.responses.iter().zip(expected.iter()) {
                        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{policy:?}");
                    }
                }
            }
            rates.push((policy, outcome.report.cache.hit_rate()));
        }
        let rate = |p: CachePolicy| rates.iter().find(|(q, _)| *q == p).unwrap().1;
        assert!(
            rate(CachePolicy::TinyLfu) >= rate(CachePolicy::Lfu),
            "{rates:?}"
        );
        assert!(
            rate(CachePolicy::Lfu) >= rate(CachePolicy::Clock),
            "{rates:?}"
        );
    }

    /// The coalescing property: when one batch references the same row many times, the
    /// row is fetched once — exactly one miss, every duplicate counted as coalesced —
    /// under every policy and both cache placements.
    #[test]
    fn coalesced_in_flight_misses_count_once_under_every_policy_and_placement() {
        for policy in CachePolicy::ALL {
            for placement in [CachePlacement::Router, CachePlacement::Shard] {
                let mut engine = custom_engine(4, 64, ServePrecision::Fp32, policy, placement);
                let requests: Vec<ServeRequest> = (0..8)
                    .map(|i| ServeRequest {
                        id: i,
                        arrival_us: 0.0,
                        query: InferenceQuery {
                            user_index: i as usize,
                            candidates: 50,
                            top_k: 5,
                        },
                        // Identical histories: 3 unique rows, 24 total lookups.
                        history: vec![3, 300, 900],
                        sparse: vec![1, 2, 3],
                    })
                    .collect();
                engine.process_batch(&requests).unwrap();
                let cold = engine.cache_stats();
                assert_eq!(cold.misses, 3, "{policy:?}/{placement:?}: one miss per row");
                assert_eq!(
                    cold.coalesced, 21,
                    "{policy:?}/{placement:?}: duplicates coalesce"
                );
                assert_eq!(cold.hits, 0, "{policy:?}/{placement:?}");
                // A second identical batch is served without touching shard storage:
                // no new misses, every lookup a hit or coalesced behind one.
                engine.process_batch(&requests).unwrap();
                let warm = engine.cache_stats();
                assert_eq!(
                    warm.misses, 3,
                    "{policy:?}/{placement:?}: warm batch reads no storage"
                );
                assert_eq!(
                    warm.hits + warm.coalesced,
                    45,
                    "{policy:?}/{placement:?}: {warm:?}"
                );
            }
        }
    }

    /// Pooling reads hits straight from their cache slots, so it must finish before the
    /// batch's misses are admitted: here every admission evicts a slot an earlier lookup
    /// of the same batch hit. The profiles must still be the cache-off engine's, bit for
    /// bit, and the counters the hand-computed CLOCK sequence.
    #[test]
    fn admitting_a_miss_never_changes_a_hit_pooled_in_the_same_batch() {
        let request = |id: u64, history: &[u32]| ServeRequest {
            id,
            arrival_us: 0.0,
            query: InferenceQuery {
                user_index: id as usize,
                candidates: 50,
                top_k: 5,
            },
            history: history.to_vec(),
            sparse: vec![1, 2, 3],
        };
        let (a, b, c, d) = (5, 700, 33, 1000);
        // Capacity 1: batch 1 caches A. Batch 2 hits A twice and misses B (its second
        // lookup coalesces); admitting B evicts A's slot. Batch 3 hits the resident B.
        let one = vec![
            vec![request(0, &[a])],
            vec![request(1, &[a, b, a]), request(2, &[b])],
            vec![request(3, &[b])],
        ];
        let one_stats = CacheStats {
            hits: 3,
            coalesced: 1,
            misses: 2,
            insertions: 2,
            evictions: 1,
            rejections: 0,
        };
        // Capacity 2: batch 1 caches A and B. Batch 2 hits both and misses C and D (C's
        // second lookup coalesces); the CLOCK hand clears both reference bits, then
        // admitting C evicts A's slot and admitting D evicts B's.
        let two = vec![
            vec![request(0, &[a, b])],
            vec![request(1, &[a, c]), request(2, &[b, d, c])],
        ];
        let two_stats = CacheStats {
            hits: 2,
            coalesced: 1,
            misses: 4,
            insertions: 4,
            evictions: 2,
            rejections: 0,
        };
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            for (capacity, batches, stats) in [(1, &one, one_stats), (2, &two, two_stats)] {
                let mut cached = engine(capacity, precision);
                let mut uncached = engine(0, precision);
                for batch in batches {
                    let served = cached.process_batch(batch).unwrap();
                    let reference = uncached.process_batch(batch).unwrap();
                    let bits =
                        |dense: &[f32]| dense.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&cached.pool.scratch.dense),
                        bits(&uncached.pool.scratch.dense),
                        "{precision:?} capacity {capacity}"
                    );
                    assert_eq!(served, reference, "{precision:?} capacity {capacity}");
                }
                assert_eq!(
                    cached.cache_stats(),
                    stats,
                    "{precision:?} capacity {capacity}"
                );
            }
        }
    }

    /// The metrics plane on the simulated path: event-time windows cover every
    /// arrival and completion exactly once, the per-window cache split sums to the
    /// run totals, and the series lands in the report JSON.
    #[test]
    fn simulated_replay_scrapes_a_coherent_time_series() {
        let workload = ReplayWorkload::generate(&replay_config(400)).unwrap();
        let mut served = engine(64, ServePrecision::Fp32);
        served.enable_metrics(workload.metrics_config(10));
        let outcome = served.replay(&workload).unwrap();
        let series = outcome.report.metrics.as_ref().expect("metrics enabled");
        assert!(
            series.windows.len() > 1,
            "virtual arrivals span several windows: {}",
            series.windows.len()
        );
        let arrivals: u64 = series.windows.iter().map(|w| w.arrivals).sum();
        let completions: u64 = series.windows.iter().map(|w| w.completions).sum();
        assert_eq!(arrivals, 400, "every arrival lands in exactly one window");
        assert_eq!(completions, 400);
        assert_eq!(
            series.windows.last().unwrap().queue_depth,
            0,
            "everything drains by the final window"
        );
        let hits: u64 = series.windows.iter().map(|w| w.cache_hits).sum();
        let misses: u64 = series.windows.iter().map(|w| w.cache_misses).sum();
        assert_eq!(hits, outcome.report.cache.hits);
        assert_eq!(misses, outcome.report.cache.misses);
        assert!(series.peak_qps().unwrap().1 > 0.0);
        // Fault-free single-node run: the per-window fault columns are all zero.
        assert!(series.fault_events().iter().all(|&(_, faults)| faults == 0));
        let json = outcome.report.to_json();
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"windows\""));
        // A replay without metrics keeps the section out entirely.
        let mut plain = engine(64, ServePrecision::Fp32);
        let control = plain.replay(&workload).unwrap();
        assert!(control.report.metrics.is_none());
        assert!(!control.report.to_json().contains("\"windows\""));
    }

    /// The exemplar acceptance criterion: with every sampled trace retained, every
    /// stage-histogram bucket with samples carries an exemplar whose trace id
    /// resolves to a retained trace, and the exposition dump renders them.
    #[test]
    fn every_sampled_stage_bucket_carries_a_resolvable_exemplar() {
        use crate::metrics::{exposition, StageExemplars};
        use crate::trace::{Stage, TraceConfig};
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let mut served = engine(64, ServePrecision::Fp32);
        served.enable_tracing(TraceConfig {
            sample_every: 1,
            seed: 3,
            capacity: 4096,
            slow_k: 8,
        });
        let outcome = served.replay(&workload).unwrap();
        assert_eq!(outcome.trace.sampled(), 300);
        let exemplars = StageExemplars::harvest(&outcome.trace);
        assert!(!exemplars.is_empty());
        let retained: std::collections::HashSet<u64> = outcome
            .trace
            .traces()
            .iter()
            .chain(outcome.trace.slow_queries().iter())
            .map(|trace| trace.id)
            .collect();
        let stages = &outcome.report.telemetry.stages;
        for (i, (name, histogram)) in stages.stages().iter().enumerate() {
            for (bucket, _upper_us, count) in histogram.indexed_buckets() {
                let (id, value_us) = exemplars.lookup(Stage::ALL[i], bucket).unwrap_or_else(|| {
                    panic!("stage {name} bucket {bucket} has {count} samples but no exemplar")
                });
                assert!(
                    retained.contains(&id),
                    "stage {name} bucket {bucket}: exemplar {id} must resolve to a retained trace"
                );
                assert!(value_us >= 0.0);
            }
        }
        for (bucket, _upper_us, count) in stages.total.indexed_buckets() {
            let (id, _) = exemplars.lookup_total(bucket).unwrap_or_else(|| {
                panic!("total bucket {bucket} has {count} samples, no exemplar")
            });
            assert!(retained.contains(&id));
        }
        let text = exposition(&outcome.report, Some(&outcome.trace));
        assert!(
            text.contains("trace_id=\""),
            "exemplars render in exposition"
        );
        assert!(text.ends_with("# EOF\n"));
    }
}

//! Multi-node shard routing: catalogue partitions behind per-shard bounded queues, a
//! router that fans pooled lookups out as per-shard sub-requests, and an RSC-bus
//! interconnect charge per cross-shard hop.
//!
//! The in-process [`ShardedTable`](crate::shard::ShardedTable) partitions rows but
//! serves them for free; this module makes the partitioning *cost* something, the way
//! iMARS banks its CMA fabric and pays the RSC bus for cross-bank traffic:
//!
//! ```text
//!                         ┌── shard 0: [bounded queue] -> worker(s) over partition 0
//! router --split/fan-out--┼── shard 1: [bounded queue] -> worker(s) over partition 1
//!   (home-shard routing,  └── shard k: ...
//!    replica resolution)       each sub-response -> gather (canonical merge) -> pool
//! ```
//!
//! Every shard node owns its partition of the catalogue (plus replicas of the hot set)
//! behind its own [`BoundedQueue`]; worker threads serve row-fetch sub-requests from it.
//! The router ([`ClusterClient`]) splits a batch's lookups with the deterministic
//! [`ShardPlan::split`], fans sub-requests out, and gathers the sub-responses. Because
//! each flat lookup position is served by exactly one shard and the final pooling
//! accumulates in request order (the single-node order), the ranked outputs are
//! **bit-identical** to the single-node engine no matter how many shards or workers are
//! involved — shards move *rows*, not partial sums, precisely so that f32/int8
//! accumulation order never changes.
//!
//! Cross-shard traffic is charged to the RSC bus: every sub-request to a non-home shard
//! pays one hop — indices down, rows back, both serialized into bus beats plus a
//! controller overhead ([`RscBus::hop`](imars_fabric::interconnect::RscBus::hop)) — and the byte/hop/fan-out counters land in
//! [`ClusterStats`] next to the modeled GPCiM energy.
//!
//! Failure is not silent: a panicking shard worker closes its input queue, drains the
//! sub-requests it strands and closes their reply queues, so routers surface
//! [`ServeError::ShardFailed`] instead of deadlocking, and queue overflow is counted
//! per shard before the router falls back to a blocking push.
//!
//! With a [`ResilienceConfig`] (or a socket transport), failure graduates from an error
//! path to a survivable scenario. The router then runs a deadline-driven gather:
//! sub-requests carry per-attempt tags, a silent shard **times out** against the
//! injected [`Clock`], timed-out work is **retried** with backoff, slow primaries are
//! **hedged** onto a replica-holding shard once `hedge_after_us` elapses, and when a
//! shard is dead its hot rows are **promoted** — the frequency-placement replicas
//! ([`ShardPlan::is_replicated`]) serve them from any healthy shard — while cold rows
//! degrade gracefully to zero-filled lookups recorded as *missing*. Every decision is
//! counted (`timeouts`/`retries`/`hedges`/`hedge_wins`/`promotions`/`missing_rows` in
//! [`ClusterStats`]), so a chaos replay can account for every degraded query. Shards
//! still move rows, never partial sums, so any query untouched by missing rows stays
//! bit-identical to the healthy run. The strict queue path (no resilience, in-process
//! links) remains byte-for-byte the deterministic oracle.
//!
//! The module is split along its seams: this file holds the configuration, the shared
//! counters, the owning [`ClusterHandle`] and the spawn/connect constructors; `node`
//! is the shard node (one `serve`, reached over a queue or a socket); `router` is the
//! [`ClusterClient`], its links and the strict fan-out; `fanout` is the resilient
//! fan-out's per-fetch state machine.

mod fanout;
mod node;
mod router;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use imars_fabric::config::InterconnectParams;
use imars_recsys::arena::RowArena;

use crate::cache::{CachePolicy, CacheStats};
use crate::chaos::ChaosPlan;
use crate::clock::Clock;
use crate::error::ServeError;
use crate::placement::{Placement, ShardPlan};
use crate::queue::BoundedQueue;
use crate::shard::Lane;
use crate::telemetry::ClusterStats;
use crate::transport::{self, SocketLink};

pub(crate) use node::{NodeRows, ShardNode, SubResponse, Unserved};
pub use router::ClusterClient;
use router::{assemble_client, reply_capacity, ShardLink};
/// Configuration of a shard cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Shard nodes to partition the catalogue across.
    pub shards: usize,
    /// Worker threads serving each shard's queue.
    pub workers_per_shard: usize,
    /// Capacity of each shard's bounded sub-request queue.
    pub queue_capacity: usize,
    /// The placement policy assigning rows to shards.
    pub placement: Placement,
    /// Hottest rows replicated onto every shard (0 disables replication).
    pub hot_replicas: usize,
    /// RSC-bus parameters the cross-shard hops are charged against.
    pub interconnect: InterconnectParams,
    /// Fault-tolerance policy. `None` keeps the strict fail-fast path (the bit-identity
    /// oracle); `Some` arms timeouts, retries, hedging and replica promotion. A socket
    /// transport always runs the resilient path, with [`ResilienceConfig::default`]
    /// when this is `None`.
    pub resilience: Option<ResilienceConfig>,
}

/// The fault-tolerance policy of a [`ClusterClient`]: how long to wait, how often to
/// retry, and when to hedge. Plain data so [`ClusterConfig`] stays comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Deadline per sub-request attempt, microseconds (on the injected clock). A shard
    /// silent past this is timed out and the attempt failed over.
    pub request_timeout_us: f64,
    /// Hedge a still-unanswered sub-request onto a replica-holding shard after this
    /// long, microseconds. `INFINITY` disables hedging.
    pub hedge_after_us: f64,
    /// Re-dispatches allowed per sub-request (over the initial attempt) before its
    /// rows degrade to zero-filled lookups.
    pub max_retries: u32,
    /// Backoff before a same-shard retry, microseconds (scaled by the attempt count).
    pub backoff_us: f64,
}

impl Default for ResilienceConfig {
    /// Generous production-shaped defaults: 2 s deadline, two retries with 1 ms
    /// backoff, hedging disabled.
    fn default() -> Self {
        Self {
            request_timeout_us: 2_000_000.0,
            hedge_after_us: f64::INFINITY,
            max_retries: 2,
            backoff_us: 1_000.0,
        }
    }
}

impl ResilienceConfig {
    /// Validate the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for non-positive deadlines or a negative
    /// backoff.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.request_timeout_us <= 0.0 || self.request_timeout_us.is_nan() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "resilience needs a positive request_timeout_us, got {}",
                    self.request_timeout_us
                ),
            });
        }
        if self.hedge_after_us <= 0.0 || self.hedge_after_us.is_nan() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "resilience needs a positive hedge_after_us, got {}",
                    self.hedge_after_us
                ),
            });
        }
        if self.backoff_us < 0.0 || !self.backoff_us.is_finite() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "resilience needs a finite non-negative backoff_us, got {}",
                    self.backoff_us
                ),
            });
        }
        Ok(())
    }
}

/// Per-shard-node hot-row cache configuration: each shard node serves row fetches
/// through its own [`HotRowCache`](crate::cache::HotRowCache) of this capacity and policy, so a multi-process
/// cluster caches where the rows live instead of at the router. Plain data so it can
/// ride in [`ClusterOptions`] and cross the socket transport as a config frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCacheConfig {
    /// Rows each shard node's cache holds (0 disables node caching).
    pub capacity: usize,
    /// The replacement/admission policy every node cache runs.
    pub policy: CachePolicy,
}

impl ClusterConfig {
    /// A cluster of `shards` nodes under `placement`, one worker per shard, a 64-deep
    /// queue per shard, no replication, and the paper's interconnect parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `shards` is zero.
    pub fn new(shards: usize, placement: Placement) -> Result<Self, ServeError> {
        let config = Self {
            shards,
            workers_per_shard: 1,
            queue_capacity: 64,
            placement,
            hot_replicas: 0,
            interconnect: InterconnectParams::default(),
            resilience: None,
        };
        config.validate()?;
        Ok(config)
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the zero field.
    pub fn validate(&self) -> Result<(), ServeError> {
        for (name, value) in [
            ("shards", self.shards),
            ("workers_per_shard", self.workers_per_shard),
            ("queue_capacity", self.queue_capacity),
        ] {
            if value == 0 {
                return Err(ServeError::InvalidConfig {
                    reason: format!("cluster needs a nonzero {name}"),
                });
            }
        }
        if let Some(resilience) = &self.resilience {
            resilience.validate()?;
        }
        Ok(())
    }
}

/// Counters shared by every router clone and the cluster handle.
#[derive(Debug)]
pub(crate) struct ClusterCounters {
    shards: usize,
    workers_per_shard: usize,
    placement: Placement,
    hot_replicas: usize,
    queue_capacity: usize,
    /// Rows served per shard (the load-balance / skew signal).
    served: Vec<AtomicU64>,
    /// Queue-overflow rejections per shard (counted before the blocking fallback).
    rejections: Vec<AtomicU64>,
    /// Deepest observed sub-request queue depth per shard.
    depth_max: Vec<AtomicU64>,
    /// Routed fetches (one per batch of misses reaching the cluster).
    fetches: AtomicU64,
    /// Sub-requests issued (the fan-out width sum).
    subrequests: AtomicU64,
    /// Sub-requests that crossed shards (non-home hops).
    hops: AtomicU64,
    /// Row payload bytes served from non-home shards (the bus charge additionally
    /// covers the sub-request index bytes).
    cross_bytes: AtomicU64,
    /// Bytes served home-locally (no bus charge).
    local_bytes: AtomicU64,
    /// Sub-request attempts that blew their deadline (resilient path).
    timeouts: AtomicU64,
    /// Re-dispatches of timed-out or failed sub-requests.
    retries: AtomicU64,
    /// Speculative duplicate dispatches against a slow primary.
    hedges: AtomicU64,
    /// Hedged dispatches whose response arrived before the primary's.
    hedge_wins: AtomicU64,
    /// Sub-requests served by a replica-holding shard other than their owner.
    promotions: AtomicU64,
    /// Row lookups degraded to zero-filled results (no healthy shard held the row).
    missing_rows: AtomicU64,
    /// Node-cache hits per shard (all zero when node caching is off). In-process
    /// workers add per-fetch deltas; socket nodes report theirs in `STATS` frames.
    cache_hits: Vec<AtomicU64>,
    /// Node-cache misses per shard (rows the node read from its resident storage).
    cache_misses: Vec<AtomicU64>,
    /// Node-cache insertions per shard.
    cache_insertions: Vec<AtomicU64>,
    /// Node-cache evictions per shard.
    cache_evictions: Vec<AtomicU64>,
    /// Node-cache admission rejections per shard (TinyLFU only).
    cache_rejections: Vec<AtomicU64>,
}

impl ClusterCounters {
    fn new(
        shards: usize,
        config: &ClusterConfig,
        placement: Placement,
        hot_replicas: usize,
    ) -> Self {
        Self {
            shards,
            workers_per_shard: config.workers_per_shard,
            placement,
            hot_replicas,
            queue_capacity: config.queue_capacity,
            served: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            rejections: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            depth_max: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            fetches: AtomicU64::new(0),
            subrequests: AtomicU64::new(0),
            hops: AtomicU64::new(0),
            cross_bytes: AtomicU64::new(0),
            local_bytes: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            missing_rows: AtomicU64::new(0),
            cache_hits: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_misses: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_insertions: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_evictions: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cache_rejections: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Fold one fetch's node-cache counter deltas into shard `shard`'s slice. The
    /// caller records *before* pushing the fetch's reply, so the queue's
    /// happens-before edge makes the deltas visible to the router by gather time.
    pub(crate) fn record_node_cache(&self, shard: usize, delta: &CacheStats) {
        // `.get` rather than indexing: a socket node's STATS frame names its shard on
        // the wire, and a corrupt frame must not panic the link's reader thread.
        let add = |counters: &[AtomicU64], value: u64| {
            if let Some(counter) = counters.get(shard) {
                counter.fetch_add(value, Ordering::Relaxed);
            }
        };
        add(&self.cache_hits, delta.hits);
        add(&self.cache_misses, delta.misses);
        add(&self.cache_insertions, delta.insertions);
        add(&self.cache_evictions, delta.evictions);
        add(&self.cache_rejections, delta.rejections);
    }

    /// The node-cache counters summed across shards, in [`CacheStats`] form so the
    /// engine can merge them with its router-side cache block.
    pub(crate) fn node_cache_stats(&self) -> CacheStats {
        let sum = |counters: &[AtomicU64]| -> u64 {
            counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        };
        CacheStats {
            hits: sum(&self.cache_hits),
            coalesced: 0,
            misses: sum(&self.cache_misses),
            insertions: sum(&self.cache_insertions),
            evictions: sum(&self.cache_evictions),
            rejections: sum(&self.cache_rejections),
        }
    }

    /// Zero the node-cache counters only (the engine's cache-stats reset).
    pub(crate) fn reset_node_cache(&self) {
        for counter in self
            .cache_hits
            .iter()
            .chain(&self.cache_misses)
            .chain(&self.cache_insertions)
            .chain(&self.cache_evictions)
            .chain(&self.cache_rejections)
        {
            counter.store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn reset(&self) {
        for counter in self
            .served
            .iter()
            .chain(&self.rejections)
            .chain(&self.depth_max)
        {
            counter.store(0, Ordering::Relaxed);
        }
        self.reset_node_cache();
        self.fetches.store(0, Ordering::Relaxed);
        self.subrequests.store(0, Ordering::Relaxed);
        self.hops.store(0, Ordering::Relaxed);
        self.cross_bytes.store(0, Ordering::Relaxed);
        self.local_bytes.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.hedges.store(0, Ordering::Relaxed);
        self.hedge_wins.store(0, Ordering::Relaxed);
        self.promotions.store(0, Ordering::Relaxed);
        self.missing_rows.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ClusterStats {
        let load = |counters: &[AtomicU64]| -> Vec<u64> {
            counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        ClusterStats {
            shards: self.shards,
            workers_per_shard: self.workers_per_shard,
            placement: self.placement.label().to_string(),
            hot_replicas: self.hot_replicas,
            queue_capacity: self.queue_capacity,
            fetches: self.fetches.load(Ordering::Relaxed),
            subrequests: self.subrequests.load(Ordering::Relaxed),
            cross_shard_hops: self.hops.load(Ordering::Relaxed),
            cross_shard_bytes: self.cross_bytes.load(Ordering::Relaxed),
            local_bytes: self.local_bytes.load(Ordering::Relaxed),
            shard_lookups: load(&self.served),
            shard_rejections: load(&self.rejections),
            shard_queue_depth_max: load(&self.depth_max),
            shard_cache_hits: load(&self.cache_hits),
            shard_cache_misses: load(&self.cache_misses),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            missing_rows: self.missing_rows.load(Ordering::Relaxed),
        }
    }
}

/// The owner of the shard node threads. Keep it alive while any [`ClusterClient`] (or
/// engine built on one) is serving; [`ClusterHandle::shutdown`] closes every shard
/// queue, joins the workers and surfaces the first worker panic.
pub struct ClusterHandle {
    closers: Vec<Box<dyn Fn() + Send + Sync>>,
    workers: Vec<(usize, JoinHandle<()>)>,
    counters: Arc<ClusterCounters>,
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("shards", &self.closers.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ClusterHandle {
    /// A snapshot of the cluster's traffic and queue counters.
    pub fn stats(&self) -> ClusterStats {
        self.counters.snapshot()
    }

    /// Close every shard queue, join all workers, and report the first worker panic.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShardFailed`] naming the first shard whose worker panicked.
    pub fn shutdown(mut self) -> Result<ClusterStats, ServeError> {
        self.stop().map(|()| self.counters.snapshot())
    }

    fn stop(&mut self) -> Result<(), ServeError> {
        for close in &self.closers {
            close();
        }
        let mut failed = None;
        for (shard, handle) in self.workers.drain(..) {
            if handle.join().is_err() {
                failed = failed.or(Some(shard));
            }
        }
        match failed {
            Some(shard) => Err(ServeError::ShardFailed { shard }),
            None => Ok(()),
        }
    }
}

impl Drop for ClusterHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Optional knobs for a cluster spawn: fault injection and an injectable clock.
/// Separate from [`ClusterConfig`] so the config stays plain comparable data.
#[derive(Debug, Default)]
pub struct ClusterOptions {
    /// Inject this fault plan into the shard nodes (in-process workers check it per
    /// sub-request; socket nodes receive it as a `CHAOS` frame).
    pub chaos: Option<Arc<ChaosPlan>>,
    /// Deadline source for the router's resilient path ([`WallClock`](crate::clock::WallClock) by
    /// default).
    pub clock: Option<Arc<dyn Clock>>,
    /// Every shard node's own hot-row cache (in-process workers share one per shard;
    /// socket nodes are armed with a `CACHE` frame); `None` — and a zero capacity —
    /// leave the nodes uncached. Derived, not set: the engine constructors fill it from
    /// [`ServeConfig`](crate::engine::ServeConfig)'s cache placement and budget.
    pub(crate) node_cache: Option<NodeCacheConfig>,
}

/// Spawn the in-process shard nodes for a catalogue and hand back a router plus the
/// owning handle. Every shard node views the caller's [`RowArena`] — loading copies
/// zero rows.
pub(crate) fn spawn_cluster_with<T: Lane>(
    arena: &RowArena<T>,
    plan: ShardPlan,
    config: &ClusterConfig,
    options: ClusterOptions,
) -> Result<(ClusterClient<T>, ClusterHandle), ServeError> {
    config.validate()?;
    let dim = arena.dim();
    let num_shards = plan.num_shards();
    let counters = Arc::new(ClusterCounters::new(
        num_shards,
        config,
        plan.placement(),
        plan.hot_replicas(),
    ));
    let node_cache = options.node_cache.filter(|cache| cache.capacity > 0);
    let mut links = Vec::with_capacity(num_shards);
    let mut workers = Vec::with_capacity(num_shards * config.workers_per_shard);
    let mut closers: Vec<Box<dyn Fn() + Send + Sync>> = Vec::with_capacity(num_shards);
    for shard in 0..num_shards {
        let storage = node::ShardStorage::build(arena, plan.rows_on(shard));
        // One node per shard, shared by its workers.
        let node = Arc::new(ShardNode::new(
            shard,
            Box::new(storage),
            node_cache,
            options.chaos.clone(),
        ));
        let input = Arc::new(BoundedQueue::new(config.queue_capacity));
        for _ in 0..config.workers_per_shard {
            let node = node.clone();
            let input = input.clone();
            let counters = counters.clone();
            workers.push((
                shard,
                std::thread::spawn(move || node::run_queue_worker(&node, &input, &counters)),
            ));
        }
        closers.push(Box::new({
            let input = input.clone();
            move || input.close()
        }));
        links.push(ShardLink::Queue(input));
    }
    let mut client = assemble_client(plan, links, dim, config, options.clock, counters.clone());
    client.node_cache = node_cache;
    let handle = ClusterHandle {
        closers,
        workers,
        counters,
    };
    Ok((client, handle))
}

/// Connect a router to already-running shard-node processes over Unix-domain sockets
/// (`sockets[shard]` is shard `shard`'s listener, see
/// [`run_shard_node`](crate::transport::run_shard_node)), loading each node's resident
/// rows over the wire. The socket path always runs the resilient fetch machinery; the
/// handle owns shutdown (each node is told to exit) but no threads.
pub(crate) fn connect_cluster<T: Lane>(
    arena: &RowArena<T>,
    plan: ShardPlan,
    config: &ClusterConfig,
    sockets: &[PathBuf],
    options: ClusterOptions,
) -> Result<(ClusterClient<T>, ClusterHandle), ServeError> {
    config.validate()?;
    let dim = arena.dim();
    let num_shards = plan.num_shards();
    if sockets.len() != num_shards {
        return Err(ServeError::InvalidConfig {
            reason: format!(
                "{num_shards} shards need {num_shards} socket paths, got {}",
                sockets.len()
            ),
        });
    }
    let counters = Arc::new(ClusterCounters::new(
        num_shards,
        config,
        plan.placement(),
        plan.hot_replicas(),
    ));
    let reply: Arc<BoundedQueue<SubResponse<T>>> =
        Arc::new(BoundedQueue::new(reply_capacity(num_shards)));
    let mut links = Vec::with_capacity(num_shards);
    let mut closers: Vec<Box<dyn Fn() + Send + Sync>> = Vec::with_capacity(num_shards);
    let node_cache = options.node_cache.filter(|cache| cache.capacity > 0);
    for (shard, path) in sockets.iter().enumerate() {
        let mut handshake = transport::encode_load(shard as u32, arena, plan.rows_on(shard));
        if let Some(cache) = node_cache {
            // The CACHE frame rides the same handshake bytes as the LOAD, so a router
            // clone's re-dial re-arms the node cache exactly like it re-installs rows.
            handshake.extend_from_slice(&transport::encode_cache_config(shard as u32, cache));
        }
        let link = SocketLink::connect(
            shard,
            path,
            dim,
            Arc::new(handshake),
            config.queue_capacity,
            reply.clone(),
            Some(counters.clone()),
        )
        .map_err(|_| ServeError::TransportClosed { shard })?;
        if let Some(chaos) = options
            .chaos
            .as_deref()
            .filter(|plan| plan.spec().shard == shard)
        {
            link.send_blocking(transport::encode_chaos(
                shard as u32,
                chaos.spec().kind,
                chaos.fire_after(),
            ))
            .map_err(|_| ServeError::TransportClosed { shard })?;
        }
        closers.push(Box::new({
            let path = path.clone();
            let shard = shard as u32;
            move || {
                // A dedicated one-shot connection so shutdown works even after the
                // router (and its links) is gone. A dead node is already shut down.
                use std::io::Write as _;
                if let Ok(mut stream) = std::os::unix::net::UnixStream::connect(&path) {
                    let _ = stream.write_all(&transport::encode_shutdown(shard));
                }
            }
        }));
        links.push(ShardLink::Socket(link));
    }
    let mut client = assemble_client(plan, links, dim, config, options.clock, counters.clone());
    client.node_cache = node_cache;
    client.reply = reply;
    let handle = ClusterHandle {
        closers,
        workers: Vec::new(),
        counters,
    };
    Ok((client, handle))
}

#[cfg(test)]
mod fixtures;

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use crate::clock::ManualClock;
    use crate::engine::{ServeConfig, ServeEngine, ServePrecision};
    use crate::replay::ReplayWorkload;
    use crate::runtime::{RuntimeConfig, ServeRuntime};
    use crate::shard::RowSource;
    use imars_fabric::cost::{Cost, CostComponent};
    use imars_recsys::dlrm::{Dlrm, DlrmConfig};

    #[test]
    fn config_validation_rejects_zero_fields() {
        assert!(ClusterConfig::new(0, Placement::Range).is_err());
        let mut config = ClusterConfig::new(4, Placement::Range).unwrap();
        config.workers_per_shard = 0;
        assert!(config.validate().is_err());
        config.workers_per_shard = 1;
        config.queue_capacity = 0;
        assert!(config.validate().is_err());
    }

    /// The satellite's deterministic concurrency matrix: seeded traces through the
    /// cluster at 1/2/8 shards and 1/4 workers, fp32 and int8, cache on and off —
    /// every configuration bit-identical to the single-node engine.
    #[test]
    fn clustered_replay_is_bit_identical_to_single_node() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(400)).unwrap();
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            for cache_capacity in [0usize, 64] {
                let mut reference = ServeEngine::new(
                    Dlrm::new(DlrmConfig::tiny()).unwrap(),
                    &table,
                    serve_config(cache_capacity, precision),
                )
                .unwrap();
                let expected = reference.replay(&workload).unwrap();
                for shards in [1usize, 2, 8] {
                    for workers in [1usize, 4] {
                        let (mut engine, handle) = ServeEngine::new_clustered(
                            Dlrm::new(DlrmConfig::tiny()).unwrap(),
                            &table,
                            serve_config(cache_capacity, precision),
                            &cluster_config(shards, workers),
                            None,
                        )
                        .unwrap();
                        let outcome = engine.replay(&workload).unwrap();
                        assert_eq!(outcome.responses.len(), expected.responses.len());
                        for (a, b) in outcome.responses.iter().zip(&expected.responses) {
                            assert_eq!(a.id, b.id);
                            assert_eq!(
                                a.score.to_bits(),
                                b.score.to_bits(),
                                "query {} ({precision:?}, cache {cache_capacity}, {shards} shards x {workers} workers)",
                                a.id
                            );
                            assert_eq!(a.candidates, b.candidates);
                        }
                        // Cache behaviour is unchanged by clustering.
                        assert_eq!(outcome.report.cache, expected.report.cache);
                        let stats = handle.shutdown().unwrap();
                        assert!(stats.fetches > 0);
                        if shards == 1 {
                            assert_eq!(stats.cross_shard_hops, 0, "one shard has no hops");
                            assert_eq!(stats.cross_shard_bytes, 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cluster_replay_charges_the_rsc_bus_for_cross_shard_hops() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let mut single = ServeEngine::new(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
        )
        .unwrap();
        let single_outcome = single.replay(&workload).unwrap();
        assert_eq!(
            single_outcome
                .report
                .telemetry
                .cost
                .component(CostComponent::RscTransfer),
            Cost::ZERO,
            "no bus charge in-process"
        );
        assert!(single_outcome.report.cluster.is_none());

        let (mut clustered, handle) = ServeEngine::new_clustered(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster_config(4, 1),
            None,
        )
        .unwrap();
        let outcome = clustered.replay(&workload).unwrap();
        let transfer = outcome
            .report
            .telemetry
            .cost
            .component(CostComponent::RscTransfer);
        assert!(transfer.energy_pj > 0.0, "cross-shard hops pay the bus");
        assert!(
            outcome.report.telemetry.total_cost.energy_pj
                > single_outcome.report.telemetry.total_cost.energy_pj
        );
        let stats = outcome.report.cluster.expect("cluster stats in the report");
        assert!(stats.cross_shard_hops > 0);
        assert!(stats.cross_shard_bytes > 0);
        assert_eq!(stats.shards, 4);
        // The snapshot agrees with the handle's.
        assert_eq!(handle.shutdown().unwrap(), stats);
    }

    /// Frequency-aware placement (from the trace histogram) must cut cross-shard bytes
    /// versus range placement on a permuted skew-1.2 catalogue, with identical outputs.
    #[test]
    fn frequency_placement_cuts_cross_shard_traffic_on_permuted_catalogues() {
        let table = items();
        let mut config = replay_config(2000);
        config.item_permutation_seed = Some(5);
        let workload = ReplayWorkload::generate(&config).unwrap();
        let histogram = workload.row_histogram(NUM_ITEMS).unwrap();
        let run = |placement: Placement, histogram: Option<&[u64]>| {
            let cluster = ClusterConfig {
                placement,
                hot_replicas: if placement == Placement::Frequency {
                    NUM_ITEMS / 4
                } else {
                    0
                },
                ..cluster_config(4, 1)
            };
            let (mut engine, handle) = ServeEngine::new_clustered(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(64, ServePrecision::Fp32),
                &cluster,
                histogram,
            )
            .unwrap();
            let outcome = engine.replay(&workload).unwrap();
            handle.shutdown().unwrap();
            outcome
        };
        let range = run(Placement::Range, None);
        let freq = run(Placement::Frequency, Some(&histogram));
        for (a, b) in range.responses.iter().zip(&freq.responses) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "placement must not change outputs"
            );
        }
        let range_stats = range.report.cluster.unwrap();
        let freq_stats = freq.report.cluster.unwrap();
        assert!(
            (freq_stats.cross_shard_bytes as f64) < range_stats.cross_shard_bytes as f64 * 0.8,
            "freq placement must measurably cut cross-shard bytes: {} vs {}",
            freq_stats.cross_shard_bytes,
            range_stats.cross_shard_bytes,
        );
        assert!(freq_stats.mean_fanout() <= range_stats.mean_fanout());
    }

    /// The deterministic-concurrency satellite: the threaded runtime over the cluster
    /// on a frozen manual clock. Size flushes drive the pipeline, a clock advance fires
    /// the deadline flush, and the drained outputs match the single-node replay bit for
    /// bit.
    #[test]
    fn threaded_cluster_on_manual_clock_matches_single_node() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(200)).unwrap();
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            let mut reference = ServeEngine::new(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(64, precision),
            )
            .unwrap();
            let expected = reference.replay(&workload).unwrap();
            // The last row runs over Unix sockets with the cache at the shard nodes, in
            // int8 only: the one store shape no benchmark workload builds, with the
            // runtime's engine clones re-dialing the sockets through the boxed source.
            for (shards, workers, uds) in [(2usize, 1usize, false), (8, 4, false), (2, 1, true)] {
                if uds && precision != ServePrecision::Int8 {
                    continue;
                }
                let cluster = cluster_config(shards, workers);
                let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
                let mut config = serve_config(64, precision);
                let (sockets, nodes) = if uds {
                    config.cache_placement = crate::cache::CachePlacement::Shard;
                    spawn_uds_nodes("threaded-matrix-test", shards)
                } else {
                    (Vec::new(), Vec::new())
                };
                let (engine, handle) = if uds {
                    let options = ClusterOptions::default();
                    ServeEngine::new_clustered_sockets(
                        model, &table, config, &cluster, None, &sockets, options,
                    )
                } else {
                    ServeEngine::new_clustered(model, &table, config, &cluster, None)
                }
                .unwrap();
                let clock = Arc::new(ManualClock::new());
                let runtime = ServeRuntime::start(
                    &engine,
                    RuntimeConfig::new(2, 1024).unwrap(),
                    clock.clone(),
                )
                .unwrap();
                for (i, request) in workload.requests().iter().enumerate() {
                    runtime.submit(request.clone()).unwrap();
                    if i == 100 {
                        // Fire a deadline flush mid-stream; the frozen clock otherwise
                        // only allows size flushes.
                        clock.advance_us(1_000_000.0);
                    }
                }
                let outcome = runtime.shutdown().unwrap();
                assert_eq!(outcome.responses.len(), 200);
                let mut by_id = outcome.responses.clone();
                by_id.sort_unstable_by_key(|response| response.id);
                for (a, b) in by_id.iter().zip(&expected.responses) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "query {} ({precision:?}, {shards} shards x {workers} workers, uds {uds}, manual clock)",
                        a.id
                    );
                    assert_eq!(a.candidates, b.candidates);
                }
                let stats = outcome
                    .report
                    .cluster
                    .expect("cluster stats in threaded report");
                assert!(stats.fetches > 0);
                drop(engine); // hang the links up before the nodes are told to exit
                handle.shutdown().unwrap();
                for node in nodes {
                    node.join().unwrap().unwrap();
                }
            }
        }
    }

    /// The trace-determinism satellite: on a frozen manual clock the rendered trace
    /// JSON and slow-query log are a pure function of `(seed, workload)` — repeated
    /// runs are byte-identical, and so are runs at different runtime worker counts,
    /// at every shard width and in both precisions. Cache off: per-worker cache state
    /// would make the batch-level hit counts scheduling-dependent.
    #[test]
    fn cluster_traces_are_byte_deterministic_on_a_manual_clock() {
        use crate::trace::TraceConfig;
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(400)).unwrap();
        let trace_config = TraceConfig {
            sample_every: 4,
            seed: 11,
            capacity: 4096,
            slow_k: 6,
        };
        let run = |precision: ServePrecision, shards: usize, workers: usize| {
            let (mut engine, handle) = ServeEngine::new_clustered(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(0, precision),
                &cluster_config(shards, 1),
                None,
            )
            .unwrap();
            engine.enable_tracing(trace_config);
            let clock = Arc::new(ManualClock::new());
            let runtime =
                ServeRuntime::start(&engine, RuntimeConfig::new(workers, 1024).unwrap(), clock)
                    .unwrap();
            for request in workload.requests() {
                runtime.submit(request.clone()).unwrap();
            }
            let outcome = runtime.shutdown().unwrap();
            handle.shutdown().unwrap();
            assert!(outcome.trace.sampled() > 0);
            (
                outcome.trace.to_chrome_json(),
                outcome.trace.render_slow_log(),
            )
        };
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            for shards in [1usize, 2, 8] {
                let (json_a, slow_a) = run(precision, shards, 1);
                let (json_b, slow_b) = run(precision, shards, 1);
                assert_eq!(
                    json_a, json_b,
                    "repeat run must be byte-identical ({precision:?}, {shards} shards)"
                );
                assert_eq!(slow_a, slow_b);
                let (json_c, slow_c) = run(precision, shards, 4);
                assert_eq!(
                    json_a, json_c,
                    "worker count must not perturb traces ({precision:?}, {shards} shards)"
                );
                assert_eq!(slow_a, slow_c);
            }
        }
    }

    /// The metrics-determinism satellite: on a frozen manual clock the scraped
    /// time-series JSON and the Prometheus exposition are a pure function of
    /// `(seed, workload)` — byte-identical across repeated runs and across 1/4
    /// runtime workers, at 1/2/8 shards and in both precisions. Cache off, like the
    /// trace test: per-worker cache state would make per-batch hit deltas
    /// scheduling-dependent.
    #[test]
    fn metrics_series_and_exposition_are_byte_deterministic_on_a_manual_clock() {
        use crate::metrics::{exposition, MetricsConfig};
        use crate::trace::TraceConfig;
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(400)).unwrap();
        let trace_config = TraceConfig {
            sample_every: 4,
            seed: 11,
            capacity: 4096,
            slow_k: 6,
        };
        let run = |precision: ServePrecision, shards: usize, workers: usize| {
            let (mut engine, handle) = ServeEngine::new_clustered(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(0, precision),
                &cluster_config(shards, 1),
                None,
            )
            .unwrap();
            engine.enable_tracing(trace_config);
            engine.enable_metrics(MetricsConfig {
                interval_us: 1_000.0,
            });
            let clock = Arc::new(ManualClock::new());
            let runtime =
                ServeRuntime::start(&engine, RuntimeConfig::new(workers, 1024).unwrap(), clock)
                    .unwrap();
            for request in workload.requests() {
                runtime.submit(request.clone()).unwrap();
            }
            let outcome = runtime.shutdown().unwrap();
            handle.shutdown().unwrap();
            let series = outcome.report.metrics.clone().expect("metrics enabled");
            assert_eq!(
                series.windows.iter().map(|w| w.completions).sum::<u64>(),
                400,
                "every completion scraped exactly once"
            );
            (
                series.to_json(),
                exposition(&outcome.report, Some(&outcome.trace)),
            )
        };
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            for shards in [1usize, 2, 8] {
                let (series_a, text_a) = run(precision, shards, 1);
                let (series_b, text_b) = run(precision, shards, 1);
                assert_eq!(
                    series_a, series_b,
                    "repeat run must be byte-identical ({precision:?}, {shards} shards)"
                );
                assert_eq!(text_a, text_b);
                let (series_c, text_c) = run(precision, shards, 4);
                assert_eq!(
                    series_a, series_c,
                    "worker count must not perturb the series ({precision:?}, {shards} shards)"
                );
                assert_eq!(text_a, text_c);
            }
        }
    }

    /// Memory accounting for cluster loading: spawning an 8-shard cluster must not
    /// copy any rows — every shard storage is an `Arc` handle onto the caller's one
    /// arena allocation, and shutdown releases exactly those handles.
    #[test]
    fn cluster_loading_shares_one_arena_allocation_across_shards() {
        let table = items();
        let arena = arena_of(&table);
        assert_eq!(arena.handle_count(), 1);
        let resident = arena.resident_bytes();
        assert_eq!(resident, NUM_ITEMS * ITEM_DIM * std::mem::size_of::<f32>());
        let plan = ShardPlan::build(NUM_ITEMS, 8, Placement::Range, 0, None).unwrap();
        let (mut client, handle) = spawn_cluster(&arena, plan, &cluster_config(8, 2)).unwrap();
        // Loading 8 shards added 8 handles onto the same buffer — zero row copies,
        // zero extra resident bytes.
        assert_eq!(arena.handle_count(), 1 + 8);
        assert_eq!(arena.resident_bytes(), resident);
        // The shared storage actually serves.
        let mut out = vec![0.0f32; ITEM_DIM];
        client.fetch_rows(&[300], &mut out).unwrap();
        assert_eq!(out, table.lookup(300).unwrap());
        handle.shutdown().unwrap();
        // Joining the nodes dropped their handles; the catalogue is ours alone again.
        assert_eq!(arena.handle_count(), 1);
    }

    /// Fault-free, the socket transport is bit-identical to the in-process cluster:
    /// the same replay through real shard nodes on Unix sockets produces exactly the
    /// bytes the in-thread oracle does.
    #[test]
    fn uds_cluster_replay_matches_in_process_bit_for_bit() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(200)).unwrap();
        // The socket path always runs the resilient fan-out (per-attempt tags), so the
        // in-process oracle must too, or the trace comparison would diff tag schemes.
        let mut cluster = cluster_config(2, 1);
        cluster.resilience = Some(ResilienceConfig::default());
        let trace_config = crate::trace::TraceConfig {
            sample_every: 4,
            seed: 11,
            capacity: 4096,
            slow_k: 6,
        };
        let (mut oracle, oracle_handle) = ServeEngine::new_clustered(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster,
            None,
        )
        .unwrap();
        oracle.enable_tracing(trace_config);
        let expected = oracle.replay(&workload).unwrap();
        oracle_handle.shutdown().unwrap();
        let (sockets, nodes) = spawn_uds_nodes("cluster-replay-test", cluster.shards);
        let (mut engine, handle) = ServeEngine::new_clustered_sockets(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster,
            None,
            &sockets,
            ClusterOptions::default(),
        )
        .unwrap();
        engine.enable_tracing(trace_config);
        let outcome = engine.replay(&workload).unwrap();
        assert_eq!(outcome.responses.len(), expected.responses.len());
        for (uds, inproc) in outcome.responses.iter().zip(&expected.responses) {
            assert_eq!(uds.id, inproc.id);
            assert_eq!(
                uds.score.to_bits(),
                inproc.score.to_bits(),
                "query {} over uds",
                uds.id
            );
            assert_eq!(uds.candidates, inproc.candidates);
        }
        assert_eq!(outcome.report.cache, expected.report.cache);
        assert_eq!(outcome.report.telemetry.degraded_queries, 0);
        // Trace-context propagation: fault-free UDS traces are structurally identical
        // to the in-process oracle — same sampled set, same routing, no fault events —
        // and every completed sub-request carries the shard node's own server-side
        // span shipped back over the wire (not reconstructed at the router).
        assert!(outcome.trace.sampled() > 0);
        assert_eq!(outcome.trace.sampled(), expected.trace.sampled());
        for (uds, inproc) in outcome.trace.traces().iter().zip(expected.trace.traces()) {
            assert_eq!(uds.id, inproc.id);
            assert!(uds.events.is_empty(), "fault-free: no events over uds");
            assert!(inproc.events.is_empty());
            assert_eq!(uds.fetch.len(), inproc.fetch.len(), "query {}", uds.id);
            for (f_uds, f_inproc) in uds.fetch.iter().zip(&inproc.fetch) {
                assert_eq!(f_uds.shard, f_inproc.shard, "query {}", uds.id);
                assert_eq!(f_uds.tag, f_inproc.tag);
                assert_eq!(f_uds.hedge, f_inproc.hedge);
                assert_eq!(f_uds.completed, f_inproc.completed);
                let node = f_uds
                    .node
                    .expect("uds replies on traced fetches carry a node span");
                assert!(node.queue_wait_us >= 0.0 && node.queue_wait_us.is_finite());
                assert!(node.cache_probe_us >= 0.0 && node.cache_probe_us.is_finite());
                assert!(node.storage_read_us >= 0.0 && node.storage_read_us.is_finite());
                assert!(
                    f_inproc.node.is_some(),
                    "the in-process oracle measures node spans too"
                );
            }
        }
        drop(engine); // hang the links up before the nodes are told to exit
        handle.shutdown().unwrap();
        for node in nodes {
            node.join().unwrap().unwrap();
        }
    }

    /// Per-shard-node caches on the cluster: in-process workers and out-of-process
    /// UDS shard nodes both serve repeated rows from their node cache, produce
    /// bit-identical responses to the router-cached single-node oracle, and surface
    /// per-shard hit/miss counters through [`ClusterStats`].
    #[test]
    fn node_cached_cluster_replay_is_bit_identical_in_process_and_over_uds() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let cluster = cluster_config(2, 1);
        let mut oracle = ServeEngine::new(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
        )
        .unwrap();
        let expected = oracle.replay(&workload).unwrap();

        let node_cached = ServeConfig {
            cache_placement: crate::cache::CachePlacement::Shard,
            ..serve_config(64, ServePrecision::Fp32)
        };
        let check = |outcome: &crate::engine::ReplayOutcome, label: &str| {
            assert_eq!(outcome.responses.len(), expected.responses.len(), "{label}");
            for (a, b) in outcome.responses.iter().zip(&expected.responses) {
                assert_eq!(a.id, b.id, "{label}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "query {} {label}",
                    a.id
                );
                assert_eq!(a.candidates, b.candidates, "{label}");
            }
            // Same lookup stream, now absorbed at the shards.
            assert_eq!(
                outcome.report.cache.lookups(),
                expected.report.cache.lookups(),
                "{label}"
            );
            assert!(outcome.report.cache.hits > 0, "{label}");
            let stats = outcome.report.cluster.as_ref().expect("cluster stats");
            assert!(stats.node_cached(), "{label}");
            assert_eq!(stats.shard_cache_hits.len(), 2, "{label}");
            assert_eq!(
                stats.shard_cache_hits.iter().sum::<u64>(),
                outcome.report.cache.hits,
                "{label}: the report's hits are the per-shard node-cache hits"
            );
        };

        let (mut inproc, inproc_handle) = ServeEngine::new_clustered(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            node_cached.clone(),
            &cluster,
            None,
        )
        .unwrap();
        let inproc_outcome = inproc.replay(&workload).unwrap();
        check(&inproc_outcome, "(in-process)");
        inproc_handle.shutdown().unwrap();

        let (sockets, nodes) = spawn_uds_nodes("node-cache-test", cluster.shards);
        let (mut uds, uds_handle) = ServeEngine::new_clustered_sockets(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            node_cached,
            &cluster,
            None,
            &sockets,
            ClusterOptions::default(),
        )
        .unwrap();
        let uds_outcome = uds.replay(&workload).unwrap();
        check(&uds_outcome, "(over uds)");
        // The UDS nodes' caches see the exact same fetch stream as the in-process
        // workers', so the per-shard counters agree exactly.
        assert_eq!(
            uds_outcome
                .report
                .cluster
                .as_ref()
                .unwrap()
                .shard_cache_hits,
            inproc_outcome
                .report
                .cluster
                .as_ref()
                .unwrap()
                .shard_cache_hits
        );
        assert_eq!(
            uds_outcome
                .report
                .cluster
                .as_ref()
                .unwrap()
                .shard_cache_misses,
            inproc_outcome
                .report
                .cluster
                .as_ref()
                .unwrap()
                .shard_cache_misses
        );
        drop(uds);
        uds_handle.shutdown().unwrap();
        for node in nodes {
            node.join().unwrap().unwrap();
        }
    }
}

//! The shard node: one [`ShardNode::serve`] behind two transports.
//!
//! A node is a row store, an optional hot-row cache and an optional armed fault. What
//! it does with a fetch — fault check, cache probe, storage read, cache admit, span
//! timing — is written once, here. The two transports are adapters around it:
//! [`run_queue_worker`] pops [`SubRequest`]s off an in-process queue and pushes
//! [`SubResponse`]s back, and [`crate::transport`]'s connection loop decodes `FETCH`
//! frames and encodes `STATS` / `NODE_SPAN` / `ROWS`. So a node's queue wait, cache
//! probe and storage read mean the same thing however the request reached it.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use imars_recsys::arena::RowArena;

use super::{ClusterCounters, NodeCacheConfig};
use crate::cache::{CacheStats, HotRowCache};
use crate::chaos::{ChaosPlan, FaultAction};
use crate::clock::Clock;
use crate::queue::{BoundedQueue, Pop};
use crate::shard::Lane;
use crate::trace::NodeSpan;

/// The rows a node may serve, whatever holds them: the in-process view of the shared
/// arena, or a socket node's wire-byte blobs.
pub(crate) trait NodeRows<T>: Send + Sync + std::fmt::Debug {
    /// Row `row`'s values, `None` when the row does not live on this node.
    fn row(&self, row: u32) -> Option<&[T]>;
    /// Values per row.
    fn dim(&self) -> usize;
}

/// One shard's resident rows: a view into the shared [`RowArena`] plus a residency
/// bitset over global row ids (the plan's partition plus replicas).
///
/// In-process shard nodes used to copy their resident rows into a private slot table,
/// so loading an 8-shard catalogue held the whole table twice. Now every node clones
/// the arena handle — one allocation per dtype, shared with the engine and every other
/// shard — and residency is pure bookkeeping: the bit says "the plan placed this row
/// here", the row bytes are read from the shared arena.
#[derive(Debug)]
pub(super) struct ShardStorage<T> {
    /// Bit `row` set when this shard may serve `row` (partition member or replica).
    resident: Vec<u64>,
    /// The shared row storage (cheap handle clone, never a row copy).
    arena: RowArena<T>,
}

impl<T: Lane> ShardStorage<T> {
    pub(super) fn build(arena: &RowArena<T>, resident: &[u32]) -> Self {
        let mut bits = vec![0u64; arena.rows().div_ceil(64)];
        for &row in resident {
            bits[row as usize / 64] |= 1 << (row % 64);
        }
        Self {
            resident: bits,
            arena: arena.clone(),
        }
    }
}

impl<T: Lane> NodeRows<T> for ShardStorage<T> {
    fn row(&self, row: u32) -> Option<&[T]> {
        self.resident
            .get(row as usize / 64)
            .is_some_and(|word| word & (1 << (row % 64)) != 0)
            .then(|| self.arena.row(row as usize))
    }

    fn dim(&self) -> usize {
        self.arena.dim()
    }
}

/// What a served fetch hands its transport.
#[derive(Debug)]
pub(crate) struct NodeReply<T> {
    /// The requested rows, concatenated in request order.
    pub(crate) data: Vec<T>,
    /// The node's server-side span, present exactly when the request was traced.
    pub(crate) node_span: Option<NodeSpan>,
    /// This fetch's node-cache counter deltas, present exactly when the node caches.
    pub(crate) cache_delta: Option<CacheStats>,
}

/// Why a node did not answer a fetch. The transport decides what each means for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unserved {
    /// The armed fault took the request: [`FaultAction::Kill`], [`FaultAction::Stall`]
    /// or [`FaultAction::DropReply`] (a slow fault delays inside `serve` instead).
    Fault(FaultAction),
    /// This row does not live here — a routing bug or a hostile peer.
    NotResident(u32),
}

/// A shard node, independent of how requests reach it.
#[derive(Debug)]
pub(crate) struct ShardNode<T> {
    shard: usize,
    rows: Box<dyn NodeRows<T>>,
    cache_config: Option<NodeCacheConfig>,
    /// One cache per *node*, shared by everything serving it — the cache lives where
    /// the rows live, which is the whole point of the per-shard placement.
    cache: Option<Mutex<HotRowCache<T>>>,
    chaos: Option<Arc<ChaosPlan>>,
}

impl<T: Copy + Default> ShardNode<T> {
    pub(crate) fn new(
        shard: usize,
        rows: Box<dyn NodeRows<T>>,
        cache_config: Option<NodeCacheConfig>,
        chaos: Option<Arc<ChaosPlan>>,
    ) -> Self {
        let mut node = Self {
            shard,
            rows,
            cache_config,
            cache: None,
            chaos,
        };
        node.rebuild_cache();
        node
    }

    /// Build the cache cold. It needs both an armed config and loaded rows, whose
    /// width fixes the cache's; until then the node serves uncached.
    fn rebuild_cache(&mut self) {
        let dim = self.rows.dim();
        self.cache = self
            .cache_config
            .filter(|config| config.capacity > 0 && dim > 0)
            .map(|config| {
                Mutex::new(HotRowCache::with_policy(
                    config.capacity,
                    dim,
                    config.policy,
                ))
            });
    }

    /// Install `rows` as shard `shard`'s resident set. Loading rows of the same width
    /// again (a router clone's re-dial) keeps the warm cache.
    pub(crate) fn load(&mut self, shard: usize, rows: Box<dyn NodeRows<T>>) {
        let rewidth = rows.dim() != self.rows.dim();
        self.shard = shard;
        self.rows = rows;
        if rewidth {
            self.rebuild_cache();
        }
    }

    /// Arm the node cache. Re-arming with the same config (a router clone's re-dial)
    /// keeps the warm cache; a different config rebuilds it cold.
    pub(crate) fn arm_cache(&mut self, config: NodeCacheConfig) {
        if self.cache_config != Some(config) {
            self.cache_config = Some(config);
            self.rebuild_cache();
        }
    }

    /// Arm fault injection, replacing any earlier plan.
    pub(crate) fn arm_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(Arc::new(plan));
    }

    /// Serve one fetch: the rows' values in request order, through the node cache when
    /// there is one (a hit copies the cached row, a miss reads storage and admits the
    /// row per the cache's policy).
    ///
    /// A traced fetch brings `(tracer's clock, enqueue stamp)` and gets its server-side
    /// span measured on that clock — frozen on a
    /// [`ManualClock`](crate::clock::ManualClock) every duration is exactly zero, which
    /// keeps traced replays byte-deterministic across worker counts. `None` (the
    /// untraced default) costs one branch per timed section.
    ///
    /// # Errors
    ///
    /// [`Unserved`]: the armed [`ChaosPlan`] took the request, or a row is not here.
    pub(crate) fn serve(
        &self,
        rows: &[u32],
        trace: Option<(&dyn Clock, f64)>,
    ) -> Result<NodeReply<T>, Unserved> {
        match self
            .chaos
            .as_deref()
            .map_or(FaultAction::None, |plan| plan.action(self.shard))
        {
            FaultAction::None => {}
            FaultAction::SlowUs(delay_us) => std::thread::sleep(Duration::from_micros(delay_us)),
            fault => return Err(Unserved::Fault(fault)),
        }
        let now = || trace.map(|(clock, _)| clock.now_us());
        let since = |started: Option<f64>| {
            now()
                .zip(started)
                .map_or(0.0, |(now, at)| (now - at).max(0.0))
        };
        let mut span = NodeSpan {
            queue_wait_us: since(trace.map(|(_, enqueued_us)| enqueued_us)),
            ..NodeSpan::default()
        };
        let resident = |row: u32| self.rows.row(row).ok_or(Unserved::NotResident(row));
        let mut data = Vec::with_capacity(rows.len() * self.rows.dim());
        let mut cache_delta = None;
        match &self.cache {
            None => {
                let read_started = now();
                for &row in rows {
                    data.extend_from_slice(resident(row)?);
                }
                span.storage_read_us = since(read_started);
            }
            Some(cache) => {
                let mut cache = cache.lock().expect("node cache lock");
                let before = cache.stats();
                for &row in rows {
                    let probe_started = now();
                    let hit = match cache.lookup(row) {
                        Some(cached) => {
                            data.extend_from_slice(cached);
                            true
                        }
                        None => false,
                    };
                    span.cache_probe_us += since(probe_started);
                    if !hit {
                        let read_started = now();
                        let fetched = resident(row)?;
                        data.extend_from_slice(fetched);
                        cache.insert(row, fetched);
                        span.storage_read_us += since(read_started);
                    }
                }
                cache_delta = Some(cache.stats().delta_since(&before));
            }
        }
        Ok(NodeReply {
            data,
            node_span: trace.map(|_| span),
            cache_delta,
        })
    }
}

/// The trace context a traced fetch carries to the serving worker: the tracer's clock
/// plus the dispatch timestamp, so the node measures its span on the *tracer's* clock.
#[derive(Debug, Clone)]
pub(crate) struct TraceContext {
    pub(super) clock: Arc<dyn Clock>,
    pub(super) enqueued_us: f64,
}

/// A row-fetch sub-request routed to one in-process shard node.
#[derive(Debug)]
pub(crate) struct SubRequest<T> {
    /// The issuing fetch's tag; responses echo it so a router can discard stragglers
    /// from an earlier, aborted fetch.
    pub(super) tag: u64,
    /// Global row ids to fetch, in the split's canonical order.
    pub(super) rows: Vec<u32>,
    /// Where the serving worker pushes the response.
    pub(super) reply: Arc<BoundedQueue<SubResponse<T>>>,
    /// Test hook: a poisoned sub-request makes the serving worker panic, exercising the
    /// failure path deterministically.
    pub(super) poison: bool,
    /// Strict-path requests fail fast: a worker panic closes their reply queue so the
    /// router surfaces [`ServeError::ShardFailed`](crate::error::ServeError). Resilient
    /// requests keep their reply queue open — the router recovers through its own
    /// timeout/retry machinery.
    pub(super) fail_fast: bool,
    /// `Some` when the router's trace sink is armed: the worker records a node span.
    pub(super) trace: Option<TraceContext>,
}

/// One shard's response to a sub-request: the requested rows, concatenated in request
/// order.
#[derive(Debug)]
pub(crate) struct SubResponse<T> {
    pub(crate) tag: u64,
    pub(crate) shard: usize,
    pub(crate) data: Vec<T>,
    /// The node's server-side span, present exactly when the request was traced
    /// (socket nodes ship it on a `NODE_SPAN` frame ahead of the rows).
    pub(crate) node_span: Option<NodeSpan>,
}

/// Closes the failing shard's input queue and unblocks every stranded router when a
/// worker unwinds: the in-flight sub-request's reply queue closes, then the queued
/// sub-requests this node can no longer serve are drained and their reply queues closed
/// too. A shard panic must fail its routed batches, never deadlock them.
struct ShardPanicGuard<'a, T> {
    input: &'a BoundedQueue<SubRequest<T>>,
    reply: Arc<BoundedQueue<SubResponse<T>>>,
    /// Whether the in-flight request wanted its reply queue closed on failure.
    /// Resilient routers keep theirs open and recover via timeouts instead.
    fail_fast: bool,
}

impl<T> Drop for ShardPanicGuard<'_, T> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        if self.fail_fast {
            self.reply.close();
        }
        self.input.close();
        // The queue is closed, so this drains the backlog and terminates.
        while let Pop::Item(stranded) = self.input.pop() {
            if stranded.fail_fast {
                stranded.reply.close();
            }
        }
    }
}

/// The in-process transport: pop sub-requests, [`ShardNode::serve`], push the reply.
/// A kill panics through the panic guard (exactly the organic failure path), a stall
/// parks the worker without dying, and a dropped reply is never sent. A row the plan
/// did not place here is a routing bug and must fail the node — the panic guard turns
/// it into [`ServeError::ShardFailed`](crate::error::ServeError).
///
/// Node-cache counter deltas land in [`ClusterCounters`] *before* the reply is pushed,
/// so the queue's happens-before edge makes them visible to the router by gather time.
pub(super) fn run_queue_worker<T: Lane>(
    node: &ShardNode<T>,
    input: &BoundedQueue<SubRequest<T>>,
    counters: &ClusterCounters,
) {
    let shard = node.shard;
    loop {
        let request = match input.pop() {
            Pop::Item(request) => request,
            Pop::Closed => return,
            Pop::TimedOut => continue,
        };
        let _guard = ShardPanicGuard {
            input,
            reply: request.reply.clone(),
            fail_fast: request.fail_fast,
        };
        assert!(
            !request.poison,
            "shard {shard}: poisoned sub-request (injected failure)"
        );
        let trace = request
            .trace
            .as_ref()
            .map(|context| (context.clock.as_ref(), context.enqueued_us));
        let reply = match node.serve(&request.rows, trace) {
            Ok(reply) => reply,
            Err(Unserved::Fault(FaultAction::Kill)) => panic!("shard {shard}: chaos kill"),
            Err(Unserved::Fault(FaultAction::Stall)) => {
                // Stay "up" but never answer (or pop) again; exit only when the
                // cluster shuts the queue down so the test harness can still join us.
                while !input.is_closed() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return;
            }
            Err(Unserved::Fault(_)) => continue,
            Err(Unserved::NotResident(row)) => panic!("row {row} is not resident on this shard"),
        };
        if let Some(delta) = &reply.cache_delta {
            counters.record_node_cache(shard, delta);
        }
        counters.served[shard].fetch_add(request.rows.len() as u64, Ordering::Relaxed);
        // A closed reply queue means the router gave up (a sibling shard failed);
        // dropping the response is correct — the router already surfaced an error.
        let _ = request.reply.push(SubResponse {
            tag: request.tag,
            shard,
            data: reply.data,
            node_span: reply.node_span,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;
    use crate::chaos::{FaultKind, FaultSpec};
    use crate::clock::ManualClock;
    use crate::transport::{self, BlobRows, Frame};
    use std::time::Instant;

    const DIM: usize = 4;
    const ROWS: u32 = 16;

    fn arena() -> RowArena<f32> {
        let rows: Vec<Vec<f32>> = (0..ROWS)
            .map(|row| {
                (0..DIM)
                    .map(|i| (row * 10) as f32 + i as f32 * 0.25)
                    .collect()
            })
            .collect();
        RowArena::from_rows(rows.iter().map(Vec::as_slice), DIM).unwrap()
    }

    /// The same resident rows behind both stores: the arena view an in-process node
    /// serves, and the byte blobs a socket node decodes from the `LOAD` frame of that
    /// very arena.
    fn twin_nodes(
        resident: &[u32],
        cache: Option<NodeCacheConfig>,
        fault: Option<(FaultKind, u64)>,
    ) -> (ShardNode<f32>, ShardNode<u8>) {
        let arena = arena();
        let plan = || {
            fault.map(|(kind, fire_after)| {
                Arc::new(ChaosPlan::new(FaultSpec { kind, shard: 0 }, fire_after))
            })
        };
        let load = transport::encode_load(0, &arena, resident);
        let blobs = BlobRows::decode(&Frame::read_from(&mut &load[..]).unwrap().payload).unwrap();
        (
            ShardNode::new(
                0,
                Box::new(ShardStorage::build(&arena, resident)),
                cache,
                plan(),
            ),
            ShardNode::new(0, Box::new(blobs), cache, plan()),
        )
    }

    fn wire(values: &[f32]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for &value in values {
            value.to_wire(&mut bytes);
        }
        bytes
    }

    /// A fetch stream with re-reads inside and across fetches, longer than the cache.
    const FETCHES: [&[u32]; 6] = [
        &[0, 1, 2, 3],
        &[1, 1, 5],
        &[6, 7, 8, 9, 10],
        &[0, 5, 5, 11],
        &[],
        &[3, 2, 1, 0, 15],
    ];

    /// The node seam: typed rows and wire-byte rows are one node. Same row bytes, same
    /// cache counter deltas under every policy, same spans on a frozen clock.
    #[test]
    fn typed_and_byte_blob_nodes_serve_identically_under_every_cache_policy() {
        let resident: Vec<u32> = (0..ROWS).collect();
        let policies = [CachePolicy::Clock, CachePolicy::Lfu, CachePolicy::TinyLfu];
        for cache in std::iter::once(None).chain(policies.map(|policy| {
            Some(NodeCacheConfig {
                capacity: 4,
                policy,
            })
        })) {
            let (typed, blob) = twin_nodes(&resident, cache, None);
            let clock = ManualClock::new();
            let mut hits = 0;
            for (n, rows) in FETCHES.iter().enumerate() {
                // Alternate traced and untraced fetches.
                let trace = (n % 2 == 0).then_some((&clock as &dyn Clock, 0.0));
                let a = typed.serve(rows, trace).unwrap();
                let b = blob.serve(rows, trace).unwrap();
                assert_eq!(a.data.len(), rows.len() * DIM);
                assert_eq!(wire(&a.data), b.data, "{cache:?} fetch {n}");
                assert_eq!(a.cache_delta, b.cache_delta, "{cache:?} fetch {n}");
                assert_eq!(a.cache_delta.is_some(), cache.is_some());
                assert_eq!(a.node_span, b.node_span);
                assert_eq!(a.node_span, trace.map(|_| NodeSpan::default()));
                if let Some(delta) = a.cache_delta {
                    assert_eq!(delta.hits + delta.misses, rows.len() as u64);
                    hits += delta.hits;
                }
            }
            assert_eq!(
                hits > 0,
                cache.is_some(),
                "{cache:?}: re-reads hit the cache"
            );
        }
    }

    /// A row the node does not hold is refused by name on both stores, before and
    /// after resident rows of the same fetch.
    #[test]
    fn both_nodes_refuse_a_row_that_is_not_resident() {
        let (typed, blob) = twin_nodes(&[0, 1, 2], None, None);
        for rows in [&[7u32][..], &[0, 1, 9, 2], &[ROWS + 100]] {
            let missing = *rows.iter().find(|&&row| row > 2).unwrap();
            assert_eq!(
                typed.serve(rows, None).unwrap_err(),
                Unserved::NotResident(missing)
            );
            assert_eq!(
                blob.serve(rows, None).unwrap_err(),
                Unserved::NotResident(missing)
            );
        }
        assert!(typed.serve(&[2, 0], None).is_ok());
    }

    /// One fault trigger: the same plan yields the same action sequence on both nodes.
    /// `slow` is served late rather than refused, so it shows as elapsed time.
    #[test]
    fn both_nodes_suffer_the_same_fault_sequence() {
        let resident: Vec<u32> = (0..ROWS).collect();
        fn suffered<T>(served: Result<NodeReply<T>, Unserved>) -> FaultAction {
            match served {
                Ok(_) => FaultAction::None,
                Err(Unserved::Fault(action)) => action,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        use FaultAction::{DropReply, None as Served, Stall};
        // A stall never recovers; a drop burst does.
        for (kind, fire_after, expected) in [
            (FaultKind::Stall, 2, [Served, Served, Stall, Stall, Stall]),
            (
                FaultKind::DropFrames { frames: 2 },
                1,
                [Served, DropReply, DropReply, Served, Served],
            ),
        ] {
            let (typed, blob) = twin_nodes(&resident, None, Some((kind, fire_after)));
            for (n, action) in expected.into_iter().enumerate() {
                assert_eq!(
                    suffered(typed.serve(&[1, 2], None)),
                    action,
                    "{kind:?} #{n}"
                );
                assert_eq!(suffered(blob.serve(&[1, 2], None)), action, "{kind:?} #{n}");
            }
        }
        let delay_us = 3_000;
        let (typed, blob) = twin_nodes(&resident, None, Some((FaultKind::Slow { delay_us }, 1)));
        for late in [false, true, true] {
            let started = Instant::now();
            let a = typed.serve(&[4, 5], None).unwrap();
            let typed_took = started.elapsed();
            let started = Instant::now();
            let b = blob.serve(&[4, 5], None).unwrap();
            let blob_took = started.elapsed();
            assert_eq!(wire(&a.data), b.data);
            if late {
                assert!(
                    typed_took >= Duration::from_micros(delay_us),
                    "{typed_took:?}"
                );
                assert!(
                    blob_took >= Duration::from_micros(delay_us),
                    "{blob_took:?}"
                );
            }
        }
    }
}

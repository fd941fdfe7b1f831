//! The router: a [`ClusterClient`] over one [`ShardLink`] per shard node, the single
//! send ladder both fan-outs dispatch through, the traffic/bus accounting they share,
//! and the strict fan-out/gather — the deterministic bit-identity oracle.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use imars_fabric::cost::{Cost, CostBreakdown};
use imars_fabric::interconnect::RscBus;
use imars_recsys::batch::PoolingBatch;

use super::node::{SubRequest, SubResponse, TraceContext};
use super::{ClusterConfig, ClusterCounters, NodeCacheConfig, ResilienceConfig};
use crate::cache::CacheStats;
use crate::clock::{Clock, WallClock};
use crate::error::ServeError;
use crate::metrics::ShardFaultDelta;
use crate::placement::ShardPlan;
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::shard::{Flight, Lane, RowSource, ShardTopology};
use crate::telemetry::ClusterStats;
use crate::trace::{FetchEvent, FetchEventKind, NodeSpan, NodeSpanRecord};
use crate::transport::{self, SocketLink};

/// The router's channel to one shard node: an in-process bounded queue, or a socket
/// link to a shard-node process ([`crate::transport`]). Either way it is a bounded
/// queue of outbound messages, so [`ClusterClient::send`] runs one ladder over both
/// and the fetch paths are transport-agnostic.
#[derive(Debug)]
pub(crate) enum ShardLink<T> {
    Queue(Arc<BoundedQueue<SubRequest<T>>>),
    Socket(SocketLink<T>),
}

impl<T: Lane> ShardLink<T> {
    /// Whether the channel can no longer deliver: a closed queue (the in-process node
    /// died or shut down) or a broken socket.
    pub(super) fn is_down(&self) -> bool {
        match self {
            ShardLink::Queue(input) => input.is_closed(),
            ShardLink::Socket(link) => link.is_closed(),
        }
    }
}

/// Why a sub-request dispatch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DispatchFail {
    /// The shard's channel is closed — it is dead, route around it.
    Closed,
    /// The shard's queue stayed full past the deadline — treat as a timeout.
    Timeout,
}

/// The armed trace capture of one batch's fetches: attempt and decision events stamped
/// on the *tracer's* clock (not the router's resilience clock), so a frozen manual
/// clock freezes trace timestamps even when the router runs real deadlines.
#[derive(Debug)]
struct TraceSink {
    clock: Arc<dyn Clock>,
    events: Vec<FetchEvent>,
    /// Server-side spans gathered off the responses, tagged with the attempt tag and
    /// serving shard so the trace assembler can attach each to its fetch span.
    node_spans: Vec<NodeSpanRecord>,
}

/// A router into the cluster: splits fetch work by shard, fans sub-requests out, and
/// gathers the responses. Cloning creates another independent router over the same
/// shard nodes (each clone has its own reply queue), which is how the threaded
/// runtime's per-worker engine clones share one cluster.
#[derive(Debug)]
pub struct ClusterClient<T> {
    pub(super) plan: Arc<ShardPlan>,
    pub(super) links: Vec<ShardLink<T>>,
    pub(super) reply: Arc<BoundedQueue<SubResponse<T>>>,
    pub(super) dim: usize,
    bus: RscBus,
    pub(super) counters: Arc<ClusterCounters>,
    /// Interconnect cost of fetches since the engine last collected it. Hops within one
    /// fetch compose in parallel (independent bus segments), fetches serially.
    pub(super) pending_cost: Cost,
    pending_breakdown: CostBreakdown,
    pub(super) next_tag: u64,
    poison_next: bool,
    /// Fault-tolerance policy; `None` keeps the strict fail-fast path on queue links.
    pub(super) resilience: Option<ResilienceConfig>,
    /// Deadline source for the resilient path (injectable for deterministic tests).
    pub(super) clock: Arc<dyn Clock>,
    /// Shards this router has concluded are dead (closed link, or enough consecutive
    /// timeout strikes).
    pub(super) dead: Vec<bool>,
    /// Consecutive attempt timeouts per shard; enough of them declare the shard dead so
    /// a stalled node stops costing a full deadline on every subsequent fetch.
    pub(super) timeout_strikes: Vec<u32>,
    /// Row ids degraded to zero-filled lookups since the engine last collected them.
    pub(super) missing: Vec<u32>,
    /// Armed per traced batch via [`ShardTopology::trace_arm`], drained by
    /// [`ShardTopology::trace_drain`]; `None` (the untraced default) records nothing.
    trace: Option<TraceSink>,
    /// Per-shard fault deltas since the engine last drained them
    /// ([`ShardTopology::take_fault_deltas`]). Buffered per router clone — never read
    /// from the shared atomics, whose deltas would race across worker clones — so
    /// the metrics plane's per-window attribution stays deterministic.
    pub(super) fault_window: Vec<ShardFaultDelta>,
    /// Per-shard-node cache configuration, when the cluster was spawned with one.
    /// The caches live with the shard nodes; this side only reads their counters.
    pub(super) node_cache: Option<NodeCacheConfig>,
}

impl<T: Lane> Clone for ClusterClient<T> {
    fn clone(&self) -> Self {
        let reply = Arc::new(BoundedQueue::new(self.reply.capacity()));
        let links = self
            .links
            .iter()
            .map(|link| match link {
                ShardLink::Queue(input) => ShardLink::Queue(input.clone()),
                ShardLink::Socket(socket) => ShardLink::Socket(
                    socket
                        .reconnect(reply.clone())
                        .expect("reconnecting a router clone to its shard node"),
                ),
            })
            .collect();
        Self {
            plan: self.plan.clone(),
            links,
            reply,
            dim: self.dim,
            bus: self.bus,
            counters: self.counters.clone(),
            pending_cost: Cost::ZERO,
            pending_breakdown: CostBreakdown::new(),
            next_tag: 0,
            poison_next: false,
            resilience: self.resilience,
            clock: self.clock.clone(),
            dead: vec![false; self.dead.len()],
            timeout_strikes: vec![0; self.timeout_strikes.len()],
            missing: Vec::new(),
            trace: None,
            fault_window: vec![ShardFaultDelta::default(); self.fault_window.len()],
            node_cache: self.node_cache,
        }
    }
}

impl<T> Drop for ClusterClient<T> {
    /// Close the reply queue so a shard worker holding a straggler response for this
    /// router sees `Closed` (and drops it) instead of blocking on a full queue nobody
    /// will ever drain.
    fn drop(&mut self) {
        self.reply.close();
    }
}

impl<T: Lane> ClusterClient<T> {
    /// The placement plan the router splits against.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// A snapshot of the shared cluster counters.
    pub fn stats(&self) -> ClusterStats {
        self.counters.snapshot()
    }

    /// Test hook: poison the next fetch's sub-requests so the serving workers panic.
    #[cfg(test)]
    fn poison_next_fetch(&mut self) {
        self.poison_next = true;
    }

    /// Wait out (and discard) the responses of this fetch's already-dispatched
    /// sub-requests after an abort, so they cannot linger as in-flight stragglers. A
    /// closed reply queue (a dispatched shard died) ends the wait — its workers' reply
    /// pushes fail harmlessly from then on.
    fn absorb_stragglers(&self, tag: u64, awaiting: &mut HashMap<usize, &[u32]>) {
        while !awaiting.is_empty() {
            match self.reply.pop() {
                Pop::Item(response) => {
                    if response.tag == tag {
                        awaiting.remove(&response.shard);
                    }
                }
                Pop::Closed => return,
                Pop::TimedOut => continue,
            }
        }
    }

    /// Swap the deadline source (timeouts, backoff and hedging run off it). Tests use a
    /// [`ManualClock`](crate::clock::ManualClock) to make the resilient path
    /// deterministic.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Arm (or disarm) the fault-tolerance policy on this router.
    pub fn set_resilience(&mut self, resilience: Option<ResilienceConfig>) {
        self.resilience = resilience;
    }

    /// Row ids zero-filled since the last call (the engine excludes them from the
    /// cache and counts the degraded queries).
    pub fn take_missing_rows(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.missing)
    }

    /// Record a fetch event on the armed trace sink — a single-branch no-op for the
    /// untraced default, so tracing cannot perturb untraced batches.
    pub(super) fn trace_event(&mut self, kind: FetchEventKind, shard: usize, tag: u64) {
        if let Some(sink) = &mut self.trace {
            let at_us = sink.clock.now_us();
            sink.events.push(FetchEvent {
                kind,
                shard: shard as u32,
                tag,
                at_us,
            });
        }
    }

    /// The trace context to carry on a sub-request dispatched right now: the sink's
    /// clock plus its current time. `None` when the sink is unarmed.
    fn trace_context(&self) -> Option<TraceContext> {
        self.trace.as_ref().map(|sink| TraceContext {
            clock: sink.clock.clone(),
            enqueued_us: sink.clock.now_us(),
        })
    }

    /// Stash a gathered response's server-side span on the armed sink (no-op when
    /// untraced or when the response carries none — an untraced attempt's reply).
    pub(super) fn trace_node_span(&mut self, shard: usize, tag: u64, span: Option<NodeSpan>) {
        if let (Some(sink), Some(span)) = (&mut self.trace, span) {
            sink.node_spans.push(NodeSpanRecord {
                shard: shard as u32,
                tag,
                span,
            });
        }
    }

    /// Send one sub-request for `rows` to `shard` — the one place a message enters a
    /// link, whichever transport it is. `wait` is how long a full link may hold the
    /// router (see [`offer`]); `None` is the strict path, whose requests also fail fast
    /// and alone carry the test poison.
    pub(super) fn send(
        &self,
        shard: usize,
        tag: u64,
        rows: &[u32],
        wait: Option<Duration>,
    ) -> Result<(), DispatchFail> {
        let rejected = || {
            self.counters.rejections[shard].fetch_add(1, Ordering::Relaxed);
        };
        let depth = match &self.links[shard] {
            ShardLink::Queue(input) => {
                let request = SubRequest {
                    tag,
                    rows: rows.to_vec(),
                    reply: self.reply.clone(),
                    poison: wait.is_none() && self.poison_next,
                    fail_fast: wait.is_none(),
                    trace: self.trace_context(),
                };
                offer(input, request, wait, rejected)?
            }
            ShardLink::Socket(link) => {
                let frame = transport::encode_fetch(shard as u32, tag, rows, self.trace.is_some());
                let depth = offer(link.outbox(), frame, wait, rejected)?;
                // A remote node can't bump this process's counters, so its served-rows
                // share (shard imbalance in the report) is accounted at dispatch.
                self.counters.served[shard].fetch_add(rows.len() as u64, Ordering::Relaxed);
                depth
            }
        };
        self.counters.depth_max[shard].fetch_max(depth as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Account one sub-request of `rows` rows that `target` accepted: traffic counters,
    /// and for a non-home target one RSC-bus hop folded into the fetch's `fanout_cost`
    /// (hops within one fetch ride independent bus segments, so they compose in
    /// parallel). Called only after a link took the message, so an aborted fan-out
    /// never accounts transfers that did not happen.
    pub(super) fn charge_subrequest(
        &mut self,
        rows: usize,
        target: usize,
        home: usize,
        fanout_cost: &mut Option<Cost>,
    ) {
        self.counters.subrequests.fetch_add(1, Ordering::Relaxed);
        let response_bytes = rows * self.dim * std::mem::size_of::<T>();
        if target == home {
            self.counters
                .local_bytes
                .fetch_add(response_bytes as u64, Ordering::Relaxed);
            return;
        }
        let request_bytes = rows * std::mem::size_of::<u32>();
        self.counters.hops.fetch_add(1, Ordering::Relaxed);
        // Row payload only, symmetric with `local_bytes`, so the cross-traffic fraction
        // compares like with like; the bus *charge* still covers the index bytes of
        // the sub-request.
        self.counters
            .cross_bytes
            .fetch_add(response_bytes as u64, Ordering::Relaxed);
        let hop = self.bus.hop(request_bytes, response_bytes);
        self.pending_breakdown.merge(&hop.breakdown);
        *fanout_cost = Some(match fanout_cost.take() {
            None => hop.cost,
            Some(cost) => cost.parallel(hop.cost),
        });
    }
}

/// The send ladder: try; a full queue is counted (`rejected`) and then waited on —
/// the bound is backpressure, not data loss. With a deadline, a queue still full when
/// it passes is [`DispatchFail::Timeout`], so a wedged shard cannot hold the router;
/// without one the push blocks until there is room.
fn offer<M>(
    queue: &BoundedQueue<M>,
    message: M,
    wait: Option<Duration>,
    rejected: impl FnOnce(),
) -> Result<usize, DispatchFail> {
    let message = match queue.try_push(message) {
        Ok(depth) => return Ok(depth),
        Err(PushError::Closed(_)) => return Err(DispatchFail::Closed),
        Err(PushError::Full(message)) => message,
    };
    rejected();
    let pushed = match wait {
        Some(wait) => queue.push_timeout(message, wait),
        None => queue.push(message),
    };
    pushed.map_err(|error| match error {
        PushError::Full(_) => DispatchFail::Timeout,
        PushError::Closed(_) => DispatchFail::Closed,
    })
}

/// Copy a response's rows into the output chunks at `positions` (each position is
/// written by exactly one response, so assembly is deterministic whatever the arrival
/// order). A response that is not exactly `positions.len()` rows of `dim` values — a
/// socket node can answer anything — writes nothing and returns `false`: the caller
/// fails that attempt instead of indexing past the data.
pub(super) fn scatter<T: Lane>(
    data: &[T],
    dim: usize,
    positions: &[u32],
    chunks: &mut [Option<&mut [T]>],
) -> bool {
    if data.len() != positions.len() * dim {
        return false;
    }
    for (row, &position) in data.chunks_exact(dim).zip(positions) {
        chunks[position as usize]
            .take()
            .expect("each position is served exactly once")
            .copy_from_slice(row);
    }
    true
}

impl<T: Lane> RowSource<T> for ClusterClient<T> {
    fn fetch_rows(&mut self, rows: &[u32], out: &mut [T]) -> Result<(), ServeError> {
        if rows.is_empty() {
            return Ok(());
        }
        debug_assert_eq!(out.len(), rows.len() * self.dim);
        let resilient = self.resilience.is_some()
            || self
                .links
                .iter()
                .any(|link| matches!(link, ShardLink::Socket(_)));
        if resilient {
            self.fetch_rows_resilient(rows, out)
        } else {
            self.fetch_rows_strict(rows, out)
        }
    }

    fn pool_direct(&mut self, batch: &PoolingBatch, out: &mut [T]) -> Result<(), ServeError> {
        if out.len() != batch.len() * self.dim {
            return Err(ServeError::ShapeMismatch {
                what: "batch pooling output",
                expected: batch.len() * self.dim,
                actual: out.len(),
            });
        }
        self.check_indices(batch.indices())?;
        // Nothing probes on the cache-off path, so every lookup joins the flight table:
        // the routed traffic (and its bus charge) counts each unique row once per
        // batch and cache-off interconnect numbers stay comparable to cache-on ones.
        let mut flight = Flight::default();
        flight.fetch(self, batch.indices(), |_| None, None)?;
        flight.pool(batch.offsets(), &[], out);
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn RowSource<T>> {
        Box::new(self.clone())
    }
}

impl<T: Lane> ShardTopology for ClusterClient<T> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError> {
        self.plan.check_indices(indices)
    }

    fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    fn home_shard(&self, history: &[u32]) -> usize {
        self.plan.home_shard(history.iter().copied())
    }

    fn node_cache_stats(&self) -> CacheStats {
        self.counters.node_cache_stats()
    }

    fn reset_stats(&mut self) {
        self.counters.reset();
    }

    /// Drain the interconnect cost accumulated since the last call (the engine charges
    /// it to its telemetry next to the GPCiM components).
    fn take_interconnect(&mut self) -> (Cost, CostBreakdown) {
        (
            std::mem::take(&mut self.pending_cost),
            std::mem::take(&mut self.pending_breakdown),
        )
    }

    fn cluster_counters(&self) -> Option<Arc<ClusterCounters>> {
        Some(self.counters.clone())
    }

    fn take_missing(&mut self) -> Vec<u32> {
        self.take_missing_rows()
    }

    fn node_cached(&self) -> bool {
        self.node_cache.is_some()
    }

    fn trace_arm(&mut self, clock: &Arc<dyn Clock>) {
        self.trace = Some(TraceSink {
            clock: clock.clone(),
            events: Vec::new(),
            node_spans: Vec::new(),
        });
    }

    fn trace_drain_node_spans(&mut self) -> Vec<NodeSpanRecord> {
        self.trace
            .as_mut()
            .map_or_else(Vec::new, |sink| std::mem::take(&mut sink.node_spans))
    }

    fn trace_drain(&mut self) -> Vec<FetchEvent> {
        self.trace.take().map_or_else(Vec::new, |sink| sink.events)
    }

    fn take_fault_deltas(&mut self) -> Vec<ShardFaultDelta> {
        if self.fault_window.iter().all(ShardFaultDelta::is_zero) {
            return Vec::new();
        }
        let shards = self.fault_window.len();
        std::mem::replace(
            &mut self.fault_window,
            vec![ShardFaultDelta::default(); shards],
        )
    }
}

impl<T: Lane> ClusterClient<T> {
    /// The strict fan-out/gather: any shard failure is the fetch's failure
    /// ([`ServeError::ShardFailed`]). This path is the deterministic bit-identity
    /// oracle the resilient path is tested against.
    fn fetch_rows_strict(&mut self, rows: &[u32], out: &mut [T]) -> Result<(), ServeError> {
        // Discard stragglers a previously aborted fetch left behind, so leftovers can
        // never accumulate across fetches: at most one aborted fetch's responses
        // (< num_shards) coexist with the current fetch's (≤ num_shards), which the
        // 4×num_shards reply capacity absorbs — shard workers never block on a full
        // reply queue.
        while let Pop::Item(_) = self.reply.pop_timeout(Duration::ZERO) {}
        let split = self.plan.split(rows);
        let mut chunks: Vec<Option<&mut [T]>> = out.chunks_exact_mut(self.dim).map(Some).collect();
        let tag = self.next_tag;
        self.next_tag += 1;
        self.counters.fetches.fetch_add(1, Ordering::Relaxed);

        let mut fanout_cost: Option<Cost> = None;
        let mut awaiting: HashMap<usize, &[u32]> = HashMap::with_capacity(split.fanout());
        let mut failed = None;
        for sub in &split.per_shard {
            if self.send(sub.shard, tag, &sub.rows, None).is_err() {
                failed = Some(sub.shard);
                break;
            }
            self.trace_event(FetchEventKind::Dispatch, sub.shard, tag);
            self.charge_subrequest(sub.rows.len(), sub.shard, split.home, &mut fanout_cost);
            awaiting.insert(sub.shard, &sub.positions);
        }
        self.poison_next = false;
        if let Some(cost) = fanout_cost {
            self.pending_cost = self.pending_cost.serial(cost);
        }
        if let Some(shard) = failed {
            // Dispatch failed mid-fan-out: absorb the responses of the shards already
            // dispatched before surfacing the error, so no more than one fetch's worth
            // of responses is ever in flight toward the bounded reply queue (otherwise
            // a worker's reply push could block forever on a queue nobody drains,
            // wedging a healthy shard).
            self.absorb_stragglers(tag, &mut awaiting);
            return Err(ServeError::ShardFailed { shard });
        }

        // Gather: sub-responses may arrive in any order.
        while !awaiting.is_empty() {
            match self.reply.pop() {
                Pop::Item(response) => {
                    if response.tag != tag {
                        continue; // straggler from an earlier, aborted fetch
                    }
                    let positions = awaiting
                        .remove(&response.shard)
                        .expect("each touched shard responds once");
                    self.trace_event(FetchEventKind::Reply, response.shard, response.tag);
                    self.trace_node_span(response.shard, response.tag, response.node_span);
                    if !scatter(&response.data, self.dim, positions, &mut chunks) {
                        return Err(ServeError::ShardFailed {
                            shard: response.shard,
                        });
                    }
                }
                Pop::Closed => {
                    // A shard worker panicked and closed our reply queue. Blame the
                    // lowest still-unanswered shard (deterministic, and correct when a
                    // single shard failed).
                    let shard = awaiting.keys().copied().min().unwrap_or(0);
                    return Err(ServeError::ShardFailed { shard });
                }
                Pop::TimedOut => continue,
            }
        }
        Ok(())
    }
}

/// Room for one response per shard plus a retry, a hedge, and stragglers from an
/// aborted fetch — shard workers never block on a full reply queue.
pub(super) fn reply_capacity(num_shards: usize) -> usize {
    num_shards.max(1) * 4
}

pub(super) fn assemble_client<T: Lane>(
    plan: ShardPlan,
    links: Vec<ShardLink<T>>,
    dim: usize,
    config: &ClusterConfig,
    clock: Option<Arc<dyn Clock>>,
    counters: Arc<ClusterCounters>,
) -> ClusterClient<T> {
    let num_shards = plan.num_shards();
    ClusterClient {
        plan: Arc::new(plan),
        links,
        reply: Arc::new(BoundedQueue::new(reply_capacity(num_shards))),
        dim,
        bus: RscBus::new(config.interconnect),
        counters,
        pending_cost: Cost::ZERO,
        pending_breakdown: CostBreakdown::new(),
        next_tag: 0,
        poison_next: false,
        resilience: config.resilience,
        clock: clock.unwrap_or_else(|| Arc::new(WallClock::new())),
        dead: vec![false; num_shards],
        timeout_strikes: vec![0; num_shards],
        missing: Vec::new(),
        trace: None,
        fault_window: vec![ShardFaultDelta::default(); num_shards],
        node_cache: None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::node::{NodeRows, ShardStorage};
    use super::*;
    use crate::engine::{ServeEngine, ServePrecision};
    use crate::placement::Placement;
    use crate::replay::ReplayWorkload;
    use imars_recsys::dlrm::{Dlrm, DlrmConfig};
    use std::time::Instant;

    #[test]
    fn cluster_fetch_returns_the_exact_table_rows() {
        let table = items();
        let arena = arena_of(&table);
        let plan = ShardPlan::build(NUM_ITEMS, 4, Placement::Range, 0, None).unwrap();
        let (mut client, handle) = spawn_cluster(&arena, plan, &cluster_config(4, 2)).unwrap();
        let wanted: Vec<u32> = vec![0, 511, 17, 17, 300, 42, 128, 200];
        let mut out = vec![0.0f32; wanted.len() * ITEM_DIM];
        client.fetch_rows(&wanted, &mut out).unwrap();
        for (&row, chunk) in wanted.iter().zip(out.chunks(ITEM_DIM)) {
            assert_eq!(chunk, table.lookup(row as usize).unwrap(), "row {row}");
        }
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.fetches, 1);
        assert_eq!(stats.shard_lookups.iter().sum::<u64>(), wanted.len() as u64);
        assert!(stats.subrequests >= 1);
    }

    #[test]
    fn a_panicking_shard_node_surfaces_shard_failed_instead_of_deadlocking() {
        let table = items();
        let arena = arena_of(&table);
        let plan = ShardPlan::build(NUM_ITEMS, 4, Placement::Range, 0, None).unwrap();
        let (mut client, handle) = spawn_cluster(&arena, plan, &cluster_config(4, 1)).unwrap();
        client.poison_next_fetch();
        let rows_wanted: Vec<u32> = vec![1, 200, 400];
        let mut out = vec![0.0f32; rows_wanted.len() * ITEM_DIM];
        let started = Instant::now();
        let error = client
            .fetch_rows(&rows_wanted, &mut out)
            .expect_err("poisoned fetch must fail");
        assert!(matches!(error, ServeError::ShardFailed { .. }), "{error}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failure must not deadlock"
        );
        // The failed node's queue is closed: routing to it again fails fast, every
        // time — repeated retries must neither hang nor wedge the healthy shards.
        for _ in 0..5 {
            let mut out2 = vec![0.0f32; ITEM_DIM];
            assert!(client.fetch_rows(&[1], &mut out2).is_err());
        }
        // Shard 2 was never poisoned (the fetch touched 0, 1 and 3): an independent
        // router can still serve rows that live there.
        let mut survivor = client.clone();
        let mut out3 = vec![0.0f32; ITEM_DIM];
        survivor.fetch_rows(&[300], &mut out3).unwrap();
        assert_eq!(out3, table.lookup(300).unwrap());
        // Shutdown reports the panic instead of hanging.
        let error = handle.shutdown().expect_err("shutdown surfaces the panic");
        assert!(matches!(error, ServeError::ShardFailed { .. }));
    }

    #[test]
    fn poisoned_requests_through_the_engine_error_the_replay() {
        let table = items();
        let (mut engine, handle) = ServeEngine::new_clustered(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster_config(2, 1),
            None,
        )
        .unwrap();
        // An out-of-catalogue row is rejected by the router's validation, shards stay up.
        let mut workload = replay_config(10);
        workload.num_items = NUM_ITEMS * 2;
        let bad = ReplayWorkload::generate(&workload).unwrap();
        assert!(matches!(
            engine.replay(&bad),
            Err(ServeError::RowOutOfRange { .. })
        ));
        // The cluster is still healthy afterwards.
        let good = ReplayWorkload::generate(&replay_config(10)).unwrap();
        assert_eq!(engine.replay(&good).unwrap().responses.len(), 10);
        handle.shutdown().unwrap();
    }

    #[test]
    fn shard_queue_overflow_counts_rejections_then_blocks() {
        let table = items();
        let arena = arena_of(&table);
        let plan = ShardPlan::build(NUM_ITEMS, 1, Placement::Range, 0, None).unwrap();
        let config = ClusterConfig {
            queue_capacity: 1,
            ..cluster_config(1, 1)
        };
        // No workers: build the storage-less routing pieces by hand so the overflow is
        // deterministic (the queue is pre-filled and nothing drains it until we do).
        let counters = Arc::new(ClusterCounters::new(1, &config, Placement::Range, 0));
        let input: Arc<BoundedQueue<SubRequest<f32>>> = Arc::new(BoundedQueue::new(1));
        let client = ClusterClient {
            plan: Arc::new(plan),
            links: vec![ShardLink::Queue(input.clone())],
            reply: Arc::new(BoundedQueue::new(2)),
            dim: ITEM_DIM,
            bus: RscBus::new(config.interconnect),
            counters: counters.clone(),
            pending_cost: Cost::ZERO,
            pending_breakdown: CostBreakdown::new(),
            next_tag: 0,
            poison_next: false,
            resilience: None,
            clock: Arc::new(WallClock::new()),
            dead: vec![false],
            timeout_strikes: vec![0],
            missing: Vec::new(),
            trace: None,
            fault_window: vec![ShardFaultDelta::default()],
            node_cache: None,
        };
        // Fill the queue so the next push must overflow.
        input
            .try_push(SubRequest {
                tag: 999,
                rows: vec![],
                reply: client.reply.clone(),
                poison: false,
                fail_fast: true,
                trace: None,
            })
            .unwrap();
        let storage = Arc::new(ShardStorage::build(&arena, &[0, 1, 2]));
        let fetcher = std::thread::spawn({
            let mut client = client.clone();
            move || {
                let mut out = vec![0.0f32; ITEM_DIM];
                client.fetch_rows(&[2], &mut out).map(|()| out)
            }
        });
        // Wait for the deterministic rejection, then play the worker by hand.
        let waited = Instant::now();
        while counters.rejections[0].load(Ordering::Relaxed) == 0 {
            assert!(
                waited.elapsed() < Duration::from_secs(5),
                "rejection never counted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let _dummy = input.pop(); // frees the slot; the blocked push lands
        let request = match input.pop() {
            Pop::Item(request) => request,
            other => panic!("expected the real sub-request, got {other:?}"),
        };
        let mut data = Vec::new();
        for &row in &request.rows {
            data.extend_from_slice(storage.row(row).expect("resident"));
        }
        request
            .reply
            .push(SubResponse {
                tag: request.tag,
                shard: 0,
                data,
                node_span: None,
            })
            .unwrap();
        let out = fetcher.join().unwrap().unwrap();
        assert_eq!(out, table.lookup(2).unwrap());
        assert_eq!(counters.rejections[0].load(Ordering::Relaxed), 1);
        let stats = counters.snapshot();
        assert_eq!(stats.total_rejections(), 1);
    }

    #[test]
    fn clones_share_the_cluster_but_not_reply_queues() {
        let table = items();
        let arena = arena_of(&table);
        let plan = ShardPlan::build(NUM_ITEMS, 2, Placement::Range, 0, None).unwrap();
        let (client, handle) = spawn_cluster(&arena, plan, &cluster_config(2, 1)).unwrap();
        let mut clones: Vec<ClusterClient<f32>> = (0..4).map(|_| client.clone()).collect();
        std::thread::scope(|scope| {
            for (i, clone) in clones.iter_mut().enumerate() {
                let table = &table;
                scope.spawn(move || {
                    for round in 0..50u32 {
                        let row = (i as u32 * 97 + round * 13) % NUM_ITEMS as u32;
                        let mut out = vec![0.0f32; ITEM_DIM];
                        clone.fetch_rows(&[row], &mut out).unwrap();
                        assert_eq!(out, table.lookup(row as usize).unwrap());
                    }
                });
            }
        });
        let stats = handle.shutdown().unwrap();
        assert_eq!(stats.shard_lookups.iter().sum::<u64>(), 4 * 50);
        assert_eq!(stats.fetches, 4 * 50);
    }
}

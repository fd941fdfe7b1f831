//! End-to-end query tracing: deterministic, clock-injected spans and events for the
//! serving pipeline.
//!
//! Each sampled query gets a [`QueryTrace`]: a fixed sequence of stage [`Span`]s (batch
//! formation, queue wait, cache lookup, cluster fetch, NNS filtering, MLP ranking), one
//! child [`FetchSpan`] per cluster sub-request annotated with its shard, and the fault
//! [`FetchEvent`]s (timeout/retry/promotion/degrade) the resilient router took on the
//! batch's behalf. Traces are collected into a bounded, head-retained [`TraceLog`] with
//! seeded head-based sampling — whether a query is sampled depends only on
//! `(seed, query id)`, never on which worker served it — so on a
//! [`ManualClock`](crate::clock::ManualClock) the rendered trace JSON is byte-identical
//! at any worker count. The log also keeps a slow-query log (the top-K worst traces by
//! end-to-end latency) and exports Chrome-trace-event JSON loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Timebases: the threaded runtime injects its own clock into every worker's tracer, so
//! spans live on measured time; the discrete-event replay keeps measured stage offsets
//! but re-anchors them onto the virtual timeline at finalization, so spans nest inside
//! the virtual end-to-end latency.

use std::sync::Arc;

use crate::clock::{Clock, WallClock};
use crate::json::escape;
use crate::telemetry::StageBreakdown;

/// Configuration of the tracing layer. Tracing is off unless
/// [`ServeEngine::enable_tracing`](crate::engine::ServeEngine::enable_tracing) is called
/// with `sample_every > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample one query in `sample_every` (seeded hash of the query id, not a stride,
    /// so sampling is unbiased under any arrival pattern). `0` disables tracing.
    pub sample_every: u64,
    /// Seed of the sampling hash; the sampled set is a pure function of `(seed, id)`.
    pub seed: u64,
    /// Maximum retained traces: the log keeps the first `capacity` sampled queries by
    /// id (head retention), which is what stays deterministic when worker counts vary.
    pub capacity: usize,
    /// Slow-query log depth: the `slow_k` worst traces by end-to-end latency.
    pub slow_k: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample_every: 16,
            seed: 0x1A25,
            capacity: 4096,
            slow_k: 8,
        }
    }
}

impl TraceConfig {
    /// Whether this configuration samples anything at all.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Whether query `id` is sampled (a pure function of the seed and the id).
    pub fn samples(&self, id: u64) -> bool {
        self.sample_every > 0 && mix(self.seed, id).is_multiple_of(self.sample_every)
    }
}

/// SplitMix64-style avalanche of `(seed, id)`; the sampling decision must not depend on
/// anything schedule-dependent.
fn mix(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pipeline stages a trace attributes time to, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Arrival (or submission) until the batcher flushed the query's batch.
    BatchForm,
    /// Flush until a worker started serving the batch. ≈ 0 on the threaded runtime,
    /// where the worker that flushes a batch serves it; on the simulated replay it is
    /// the wait for the one virtual engine to come free.
    QueueWait,
    /// Cache probe phase of pooling (hit copies, miss bookkeeping, coalescing).
    CacheLookup,
    /// The shard fetch window (in-process or over sockets), sub-spans per sub-request.
    ClusterFetch,
    /// LSH signatures + TCAM candidate search.
    NnsFilter,
    /// DLRM MLP ranking of the filtered candidates.
    MlpRank,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::BatchForm,
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::ClusterFetch,
        Stage::NnsFilter,
        Stage::MlpRank,
    ];

    /// Stable snake_case name used in reports and exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::BatchForm => "batch_form",
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::ClusterFetch => "cluster_fetch",
            Stage::NnsFilter => "nns_filter",
            Stage::MlpRank => "mlp_rank",
        }
    }
}

/// One stage interval on the trace's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Which stage the interval belongs to.
    pub stage: Stage,
    /// Start, microseconds on the trace timeline.
    pub begin_us: f64,
    /// End, microseconds on the trace timeline.
    pub end_us: f64,
}

impl Span {
    /// Span length in microseconds (clamped non-negative).
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.begin_us).max(0.0)
    }
}

/// What the cluster router did, recorded per event while a traced batch was fetching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchEventKind {
    /// A sub-request was dispatched to a shard (initial send or a retry's send).
    Dispatch,
    /// A hedge sub-request was dispatched to a replica-holding shard.
    Hedge,
    /// A shard's reply was received.
    Reply,
    /// An attempt expired — its deadline passed or its shard went down.
    Timeout,
    /// The router decided to retry the unit (the following dispatch is the retry).
    Retry,
    /// A dead shard's replicated rows were promoted to a surviving shard.
    Promotion,
    /// The unit's rows were zero-filled after the retry budget ran out.
    Degrade,
}

impl FetchEventKind {
    /// Stable snake_case name used in reports and exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            FetchEventKind::Dispatch => "dispatch",
            FetchEventKind::Hedge => "hedge",
            FetchEventKind::Reply => "reply",
            FetchEventKind::Timeout => "timeout",
            FetchEventKind::Retry => "retry",
            FetchEventKind::Promotion => "promotion",
            FetchEventKind::Degrade => "degrade",
        }
    }
}

/// One router event during a traced fetch. `tag` ties dispatch/reply/timeout events to
/// a single attempt; decision events (retry/promotion/degrade) carry tag 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchEvent {
    /// What happened.
    pub kind: FetchEventKind,
    /// The shard the event concerns (the expired shard for timeouts, the new target
    /// for retries/promotions, the unit's home shard for degrades).
    pub shard: u32,
    /// The attempt's wire tag, 0 for decision events.
    pub tag: u64,
    /// When it happened, microseconds on the tracer's clock.
    pub at_us: f64,
}

/// A server-side span measured *at the shard node itself* and shipped back to the
/// router over the transport's trace context (or handed over directly by an
/// in-process shard worker). Unlike the router-side [`FetchSpan`], these durations
/// separate where the node's time went: waiting in its input queue, probing its
/// node cache, and reading resident storage.
///
/// All fields are durations in microseconds on the node's own clock — the
/// in-process path measures them on the tracer's injected clock (frozen on a
/// [`ManualClock`](crate::clock::ManualClock), keeping traces byte-deterministic),
/// the UDS path measures wall time at the remote process.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeSpan {
    /// Time the sub-request waited in the node's input queue before a worker
    /// picked it up.
    pub queue_wait_us: f64,
    /// Time spent probing the node's hot-row cache (0 when the node runs
    /// uncached).
    pub cache_probe_us: f64,
    /// Time spent reading rows from the node's resident storage.
    pub storage_read_us: f64,
}

/// A node span tied to the attempt that produced it, staged until finalization
/// renumbers tags and attaches it to the matching [`FetchSpan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeSpanRecord {
    /// Shard that measured the span.
    pub shard: u32,
    /// The attempt's wire tag (renumbered alongside the fetch events).
    pub tag: u64,
    /// The measured span.
    pub span: NodeSpan,
}

/// One cluster sub-request: a child span of the [`Stage::ClusterFetch`] stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchSpan {
    /// Shard the sub-request was sent to.
    pub shard: u32,
    /// Attempt tag, renumbered per batch in dispatch order (1, 2, ...) so traces are
    /// independent of the router's global tag counter.
    pub tag: u64,
    /// Whether this attempt was a hedge.
    pub hedge: bool,
    /// Dispatch time on the trace timeline.
    pub begin_us: f64,
    /// Reply/expiry time, or the fetch stage's end for abandoned attempts.
    pub end_us: f64,
    /// Whether a reply or expiry closed the span (`false`: abandoned, e.g. a hedge
    /// loser drained after the winner landed).
    pub completed: bool,
    /// The shard node's own server-side span, when the reply carried one (replies
    /// on traced fetches do; timeouts and abandoned attempts have none).
    pub node: Option<NodeSpan>,
}

/// The full trace of one sampled query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The query's id (also the Chrome-trace `tid`, so Perfetto groups by query).
    pub id: u64,
    /// End-to-end start: arrival (simulated path) or submission (threaded path).
    pub start_us: f64,
    /// End-to-end completion on the same timeline.
    pub end_us: f64,
    /// The six stage spans, in [`Stage::ALL`] order.
    pub spans: Vec<Span>,
    /// Cache hits in the query's batch during pooling.
    pub cache_hits: u64,
    /// Cache misses (rows fetched from shards) in the query's batch.
    pub cache_misses: u64,
    /// Misses coalesced onto an in-flight fetch in the query's batch.
    pub cache_coalesced: u64,
    /// One child span per cluster sub-request of the query's batch.
    pub fetch: Vec<FetchSpan>,
    /// Fault/decision events (timeout/retry/promotion/degrade) in routing order.
    pub events: Vec<FetchEvent>,
}

impl QueryTrace {
    /// End-to-end latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }

    /// The span of `stage`, if recorded.
    pub fn span(&self, stage: Stage) -> Option<&Span> {
        self.spans.iter().find(|span| span.stage == stage)
    }
}

/// The measured marks of one traced batch: stamped by `process_batch` at each stage's
/// end, threaded down through [`RowSource`](crate::shard::RowSource) so the cluster
/// router can attach its fetch events, and staged in the [`Tracer`] until the
/// path-specific finalization (which knows completion times).
#[derive(Debug, Clone)]
pub(crate) struct BatchTrace {
    /// The tracer's clock: marks and fetch events are stamped on this timeline so a
    /// frozen manual clock freezes them too.
    pub clock: Arc<dyn Clock>,
    /// Pooling start.
    pub pool_begin_us: f64,
    /// Pooling end (cache + fetch + accumulate + charge done).
    pub pool_end_us: f64,
    /// NNS filtering end.
    pub filter_end_us: f64,
    /// MLP ranking end.
    pub rank_end_us: f64,
    /// Fetch window start (within pooling).
    pub fetch_begin_us: f64,
    /// Fetch window end.
    pub fetch_end_us: f64,
    /// Cache hits over the batch.
    pub hits: u64,
    /// Cache misses (fetched rows) over the batch.
    pub misses: u64,
    /// Coalesced misses over the batch.
    pub coalesced: u64,
    /// Router events drained from the row source after the fetch.
    pub events: Vec<FetchEvent>,
    /// Shard-node server spans drained from the row source after the fetch.
    pub node_spans: Vec<NodeSpanRecord>,
}

impl BatchTrace {
    /// A batch trace whose pooling starts now on `clock`.
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            pool_begin_us: clock.now_us(),
            clock,
            pool_end_us: 0.0,
            filter_end_us: 0.0,
            rank_end_us: 0.0,
            fetch_begin_us: 0.0,
            fetch_end_us: 0.0,
            hits: 0,
            misses: 0,
            coalesced: 0,
            events: Vec::new(),
            node_spans: Vec::new(),
        }
    }
}

/// The per-engine tracer: sampling config, injected clock, staged batch marks, and the
/// bounded log. Cloned with its engine (worker clones start their own logs).
#[derive(Debug, Clone)]
pub(crate) struct Tracer {
    config: TraceConfig,
    clock: Arc<dyn Clock>,
    pending: Option<BatchTrace>,
    log: TraceLog,
}

impl Tracer {
    pub(crate) fn new(config: TraceConfig) -> Self {
        Self {
            config,
            clock: Arc::new(WallClock::new()),
            pending: None,
            log: TraceLog::new(config.capacity, config.slow_k),
        }
    }

    /// Replace the tracer's clock (the threaded runtime injects its own so spans and
    /// queue timestamps share a timeline).
    pub(crate) fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    pub(crate) fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    pub(crate) fn config(&self) -> TraceConfig {
        self.config
    }

    /// Whether any of `ids` is sampled — the per-batch gate that keeps untraced
    /// batches on the exact pre-tracing code path.
    pub(crate) fn wants(&self, mut ids: impl Iterator<Item = u64>) -> bool {
        ids.any(|id| self.config.samples(id))
    }

    /// Stage a finished batch's marks until the serving path finalizes them.
    pub(crate) fn stash(&mut self, trace: BatchTrace) {
        self.pending = Some(trace);
    }

    /// Reset the log and any staged batch (worker clones call this via
    /// `reset_stats`).
    pub(crate) fn reset(&mut self) {
        self.pending = None;
        self.log = TraceLog::new(self.config.capacity, self.config.slow_k);
    }

    /// Take the accumulated log, leaving an empty one behind.
    pub(crate) fn take_log(&mut self) -> TraceLog {
        std::mem::replace(
            &mut self.log,
            TraceLog::new(self.config.capacity, self.config.slow_k),
        )
    }

    /// Finalize the staged batch into per-query traces and stage histograms.
    ///
    /// `queries` is `(id, start_us)` per request in the batch — arrival times on the
    /// simulated path, submission times on the threaded path. `virtual_start_us` is
    /// the simulated path's service start: when set, measured marks are shifted so
    /// pooling begins there (re-anchoring measured offsets onto the virtual
    /// timeline); the threaded path passes `None` and keeps marks as measured.
    /// `end_us` is the batch's completion on the same timeline as `queries`.
    pub(crate) fn finalize_batch(
        &mut self,
        queries: &[(u64, f64)],
        trigger_us: f64,
        virtual_start_us: Option<f64>,
        end_us: f64,
        stages: &mut StageBreakdown,
    ) {
        let Some(mut scratch) = self.pending.take() else {
            return;
        };
        normalize_tags(&mut scratch.events, &mut scratch.node_spans);
        let shift = virtual_start_us.map_or(0.0, |start| start - scratch.pool_begin_us);
        let pool_begin = scratch.pool_begin_us + shift;
        let pool_end = scratch.pool_end_us + shift;
        let filter_end = scratch.filter_end_us + shift;
        let rank_end = scratch.rank_end_us + shift;
        let fetch_begin = scratch.fetch_begin_us + shift;
        let fetch_end = scratch.fetch_end_us + shift;
        let fetch = assemble_fetch_spans(&scratch.events, &scratch.node_spans, shift, fetch_end);
        let events: Vec<FetchEvent> = scratch
            .events
            .iter()
            .filter(|event| {
                matches!(
                    event.kind,
                    FetchEventKind::Timeout
                        | FetchEventKind::Retry
                        | FetchEventKind::Promotion
                        | FetchEventKind::Degrade
                )
            })
            .map(|event| FetchEvent {
                at_us: event.at_us + shift,
                ..*event
            })
            .collect();
        for &(id, start_us) in queries {
            if !self.config.samples(id) {
                continue;
            }
            let spans = vec![
                Span {
                    stage: Stage::BatchForm,
                    begin_us: start_us,
                    end_us: trigger_us.max(start_us),
                },
                Span {
                    stage: Stage::QueueWait,
                    begin_us: trigger_us.max(start_us),
                    end_us: pool_begin,
                },
                Span {
                    stage: Stage::CacheLookup,
                    begin_us: pool_begin,
                    end_us: fetch_begin,
                },
                Span {
                    stage: Stage::ClusterFetch,
                    begin_us: fetch_begin,
                    end_us: fetch_end,
                },
                Span {
                    stage: Stage::NnsFilter,
                    begin_us: pool_end,
                    end_us: filter_end,
                },
                Span {
                    stage: Stage::MlpRank,
                    begin_us: filter_end,
                    end_us: rank_end,
                },
            ];
            let trace = QueryTrace {
                id,
                start_us,
                end_us: end_us.max(start_us),
                spans,
                cache_hits: scratch.hits,
                cache_misses: scratch.misses,
                cache_coalesced: scratch.coalesced,
                fetch: fetch.clone(),
                events: events.clone(),
            };
            stages.record(&trace);
            self.log.push(trace);
        }
    }
}

/// Renumber attempt tags to 1, 2, ... by first appearance (dispatch order), so traces
/// never leak the router's global tag counter — its value depends on how many batches
/// a worker's router clone has served (scheduling), not on the query. Decision events
/// (retry/promotion/degrade) keep their sentinel tag 0. Node-span records arrived with
/// replies, so their raw tags are always in the map; they renumber through the same
/// order so they still match their [`FetchSpan`] after normalization.
fn normalize_tags(events: &mut [FetchEvent], node_spans: &mut [NodeSpanRecord]) {
    let mut order: Vec<u64> = Vec::new();
    for event in events.iter_mut() {
        if matches!(
            event.kind,
            FetchEventKind::Dispatch
                | FetchEventKind::Hedge
                | FetchEventKind::Reply
                | FetchEventKind::Timeout
        ) {
            event.tag = match order.iter().position(|&tag| tag == event.tag) {
                Some(position) => position as u64 + 1,
                None => {
                    order.push(event.tag);
                    order.len() as u64
                }
            };
        }
    }
    for record in node_spans.iter_mut() {
        if let Some(position) = order.iter().position(|&tag| tag == record.tag) {
            record.tag = position as u64 + 1;
        }
    }
}

/// Build child spans from the raw event stream: dispatch/hedge events open a span,
/// a reply or timeout with the same `(tag, shard)` closes it, and anything left open
/// (abandoned hedge losers, stragglers) is closed at the fetch window's end. Node
/// spans shipped back with replies attach to the attempt that produced them by the
/// same `(tag, shard)` key.
fn assemble_fetch_spans(
    events: &[FetchEvent],
    node_spans: &[NodeSpanRecord],
    shift: f64,
    fetch_end_us: f64,
) -> Vec<FetchSpan> {
    let mut spans: Vec<FetchSpan> = Vec::new();
    for event in events {
        match event.kind {
            FetchEventKind::Dispatch | FetchEventKind::Hedge => spans.push(FetchSpan {
                shard: event.shard,
                tag: event.tag,
                hedge: event.kind == FetchEventKind::Hedge,
                begin_us: event.at_us + shift,
                end_us: fetch_end_us,
                completed: false,
                node: None,
            }),
            FetchEventKind::Reply | FetchEventKind::Timeout => {
                if let Some(span) = spans.iter_mut().find(|span| {
                    span.tag == event.tag && span.shard == event.shard && !span.completed
                }) {
                    span.end_us = (event.at_us + shift).max(span.begin_us);
                    span.completed = true;
                }
            }
            _ => {}
        }
    }
    for record in node_spans {
        if let Some(span) = spans
            .iter_mut()
            .find(|span| span.tag == record.tag && span.shard == record.shard)
        {
            span.node = Some(record.span);
        }
    }
    spans
}

/// The bounded trace log: head-retained sampled traces (sorted by query id) plus the
/// slow-query log (top-K by end-to-end latency). Merging worker logs reproduces the
/// single-worker log exactly, because each worker sees its queries in increasing id
/// order and head retention commutes with the union.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceLog {
    capacity: usize,
    slow_k: usize,
    sampled: u64,
    traces: Vec<QueryTrace>,
    slow: Vec<QueryTrace>,
}

impl TraceLog {
    /// An empty log retaining at most `capacity` traces and `slow_k` slow queries.
    pub fn new(capacity: usize, slow_k: usize) -> Self {
        Self {
            capacity,
            slow_k,
            sampled: 0,
            traces: Vec::new(),
            slow: Vec::new(),
        }
    }

    /// Record a finalized trace (head retention + slow-log insertion).
    pub fn push(&mut self, trace: QueryTrace) {
        self.sampled += 1;
        self.insert_slow(&trace);
        if self.traces.len() < self.capacity {
            self.traces.push(trace);
        }
    }

    fn insert_slow(&mut self, trace: &QueryTrace) {
        if self.slow_k == 0 {
            return;
        }
        // Worst first; ties break toward the lower id so merges are deterministic.
        let position = self
            .slow
            .iter()
            .position(|other| (trace.latency_us(), other.id) > (other.latency_us(), trace.id))
            .unwrap_or(self.slow.len());
        if position < self.slow_k {
            self.slow.insert(position, trace.clone());
            self.slow.truncate(self.slow_k);
        }
    }

    /// Union another log into this one (worker logs at shutdown). Retention limits
    /// take the larger of the two so a default log can absorb a configured one.
    pub fn merge(&mut self, other: &TraceLog) {
        self.capacity = self.capacity.max(other.capacity);
        self.slow_k = self.slow_k.max(other.slow_k);
        self.sampled += other.sampled;
        self.traces.extend(other.traces.iter().cloned());
        self.traces.sort_by_key(|trace| trace.id);
        self.traces.truncate(self.capacity);
        for trace in &other.slow {
            self.insert_slow(trace);
        }
    }

    /// Retained traces, sorted by query id.
    pub fn traces(&self) -> &[QueryTrace] {
        &self.traces
    }

    /// The slow-query log, worst end-to-end latency first.
    pub(crate) fn slow_queries(&self) -> &[QueryTrace] {
        &self.slow
    }

    /// Total sampled queries (including any beyond the retention capacity).
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Render this log alone as a Chrome trace (process id 0).
    pub fn to_chrome_json(&self) -> String {
        chrome_export([("trace", self)])
    }

    /// Append this log's Chrome trace events (one JSON object per line) to `events`.
    fn chrome_events(&self, pid: usize, events: &mut Vec<String>) {
        for trace in &self.traces {
            let tid = trace.id;
            events.push(format!(
                "{{\"name\":\"query {id}\",\"cat\":\"query\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"id\":{id},\"cache_hits\":{hits},\"cache_misses\":{misses},\"cache_coalesced\":{coalesced}}}}}",
                id = trace.id,
                ts = trace.start_us,
                dur = trace.latency_us(),
                hits = trace.cache_hits,
                misses = trace.cache_misses,
                coalesced = trace.cache_coalesced,
            ));
            for span in &trace.spans {
                events.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid}}}",
                    name = span.stage.name(),
                    ts = span.begin_us,
                    dur = span.duration_us(),
                ));
            }
            for fetch in &trace.fetch {
                let node_args = match &fetch.node {
                    Some(node) => format!(
                        ",\"node_queue_wait_us\":{:.3},\"node_cache_probe_us\":{:.3},\"node_storage_read_us\":{:.3}",
                        node.queue_wait_us, node.cache_probe_us, node.storage_read_us,
                    ),
                    None => String::new(),
                };
                events.push(format!(
                    "{{\"name\":\"fetch shard {shard}\",\"cat\":\"fetch\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"shard\":{shard},\"tag\":{tag},\"hedge\":{hedge},\"completed\":{completed}{node_args}}}}}",
                    shard = fetch.shard,
                    ts = fetch.begin_us,
                    dur = (fetch.end_us - fetch.begin_us).max(0.0),
                    tag = fetch.tag,
                    hedge = fetch.hedge,
                    completed = fetch.completed,
                ));
            }
            for event in &trace.events {
                events.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"shard\":{shard}}}}}",
                    name = event.kind.name(),
                    ts = event.at_us,
                    shard = event.shard,
                ));
            }
        }
    }

    /// Render the slow-query log as indented text (span trees per query), for the
    /// `serve_replay --slow-log` summary.
    pub fn render_slow_log(&self) -> String {
        let mut out = String::new();
        if self.slow.is_empty() {
            out.push_str("slow-query log: no sampled queries\n");
            return out;
        }
        out.push_str(&format!(
            "slow-query log (top {} of {} sampled):\n",
            self.slow.len(),
            self.sampled
        ));
        for (rank, trace) in self.slow.iter().enumerate() {
            out.push_str(&format!(
                "  {}. query {}: {:.3} us end-to-end\n",
                rank + 1,
                trace.id,
                trace.latency_us()
            ));
            for span in &trace.spans {
                out.push_str(&format!(
                    "     {:<13} {:>12.3} us\n",
                    span.stage.name(),
                    span.duration_us()
                ));
                if span.stage == Stage::CacheLookup {
                    out.push_str(&format!(
                        "       cache: {} hits, {} misses, {} coalesced\n",
                        trace.cache_hits, trace.cache_misses, trace.cache_coalesced
                    ));
                }
                if span.stage == Stage::ClusterFetch {
                    for fetch in &trace.fetch {
                        out.push_str(&format!(
                            "       shard {}: {:.3} us{}{}\n",
                            fetch.shard,
                            (fetch.end_us - fetch.begin_us).max(0.0),
                            if fetch.hedge { " (hedge)" } else { "" },
                            if fetch.completed { "" } else { " (abandoned)" },
                        ));
                        if let Some(node) = &fetch.node {
                            out.push_str(&format!(
                                "         node: queue {:.3} us, cache probe {:.3} us, storage read {:.3} us\n",
                                node.queue_wait_us, node.cache_probe_us, node.storage_read_us,
                            ));
                        }
                    }
                    for event in &trace.events {
                        out.push_str(&format!(
                            "       event: {} shard {}\n",
                            event.kind.name(),
                            event.shard
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Export one or more trace logs as a single Chrome-trace-event JSON document
/// (`{"traceEvents": [...]}`), one Chrome "process" per named section, loadable in
/// Perfetto or `chrome://tracing`.
pub fn chrome_export<'a>(sections: impl IntoIterator<Item = (&'a str, &'a TraceLog)>) -> String {
    let mut events: Vec<String> = Vec::new();
    for (pid, (name, log)) in sections.into_iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
        log.chrome_events(pid, &mut events);
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::json::Json;

    fn trace(id: u64, start_us: f64, end_us: f64) -> QueryTrace {
        QueryTrace {
            id,
            start_us,
            end_us,
            spans: Stage::ALL
                .iter()
                .map(|&stage| Span {
                    stage,
                    begin_us: start_us,
                    end_us,
                })
                .collect(),
            cache_hits: 1,
            cache_misses: 2,
            cache_coalesced: 0,
            fetch: vec![FetchSpan {
                shard: 3,
                tag: 7,
                hedge: false,
                begin_us: start_us,
                end_us,
                completed: true,
                node: Some(NodeSpan {
                    queue_wait_us: 1.5,
                    cache_probe_us: 0.25,
                    storage_read_us: 2.0,
                }),
            }],
            events: Vec::new(),
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_id() {
        let config = TraceConfig {
            sample_every: 4,
            seed: 99,
            ..TraceConfig::default()
        };
        let first: Vec<bool> = (0..1000).map(|id| config.samples(id)).collect();
        let second: Vec<bool> = (0..1000).map(|id| config.samples(id)).collect();
        assert_eq!(first, second);
        let sampled = first.iter().filter(|&&s| s).count();
        // A hash, not a stride: roughly 1/4 of ids, not exactly every 4th.
        assert!((150..350).contains(&sampled), "sampled {sampled}");
        let disabled = TraceConfig {
            sample_every: 0,
            ..config
        };
        assert!(!disabled.enabled());
        assert!((0..1000).all(|id| !disabled.samples(id)));
    }

    #[test]
    fn merged_worker_logs_equal_the_single_worker_log() {
        // Simulate 4 workers each seeing an interleaved, increasing id subsequence.
        let ids: Vec<u64> = (0..100).collect();
        let mut single = TraceLog::new(16, 4);
        for &id in &ids {
            single.push(trace(id, id as f64, id as f64 + 10.0));
        }
        let mut workers: Vec<TraceLog> = (0..4).map(|_| TraceLog::new(16, 4)).collect();
        for &id in &ids {
            workers[(id % 4) as usize].push(trace(id, id as f64, id as f64 + 10.0));
        }
        let mut merged = TraceLog::new(16, 4);
        for worker in &workers {
            merged.merge(worker);
        }
        assert_eq!(merged, single);
        assert_eq!(merged.len(), 16);
        assert_eq!(merged.sampled(), 100);
        assert_eq!(
            merged.traces().iter().map(|t| t.id).collect::<Vec<_>>(),
            (0..16).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn slow_log_keeps_the_worst_latencies_worst_first() {
        let mut log = TraceLog::new(100, 3);
        for (id, latency) in [(0u64, 5.0), (1, 50.0), (2, 1.0), (3, 50.0), (4, 20.0)] {
            log.push(trace(id, 0.0, latency));
        }
        let slow: Vec<(u64, f64)> = log
            .slow_queries()
            .iter()
            .map(|t| (t.id, t.latency_us()))
            .collect();
        // Ties (ids 1 and 3 at 50us) break toward the lower id.
        assert_eq!(slow, vec![(1, 50.0), (3, 50.0), (4, 20.0)]);
        let rendered = log.render_slow_log();
        assert!(rendered.contains("slow-query log (top 3 of 5 sampled):"));
        assert!(rendered.contains("query 1: 50.000 us end-to-end"));
        assert!(rendered.contains("cluster_fetch"));
        assert!(rendered.contains("shard 3:"));
    }

    #[test]
    fn chrome_export_is_balanced_and_loadable_shaped() {
        let mut log = TraceLog::new(8, 2);
        let mut with_fault = trace(5, 0.0, 100.0);
        with_fault.events.push(FetchEvent {
            kind: FetchEventKind::Timeout,
            shard: 1,
            tag: 7,
            at_us: 50.0,
        });
        log.push(with_fault);
        let json = chrome_export([("section \"a\"\n", &log)]);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        Json::parse(&json).expect("Chrome trace parses");
        assert!(!json.contains("section \"a\"\n\""), "name must be escaped");
        assert!(json.contains("\\\"a\\\"\\n"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"query 5\""));
        assert!(json.contains("\"name\":\"cluster_fetch\""));
        assert!(json.contains("\"name\":\"timeout\""));
        assert!(json.contains("\"tid\":5"));
    }

    #[test]
    fn finalize_rebases_measured_marks_onto_the_virtual_timeline() {
        let mut tracer = Tracer::new(TraceConfig {
            sample_every: 1,
            seed: 0,
            capacity: 8,
            slow_k: 2,
        });
        tracer.set_clock(Arc::new(ManualClock::new()));
        // Measured marks with a wall-clock-like origin of 1000us.
        tracer.stash(BatchTrace {
            clock: Arc::new(ManualClock::new()),
            pool_begin_us: 1000.0,
            pool_end_us: 1030.0,
            filter_end_us: 1040.0,
            rank_end_us: 1055.0,
            fetch_begin_us: 1010.0,
            fetch_end_us: 1025.0,
            hits: 4,
            misses: 2,
            coalesced: 1,
            events: vec![
                FetchEvent {
                    kind: FetchEventKind::Dispatch,
                    shard: 0,
                    tag: 11,
                    at_us: 1010.0,
                },
                FetchEvent {
                    kind: FetchEventKind::Reply,
                    shard: 0,
                    tag: 11,
                    at_us: 1020.0,
                },
            ],
            node_spans: vec![NodeSpanRecord {
                shard: 0,
                tag: 11,
                span: NodeSpan {
                    queue_wait_us: 3.0,
                    cache_probe_us: 0.5,
                    storage_read_us: 4.0,
                },
            }],
        });
        let mut stages = StageBreakdown::default();
        // Virtual timeline: arrival 40, trigger 50, service start 60, completion 120.
        tracer.finalize_batch(&[(7, 40.0)], 50.0, Some(60.0), 120.0, &mut stages);
        let log = tracer.take_log();
        assert_eq!(log.len(), 1);
        let trace = &log.traces()[0];
        assert_eq!(trace.id, 7);
        assert_eq!(trace.latency_us(), 80.0);
        let pool = trace.span(Stage::CacheLookup).unwrap();
        assert_eq!(pool.begin_us, 60.0, "pooling re-anchors to service start");
        let fetch = trace.span(Stage::ClusterFetch).unwrap();
        assert_eq!((fetch.begin_us, fetch.end_us), (70.0, 85.0));
        let rank = trace.span(Stage::MlpRank).unwrap();
        assert_eq!((rank.begin_us, rank.end_us), (100.0, 115.0));
        assert!(rank.end_us <= trace.end_us, "stages nest inside e2e");
        assert_eq!(trace.fetch.len(), 1);
        assert_eq!(
            (trace.fetch[0].begin_us, trace.fetch[0].end_us),
            (70.0, 80.0),
            "sub-request spans shift with the batch"
        );
        assert!(trace.fetch[0].completed);
        assert_eq!(
            trace.fetch[0].tag, 1,
            "tags renumber from the global counter"
        );
        let node = trace.fetch[0].node.expect("the reply carried a node span");
        assert_eq!(node.queue_wait_us, 3.0);
        assert_eq!(node.cache_probe_us, 0.5);
        assert_eq!(node.storage_read_us, 4.0);
        assert_eq!(stages.sampled, 1);
        assert_eq!(stages.cluster_fetch.count(), 1);
    }

    #[test]
    fn abandoned_attempts_close_at_the_fetch_window_end() {
        let events = vec![
            FetchEvent {
                kind: FetchEventKind::Dispatch,
                shard: 0,
                tag: 1,
                at_us: 10.0,
            },
            FetchEvent {
                kind: FetchEventKind::Hedge,
                shard: 2,
                tag: 2,
                at_us: 15.0,
            },
            FetchEvent {
                kind: FetchEventKind::Reply,
                shard: 2,
                tag: 2,
                at_us: 20.0,
            },
        ];
        let node_spans = vec![NodeSpanRecord {
            shard: 2,
            tag: 2,
            span: NodeSpan {
                queue_wait_us: 1.0,
                cache_probe_us: 0.0,
                storage_read_us: 2.0,
            },
        }];
        let spans = assemble_fetch_spans(&events, &node_spans, 0.0, 30.0);
        assert_eq!(spans.len(), 2);
        assert!(!spans[0].completed, "no reply: abandoned");
        assert_eq!(spans[0].end_us, 30.0);
        assert!(
            spans[0].node.is_none(),
            "abandoned attempts carry no node span"
        );
        assert!(spans[1].hedge);
        assert!(spans[1].completed);
        assert_eq!(spans[1].end_us, 20.0);
        assert_eq!(
            spans[1].node,
            Some(NodeSpan {
                queue_wait_us: 1.0,
                cache_probe_us: 0.0,
                storage_read_us: 2.0,
            }),
            "the hedge winner's reply attaches its node span"
        );
    }
}

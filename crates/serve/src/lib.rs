//! `imars-serve`: a production-shaped serving engine in front of the iMARS batched hot
//! path.
//!
//! The per-call model APIs (`Dlrm::predict_batch`, the pooling kernels) answer "how fast
//! is one batch"; this crate answers the paper's actual end-to-end question — queries per
//! second and tail latency under live, skewed traffic. It provides:
//!
//! * [`batcher`] — a dynamic batcher coalescing single queries into batches under a
//!   max-batch-size / max-wait policy (size and deadline flushes);
//! * [`shard`] — embedding tables range-partitioned across shards, fetched and pooled on
//!   the serving worker's thread, generic over f32 and int8 (CMA-format) rows;
//! * [`cache`] — the hot-row cache with CLOCK, LFU and TinyLFU (frequency sketch +
//!   doorkeeper admission) replacement policies and hit/miss/coalesce counters, the
//!   piece that turns Zipf-skewed traffic into a measurable win; it serves either as
//!   one router-side cache or split into per-shard-node caches
//!   ([`CachePlacement`]);
//! * [`engine`] — the pipeline: pooled user profiles (GPCiM-costed), LSH + TCAM
//!   candidate filtering ([`imars_fabric::cma::CmaArray::search_batch`]), batched DLRM
//!   ranking, with every numeric result bit-identical cache-on versus cache-off;
//! * [`replay`] — Zipf traffic traces with Poisson arrivals built on
//!   [`imars_datasets`]'s workload generators;
//! * [`runtime`] — the threaded serving runtime: a bounded request queue feeding a
//!   worker pool of engine clones that form their own batches on a wall-clock
//!   [`clock`] (flushing at once when idle), counted backpressure (rejections), and a
//!   real-time replay driver with *measured* latency — bit-identical outputs to the
//!   simulated path;
//! * [`queue`] — the bounded queue primitive behind the runtime's backpressure;
//! * [`placement`] — catalogue placement across shard nodes: range vs frequency-aware
//!   (trace-histogram-driven) partitioning with optional hot-row replication, and the
//!   deterministic per-shard split of a batch's lookups;
//! * [`cluster`] — multi-node shard routing: per-shard bounded queues + workers, a
//!   router/gather pair with bit-identical outputs to the single-node path, and an
//!   RSC-bus interconnect charge per cross-shard hop; with a
//!   [`ResilienceConfig`] the router survives shard death —
//!   deadline timeouts, bounded retries with backoff, hedged reads, and promotion of a
//!   dead shard's replicated hot rows, with graceful zero-fill degradation beyond that;
//! * [`transport`] — length-prefixed binary framing over Unix-domain sockets and the
//!   shard-node server loop, so shards can run as separate processes (the in-process
//!   path stays the deterministic bit-identity oracle);
//! * [`chaos`] — deterministic fault injection (kill / stall / slow / drop-frames on a
//!   chosen shard after a chosen number of served sub-requests) driving the chaos test
//!   suite and `serve_replay --chaos`;
//! * [`telemetry`] — log-bucketed latency histogram (p50/p95/p99 plus the full bucket
//!   distribution), throughput, cache, runtime, cluster, fault-tolerance, per-stage
//!   tail-attribution and modeled-cost reporting with a bench-harness-style JSON
//!   summary;
//! * [`trace`] — deterministic, clock-injected query tracing: per-stage spans, cluster
//!   sub-request child spans with retry/hedge/timeout/promotion events,
//!   shard-node-side server spans propagated over the UDS trace context, seeded
//!   head-based sampling into a bounded log, a slow-query log, and a
//!   Chrome-trace-event JSON exporter (Perfetto-loadable);
//! * [`metrics`] — the live metrics plane: lock-cheap per-window counts and a latency
//!   histogram scraped into fixed event-time windows by a deterministic
//!   [`MetricsScraper`], a per-window time-series section in the report JSON,
//!   and a Prometheus-style text exposition with histogram exemplars linking
//!   tail buckets to retained traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod chaos;
pub mod clock;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod placement;
pub mod queue;
pub mod replay;
pub mod runtime;
pub mod shard;
pub mod telemetry;
pub mod trace;
pub mod transport;

pub use batcher::{BatchPolicy, DynamicBatcher, FlushReason, FlushedBatch};
pub use cache::{CachePlacement, CachePolicy, CacheStats, HotRowCache};
pub use chaos::{ChaosPlan, FaultKind, FaultSpec};
pub use clock::{Clock, ManualClock, WallClock};
pub use cluster::{
    ClusterClient, ClusterConfig, ClusterHandle, ClusterOptions, NodeCacheConfig, ResilienceConfig,
};
pub use engine::{
    ReplayOutcome, ServeConfig, ServeEngine, ServePrecision, ServeRequest, ServeResponse,
};
pub use error::ServeError;
pub use metrics::{
    exposition, MetricsConfig, MetricsScraper, MetricsSeries, ShardFaultDelta, StageExemplars,
    WindowSample,
};
pub use placement::{Placement, ShardPlan, ShardSplit, SubBatch};
pub use queue::{BoundedQueue, Pop, PushError};
pub use replay::{ReplayConfig, ReplayWorkload};
pub use runtime::{replay_threaded, RuntimeConfig, ServeRuntime, ThreadedReplayConfig};
pub use shard::{shard_embedding, shard_quantized, Lane, ShardedTable};
pub use telemetry::{
    ClusterStats, LatencyHistogram, RuntimeStats, ServeReport, ServeTelemetry, StageBreakdown,
};
pub use trace::{
    chrome_export, FetchEvent, FetchEventKind, FetchSpan, NodeSpan, QueryTrace, Span, Stage,
    TraceConfig, TraceLog,
};
pub use transport::run_shard_node;

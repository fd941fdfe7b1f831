//! The threaded serving runtime: real threads, real queues, real backpressure.
//!
//! [`ServeEngine::replay`](crate::engine::ServeEngine::replay) answers the throughput
//! question under a discrete-event simulation — useful for determinism, but the paper's
//! "serve heavy traffic as fast as the hardware allows" claim needs *measured* wall-clock
//! numbers. This module lifts the same pipeline onto threads:
//!
//! ```text
//! producers --try_submit/submit--> [bounded request queue] --> workers that batch for
//!     (full queue: rejection            (capacity =               themselves (N threads,
//!      counted, or producer              queue_capacity)          each with its own
//!      blocks)                                                    ServeEngine clone)
//! ```
//!
//! There is no batcher thread and no batch queue. The workers share one
//! [`DynamicBatcher`] behind a `Mutex`, leader/follower style: the idle worker holding
//! the lock forms the next batch, lets go of the lock, and serves the batch while the
//! next idle worker leads. Forming is **work-conserving**: a leader that holds pending
//! requests never waits for a deadline — it moves what is already queued into the batch
//! under one queue lock ([`BoundedQueue::pop_into`]) and goes. A leader waits only with
//! nothing pending. On a [manual clock](Clock::is_manual) batches form on size and
//! deadline alone, through the same loop, so the tests that pin traces and metrics byte
//! for byte across worker counts see batches that are a function of the trace.
//!
//! The request queue is bounded, so overload surfaces as *counted* rejections instead of
//! unbounded memory growth. Each worker serves on an engine clone that shares every
//! read-only model and owns only its scratch, router cache and observers — no locks on
//! the hot path, and because cached rows are exact copies and pooling order is request
//! order, per-request outputs are **bit-identical** to the simulated single-pipeline
//! path no matter how batches land on workers (pinned by the cross-path equivalence
//! tests).
//!
//! [`replay_threaded`] drives a [`ReplayWorkload`] through the runtime with Poisson
//! arrivals paced in real time and reports measured p50/p95/p99 latency, queue depth,
//! rejection rate, and worker utilization next to the modeled GPCiM energy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::batcher::{DynamicBatcher, FlushedBatch};
use crate::cache::CacheStats;
use crate::clock::{Clock, WallClock};
use crate::engine::{ReplayOutcome, ServeEngine, ServeRequest, ServeResponse, Timeline};
use crate::error::ServeError;
use crate::metrics::MetricsScraper;
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::replay::ReplayWorkload;
use crate::telemetry::{RuntimeStats, ServeTelemetry};
use crate::trace::TraceLog;

/// Longest a leader holding pending requests on a manual clock waits for the next one —
/// bounds how stale its view of the non-advancing clock can get.
const PENDING_POLL_CAP_US: f64 = 1_000.0;

/// The most OS threads one configuration may ask for: runtime workers, or shard nodes
/// times their workers (over sockets, one process per node). Both validators refuse a
/// count above it before anything is spawned, so a mistyped count cannot start thousands.
pub const MAX_THREADS: usize = 256;

/// Configuration of the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads, at most [`MAX_THREADS`]: each forms its own batches and serves
    /// them on its own engine clone (see [`ServeRuntime::start`]).
    pub workers: usize,
    /// Capacity of the bounded request queue — the backpressure bound.
    pub queue_capacity: usize,
}

impl RuntimeConfig {
    /// A runtime with `workers` threads and a `queue_capacity`-deep request queue.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if either count is zero.
    pub fn new(workers: usize, queue_capacity: usize) -> Result<Self, ServeError> {
        let config = Self {
            workers,
            queue_capacity,
        };
        config.validate()?;
        Ok(config)
    }

    /// Validate the configuration (zero workers, more than [`MAX_THREADS`] workers or
    /// a zero-capacity queue are typed errors, not panics: a caller wiring config from a
    /// CLI gets a `Result`, and no thread is spawned).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the bad field.
    pub fn validate(&self) -> Result<(), ServeError> {
        let reason = if self.workers == 0 {
            "threaded runtime needs at least one worker".to_string()
        } else if self.workers > MAX_THREADS {
            format!(
                "threaded runtime workers ({}) exceed the bound of {MAX_THREADS}",
                self.workers
            )
        } else if self.queue_capacity == 0 {
            "threaded runtime needs a request queue capacity >= 1".to_string()
        } else {
            return Ok(());
        };
        Err(ServeError::InvalidConfig { reason })
    }
}

/// Counters shared between producers and the runtime handle.
#[derive(Debug, Default)]
struct SharedCounters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    depth_max: AtomicU64,
    depth_sum: AtomicU64,
    depth_samples: AtomicU64,
}

/// What a worker thread hands back: its responses and its engine clone, whose counters,
/// traces and metrics `shutdown` merges into the run's report.
type WorkerExit = Result<(Vec<ServeResponse>, ServeEngine), ServeError>;

/// A running threaded serving pipeline: submit requests, then [`ServeRuntime::shutdown`]
/// to drain in-flight work and collect the outcome.
#[derive(Debug)]
pub struct ServeRuntime {
    requests: Arc<BoundedQueue<ServeRequest>>,
    clock: Arc<dyn Clock>,
    shared: Arc<SharedCounters>,
    workers: Vec<JoinHandle<WorkerExit>>,
    config: RuntimeConfig,
    start_us: f64,
}

impl ServeRuntime {
    /// Start the runtime: spawn `config.workers` worker threads, each owning a clone of
    /// `engine` (with counters reset) and forming its own batches from the shared
    /// request queue. A clone shares `engine`'s models and copies its router cache (warm
    /// rows included), which each worker then warms on its own. The batching policy is taken from the engine's
    /// [`ServeConfig`](crate::engine::ServeConfig); deadlines are evaluated on `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero or above-[`MAX_THREADS`] worker
    /// count or a zero queue capacity.
    pub fn start(
        engine: &ServeEngine,
        config: RuntimeConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let requests: Arc<BoundedQueue<ServeRequest>> =
            Arc::new(BoundedQueue::new(config.queue_capacity));
        let batcher = Arc::new(Mutex::new(DynamicBatcher::new(engine.config().policy)));
        let shared = Arc::new(SharedCounters::default());
        let start_us = clock.now_us();

        let workers = (0..config.workers)
            .map(|_| {
                let mut engine = engine.clone();
                engine.reset_stats();
                // Trace spans must live on the runtime's timeline, not the tracer's
                // private wall clock — on a manual clock this freezes them too.
                engine.set_trace_clock(clock.clone());
                let requests = requests.clone();
                let batcher = batcher.clone();
                let clock = clock.clone();
                let shared = shared.clone();
                std::thread::spawn(move || {
                    run_worker(engine, &requests, &batcher, clock.as_ref(), &shared)
                })
            })
            .collect();

        Ok(Self {
            requests,
            clock,
            shared,
            workers,
            config,
            start_us,
        })
    }

    /// Submit without blocking: a full queue rejects the request (load shedding) and the
    /// rejection is counted in the runtime stats. The request's `arrival_us` is
    /// restamped with the submit time on the runtime's clock — on the measured timeline
    /// a request arrives when it is submitted, and that stamp is its latency origin.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] on backpressure rejection, [`ServeError::RuntimeStopped`]
    /// after shutdown began or a worker died.
    pub fn try_submit(&self, mut request: ServeRequest) -> Result<(), ServeError> {
        request.arrival_us = self.clock.now_us();
        match self.requests.try_push(request) {
            Ok(depth) => {
                self.record_accept(depth);
                Ok(())
            }
            Err(PushError::Full(_)) => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::QueueFull {
                    capacity: self.config.queue_capacity,
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::RuntimeStopped),
        }
    }

    /// Submit, blocking while the queue is full (lossless producers; the block *is* the
    /// backpressure). Restamps `arrival_us` like [`ServeRuntime::try_submit`].
    ///
    /// # Errors
    ///
    /// [`ServeError::RuntimeStopped`] after shutdown began or a worker died.
    pub fn submit(&self, mut request: ServeRequest) -> Result<(), ServeError> {
        request.arrival_us = self.clock.now_us();
        match self.requests.push(request) {
            Ok(depth) => {
                self.record_accept(depth);
                Ok(())
            }
            Err(_) => Err(ServeError::RuntimeStopped),
        }
    }

    fn record_accept(&self, depth: usize) {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared
            .depth_max
            .fetch_max(depth as u64, Ordering::Relaxed);
        self.shared
            .depth_sum
            .fetch_add(depth as u64, Ordering::Relaxed);
        self.shared.depth_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Responses completed so far (across all workers).
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting requests, let the workers batch and serve
    /// everything queued (including a final partial batch), then join them and
    /// aggregate the outcome. Responses are in per-worker completion order
    /// (concatenated across workers); sort by `id` to compare with a trace.
    ///
    /// # Errors
    ///
    /// Propagates the first worker error (e.g. a request referencing an out-of-catalogue
    /// row). In-flight work on other workers is still joined before returning.
    pub fn shutdown(mut self) -> Result<ReplayOutcome, ServeError> {
        self.requests.close();
        let mut first_error = None;
        let mut outputs = Vec::with_capacity(self.workers.len());
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(Ok(output)) => outputs.push(output),
                Ok(Err(error)) => first_error = first_error.or(Some(error)),
                Err(_) => {
                    first_error = first_error.or(Some(ServeError::InvalidConfig {
                        reason: "a worker thread panicked".to_string(),
                    }));
                }
            }
        }
        if let Some(error) = first_error {
            return Err(error);
        }

        let mut telemetry = ServeTelemetry::default();
        let mut cache = CacheStats::default();
        let mut responses = Vec::new();
        let mut trace = TraceLog::default();
        let mut worker_busy_us = Vec::with_capacity(outputs.len());
        let mut metrics: Option<MetricsScraper> = None;
        for (served, engine) in &mut outputs {
            telemetry.merge(engine.telemetry());
            cache.merge(&engine.cache_stats());
            worker_busy_us.push(engine.telemetry().busy_us);
            responses.append(served);
            // Head retention commutes with the union, so the merged log equals the
            // single-worker log for the same trace (pinned in the trace tests).
            trace.merge(&engine.take_trace_log());
            // Window merging is commutative too: events land in windows by their
            // timestamps, so the merged series is independent of worker count.
            if let Some(worker_metrics) = engine.take_metrics() {
                match metrics.as_mut() {
                    Some(merged) => merged.merge(&worker_metrics),
                    None => metrics = Some(worker_metrics),
                }
            }
        }
        // The merged makespan is the last completion on the runtime's clock.
        let wall_us = (telemetry.makespan_us - self.start_us).max(0.0);
        telemetry.makespan_us = wall_us;

        let runtime = RuntimeStats {
            workers: self.config.workers,
            queue_capacity: self.config.queue_capacity,
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            batcher_stall_us: 0.0,
            queue_depth_max: self.shared.depth_max.load(Ordering::Relaxed),
            queue_depth_sum: self.shared.depth_sum.load(Ordering::Relaxed),
            queue_depth_samples: self.shared.depth_samples.load(Ordering::Relaxed),
            worker_busy_us,
            wall_us,
        };
        let (_, engine) = outputs.first().expect("a runtime has at least one worker");
        let report = engine.report(
            "serve_threaded",
            telemetry,
            cache,
            Some(runtime),
            metrics.as_ref(),
        );
        Ok(ReplayOutcome {
            responses,
            report,
            trace,
        })
    }
}

impl Drop for ServeRuntime {
    /// Dropping without [`ServeRuntime::shutdown`] (e.g. unwinding past an error) still
    /// closes the request queue and joins the workers so nothing is left running
    /// detached.
    fn drop(&mut self) {
        self.requests.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Form the next batch as the leader, holding the shared batcher; deadlines are
/// evaluated on `clock`. On a clock that runs by itself this is work-conserving: it
/// moves what is already queued into the batch (up to `max_batch`, under one queue
/// lock) and flushes at once, and waits only with nothing pending. On a manual clock it
/// flushes on size and deadline alone. Returns `None` once the queue is closed and
/// drained with nothing pending — the worker's cue to exit. `taken` is a staging
/// buffer, empty between calls.
fn next_batch(
    batcher: &mut DynamicBatcher<ServeRequest>,
    requests: &BoundedQueue<ServeRequest>,
    clock: &dyn Clock,
    taken: &mut Vec<ServeRequest>,
) -> Option<FlushedBatch<ServeRequest>> {
    let work_conserving = !clock.is_manual();
    loop {
        let now = clock.now_us();
        if let Some(batch) = batcher.poll(now) {
            return Some(batch);
        }
        if work_conserving {
            // The room taken is exactly what fills the batch: only the last offer can
            // flush it on size.
            requests.pop_into(taken, batcher.policy().max_batch - batcher.pending());
            for request in taken.drain(..) {
                if let Some(batch) = batcher.offer(request, now) {
                    return Some(batch);
                }
            }
            if batcher.pending() > 0 {
                return batcher.drain(now);
            }
        }
        // Only on a manual clock can a batch be pending here.
        let popped = match batcher.deadline_us() {
            Some(deadline) => requests.pop_timeout(Duration::from_secs_f64(
                (deadline - now).clamp(1.0, PENDING_POLL_CAP_US) / 1e6,
            )),
            None => requests.pop(),
        };
        match popped {
            Pop::Item(request) => {
                // Offered at pop time (monotone, so arrival order holds); the submit
                // stamp in `arrival_us` still anchors the measured latency. Polled
                // first so an overdue batch is not grown past its deadline; the request
                // then opens the next batch, which one request cannot fill (a batch was
                // pending, so `max_batch > 1`).
                let now = clock.now_us();
                let overdue = batcher.poll(now);
                let full = batcher.offer(request, now);
                if let Some(batch) = overdue.or(full) {
                    return Some(batch);
                }
            }
            Pop::TimedOut => {}
            Pop::Closed => return batcher.drain(clock.now_us()),
        }
    }
}

/// Closes the request queue if the owning thread unwinds, so a panicking worker cannot
/// leave producers blocked on submit or the other workers waiting for requests — a
/// panic must fail the run, not deadlock it.
struct CloseQueuesOnPanic<'a> {
    requests: &'a BoundedQueue<ServeRequest>,
}

impl Drop for CloseQueuesOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.requests.close();
        }
    }
}

/// A worker thread: lead in turn — take the shared batcher, form the next batch, let go
/// — and serve each batch on an owned engine clone, on the measured timeline (latency =
/// completion on `clock` minus submit stamp, recorded in the clone's telemetry). On an
/// engine error (or panic, via [`CloseQueuesOnPanic`]), close the request queue so
/// producers and the other workers unblock instead of deadlocking, and hand the error
/// to `shutdown`.
fn run_worker(
    mut engine: ServeEngine,
    requests: &BoundedQueue<ServeRequest>,
    batcher: &Mutex<DynamicBatcher<ServeRequest>>,
    clock: &dyn Clock,
    shared: &SharedCounters,
) -> WorkerExit {
    let _panic_guard = CloseQueuesOnPanic { requests };
    let mut taken = Vec::new();
    let mut responses = Vec::new();
    loop {
        // The lock is released before serving, so the next idle worker leads meanwhile.
        // A poisoned lock means another worker panicked while forming a batch; that
        // panic fails the run.
        let batch = match batcher.lock() {
            Ok(mut leader) => next_batch(&mut leader, requests, clock, &mut taken),
            Err(_) => None,
        };
        let Some(batch) = batch else {
            break;
        };
        let timeline = Timeline::Measured(clock);
        let batch_responses = match engine.serve_batch(&batch.requests, batch.trigger_us, timeline)
        {
            Ok(batch_responses) => batch_responses,
            Err(error) => {
                requests.close();
                return Err(error);
            }
        };
        shared
            .completed
            .fetch_add(batch_responses.len() as u64, Ordering::Relaxed);
        responses.extend(batch_responses);
    }
    Ok((responses, engine))
}

/// Configuration of a threaded replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedReplayConfig {
    /// The runtime shape: workers and the request-queue bound.
    pub runtime: RuntimeConfig,
    /// Arrival-time divisor: `1.0` replays the trace's Poisson arrivals in real time,
    /// `10.0` plays it 10× faster, [`f64::INFINITY`] submits back-to-back (peak-load
    /// mode: latency then measures pure queueing + service).
    pub speedup: f64,
    /// `true`: a full request queue *rejects* (load shedding; rejections counted and the
    /// dropped requests never answered). `false`: the producer blocks until space frees
    /// (lossless, the mode the equivalence tests use).
    pub shed_on_full: bool,
}

impl ThreadedReplayConfig {
    /// A lossless real-time replay through `workers` workers with a `queue_capacity`
    /// request queue.
    ///
    /// # Errors
    ///
    /// As for [`RuntimeConfig::new`].
    #[cfg(test)]
    pub(crate) fn real_time(workers: usize, queue_capacity: usize) -> Result<Self, ServeError> {
        Ok(Self {
            runtime: RuntimeConfig::new(workers, queue_capacity)?,
            speedup: 1.0,
            shed_on_full: false,
        })
    }

    fn validate(&self) -> Result<(), ServeError> {
        self.runtime.validate()?;
        if self.speedup.is_nan() || self.speedup <= 0.0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "threaded replay needs a positive speedup, got {}",
                    self.speedup
                ),
            });
        }
        Ok(())
    }
}

/// Replay a timed trace through the threaded runtime, pacing Poisson arrivals on the
/// real clock. The driver thread sleeps until each request's (speedup-scaled) arrival
/// time, submits it, and shuts the runtime down after the last request; the outcome's
/// report carries measured latency quantiles and [`RuntimeStats`] beside the modeled
/// GPCiM cost, and the per-request outputs are bit-identical to
/// [`ServeEngine::replay`](crate::engine::ServeEngine::replay) over the same trace
/// (responses arrive in completion order — sort by `id` to align).
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for a bad configuration and propagates the
/// first worker error otherwise.
pub fn replay_threaded(
    engine: &ServeEngine,
    workload: &ReplayWorkload,
    config: &ThreadedReplayConfig,
) -> Result<ReplayOutcome, ServeError> {
    config.validate()?;
    let clock = Arc::new(WallClock::new());
    let runtime = ServeRuntime::start(engine, config.runtime.clone(), clock.clone())?;
    let mut drive_error = None;
    for request in workload.requests() {
        if config.speedup.is_finite() {
            let target_us = request.arrival_us / config.speedup;
            loop {
                let remaining_us = target_us - clock.now_us();
                if remaining_us <= 0.0 {
                    break;
                }
                std::thread::sleep(Duration::from_secs_f64(remaining_us / 1e6));
            }
        }
        let submitted = if config.shed_on_full {
            match runtime.try_submit(request.clone()) {
                Err(ServeError::QueueFull { .. }) => Ok(()), // shed: counted, not fatal
                other => other,
            }
        } else {
            runtime.submit(request.clone())
        };
        if let Err(error) = submitted {
            drive_error = Some(error);
            break;
        }
    }
    let outcome = runtime.shutdown()?;
    match drive_error {
        // A submit error means the runtime stopped under us; shutdown above surfaces
        // the root cause if a worker died, otherwise report the submit failure.
        Some(error) => Err(error),
        None => Ok(outcome),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::clock::ManualClock;
    use crate::cluster::ClusterConfig;
    use crate::engine::{ServeConfig, ServePrecision};
    use crate::replay::ReplayConfig;
    use imars_datasets::workload::InferenceQuery;
    use imars_recsys::dlrm::{Dlrm, DlrmConfig};
    use imars_recsys::EmbeddingTable;
    use std::time::Instant;

    const ITEM_DIM: usize = 4;
    const NUM_ITEMS: usize = 512;

    fn engine_with_policy(policy: BatchPolicy) -> ServeEngine {
        let items = EmbeddingTable::new(NUM_ITEMS, ITEM_DIM, 31).unwrap();
        let config = ServeConfig {
            shards: 4,
            cache_capacity: 64,
            cache_policy: crate::cache::CachePolicy::Clock,
            cache_placement: crate::cache::CachePlacement::Router,
            precision: ServePrecision::Fp32,
            policy,
            signature_bits: 64,
            search_radius: 27,
            lsh_seed: 7,
        };
        ServeEngine::new(Dlrm::new(DlrmConfig::tiny()).unwrap(), &items, config).unwrap()
    }

    fn request(id: u64) -> ServeRequest {
        ServeRequest {
            id,
            arrival_us: 0.0,
            query: InferenceQuery {
                user_index: id as usize,
                candidates: 50,
                top_k: 10,
            },
            history: vec![(id % 64) as u32, 3, 7, 11],
            sparse: vec![1, 2, 3],
        }
    }

    fn replay_config(queries: usize) -> ReplayConfig {
        ReplayConfig {
            queries,
            num_users: 100,
            num_items: NUM_ITEMS,
            zipf_exponent: 1.2,
            history_len: 12,
            offered_qps: 200_000.0,
            candidates_per_query: 50,
            top_k: 10,
            sparse_cardinalities: DlrmConfig::tiny().sparse_cardinalities,
            seed: 77,
            item_permutation_seed: None,
        }
    }

    #[test]
    fn zero_worker_and_zero_capacity_configs_are_typed_errors() {
        assert!(matches!(
            RuntimeConfig::new(0, 16),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RuntimeConfig::new(2, 0),
            Err(ServeError::InvalidConfig { .. })
        ));
        let mut config = RuntimeConfig::new(1, 1).unwrap();
        config.queue_capacity = 0;
        assert!(matches!(
            config.validate(),
            Err(ServeError::InvalidConfig { .. })
        ));
        let engine = engine_with_policy(BatchPolicy::new(8, 100.0).unwrap());
        assert!(matches!(
            ServeRuntime::start(&engine, config, Arc::new(WallClock::new())),
            Err(ServeError::InvalidConfig { .. })
        ));
        // Bad replay configs are typed too.
        let bad = ThreadedReplayConfig {
            runtime: RuntimeConfig::new(1, 4).unwrap(),
            speedup: 0.0,
            shed_on_full: false,
        };
        let workload = ReplayWorkload::generate(&replay_config(10)).unwrap();
        assert!(matches!(
            replay_threaded(&engine, &workload, &bad),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn worker_counts_above_the_thread_bound_are_typed_errors() {
        // Validator calls only: no runtime is started at or above the bound.
        assert!(RuntimeConfig::new(MAX_THREADS, 1).is_ok());
        assert!(matches!(
            RuntimeConfig::new(MAX_THREADS + 1, 1),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn runtime_workers_share_every_read_only_model() {
        let items = EmbeddingTable::new(NUM_ITEMS, ITEM_DIM, 31).unwrap();
        let model = || Dlrm::new(DlrmConfig::tiny()).unwrap();
        let policy = BatchPolicy::new(8, 100.0).unwrap();
        let int8 = ServeConfig {
            precision: ServePrecision::Int8,
            ..engine_with_policy(policy).config().clone()
        };
        let cluster = ClusterConfig::new(2, crate::placement::Placement::Range).unwrap();
        let (clustered, handle) =
            ServeEngine::new_clustered(model(), &items, int8.clone(), &cluster, None).unwrap();
        let engines = [
            engine_with_policy(policy),
            ServeEngine::new(model(), &items, int8).unwrap(),
            clustered,
        ];
        for engine in &engines {
            let before = engine.model_handles();
            // One copy per process: only the engine holds the filter and the model.
            assert_eq!(before[1..], [1, 1]);
            let runtime = ServeRuntime::start(
                engine,
                RuntimeConfig::new(2, 16).unwrap(),
                Arc::new(ManualClock::new()),
            )
            .unwrap();
            // Each worker's clone is one more handle on every model, not a copy.
            assert_eq!(engine.model_handles(), before.map(|handles| handles + 2));
            runtime.shutdown().unwrap();
            assert_eq!(engine.model_handles(), before);
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn shutdown_drains_everything_in_flight() {
        // Large max_batch + long deadline: at shutdown time most requests are still
        // pending in the batcher or the queues; the graceful drain must answer them all.
        let engine = engine_with_policy(BatchPolicy::new(64, 1e9).unwrap());
        let runtime = ServeRuntime::start(
            &engine,
            RuntimeConfig::new(2, 256).unwrap(),
            Arc::new(WallClock::new()),
        )
        .unwrap();
        for id in 0..100 {
            runtime.submit(request(id)).unwrap();
        }
        let outcome = runtime.shutdown().unwrap();
        assert_eq!(
            outcome.responses.len(),
            100,
            "every in-flight request is answered"
        );
        let mut ids: Vec<u64> = outcome.responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100u64).collect::<Vec<_>>());
        let stats = outcome
            .report
            .runtime
            .expect("threaded run carries runtime stats");
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.worker_busy_us.len(), 2);
        assert_eq!(outcome.report.telemetry.queries, 100);
        // Measured latency was recorded for every response.
        assert_eq!(outcome.report.telemetry.latency.count(), 100);
        assert!(outcome.responses.iter().all(|r| r.latency_us >= 0.0));
    }

    #[test]
    fn submitting_after_shutdown_reports_runtime_stopped() {
        let engine = engine_with_policy(BatchPolicy::new(4, 100.0).unwrap());
        let runtime = ServeRuntime::start(
            &engine,
            RuntimeConfig::new(1, 8).unwrap(),
            Arc::new(WallClock::new()),
        )
        .unwrap();
        // Close the queue out from under the handle the way shutdown would.
        runtime.requests.close();
        assert!(matches!(
            runtime.try_submit(request(0)),
            Err(ServeError::RuntimeStopped)
        ));
        assert!(matches!(
            runtime.submit(request(1)),
            Err(ServeError::RuntimeStopped)
        ));
        let outcome = runtime.shutdown().unwrap();
        assert!(outcome.responses.is_empty());
    }

    #[test]
    fn full_queue_counts_rejections_without_deadlocking() {
        // One slow worker (every request is its own batch) and a tiny request queue: a
        // fast burst MUST overflow the request queue. The burst far exceeds total
        // downstream buffering (1 batch in service + request queue 2), so rejections
        // are guaranteed regardless of machine speed, and the accepted requests must all
        // still complete.
        let engine = engine_with_policy(BatchPolicy::new(1, 1e9).unwrap());
        let config = RuntimeConfig::new(1, 2).unwrap();
        let runtime = ServeRuntime::start(&engine, config, Arc::new(WallClock::new())).unwrap();
        let total: u64 = 400;
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for id in 0..total {
            match runtime.try_submit(request(id)) {
                Ok(()) => accepted += 1,
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        let outcome = runtime.shutdown().unwrap();
        assert_eq!(accepted + rejected, total);
        assert!(
            rejected > 0,
            "a 400-request burst must overflow a 2-deep queue"
        );
        assert_eq!(
            outcome.responses.len(),
            accepted as usize,
            "accepted requests all complete"
        );
        let stats = outcome.report.runtime.unwrap();
        assert_eq!(stats.submitted, accepted);
        assert_eq!(stats.rejected, rejected);
        assert!(stats.rejection_rate() > 0.0);
        assert!(stats.queue_depth_max >= 1);
        // Responses are exactly the accepted ids, no duplicates, no strays.
        let mut ids: Vec<u64> = outcome.responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), accepted as usize);
    }

    #[test]
    fn deadline_flushes_follow_the_injected_clock() {
        // With a frozen manual clock the deadline never arrives, so a lone request
        // sits in the batcher; advancing the clock past the deadline flushes it.
        let engine = engine_with_policy(BatchPolicy::new(100, 500.0).unwrap());
        let clock = Arc::new(ManualClock::new());
        let runtime =
            ServeRuntime::start(&engine, RuntimeConfig::new(1, 8).unwrap(), clock.clone()).unwrap();
        runtime.submit(request(0)).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            runtime.completed(),
            0,
            "frozen clock: the deadline must not fire"
        );
        clock.advance_us(1_000.0);
        let waited = Instant::now();
        while runtime.completed() < 1 {
            assert!(
                waited.elapsed() < Duration::from_secs(5),
                "deadline flush did not fire after the clock advanced"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let outcome = runtime.shutdown().unwrap();
        assert_eq!(outcome.responses.len(), 1);
    }

    #[test]
    fn an_idle_worker_flushes_a_lone_request_without_waiting_for_its_deadline() {
        // A 1000 s deadline and a 64-wide batch: only the work-conserving flush can
        // answer one request in time.
        let engine = engine_with_policy(BatchPolicy::new(64, 1e9).unwrap());
        let runtime = ServeRuntime::start(
            &engine,
            RuntimeConfig::new(1, 8).unwrap(),
            Arc::new(WallClock::new()),
        )
        .unwrap();
        runtime.submit(request(0)).unwrap();
        let waited = Instant::now();
        while runtime.completed() < 1 && waited.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            runtime.completed(),
            1,
            "an idle worker must not wait for the deadline"
        );
        assert_eq!(runtime.shutdown().unwrap().responses.len(), 1);
    }

    #[test]
    fn a_backlog_still_forms_full_batches() {
        // The closed loop: with 200 requests already queued, the leader takes a full
        // batch at once, and the next one too.
        use crate::batcher::FlushReason;
        let requests = BoundedQueue::new(256);
        for id in 0..200 {
            requests.try_push(request(id)).unwrap();
        }
        let mut batcher = DynamicBatcher::new(BatchPolicy::new(64, 1e9).unwrap());
        let clock = WallClock::new();
        let mut taken = Vec::new();
        let mut next = || next_batch(&mut batcher, &requests, &clock, &mut taken);
        for first_id in [0u64, 64, 128] {
            let batch = next().expect("a batch");
            assert_eq!(batch.reason, FlushReason::Size);
            let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
            assert_eq!(ids, (first_id..first_id + 64).collect::<Vec<_>>());
        }
        requests.close();
        let rest = next().expect("the remainder");
        assert_eq!((rest.len(), rest.reason), (8, FlushReason::Drain));
        assert!(next().is_none(), "closed and drained: the worker exits");
        assert!(taken.is_empty());
    }

    #[test]
    fn an_unbounded_queue_capacity_is_a_bound_not_an_allocation() {
        let engine = engine_with_policy(BatchPolicy::new(8, 100.0).unwrap());
        let runtime = ServeRuntime::start(
            &engine,
            RuntimeConfig::new(1, usize::MAX).unwrap(),
            Arc::new(WallClock::new()),
        )
        .unwrap();
        runtime.try_submit(request(0)).unwrap();
        let outcome = runtime.shutdown().unwrap();
        assert_eq!(outcome.responses.len(), 1);
        assert_eq!(outcome.report.runtime.unwrap().queue_capacity, usize::MAX);
    }

    #[test]
    fn a_panicking_worker_closes_the_queues_instead_of_deadlocking() {
        let requests: BoundedQueue<ServeRequest> = BoundedQueue::new(4);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = CloseQueuesOnPanic {
                    requests: &requests,
                };
                panic!("worker died mid-batch");
            });
            assert!(handle.join().is_err(), "the thread must have panicked");
        });
        assert!(requests.is_closed(), "panic must close the request queue");
        // A clean exit must NOT close anything (other workers keep consuming).
        let open: BoundedQueue<ServeRequest> = BoundedQueue::new(4);
        {
            let _guard = CloseQueuesOnPanic { requests: &open };
        }
        assert!(!open.is_closed());
    }

    #[test]
    fn worker_errors_propagate_and_do_not_hang_shutdown() {
        let engine = engine_with_policy(BatchPolicy::new(1, 100.0).unwrap());
        let runtime = ServeRuntime::start(
            &engine,
            RuntimeConfig::new(1, 8).unwrap(),
            Arc::new(WallClock::new()),
        )
        .unwrap();
        let mut poisoned = request(0);
        poisoned.history = vec![NUM_ITEMS as u32]; // out of catalogue
        runtime.submit(poisoned).unwrap();
        // The worker hits the error, closes the queues, and shutdown surfaces it.
        let error = runtime
            .shutdown()
            .expect_err("the poisoned request must surface");
        assert!(matches!(error, ServeError::RowOutOfRange { .. }));
    }

    #[test]
    fn threaded_replay_matches_the_simulated_path_bit_for_bit() {
        for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
            let items = EmbeddingTable::new(NUM_ITEMS, ITEM_DIM, 31).unwrap();
            let config = ServeConfig {
                shards: 4,
                cache_capacity: 64,
                cache_policy: crate::cache::CachePolicy::Clock,
                cache_placement: crate::cache::CachePlacement::Router,
                precision,
                policy: BatchPolicy::new(16, 300.0).unwrap(),
                signature_bits: 64,
                search_radius: 27,
                lsh_seed: 7,
            };
            let mut simulated_engine =
                ServeEngine::new(Dlrm::new(DlrmConfig::tiny()).unwrap(), &items, config).unwrap();
            let workload = ReplayWorkload::generate(&replay_config(600)).unwrap();
            let simulated = simulated_engine.replay(&workload).unwrap();
            let threaded = replay_threaded(
                &simulated_engine,
                &workload,
                &ThreadedReplayConfig {
                    runtime: RuntimeConfig::new(3, 1024).unwrap(),
                    speedup: f64::INFINITY, // no pacing: stress batching variance
                    shed_on_full: false,
                },
            )
            .unwrap();
            assert_eq!(threaded.responses.len(), 600);
            let mut by_id = threaded.responses.clone();
            by_id.sort_unstable_by_key(|r| r.id);
            let mut simulated_by_id = simulated.responses.clone();
            simulated_by_id.sort_unstable_by_key(|r| r.id);
            for (t, s) in by_id.iter().zip(simulated_by_id.iter()) {
                assert_eq!(t.id, s.id);
                assert_eq!(
                    t.score.to_bits(),
                    s.score.to_bits(),
                    "query {} ({precision:?}): threaded and simulated scores must be bit-identical",
                    t.id
                );
                assert_eq!(t.candidates, s.candidates, "query {} ({precision:?})", t.id);
            }
            // Measured telemetry is coherent: every request has a measured latency and
            // the quantiles are ordered.
            let t = &threaded.report.telemetry;
            assert_eq!(t.queries, 600);
            assert_eq!(t.latency.count(), 600);
            let (p50, p95, p99) = (
                t.latency.quantile_us(0.50),
                t.latency.quantile_us(0.95),
                t.latency.quantile_us(0.99),
            );
            assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99);
            let stats = threaded.report.runtime.as_ref().unwrap();
            assert_eq!(stats.submitted, 600);
            assert_eq!(stats.rejected, 0);
            assert!(stats.wall_us > 0.0);
            assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
        }
    }

    #[test]
    fn threaded_traces_cover_every_sampled_query_across_workers() {
        use crate::trace::{Stage, TraceConfig};
        let trace_config = TraceConfig {
            sample_every: 4,
            seed: 9,
            capacity: 1024,
            slow_k: 4,
        };
        let mut engine = engine_with_policy(BatchPolicy::new(16, 300.0).unwrap());
        engine.enable_tracing(trace_config);
        let workload = ReplayWorkload::generate(&replay_config(400)).unwrap();
        let outcome = replay_threaded(
            &engine,
            &workload,
            &ThreadedReplayConfig {
                runtime: RuntimeConfig::new(3, 1024).unwrap(),
                speedup: f64::INFINITY,
                shed_on_full: false,
            },
        )
        .unwrap();
        // Sampling is a pure function of (seed, id): with a lossless replay every
        // sampled query is traced exactly once, no matter which worker served it.
        let expected = (0..400u64).filter(|&id| trace_config.samples(id)).count() as u64;
        assert!(expected > 0);
        assert_eq!(outcome.trace.sampled(), expected);
        let stages = &outcome.report.telemetry.stages;
        assert_eq!(stages.sampled, expected);
        let total_p50 = stages.total.quantile_us(0.5);
        for (name, histogram) in stages.stages() {
            assert_eq!(histogram.count(), expected, "stage {name}");
            // Stage p50s nest under the measured end-to-end p50 (one bucket ≈ 9%).
            assert!(
                histogram.quantile_us(0.5) <= total_p50 * 1.1 + 1e-9,
                "stage {name} p50 {} above e2e p50 {total_p50}",
                histogram.quantile_us(0.5)
            );
        }
        // Measured span trees nest inside each query's submit → completion window.
        for trace in outcome.trace.traces() {
            assert_eq!(trace.spans.len(), 6);
            let form = trace.span(Stage::BatchForm).unwrap();
            assert!(form.begin_us >= trace.start_us - 1e-9);
            let rank = trace.span(Stage::MlpRank).unwrap();
            assert!(
                rank.end_us <= trace.end_us + 1e-9,
                "rank end {} past completion {}",
                rank.end_us,
                trace.end_us
            );
        }
        assert!(!outcome.trace.slow_queries().is_empty());
    }

    #[test]
    fn paced_replay_tracks_the_offered_load() {
        // Pace a 200-query trace at 20k qps (10ms of traffic): the measured wall time
        // must cover at least the trace span, and nothing is lost.
        let engine = engine_with_policy(BatchPolicy::new(16, 300.0).unwrap());
        let mut config = replay_config(200);
        config.offered_qps = 20_000.0;
        let workload = ReplayWorkload::generate(&config).unwrap();
        let trace_span_us = workload.requests().last().unwrap().arrival_us;
        let outcome = replay_threaded(
            &engine,
            &workload,
            &ThreadedReplayConfig::real_time(2, 256).unwrap(),
        )
        .unwrap();
        assert_eq!(outcome.responses.len(), 200);
        let stats = outcome.report.runtime.unwrap();
        assert!(
            stats.wall_us >= trace_span_us * 0.9,
            "paced run ({} us) must span the trace ({trace_span_us} us)",
            stats.wall_us
        );
    }
}

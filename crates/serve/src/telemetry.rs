//! Serving telemetry: latency histogram, throughput, cache and cost accounting.
//!
//! A serving engine is judged by its tail, not its mean, so latencies go into a
//! log-bucketed histogram (constant relative resolution, like HDR histograms) from which
//! p50/p95/p99 are read. The report also carries the cache counters, the modeled GPCiM
//! cost per query (energy/latency from [`imars_fabric::cost`]), and a hand-rolled JSON
//! serialization in the same style as the bench harness so replay runs land next to the
//! bench suites under `target/imars-bench/`.

use std::fmt::Write as _;

use imars_fabric::cost::{Cost, CostBreakdown};

use crate::batcher::BatchPolicy;
use crate::cache::CacheStats;
use crate::json::{escape, u64_list};

/// Smallest distinguishable latency (one bucket below this records as this).
const BASE_US: f64 = 0.01;
/// Buckets per octave: relative resolution of 2^(1/8) ≈ 9 %.
const BUCKETS_PER_OCTAVE: f64 = 8.0;
/// Total buckets: 64 octaves above `BASE_US` ≈ 10 ns .. 2×10⁵ s.
const BUCKETS: usize = 512;

/// A log-bucketed latency histogram with exact min/max/mean tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: f64,
    min_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
        }
    }

    /// The bucket index a value lands in — public so the metrics plane's
    /// exemplar harvest ([`crate::metrics::StageExemplars`]) can key exemplars
    /// by the exact bucket the exposition dump renders.
    pub(crate) fn bucket_of(latency_us: f64) -> usize {
        // NaN would fall through a plain `<= BASE_US` comparison into the log-domain
        // math; route it to bucket 0 alongside negatives, zero and sub-base values.
        if latency_us.is_nan() || latency_us <= BASE_US {
            return 0;
        }
        let index = ((latency_us / BASE_US).log2() * BUCKETS_PER_OCTAVE).floor();
        // Clamp in f64 before the cast: huge observations (up to f64::MAX or +inf)
        // produce an index far beyond the table and must land in the last bucket, not
        // depend on float-to-int cast semantics.
        if index >= (BUCKETS - 1) as f64 {
            BUCKETS - 1
        } else {
            index as usize
        }
    }

    /// Upper edge of a bucket in microseconds.
    pub(crate) fn bucket_upper_us(index: usize) -> f64 {
        BASE_US * ((index + 1) as f64 / BUCKETS_PER_OCTAVE).exp2()
    }

    /// Record one latency observation (non-finite or negative values clamp to zero).
    pub fn record(&mut self, latency_us: f64) {
        let latency_us = if latency_us.is_finite() {
            latency_us.max(0.0)
        } else {
            0.0
        };
        self.buckets[Self::bucket_of(latency_us)] += 1;
        self.count += 1;
        self.sum_us += latency_us;
        self.min_us = self.min_us.min(latency_us);
        self.max_us = self.max_us.max(latency_us);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub(crate) fn min_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_us
        }
    }

    /// Largest observation (0 when empty).
    pub(crate) fn max_us(&self) -> f64 {
        self.max_us
    }

    /// Fold another histogram into this one (bucket-wise; min/max/mean stay exact).
    /// The threaded runtime merges per-worker histograms into the run's report with
    /// this.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (acc, &count) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *acc += count;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The non-empty buckets as `(bucket_index, upper_edge_us, count)` triples —
    /// the Prometheus exposition renders cumulative `le` buckets from these and
    /// attaches per-bucket exemplars by index.
    pub(crate) fn indexed_buckets(&self) -> Vec<(usize, f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (index, Self::bucket_upper_us(index), count))
            .collect()
    }

    /// The non-empty buckets as `(upper_edge_us, count)` pairs — the full distribution,
    /// exported in the report JSON so offline tooling can recompute any quantile.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (Self::bucket_upper_us(index), count))
            .collect()
    }

    /// The non-empty buckets as a JSON array of `[upper_edge_us, count]` pairs.
    fn buckets_json(&self) -> String {
        let pairs: Vec<String> = self
            .nonzero_buckets()
            .iter()
            .map(|(upper_us, count)| format!("[{upper_us:.6}, {count}]"))
            .collect();
        format!("[{}]", pairs.join(", "))
    }

    /// The latency at quantile `q` in `[0, 1]`: the upper edge of the first bucket whose
    /// cumulative count reaches `q * count`, clamped to the observed min/max (so the
    /// answer is never below the true minimum or above the true maximum). Returns 0 for
    /// an empty histogram.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return Self::bucket_upper_us(index).clamp(self.min_us, self.max_us);
            }
        }
        self.max_us
    }
}

/// Per-stage latency histograms over the *sampled* (traced) queries: where the time of
/// a query actually went. Each sampled query records exactly one observation into every
/// stage histogram and one end-to-end observation into `total`, so all counts agree and
/// tail attribution ("p99 is 72% cluster_fetch") is well-defined.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageBreakdown {
    /// Queries sampled into the breakdown (equals every stage histogram's count).
    pub sampled: u64,
    /// Arrival/submission until the query's batch flushed.
    pub batch_form: LatencyHistogram,
    /// Flush until a worker started the batch.
    pub queue_wait: LatencyHistogram,
    /// Cache probe phase of pooling.
    pub cache_lookup: LatencyHistogram,
    /// The shard fetch window.
    pub cluster_fetch: LatencyHistogram,
    /// LSH + TCAM candidate filtering.
    pub nns_filter: LatencyHistogram,
    /// MLP ranking.
    pub mlp_rank: LatencyHistogram,
    /// End-to-end latency of the sampled queries (stage durations nest under this).
    pub total: LatencyHistogram,
}

impl StageBreakdown {
    /// Record one finalized trace: every stage span's duration plus the end-to-end
    /// latency.
    pub fn record(&mut self, trace: &crate::trace::QueryTrace) {
        use crate::trace::Stage;
        self.sampled += 1;
        for span in &trace.spans {
            let histogram = match span.stage {
                Stage::BatchForm => &mut self.batch_form,
                Stage::QueueWait => &mut self.queue_wait,
                Stage::CacheLookup => &mut self.cache_lookup,
                Stage::ClusterFetch => &mut self.cluster_fetch,
                Stage::NnsFilter => &mut self.nns_filter,
                Stage::MlpRank => &mut self.mlp_rank,
            };
            histogram.record(span.duration_us());
        }
        self.total.record(trace.latency_us());
    }

    /// The six stage histograms with their stable names, in pipeline order.
    pub fn stages(&self) -> [(&'static str, &LatencyHistogram); 6] {
        [
            ("batch_form", &self.batch_form),
            ("queue_wait", &self.queue_wait),
            ("cache_lookup", &self.cache_lookup),
            ("cluster_fetch", &self.cluster_fetch),
            ("nns_filter", &self.nns_filter),
            ("mlp_rank", &self.mlp_rank),
        ]
    }

    /// The stage with the largest p99 and its share of the end-to-end p99 — the
    /// headline "p99 is NN% \<stage\>" attribution. `None` while nothing was sampled or
    /// the end-to-end p99 is zero (frozen-clock runs).
    pub fn tail_attribution(&self) -> Option<(&'static str, f64)> {
        let total_p99 = self.total.quantile_us(0.99);
        if total_p99 <= 0.0 {
            return None;
        }
        self.stages()
            .iter()
            .map(|(name, histogram)| (*name, histogram.quantile_us(0.99)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(name, p99)| (name, (p99 / total_p99).clamp(0.0, 1.0)))
    }

    /// Fold another breakdown into this one (histogram-wise; the threaded runtime
    /// merges one per worker).
    pub fn merge(&mut self, other: &StageBreakdown) {
        self.sampled += other.sampled;
        self.batch_form.merge(&other.batch_form);
        self.queue_wait.merge(&other.queue_wait);
        self.cache_lookup.merge(&other.cache_lookup);
        self.cluster_fetch.merge(&other.cluster_fetch);
        self.nns_filter.merge(&other.nns_filter);
        self.mlp_rank.merge(&other.mlp_rank);
        self.total.merge(&other.total);
    }
}

/// Counters accumulated while serving (one replay run or an engine lifetime).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeTelemetry {
    /// Per-request end-to-end latency (queue wait + service).
    pub latency: LatencyHistogram,
    /// Queries served.
    pub queries: u64,
    /// Batches executed.
    pub batches: u64,
    /// Sum of batch sizes (mean batch size = `batch_size_sum / batches`).
    pub batch_size_sum: u64,
    /// Sum of per-query candidate counts from the filtering stage.
    pub candidates_sum: u64,
    /// Total measured service time, microseconds (engine busy time).
    pub busy_us: f64,
    /// Virtual completion time of the last batch, microseconds.
    pub makespan_us: f64,
    /// Modeled hardware cost accumulated across all queries.
    pub cost: CostBreakdown,
    /// Aggregate of `cost` (serial composition).
    pub total_cost: Cost,
    /// Queries answered with at least one zero-filled (missing) row in their pooled
    /// history — served, but degraded.
    pub degraded_queries: u64,
    /// Row lookups zero-filled because no healthy shard held the row.
    pub missing_row_lookups: u64,
    /// Per-stage latency attribution over the traced queries (empty unless tracing is
    /// enabled on the engine).
    pub stages: StageBreakdown,
}

impl ServeTelemetry {
    /// Queries per second over the virtual makespan (arrival pacing included).
    /// An empty replay or a frozen-clock run has a zero (or degenerate)
    /// makespan; the finite check runs first so a NaN makespan reports 0
    /// instead of putting NaN into the report JSON.
    pub fn served_qps(&self) -> f64 {
        if !self.makespan_us.is_finite() || self.makespan_us <= 0.0 {
            0.0
        } else {
            self.queries as f64 / self.makespan_us * 1e6
        }
    }

    /// Queries per second over engine busy time only (peak service rate).
    /// NaN-proof like [`ServeTelemetry::served_qps`].
    pub(crate) fn service_qps(&self) -> f64 {
        if !self.busy_us.is_finite() || self.busy_us <= 0.0 {
            0.0
        } else {
            self.queries as f64 / self.busy_us * 1e6
        }
    }

    /// Mean batch size (0 when no batches ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_size_sum as f64 / self.batches as f64
        }
    }

    /// Mean candidates surfaced per query by the filtering stage.
    pub fn mean_candidates(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.candidates_sum as f64 / self.queries as f64
        }
    }

    /// Modeled energy per query in picojoules.
    pub fn energy_pj_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_cost.energy_pj / self.queries as f64
        }
    }

    /// Modeled queries per second: queries over the accumulated modeled GPCiM +
    /// interconnect latency. Unlike [`ServeTelemetry::served_qps`] (which folds in
    /// *measured* service time), this is a pure function of the replayed trace and the
    /// cost model — byte-deterministic across runs, which is what the `cache_scaling`
    /// study's qps-vs-capacity curves require.
    /// Zero-duration guard: an empty replay accumulates no modeled latency, and
    /// the finite check keeps a NaN cost from leaking NaN into the JSON.
    pub fn modeled_qps(&self) -> f64 {
        if self.queries == 0
            || !self.total_cost.latency_ns.is_finite()
            || self.total_cost.latency_ns <= 0.0
        {
            0.0
        } else {
            self.queries as f64 / (self.total_cost.latency_ns * 1e-9)
        }
    }

    /// Fold another telemetry block into this one: histograms merge, counters and busy
    /// time add, the makespan takes the later completion, costs accumulate. The threaded
    /// runtime merges one block per worker into the run's report with this.
    pub fn merge(&mut self, other: &ServeTelemetry) {
        self.latency.merge(&other.latency);
        self.queries += other.queries;
        self.batches += other.batches;
        self.batch_size_sum += other.batch_size_sum;
        self.candidates_sum += other.candidates_sum;
        self.busy_us += other.busy_us;
        self.makespan_us = self.makespan_us.max(other.makespan_us);
        self.cost.merge(&other.cost);
        self.total_cost += other.total_cost;
        self.degraded_queries += other.degraded_queries;
        self.missing_row_lookups += other.missing_row_lookups;
        self.stages.merge(&other.stages);
    }
}

/// Counters specific to the threaded runtime: queueing, backpressure and worker
/// utilization. Everything here is *measured* on real threads — unlike the modeled
/// GPCiM cost next to it in the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Bound of the request queue.
    pub queue_capacity: usize,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected because the queue was full (load shedding).
    pub rejected: u64,
    /// Always 0: the runtime's workers form their own batches, so there is no batcher
    /// thread to stall on a batch queue. Kept so reports and their readers keep the
    /// field.
    pub batcher_stall_us: f64,
    /// Deepest request-queue depth observed at a submit.
    pub queue_depth_max: u64,
    /// Sum of request-queue depths sampled at each accepted submit.
    pub queue_depth_sum: u64,
    /// Number of depth samples (= accepted submits).
    pub queue_depth_samples: u64,
    /// Measured busy time per worker, microseconds.
    pub worker_busy_us: Vec<f64>,
    /// Wall-clock span from runtime start to the last batch completion, microseconds.
    pub wall_us: f64,
}

impl RuntimeStats {
    /// Mean request-queue depth over the submit samples (0 when nothing was accepted).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }

    /// Fraction of offered requests rejected by backpressure.
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.submitted + self.rejected;
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }

    /// Mean worker utilization: total busy time over `workers × wall span`.
    /// NaN-proof: a zero-duration (or NaN) wall span reports 0, not NaN.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || !self.wall_us.is_finite() || self.wall_us <= 0.0 {
            0.0
        } else {
            let busy: f64 = self.worker_busy_us.iter().sum();
            (busy / (self.workers as f64 * self.wall_us)).min(1.0)
        }
    }
}

/// Counters of the multi-node shard cluster: routed traffic, cross-shard bytes, and
/// per-shard load/queue pressure. Placement quality shows up here — frequency-aware
/// placement should cut `cross_shard_bytes` on skewed traffic, at the price the
/// imbalance figure makes visible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Shard nodes in the cluster.
    pub shards: usize,
    /// Worker threads per shard node.
    pub workers_per_shard: usize,
    /// Placement policy label ("range" / "freq").
    pub placement: String,
    /// Hottest rows replicated onto every shard.
    pub hot_replicas: usize,
    /// Capacity of each shard's bounded sub-request queue.
    pub queue_capacity: usize,
    /// Routed fetches (one per batch of lookups reaching the cluster).
    pub fetches: u64,
    /// Sub-requests issued across all fetches (fan-out width sum).
    pub subrequests: u64,
    /// Sub-requests that left the batch's home shard.
    pub cross_shard_hops: u64,
    /// Row payload bytes served from non-home shards over the RSC bus (the modeled
    /// bus charge additionally covers the sub-request index bytes).
    pub cross_shard_bytes: u64,
    /// Row payload bytes served on the home shard (no bus charge).
    pub local_bytes: u64,
    /// Rows served per shard (the skew-induced load-balance signal).
    pub shard_lookups: Vec<u64>,
    /// Queue-overflow rejections per shard (counted before the blocking fallback).
    pub shard_rejections: Vec<u64>,
    /// Deepest observed sub-request queue depth per shard.
    pub shard_queue_depth_max: Vec<u64>,
    /// Node-cache hits per shard (all zero when per-shard-node caching is off).
    pub shard_cache_hits: Vec<u64>,
    /// Node-cache misses per shard — rows the node actually read from its resident
    /// storage (the CMA RAM reads the modeled cost charges).
    pub shard_cache_misses: Vec<u64>,
    /// Sub-request attempts that blew their deadline (resilient path only).
    pub timeouts: u64,
    /// Re-dispatches of timed-out or failed sub-requests.
    pub retries: u64,
    /// Speculative duplicate dispatches against a slow primary.
    pub hedges: u64,
    /// Hedged dispatches whose response beat the primary's.
    pub hedge_wins: u64,
    /// Sub-requests served by a replica-holding shard other than their owner.
    pub promotions: u64,
    /// Row lookups degraded to zero-filled results (no healthy shard held the row).
    pub missing_rows: u64,
}

impl ClusterStats {
    /// Mean shards touched per routed fetch (0 when nothing was routed).
    pub fn mean_fanout(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.subrequests as f64 / self.fetches as f64
        }
    }

    /// Load imbalance: the busiest shard's lookups over the per-shard mean (1.0 is
    /// perfectly balanced; 0 when no lookups were served).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.shard_lookups.iter().sum();
        if total == 0 || self.shard_lookups.is_empty() {
            return 0.0;
        }
        let max = *self.shard_lookups.iter().max().expect("nonempty") as f64;
        max / (total as f64 / self.shard_lookups.len() as f64)
    }

    /// Fraction of served bytes that crossed shards.
    pub fn cross_traffic_fraction(&self) -> f64 {
        let total = self.cross_shard_bytes + self.local_bytes;
        if total == 0 {
            0.0
        } else {
            self.cross_shard_bytes as f64 / total as f64
        }
    }

    /// Total queue-overflow rejections across shards.
    pub(crate) fn total_rejections(&self) -> u64 {
        self.shard_rejections.iter().sum()
    }

    /// Whether the resilient path ever intervened (timed out, retried, hedged,
    /// promoted or degraded anything).
    pub(crate) fn any_faults_handled(&self) -> bool {
        self.timeouts + self.retries + self.hedges + self.promotions + self.missing_rows > 0
    }

    /// Whether any shard node served lookups through its own cache.
    pub(crate) fn node_cached(&self) -> bool {
        self.shard_cache_hits.iter().sum::<u64>() + self.shard_cache_misses.iter().sum::<u64>() > 0
    }
}

/// The summary of one replay run, ready for printing and JSON serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// A label for the run ("serve_replay", bench section names, ...).
    pub name: String,
    /// The batching policy the run used.
    pub policy: BatchPolicy,
    /// Shards in the embedding layer.
    pub shards: usize,
    /// Hot-row cache capacity in rows (0 = disabled).
    pub cache_capacity: usize,
    /// Replacement-policy label (`"clock"`, `"lfu"` or `"tinylfu"`).
    pub cache_policy: String,
    /// Cache-placement label (`"router"` or `"shard"`).
    pub cache_placement: String,
    /// Serving counters.
    pub telemetry: ServeTelemetry,
    /// Cache counters at the end of the run.
    pub cache: CacheStats,
    /// Threaded-runtime counters; `None` for the discrete-event replay path, where
    /// latency is simulated rather than measured and there is no queue to backpressure.
    pub runtime: Option<RuntimeStats>,
    /// Shard-cluster counters; `None` when the engine serves from the in-process table.
    pub cluster: Option<ClusterStats>,
    /// The scraped time series from the metrics plane; `None` unless metrics
    /// were enabled on the engine ([`crate::engine::ServeEngine::enable_metrics`]).
    pub metrics: Option<crate::metrics::MetricsSeries>,
}

impl ServeReport {
    /// A human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let t = &self.telemetry;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{}: {} queries in {} batches (mean batch {:.1}, policy max_batch={} max_wait={:.0}us)",
            self.name,
            t.queries,
            t.batches,
            t.mean_batch_size(),
            self.policy.max_batch,
            self.policy.max_wait_us,
        );
        let _ = writeln!(
            s,
            "  latency p50 {:.1}us  p95 {:.1}us  p99 {:.1}us  mean {:.1}us  max {:.1}us",
            t.latency.quantile_us(0.50),
            t.latency.quantile_us(0.95),
            t.latency.quantile_us(0.99),
            t.latency.mean_us(),
            t.latency.max_us(),
        );
        let _ = writeln!(
            s,
            "  throughput {:.0} qps served ({:.0} qps at full load), {} shards",
            t.served_qps(),
            t.service_qps(),
            self.shards,
        );
        let _ = writeln!(
            s,
            "  cache: capacity {} rows ({} at {}), hit rate {:.1}% ({} hits / {} lookups, {} evictions, {} rejected)",
            self.cache_capacity,
            self.cache_policy,
            self.cache_placement,
            self.cache.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.lookups(),
            self.cache.evictions,
            self.cache.rejections,
        );
        let _ = writeln!(
            s,
            "  modeled GPCiM cost: {:.1} pJ/query ({:.1} candidates/query from the TCAM filter)",
            t.energy_pj_per_query(),
            t.mean_candidates(),
        );
        if let Some(cluster) = &self.cluster {
            let _ = writeln!(
                s,
                "  cluster: {} shard nodes x {} workers ({} placement, {} hot replicas), fan-out {:.2} shards/fetch",
                cluster.shards,
                cluster.workers_per_shard,
                cluster.placement,
                cluster.hot_replicas,
                cluster.mean_fanout(),
            );
            let _ = writeln!(
                s,
                "  interconnect: {} cross-shard hops, {:.2} MB crossed ({:.1}% of served bytes), imbalance {:.2}x, {} queue rejections",
                cluster.cross_shard_hops,
                cluster.cross_shard_bytes as f64 / 1e6,
                cluster.cross_traffic_fraction() * 100.0,
                cluster.imbalance(),
                cluster.total_rejections(),
            );
            if cluster.node_cached() {
                let hits: u64 = cluster.shard_cache_hits.iter().sum();
                let misses: u64 = cluster.shard_cache_misses.iter().sum();
                let _ = writeln!(
                    s,
                    "  node caches: {:.1}% hit rate at the shards ({} hits / {} lookups)",
                    100.0 * hits as f64 / (hits + misses).max(1) as f64,
                    hits,
                    hits + misses,
                );
            }
            if cluster.any_faults_handled() {
                let _ = writeln!(
                    s,
                    "  fault tolerance: {} timeouts, {} retries, {} hedges ({} won), {} promotions, {} rows zero-filled",
                    cluster.timeouts,
                    cluster.retries,
                    cluster.hedges,
                    cluster.hedge_wins,
                    cluster.promotions,
                    cluster.missing_rows,
                );
            }
        }
        if t.degraded_queries > 0 || t.missing_row_lookups > 0 {
            let _ = writeln!(
                s,
                "  degraded: {} queries served with {} missing-row lookups zero-filled",
                t.degraded_queries, t.missing_row_lookups,
            );
        }
        if let Some(runtime) = &self.runtime {
            let _ = writeln!(
                s,
                "  runtime: {} workers, queue {} deep (max {} / mean {:.1} observed), {:.1}% utilization",
                runtime.workers,
                runtime.queue_capacity,
                runtime.queue_depth_max,
                runtime.mean_queue_depth(),
                runtime.utilization() * 100.0,
            );
            let _ = writeln!(
                s,
                "  backpressure: {} accepted, {} rejected ({:.1}%)",
                runtime.submitted,
                runtime.rejected,
                runtime.rejection_rate() * 100.0,
            );
        }
        if let Some(metrics) = &self.metrics {
            let peak = metrics.peak_qps();
            let _ = writeln!(
                s,
                "  metrics: {} windows of {:.0}us{}",
                metrics.windows.len(),
                metrics.interval_us,
                match peak {
                    Some((index, qps)) if qps > 0.0 =>
                        format!(", peak {qps:.0} qps in window {index}"),
                    _ => String::new(),
                },
            );
        }
        if t.stages.sampled > 0 {
            let _ = write!(
                s,
                "  stage breakdown ({} queries sampled, e2e p50 {:.1}us p99 {:.1}us)",
                t.stages.sampled,
                t.stages.total.quantile_us(0.50),
                t.stages.total.quantile_us(0.99),
            );
            match t.stages.tail_attribution() {
                Some((stage, share)) => {
                    let _ = writeln!(s, ": p99 is {:.0}% {stage}", share * 100.0);
                }
                None => {
                    let _ = writeln!(s);
                }
            }
            for (name, histogram) in t.stages.stages() {
                let _ = writeln!(
                    s,
                    "    {name:<13} p50 {:>9.1}us  p99 {:>9.1}us  mean {:>9.1}us",
                    histogram.quantile_us(0.50),
                    histogram.quantile_us(0.99),
                    histogram.mean_us(),
                );
            }
        }
        s
    }

    /// JSON summary in the bench-harness style, written by hand in a fixed layout.
    pub fn to_json(&self) -> String {
        let t = &self.telemetry;
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"suite\": \"{}\",", escape(&self.name));
        let _ = writeln!(
            json,
            "  \"policy\": {{\"max_batch\": {}, \"max_wait_us\": {:.3}}},",
            self.policy.max_batch, self.policy.max_wait_us
        );
        let _ = writeln!(json, "  \"shards\": {},", self.shards);
        let _ = writeln!(json, "  \"queries\": {},", t.queries);
        let _ = writeln!(json, "  \"batches\": {},", t.batches);
        let _ = writeln!(json, "  \"mean_batch_size\": {:.3},", t.mean_batch_size());
        let _ = writeln!(
            json,
            "  \"latency_us\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"mean\": {:.3}, \"min\": {:.3}, \"max\": {:.3}, \"buckets\": {}}},",
            t.latency.quantile_us(0.50),
            t.latency.quantile_us(0.95),
            t.latency.quantile_us(0.99),
            t.latency.mean_us(),
            t.latency.min_us(),
            t.latency.max_us(),
            t.latency.buckets_json(),
        );
        let _ = writeln!(
            json,
            "  \"throughput\": {{\"served_qps\": {:.3}, \"service_qps\": {:.3}}},",
            t.served_qps(),
            t.service_qps()
        );
        let _ = writeln!(
            json,
            "  \"cache\": {{\"capacity\": {}, \"policy\": \"{}\", \"placement\": \"{}\", \"hits\": {}, \"coalesced\": {}, \"misses\": {}, \"hit_rate\": {:.6}, \"insertions\": {}, \"evictions\": {}, \"rejections\": {}}},",
            self.cache_capacity,
            escape(&self.cache_policy),
            escape(&self.cache_placement),
            self.cache.hits,
            self.cache.coalesced,
            self.cache.misses,
            self.cache.hit_rate(),
            self.cache.insertions,
            self.cache.evictions,
            self.cache.rejections,
        );
        let _ = writeln!(
            json,
            "  \"candidates_per_query\": {:.3},",
            t.mean_candidates()
        );
        let _ = writeln!(
            json,
            "  \"degraded\": {{\"queries\": {}, \"missing_row_lookups\": {}}},",
            t.degraded_queries, t.missing_row_lookups,
        );
        if t.stages.sampled > 0 {
            let histogram_json = |histogram: &LatencyHistogram| {
                format!(
                    "{{\"count\": {}, \"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"mean\": {:.3}, \"buckets\": {}}}",
                    histogram.count(),
                    histogram.quantile_us(0.50),
                    histogram.quantile_us(0.95),
                    histogram.quantile_us(0.99),
                    histogram.mean_us(),
                    histogram.buckets_json(),
                )
            };
            let _ = writeln!(json, "  \"stage_breakdown\": {{");
            let _ = writeln!(json, "    \"sampled\": {},", t.stages.sampled);
            if let Some((stage, share)) = t.stages.tail_attribution() {
                let _ = writeln!(
                    json,
                    "    \"tail_attribution\": {{\"stage\": \"{stage}\", \"p99_share\": {share:.6}}},",
                );
            }
            let _ = writeln!(json, "    \"stages\": {{");
            for (i, (name, histogram)) in t.stages.stages().iter().enumerate() {
                let _ = writeln!(
                    json,
                    "      \"{name}\": {}{}",
                    histogram_json(histogram),
                    if i + 1 < t.stages.stages().len() {
                        ","
                    } else {
                        ""
                    },
                );
            }
            let _ = writeln!(json, "    }},");
            let _ = writeln!(json, "    \"total\": {}", histogram_json(&t.stages.total));
            let _ = writeln!(json, "  }},");
        }
        if let Some(cluster) = &self.cluster {
            let _ = writeln!(json, "  \"cluster\": {{");
            let _ = writeln!(json, "    \"shards\": {},", cluster.shards);
            let _ = writeln!(
                json,
                "    \"workers_per_shard\": {},",
                cluster.workers_per_shard
            );
            let _ = writeln!(
                json,
                "    \"placement\": \"{}\",",
                escape(&cluster.placement)
            );
            let _ = writeln!(json, "    \"hot_replicas\": {},", cluster.hot_replicas);
            let _ = writeln!(json, "    \"queue_capacity\": {},", cluster.queue_capacity);
            let _ = writeln!(json, "    \"fetches\": {},", cluster.fetches);
            let _ = writeln!(json, "    \"mean_fanout\": {:.3},", cluster.mean_fanout());
            let _ = writeln!(
                json,
                "    \"cross_shard_hops\": {},",
                cluster.cross_shard_hops
            );
            let _ = writeln!(
                json,
                "    \"cross_shard_bytes\": {},",
                cluster.cross_shard_bytes
            );
            let _ = writeln!(json, "    \"local_bytes\": {},", cluster.local_bytes);
            let _ = writeln!(
                json,
                "    \"cross_traffic_fraction\": {:.6},",
                cluster.cross_traffic_fraction()
            );
            let _ = writeln!(json, "    \"imbalance\": {:.3},", cluster.imbalance());
            let _ = writeln!(
                json,
                "    \"shard_lookups\": {},",
                u64_list(&cluster.shard_lookups)
            );
            let _ = writeln!(
                json,
                "    \"shard_rejections\": {},",
                u64_list(&cluster.shard_rejections)
            );
            let _ = writeln!(
                json,
                "    \"shard_queue_depth_max\": {},",
                u64_list(&cluster.shard_queue_depth_max)
            );
            let _ = writeln!(
                json,
                "    \"shard_cache_hits\": {},",
                u64_list(&cluster.shard_cache_hits)
            );
            let _ = writeln!(
                json,
                "    \"shard_cache_misses\": {},",
                u64_list(&cluster.shard_cache_misses)
            );
            let _ = writeln!(
                json,
                "    \"fault_tolerance\": {{\"timeouts\": {}, \"retries\": {}, \"hedges\": {}, \"hedge_wins\": {}, \"promotions\": {}, \"missing_rows\": {}}}",
                cluster.timeouts,
                cluster.retries,
                cluster.hedges,
                cluster.hedge_wins,
                cluster.promotions,
                cluster.missing_rows,
            );
            let _ = writeln!(json, "  }},");
        }
        if let Some(runtime) = &self.runtime {
            let _ = writeln!(json, "  \"runtime\": {{");
            let _ = writeln!(json, "    \"workers\": {},", runtime.workers);
            let _ = writeln!(json, "    \"queue_capacity\": {},", runtime.queue_capacity);
            let _ = writeln!(json, "    \"submitted\": {},", runtime.submitted);
            let _ = writeln!(json, "    \"rejected\": {},", runtime.rejected);
            let _ = writeln!(
                json,
                "    \"rejection_rate\": {:.6},",
                runtime.rejection_rate()
            );
            let _ = writeln!(
                json,
                "    \"batcher_stall_us\": {:.3},",
                runtime.batcher_stall_us
            );
            let _ = writeln!(
                json,
                "    \"queue_depth\": {{\"max\": {}, \"mean\": {:.3}}},",
                runtime.queue_depth_max,
                runtime.mean_queue_depth()
            );
            let _ = writeln!(json, "    \"utilization\": {:.6},", runtime.utilization());
            let _ = writeln!(json, "    \"wall_us\": {:.3}", runtime.wall_us);
            let _ = writeln!(json, "  }},");
        }
        if let Some(metrics) = &self.metrics {
            let _ = writeln!(json, "  \"metrics\": {},", metrics.json_with_indent(2));
        }
        let _ = writeln!(
            json,
            "  \"modeled_cost\": {{\"energy_pj_per_query\": {:.3}, \"total_energy_pj\": {:.3}, \"total_latency_ns\": {:.3}, \"components\": [",
            t.energy_pj_per_query(),
            t.total_cost.energy_pj,
            t.total_cost.latency_ns,
        );
        for (i, (component, cost)) in t.cost.iter().enumerate() {
            let _ = write!(
                json,
                "{}    {{\"component\": \"{:?}\", \"energy_pj\": {:.3}, \"latency_ns\": {:.3}}}",
                if i == 0 { "" } else { ",\n" },
                component,
                cost.energy_pj,
                cost.latency_ns,
            );
        }
        let _ = writeln!(json, "\n  ]}}");
        json.push_str("}\n");
        json
    }

    /// Write the JSON summary to `target/imars-bench/<name>.json`, or to the path in
    /// the `IMARS_SERVE_OUT` environment variable when set. (Deliberately not the bench
    /// harness's `IMARS_BENCH_OUT`: a bench run that also emits serve telemetry would
    /// otherwise clobber one file with the other.) Returns the path written to.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be written.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        let path = match std::env::var_os("IMARS_SERVE_OUT") {
            Some(path) => std::path::PathBuf::from(path),
            None => {
                let dir = std::path::Path::new("target").join("imars-bench");
                std::fs::create_dir_all(&dir)?;
                dir.join(format!("{}.json", self.name))
            }
        };
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn histogram_quantiles_bracket_known_data() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64); // 1..1000 us, uniform
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean_us() - 500.5).abs() < 1e-9);
        assert_eq!(h.min_us(), 1.0);
        assert_eq!(h.max_us(), 1000.0);
        // Log buckets have ~9 % relative resolution; allow 2 bucket widths of slack.
        let p50 = h.quantile_us(0.50);
        assert!((400.0..650.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((900.0..=1000.0).contains(&p99), "p99 {p99}");
        assert!(h.quantile_us(1.0) <= 1000.0);
        assert!(h.quantile_us(0.0) >= 1.0);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut value = 0.37f64;
        for _ in 0..5000 {
            value = (value * 1.37).rem_euclid(97.0) + 0.01;
            h.record(value * 100.0);
        }
        let quantiles: Vec<f64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile_us(q))
            .collect();
        for pair in quantiles.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "quantiles must be monotone: {quantiles:?}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.min_us(), 0.0);
        assert_eq!(h.max_us(), 0.0);
        assert_eq!(h.quantile_us(0.5), 0.0);
    }

    #[test]
    fn bucket_of_clamps_at_both_ends() {
        // Everything at or below the base resolution is bucket 0 — including the exact
        // boundary, negatives, and NaN.
        assert_eq!(LatencyHistogram::bucket_of(0.0), 0);
        assert_eq!(LatencyHistogram::bucket_of(-1.0), 0);
        assert_eq!(LatencyHistogram::bucket_of(f64::NAN), 0);
        assert_eq!(LatencyHistogram::bucket_of(BASE_US), 0);
        assert_eq!(LatencyHistogram::bucket_of(f64::MIN_POSITIVE), 0);
        // The far end saturates into the last bucket instead of indexing past it.
        assert_eq!(LatencyHistogram::bucket_of(f64::MAX), BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_of(f64::INFINITY), BUCKETS - 1);
        // In between, indices are monotone in the latency and within the table.
        let mut last = 0usize;
        let mut latency = BASE_US;
        while latency < 1e12 {
            let bucket = LatencyHistogram::bucket_of(latency);
            assert!(bucket >= last, "buckets must be monotone at {latency}");
            assert!(bucket < BUCKETS);
            last = bucket;
            latency *= 1.7;
        }
        // Each bucket's contents sit at or below its reported upper edge.
        for index in [0, 1, 7, 8, 100, 511] {
            let upper = LatencyHistogram::bucket_upper_us(index);
            assert!(
                LatencyHistogram::bucket_of(upper * 0.999) <= index,
                "value below edge {upper} left bucket {index}"
            );
        }
    }

    #[test]
    fn recording_boundary_latencies_stays_in_range() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(BASE_US);
        h.record(f64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min_us(), 0.0);
        assert_eq!(h.max_us(), f64::MAX);
        // Quantiles stay bracketed by the observed extremes, never an out-of-table read.
        assert!(h.quantile_us(0.0) >= 0.0);
        assert!(h.quantile_us(1.0) <= f64::MAX);
    }

    #[test]
    fn degenerate_latencies_clamp() {
        let mut h = LatencyHistogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_us(), 0.0);
    }

    #[test]
    fn telemetry_derived_rates() {
        let mut t = ServeTelemetry {
            queries: 1000,
            batches: 40,
            batch_size_sum: 1000,
            candidates_sum: 5000,
            busy_us: 50_000.0,
            makespan_us: 100_000.0,
            ..ServeTelemetry::default()
        };
        t.total_cost = Cost::new(2_000_000.0, 0.0);
        assert!((t.served_qps() - 10_000.0).abs() < 1e-6);
        assert!((t.service_qps() - 20_000.0).abs() < 1e-6);
        assert!((t.mean_batch_size() - 25.0).abs() < 1e-12);
        assert!((t.mean_candidates() - 5.0).abs() < 1e-12);
        assert!((t.energy_pj_per_query() - 2000.0).abs() < 1e-9);
        let empty = ServeTelemetry::default();
        assert_eq!(empty.served_qps(), 0.0);
        assert_eq!(empty.service_qps(), 0.0);
        assert_eq!(empty.mean_batch_size(), 0.0);
        assert_eq!(empty.energy_pj_per_query(), 0.0);
    }

    #[test]
    fn report_json_is_balanced_and_carries_the_headline_fields() {
        let mut telemetry = ServeTelemetry::default();
        for i in 0..100 {
            telemetry.latency.record(50.0 + i as f64);
        }
        telemetry.queries = 100;
        telemetry.batches = 10;
        telemetry.batch_size_sum = 100;
        telemetry.makespan_us = 10_000.0;
        telemetry.busy_us = 5_000.0;
        let report = ServeReport {
            name: "unit \"test\"".to_string(),
            policy: BatchPolicy::new(16, 200.0).unwrap(),
            shards: 4,
            cache_capacity: 64,
            cache_policy: "clock".to_string(),
            cache_placement: "router".to_string(),
            telemetry,
            cache: CacheStats {
                hits: 70,
                coalesced: 5,
                misses: 25,
                insertions: 25,
                evictions: 3,
                rejections: 0,
            },
            runtime: None,
            cluster: None,
            metrics: None,
        };
        let json = report.to_json();
        for needle in [
            "\"p50\"",
            "\"p95\"",
            "\"p99\"",
            "\"served_qps\"",
            "\"hit_rate\": 0.75",
            "\"max_batch\": 16",
            "\"energy_pj_per_query\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        Json::parse(&json).expect("report JSON parses");
        assert!(json.contains("unit \\\"test\\\""));
        assert!(
            !json.contains("\"runtime\""),
            "no runtime section for the simulated path"
        );
        let text = report.summary();
        assert!(text.contains("hit rate 75.0%"));
    }

    #[test]
    fn histogram_merge_preserves_exact_aggregates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut reference = LatencyHistogram::new();
        for i in 1..=100 {
            a.record(i as f64);
            reference.record(i as f64);
        }
        for i in 500..=900 {
            b.record(i as f64);
            reference.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), reference.count());
        assert_eq!(a.min_us(), reference.min_us());
        assert_eq!(a.max_us(), reference.max_us());
        assert!((a.mean_us() - reference.mean_us()).abs() < 1e-9);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile_us(q), reference.quantile_us(q), "quantile {q}");
        }
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn telemetry_merge_adds_counters_and_takes_the_later_makespan() {
        let mut a = ServeTelemetry {
            queries: 10,
            batches: 2,
            batch_size_sum: 10,
            candidates_sum: 30,
            busy_us: 100.0,
            makespan_us: 1000.0,
            ..ServeTelemetry::default()
        };
        a.total_cost = Cost::new(50.0, 5.0);
        let mut b = ServeTelemetry {
            queries: 5,
            batches: 1,
            batch_size_sum: 5,
            candidates_sum: 10,
            busy_us: 40.0,
            makespan_us: 2500.0,
            ..ServeTelemetry::default()
        };
        b.total_cost = Cost::new(30.0, 3.0);
        a.merge(&b);
        assert_eq!(a.queries, 15);
        assert_eq!(a.batches, 3);
        assert_eq!(a.batch_size_sum, 15);
        assert_eq!(a.candidates_sum, 40);
        assert!((a.busy_us - 140.0).abs() < 1e-12);
        assert_eq!(a.makespan_us, 2500.0);
        assert!((a.total_cost.energy_pj - 80.0).abs() < 1e-12);
    }

    #[test]
    fn runtime_stats_derived_rates() {
        let stats = RuntimeStats {
            workers: 2,
            queue_capacity: 16,
            submitted: 90,
            rejected: 10,
            batcher_stall_us: 250.0,
            queue_depth_max: 12,
            queue_depth_sum: 270,
            queue_depth_samples: 90,
            worker_busy_us: vec![600.0, 400.0],
            wall_us: 1000.0,
        };
        assert!((stats.mean_queue_depth() - 3.0).abs() < 1e-12);
        assert!((stats.rejection_rate() - 0.1).abs() < 1e-12);
        assert!((stats.utilization() - 0.5).abs() < 1e-12);
        let empty = RuntimeStats::default();
        assert_eq!(empty.mean_queue_depth(), 0.0);
        assert_eq!(empty.rejection_rate(), 0.0);
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn report_with_runtime_stats_renders_the_measured_section() {
        let report = ServeReport {
            name: "threaded".to_string(),
            policy: BatchPolicy::new(8, 100.0).unwrap(),
            shards: 2,
            cache_capacity: 32,
            cache_policy: "clock".to_string(),
            cache_placement: "router".to_string(),
            telemetry: ServeTelemetry::default(),
            cache: CacheStats::default(),
            runtime: Some(RuntimeStats {
                workers: 3,
                queue_capacity: 64,
                submitted: 100,
                rejected: 7,
                batcher_stall_us: 55.0,
                queue_depth_max: 9,
                queue_depth_sum: 200,
                queue_depth_samples: 100,
                worker_busy_us: vec![10.0, 20.0, 30.0],
                wall_us: 5000.0,
            }),
            cluster: None,
            metrics: None,
        };
        let json = report.to_json();
        for needle in [
            "\"runtime\"",
            "\"workers\": 3",
            "\"rejected\": 7",
            "\"batcher_stall_us\": 55.000",
            "\"queue_depth\"",
            "\"utilization\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        Json::parse(&json).expect("report JSON parses");
        let text = report.summary();
        assert!(text.contains("3 workers"));
        assert!(text.contains("7 rejected"));
        assert!(
            !json.contains("\"cluster\""),
            "no cluster section for single-node serving"
        );
    }

    #[test]
    fn cluster_stats_derived_rates() {
        let stats = ClusterStats {
            shards: 4,
            workers_per_shard: 2,
            placement: "freq".to_string(),
            hot_replicas: 16,
            queue_capacity: 64,
            fetches: 10,
            subrequests: 25,
            cross_shard_hops: 15,
            cross_shard_bytes: 3000,
            local_bytes: 7000,
            shard_lookups: vec![600, 200, 100, 100],
            shard_rejections: vec![0, 2, 0, 1],
            shard_queue_depth_max: vec![5, 1, 1, 2],
            ..ClusterStats::default()
        };
        assert!((stats.mean_fanout() - 2.5).abs() < 1e-12);
        // max 600 over mean 250 = 2.4x imbalance.
        assert!((stats.imbalance() - 2.4).abs() < 1e-12);
        assert!((stats.cross_traffic_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(stats.total_rejections(), 3);
        assert!(!stats.any_faults_handled());
        let empty = ClusterStats::default();
        assert_eq!(empty.mean_fanout(), 0.0);
        assert_eq!(empty.imbalance(), 0.0);
        assert_eq!(empty.cross_traffic_fraction(), 0.0);
    }

    #[test]
    fn report_with_cluster_stats_renders_the_sharded_section() {
        let report = ServeReport {
            name: "sharded".to_string(),
            policy: BatchPolicy::new(8, 100.0).unwrap(),
            shards: 4,
            cache_capacity: 32,
            cache_policy: "clock".to_string(),
            cache_placement: "router".to_string(),
            telemetry: ServeTelemetry::default(),
            cache: CacheStats::default(),
            runtime: None,
            cluster: Some(ClusterStats {
                shards: 4,
                workers_per_shard: 1,
                placement: "range".to_string(),
                hot_replicas: 0,
                queue_capacity: 64,
                fetches: 100,
                subrequests: 320,
                cross_shard_hops: 220,
                cross_shard_bytes: 123_456,
                local_bytes: 500_000,
                shard_lookups: vec![10, 20, 30, 40],
                shard_rejections: vec![0, 0, 1, 0],
                shard_queue_depth_max: vec![3, 2, 2, 1],
                ..ClusterStats::default()
            }),
            metrics: None,
        };
        let json = report.to_json();
        for needle in [
            "\"cluster\"",
            "\"placement\": \"range\"",
            "\"cross_shard_bytes\": 123456",
            "\"cross_shard_hops\": 220",
            "\"mean_fanout\": 3.200",
            "\"shard_lookups\": [10, 20, 30, 40]",
            "\"shard_rejections\": [0, 0, 1, 0]",
            "\"imbalance\"",
            "\"fault_tolerance\"",
            "\"degraded\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        Json::parse(&json).expect("report JSON parses");
        let text = report.summary();
        assert!(text.contains("4 shard nodes"));
        assert!(text.contains("cross-shard hops"));
        assert!(text.contains("range placement"));
        assert!(
            !text.contains("fault tolerance:"),
            "a fault-free run prints no fault-tolerance line"
        );
    }

    #[test]
    fn degraded_runs_render_their_accounting() {
        let telemetry = ServeTelemetry {
            queries: 50,
            degraded_queries: 7,
            missing_row_lookups: 12,
            ..Default::default()
        };
        let report = ServeReport {
            name: "chaos".to_string(),
            policy: BatchPolicy::new(8, 100.0).unwrap(),
            shards: 4,
            cache_capacity: 0,
            cache_policy: "clock".to_string(),
            cache_placement: "router".to_string(),
            telemetry,
            cache: CacheStats::default(),
            runtime: None,
            cluster: Some(ClusterStats {
                shards: 4,
                placement: "freq".to_string(),
                timeouts: 3,
                retries: 4,
                hedges: 2,
                hedge_wins: 1,
                promotions: 2,
                missing_rows: 12,
                ..ClusterStats::default()
            }),
            metrics: None,
        };
        let json = report.to_json();
        for needle in [
            "\"degraded\": {\"queries\": 7, \"missing_row_lookups\": 12}",
            "\"fault_tolerance\": {\"timeouts\": 3, \"retries\": 4, \"hedges\": 2, \"hedge_wins\": 1, \"promotions\": 2, \"missing_rows\": 12}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        Json::parse(&json).expect("report JSON parses");
        let text = report.summary();
        assert!(
            text.contains("fault tolerance: 3 timeouts, 4 retries, 2 hedges (1 won), 2 promotions")
        );
        assert!(text.contains("degraded: 7 queries served with 12 missing-row lookups zero-filled"));
    }

    #[test]
    fn escape_handles_control_characters() {
        // A report named with embedded newlines still emits valid JSON: no raw control
        // characters inside the produced string literal.
        let report = ServeReport {
            name: "bad\nname\twith\u{0001}controls".to_string(),
            policy: BatchPolicy::new(8, 100.0).unwrap(),
            shards: 1,
            cache_capacity: 0,
            cache_policy: "clock".to_string(),
            cache_placement: "router".to_string(),
            telemetry: ServeTelemetry::default(),
            cache: CacheStats::default(),
            runtime: None,
            cluster: None,
            metrics: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"bad\\nname\\twith\\u0001controls\","));
        let parsed = Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            parsed.get("suite").and_then(Json::as_str),
            Some(report.name.as_str())
        );
    }

    #[test]
    fn latency_json_exports_the_full_bucket_distribution() {
        let mut telemetry = ServeTelemetry::default();
        telemetry.latency.record(1.0);
        telemetry.latency.record(1.0);
        telemetry.latency.record(1000.0);
        telemetry.queries = 3;
        let buckets = telemetry.latency.nonzero_buckets();
        assert_eq!(buckets.len(), 2, "two distinct log buckets: {buckets:?}");
        assert_eq!(buckets[0].1, 2);
        assert_eq!(buckets[1].1, 1);
        assert_eq!(
            buckets.iter().map(|&(_, count)| count).sum::<u64>(),
            telemetry.latency.count(),
            "bucket counts sum to the observation count"
        );
        // Upper edges bracket the recorded values within one bucket width.
        assert!(buckets[0].0 >= 1.0 && buckets[0].0 < 1.2, "{buckets:?}");
        assert!(
            buckets[1].0 >= 1000.0 && buckets[1].0 < 1200.0,
            "{buckets:?}"
        );
        let report = ServeReport {
            name: "buckets".to_string(),
            policy: BatchPolicy::new(8, 100.0).unwrap(),
            shards: 1,
            cache_capacity: 0,
            cache_policy: "clock".to_string(),
            cache_placement: "router".to_string(),
            telemetry,
            cache: CacheStats::default(),
            runtime: None,
            cluster: None,
            metrics: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"buckets\": [["), "bucket pairs in {json}");
        Json::parse(&json).expect("report JSON parses");
    }

    #[test]
    fn stage_breakdown_renders_tail_attribution_in_summary_and_json() {
        use crate::trace::{QueryTrace, Span, Stage};
        let mut stages = StageBreakdown::default();
        for id in 0..10u64 {
            // 100us end-to-end, 72us of it in the fetch stage.
            let spans = vec![
                Span {
                    stage: Stage::BatchForm,
                    begin_us: 0.0,
                    end_us: 5.0,
                },
                Span {
                    stage: Stage::QueueWait,
                    begin_us: 5.0,
                    end_us: 10.0,
                },
                Span {
                    stage: Stage::CacheLookup,
                    begin_us: 10.0,
                    end_us: 14.0,
                },
                Span {
                    stage: Stage::ClusterFetch,
                    begin_us: 14.0,
                    end_us: 86.0,
                },
                Span {
                    stage: Stage::NnsFilter,
                    begin_us: 86.0,
                    end_us: 92.0,
                },
                Span {
                    stage: Stage::MlpRank,
                    begin_us: 92.0,
                    end_us: 100.0,
                },
            ];
            stages.record(&QueryTrace {
                id,
                start_us: 0.0,
                end_us: 100.0,
                spans,
                cache_hits: 0,
                cache_misses: 0,
                cache_coalesced: 0,
                fetch: Vec::new(),
                events: Vec::new(),
            });
        }
        assert_eq!(stages.sampled, 10);
        for (name, histogram) in stages.stages() {
            assert_eq!(histogram.count(), 10, "stage {name} counts every sample");
        }
        assert_eq!(stages.total.count(), 10);
        let (stage, share) = stages.tail_attribution().expect("nonzero tail");
        assert_eq!(stage, "cluster_fetch");
        assert!((0.6..=0.85).contains(&share), "share {share}");
        // Merging two halves reproduces the whole.
        let mut half = StageBreakdown::default();
        half.merge(&stages);
        half.merge(&stages);
        assert_eq!(half.sampled, 20);
        assert_eq!(half.cluster_fetch.count(), 20);
        let telemetry = ServeTelemetry {
            queries: 160,
            stages,
            ..ServeTelemetry::default()
        };
        let report = ServeReport {
            name: "staged".to_string(),
            policy: BatchPolicy::new(8, 100.0).unwrap(),
            shards: 1,
            cache_capacity: 0,
            cache_policy: "clock".to_string(),
            cache_placement: "router".to_string(),
            telemetry,
            cache: CacheStats::default(),
            runtime: None,
            cluster: None,
            metrics: None,
        };
        let json = report.to_json();
        for needle in [
            "\"stage_breakdown\"",
            "\"sampled\": 10",
            "\"tail_attribution\"",
            "\"stage\": \"cluster_fetch\"",
            "\"cluster_fetch\": {\"count\": 10",
            "\"total\": {\"count\": 10",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        Json::parse(&json).expect("report JSON parses");
        let text = report.summary();
        assert!(text.contains("stage breakdown (10 queries sampled"));
        assert!(text.contains("% cluster_fetch"), "{text}");
        // Untraced runs keep the section out entirely.
        let silent = ServeReport {
            name: "silent".to_string(),
            policy: BatchPolicy::new(8, 100.0).unwrap(),
            shards: 1,
            cache_capacity: 0,
            cache_policy: "clock".to_string(),
            cache_placement: "router".to_string(),
            telemetry: ServeTelemetry::default(),
            cache: CacheStats::default(),
            runtime: None,
            cluster: None,
            metrics: None,
        };
        assert!(!silent.to_json().contains("stage_breakdown"));
        assert!(!silent.summary().contains("stage breakdown"));
    }
}

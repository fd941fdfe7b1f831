//! The live metrics plane: a lock-cheap time-series registry over the replay,
//! scraped on a fixed clock interval, plus a Prometheus-style text exposition
//! with histogram exemplars.
//!
//! End-of-run totals (everything in [`crate::telemetry`]) cannot distinguish a
//! replay that degraded halfway through from one that was slow throughout. The
//! metrics plane fixes that: a [`MetricsScraper`] samples the serving counters
//! into fixed windows of the injected [`crate::clock::Clock`]'s timeline —
//! *event time*, not scrape-thread wall time — so the resulting series is a
//! pure function of the replayed trace. Every worker clone owns its own
//! scraper (no locks, no shared atomics on the hot path) and the per-worker
//! windows merge commutatively at shutdown, which is what makes the series
//! byte-identical across worker counts on a [`crate::clock::ManualClock`].
//!
//! A window's instruments are plain per-worker-owned values — `u64` counts
//! and a [`LatencyHistogram`], merged at shutdown, so no atomics are needed
//! (the whole "lock-cheap" trick) and offline tooling sees one bucket layout
//! everywhere. [`exposition`] renders a report as Prometheus text format
//! (OpenMetrics-style exemplars included): each stage-histogram bucket carries
//! the trace id of its worst retained sample, linking "p99 is NN%
//! cluster_fetch" directly to a replayable span tree in the slow-query log.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::telemetry::{LatencyHistogram, ServeReport};
use crate::trace::{Stage, TraceLog};

/// Configuration of the metrics plane: the scrape interval on the engine's
/// injected clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsConfig {
    /// Window width in microseconds of the injected clock's timeline. Events
    /// land in window `floor(timestamp / interval_us)`. Non-positive or
    /// non-finite intervals are treated as one second.
    pub interval_us: f64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self {
            interval_us: 10_000.0,
        }
    }
}

impl MetricsConfig {
    /// The interval, sanitized: non-finite or non-positive widths fall back to
    /// one second so window math can never divide by zero.
    pub fn sane_interval_us(&self) -> f64 {
        if self.interval_us.is_finite() && self.interval_us > 0.0 {
            self.interval_us
        } else {
            1e6
        }
    }
}

/// Per-shard fault-counter deltas drained from the router once per batch and
/// attributed to the batch's completion window. These are buffered privately
/// per router clone (never read back from the shared cluster atomics, which
/// other workers mutate concurrently), so the per-window attribution is
/// deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardFaultDelta {
    /// Sub-request attempts that blew their deadline.
    pub timeouts: u64,
    /// Re-dispatches of timed-out or failed sub-requests.
    pub retries: u64,
    /// Sub-requests served by a replica-holding shard other than their owner.
    pub promotions: u64,
}

impl ShardFaultDelta {
    /// Whether anything happened in this delta.
    pub fn is_zero(&self) -> bool {
        self.timeouts == 0 && self.retries == 0 && self.promotions == 0
    }
}

/// The registry slice owned by one scrape window: every instrument the plane
/// tracks, over the events whose timestamps landed in the window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowMetrics {
    /// Queries that arrived (were accepted into the system) in this window.
    pub arrivals: u64,
    /// Queries whose batch completed in this window.
    pub completions: u64,
    /// Batches that completed in this window.
    pub batches: u64,
    /// End-to-end latency of the queries completed in this window.
    pub latency: LatencyHistogram,
    /// Router-cache hits charged to batches completed in this window.
    pub cache_hits: u64,
    /// Router-cache misses charged to batches completed in this window.
    pub cache_misses: u64,
    /// Per-shard fault counters (timeouts / retries / promotions) attributed
    /// to batches completed in this window.
    pub shard_faults: Vec<ShardFaultDelta>,
}

impl WindowMetrics {
    fn with_shards(shards: usize) -> Self {
        Self {
            shard_faults: vec![ShardFaultDelta::default(); shards],
            ..Self::default()
        }
    }

    fn merge(&mut self, other: &WindowMetrics) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.batches += other.batches;
        self.latency.merge(&other.latency);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        if self.shard_faults.len() < other.shard_faults.len() {
            self.shard_faults
                .resize(other.shard_faults.len(), ShardFaultDelta::default());
        }
        for (acc, delta) in self.shard_faults.iter_mut().zip(&other.shard_faults) {
            acc.timeouts += delta.timeouts;
            acc.retries += delta.retries;
            acc.promotions += delta.promotions;
        }
    }
}

/// The deterministic periodic scraper: samples the serving counters into
/// fixed-width windows of the injected clock's timeline.
///
/// "Periodic" here is event-time periodicity: an event stamped `t` lands in
/// window `floor(t / interval_us)`, so the scrape grid is pinned to the
/// clock's timeline rather than to whichever thread happened to observe the
/// event. Each engine clone owns one scraper; [`MetricsScraper::merge`] folds
/// per-worker windows together commutatively, which keeps the final series
/// byte-identical across worker counts on a frozen [`crate::clock::ManualClock`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsScraper {
    interval_us: f64,
    shards: usize,
    windows: BTreeMap<i64, WindowMetrics>,
}

impl MetricsScraper {
    /// A scraper with the given window width over `shards` shard nodes.
    pub fn new(config: &MetricsConfig, shards: usize) -> Self {
        Self {
            interval_us: config.sane_interval_us(),
            shards,
            windows: BTreeMap::new(),
        }
    }

    /// The sanitized window width in microseconds.
    pub fn interval_us(&self) -> f64 {
        self.interval_us
    }

    fn index_of(&self, at_us: f64) -> i64 {
        if !at_us.is_finite() {
            return 0;
        }
        let index = (at_us / self.interval_us).floor();
        // Clamp absurd timestamps instead of invoking float-to-int UB-adjacent
        // saturation semantics implicitly.
        index.clamp(i64::MIN as f64, i64::MAX as f64) as i64
    }

    fn window_mut(&mut self, at_us: f64) -> &mut WindowMetrics {
        let index = self.index_of(at_us);
        let shards = self.shards;
        self.windows
            .entry(index)
            .or_insert_with(|| WindowMetrics::with_shards(shards))
    }

    /// Record one query accepted into the system at `at_us` (its submit /
    /// arrival stamp on the injected clock).
    pub fn record_arrival(&mut self, at_us: f64) {
        self.window_mut(at_us).arrivals += 1;
    }

    /// Record one completed batch: per-query end-to-end latencies, the router
    /// cache's hit/miss delta, and the per-shard fault deltas drained from the
    /// router, all attributed to the batch's completion stamp.
    pub fn record_batch(
        &mut self,
        completed_us: f64,
        latencies_us: &[f64],
        cache_hits: u64,
        cache_misses: u64,
        faults: &[ShardFaultDelta],
    ) {
        let window = self.window_mut(completed_us);
        window.batches += 1;
        window.completions += latencies_us.len() as u64;
        for &latency in latencies_us {
            window.latency.record(latency);
        }
        window.cache_hits += cache_hits;
        window.cache_misses += cache_misses;
        if window.shard_faults.len() < faults.len() {
            window
                .shard_faults
                .resize(faults.len(), ShardFaultDelta::default());
        }
        for (acc, delta) in window.shard_faults.iter_mut().zip(faults) {
            acc.timeouts += delta.timeouts;
            acc.retries += delta.retries;
            acc.promotions += delta.promotions;
        }
    }

    /// Fold another scraper's windows into this one (window-index-wise). The
    /// threaded runtime merges one scraper per worker; merging commutes, so
    /// the worker count cannot perturb the series.
    pub fn merge(&mut self, other: &MetricsScraper) {
        self.shards = self.shards.max(other.shards);
        for (&index, window) in &other.windows {
            let shards = self.shards;
            self.windows
                .entry(index)
                .or_insert_with(|| WindowMetrics::with_shards(shards))
                .merge(window);
        }
    }

    /// Finalize the scraped windows into the report's time series: per-window
    /// rates and quantiles, and the end-of-window queue depth (cumulative
    /// arrivals minus cumulative completions — computable only after all
    /// per-worker scrapers merged).
    pub fn series(&self) -> MetricsSeries {
        let mut windows = Vec::with_capacity(self.windows.len());
        let mut in_flight: i64 = 0;
        for (&index, window) in &self.windows {
            in_flight += window.arrivals as i64;
            in_flight -= window.completions as i64;
            let mut shard_timeouts = Vec::with_capacity(self.shards);
            let mut shard_retries = Vec::with_capacity(self.shards);
            let mut shard_promotions = Vec::with_capacity(self.shards);
            for shard in 0..self.shards.max(window.shard_faults.len()) {
                let delta = window.shard_faults.get(shard).copied().unwrap_or_default();
                shard_timeouts.push(delta.timeouts);
                shard_retries.push(delta.retries);
                shard_promotions.push(delta.promotions);
            }
            windows.push(WindowSample {
                index,
                start_us: index as f64 * self.interval_us,
                arrivals: window.arrivals,
                completions: window.completions,
                batches: window.batches,
                qps: rate_per_second(window.completions, self.interval_us),
                p50_us: window.latency.quantile_us(0.50),
                p99_us: window.latency.quantile_us(0.99),
                cache_hits: window.cache_hits,
                cache_misses: window.cache_misses,
                queue_depth: in_flight.max(0) as u64,
                shard_timeouts,
                shard_retries,
                shard_promotions,
            });
        }
        MetricsSeries {
            interval_us: self.interval_us,
            shards: self.shards,
            windows,
        }
    }
}

/// Events per second over a window, NaN-proof: a zero, negative, NaN or
/// infinite window width yields 0 instead of leaking NaN/inf into JSON.
pub fn rate_per_second(events: u64, window_us: f64) -> f64 {
    // Finite check first: NaN fails `is_finite`, so the division arm only
    // ever sees a finite positive width.
    if !window_us.is_finite() || window_us <= 0.0 {
        0.0
    } else {
        events as f64 / window_us * 1e6
    }
}

/// One finalized scrape window in the report's time series.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Window index on the clock's timeline (`floor(t / interval_us)`).
    pub index: i64,
    /// Start of the window in microseconds (`index * interval_us`).
    pub start_us: f64,
    /// Queries accepted in the window.
    pub arrivals: u64,
    /// Queries completed in the window.
    pub completions: u64,
    /// Batches completed in the window.
    pub batches: u64,
    /// Completion throughput over the window width.
    pub qps: f64,
    /// Median end-to-end latency of the window's completions.
    pub p50_us: f64,
    /// Tail end-to-end latency of the window's completions.
    pub p99_us: f64,
    /// Router-cache hits charged to the window.
    pub cache_hits: u64,
    /// Router-cache misses charged to the window.
    pub cache_misses: u64,
    /// In-flight queries at the end of the window (cumulative arrivals minus
    /// cumulative completions, floored at zero).
    pub queue_depth: u64,
    /// Deadline timeouts per shard in the window.
    pub shard_timeouts: Vec<u64>,
    /// Retries per shard in the window.
    pub shard_retries: Vec<u64>,
    /// Promotions per shard in the window.
    pub shard_promotions: Vec<u64>,
}

impl WindowSample {
    /// Cache hit rate over the window's lookups (0 when the window saw none).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// The finalized time series carried by [`ServeReport`]: one sample per
/// non-empty scrape window, in window order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSeries {
    /// Window width in microseconds.
    pub interval_us: f64,
    /// Shard nodes covered by the per-shard columns.
    pub shards: usize,
    /// The non-empty windows, ascending by index.
    pub windows: Vec<WindowSample>,
}

impl MetricsSeries {
    /// Peak completion throughput across windows, with the window index it
    /// occurred in.
    pub fn peak_qps(&self) -> Option<(i64, f64)> {
        self.windows
            .iter()
            .map(|w| (w.index, w.qps))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Total fault events (timeouts + retries + promotions) per window —
    /// the chaos-spike signal.
    pub fn fault_events(&self) -> Vec<(i64, u64)> {
        self.windows
            .iter()
            .map(|w| {
                let faults: u64 = w.shard_timeouts.iter().sum::<u64>()
                    + w.shard_retries.iter().sum::<u64>()
                    + w.shard_promotions.iter().sum::<u64>();
                (w.index, faults)
            })
            .collect()
    }

    /// Hand-rolled JSON rendering of the series, each line prefixed by
    /// `indent` spaces (the report embeds it at its own depth).
    pub(crate) fn json_with_indent(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "{pad}  \"interval_us\": {:.3},", self.interval_us);
        let _ = writeln!(json, "{pad}  \"shards\": {},", self.shards);
        let _ = writeln!(json, "{pad}  \"windows\": [");
        let list = |values: &[u64]| -> String {
            let items: Vec<String> = values.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(", "))
        };
        for (i, w) in self.windows.iter().enumerate() {
            let _ = write!(
                json,
                "{pad}    {{\"index\": {}, \"start_us\": {:.3}, \"arrivals\": {}, \"completions\": {}, \"batches\": {}, \"qps\": {:.3}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.6}, \"queue_depth\": {}, \"shard_timeouts\": {}, \"shard_retries\": {}, \"shard_promotions\": {}}}",
                w.index,
                w.start_us,
                w.arrivals,
                w.completions,
                w.batches,
                w.qps,
                w.p50_us,
                w.p99_us,
                w.cache_hits,
                w.cache_misses,
                w.cache_hit_rate(),
                w.queue_depth,
                list(&w.shard_timeouts),
                list(&w.shard_retries),
                list(&w.shard_promotions),
            );
            let _ = writeln!(
                json,
                "{}",
                if i + 1 < self.windows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "{pad}  ]");
        let _ = write!(json, "{pad}}}");
        json
    }

    /// The series as a standalone JSON object.
    pub fn to_json(&self) -> String {
        let mut json = self.json_with_indent(0);
        json.push('\n');
        json
    }
}

/// Exemplars harvested from the retained trace log: for every stage (plus the
/// end-to-end total), the worst retained sample per histogram bucket, keyed by
/// bucket index. Because they are computed *from* the retained log, every
/// exemplar's trace id resolves to a replayable span tree by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageExemplars {
    per_stage: [BTreeMap<usize, (u64, f64)>; 6],
    total: BTreeMap<usize, (u64, f64)>,
}

impl StageExemplars {
    /// Harvest exemplars from a trace log (head-retained traces plus the
    /// slow-query log). Ties on duration break toward the lower trace id so
    /// the harvest is deterministic.
    pub fn harvest(log: &TraceLog) -> Self {
        let mut exemplars = Self::default();
        let mut visit = |trace: &crate::trace::QueryTrace| {
            for (i, &stage) in Stage::ALL.iter().enumerate() {
                if let Some(span) = trace.span(stage) {
                    record_exemplar(&mut exemplars.per_stage[i], span.duration_us(), trace.id);
                }
            }
            record_exemplar(&mut exemplars.total, trace.latency_us(), trace.id);
        };
        for trace in log.traces() {
            visit(trace);
        }
        for trace in log.slow_queries() {
            visit(trace);
        }
        exemplars
    }

    /// The exemplar for a stage's histogram bucket: `(trace_id, value_us)` of
    /// the worst retained sample that landed in the bucket.
    pub fn lookup(&self, stage: Stage, bucket: usize) -> Option<(u64, f64)> {
        let index = Stage::ALL.iter().position(|&s| s == stage)?;
        self.per_stage[index].get(&bucket).copied()
    }

    /// The exemplar for the end-to-end total histogram's bucket.
    pub fn lookup_total(&self, bucket: usize) -> Option<(u64, f64)> {
        self.total.get(&bucket).copied()
    }

    /// The worst retained sample of a stage across all buckets — the trace to
    /// open when [`crate::telemetry::StageBreakdown::tail_attribution`] points
    /// at this stage.
    pub fn worst(&self, stage: Stage) -> Option<(u64, f64)> {
        let index = Stage::ALL.iter().position(|&s| s == stage)?;
        self.per_stage[index]
            .values()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Whether nothing was harvested (empty or untraced log).
    pub fn is_empty(&self) -> bool {
        self.total.is_empty()
    }
}

fn record_exemplar(map: &mut BTreeMap<usize, (u64, f64)>, value_us: f64, id: u64) {
    let bucket = LatencyHistogram::bucket_of(value_us);
    match map.get_mut(&bucket) {
        Some((best_id, best)) => {
            if value_us > *best || (value_us == *best && id < *best_id) {
                *best_id = id;
                *best = value_us;
            }
        }
        None => {
            map.insert(bucket, (id, value_us));
        }
    }
}

fn format_float(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "0.000000".to_string()
    }
}

fn write_histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    histogram: &LatencyHistogram,
    exemplar: impl Fn(usize) -> Option<(u64, f64)>,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (bucket, upper_us, count) in histogram.indexed_buckets() {
        cumulative += count;
        let _ = write!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
            format_float(upper_us)
        );
        if let Some((id, value)) = exemplar(bucket) {
            let _ = write!(out, " # {{trace_id=\"{id}\"}} {}", format_float(value));
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        histogram.count()
    );
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(
        out,
        "{name}_sum{braces} {}",
        format_float(histogram.mean_us() * histogram.count() as f64)
    );
    let _ = writeln!(out, "{name}_count{braces} {}", histogram.count());
}

/// Render a report as Prometheus text exposition (OpenMetrics-style exemplars
/// on the stage histograms when a retained trace log is supplied). The output
/// is deterministic: fixed float formatting, fixed metric order, and counters
/// that are pure functions of the replayed trace — byte-identical across
/// worker counts on a [`crate::clock::ManualClock`].
pub fn exposition(report: &ServeReport, log: Option<&TraceLog>) -> String {
    let t = &report.telemetry;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP imars_queries_total Queries served over the run."
    );
    let _ = writeln!(out, "# TYPE imars_queries_total counter");
    let _ = writeln!(out, "imars_queries_total {}", t.queries);
    let _ = writeln!(out, "# TYPE imars_batches_total counter");
    let _ = writeln!(out, "imars_batches_total {}", t.batches);
    let _ = writeln!(out, "# TYPE imars_degraded_queries_total counter");
    let _ = writeln!(out, "imars_degraded_queries_total {}", t.degraded_queries);
    let _ = writeln!(out, "# TYPE imars_missing_row_lookups_total counter");
    let _ = writeln!(
        out,
        "imars_missing_row_lookups_total {}",
        t.missing_row_lookups
    );
    let _ = writeln!(out, "# TYPE imars_served_qps gauge");
    let _ = writeln!(out, "imars_served_qps {}", format_float(t.served_qps()));
    // No `modeled_qps` gauge: the cost-model total accumulates per worker, so its
    // value depends on batch-to-worker assignment. It stays in the report JSON;
    // exposition carries only figures that are pure functions of the workload.
    let _ = writeln!(out, "# TYPE imars_cache_hits_total counter");
    let _ = writeln!(out, "imars_cache_hits_total {}", report.cache.hits);
    let _ = writeln!(out, "# TYPE imars_cache_misses_total counter");
    let _ = writeln!(out, "imars_cache_misses_total {}", report.cache.misses);
    let _ = writeln!(out, "# TYPE imars_cache_hit_rate gauge");
    let _ = writeln!(
        out,
        "imars_cache_hit_rate {}",
        format_float(report.cache.hit_rate())
    );
    let _ = writeln!(
        out,
        "# HELP imars_latency_us End-to-end query latency (microseconds)."
    );
    let _ = writeln!(out, "# TYPE imars_latency_us histogram");
    write_histogram(&mut out, "imars_latency_us", "", &t.latency, |_| None);
    if let Some(runtime) = &report.runtime {
        // Deliberately no `workers` or `queue_depth_max` gauges: the first echoes
        // configuration and the second is a scheduler-sampled maximum (the consumer
        // races the producer), so neither is a pure function of the workload.
        // Exposition stays byte-identical across worker counts on a deterministic
        // clock; both figures remain in the report JSON runtime section.
        let _ = writeln!(out, "# TYPE imars_runtime_rejected_total counter");
        let _ = writeln!(out, "imars_runtime_rejected_total {}", runtime.rejected);
        let _ = writeln!(out, "# TYPE imars_runtime_utilization gauge");
        let _ = writeln!(
            out,
            "imars_runtime_utilization {}",
            format_float(runtime.utilization())
        );
    }
    if let Some(cluster) = &report.cluster {
        let _ = writeln!(out, "# TYPE imars_shard_lookups_total counter");
        for (shard, lookups) in cluster.shard_lookups.iter().enumerate() {
            let _ = writeln!(
                out,
                "imars_shard_lookups_total{{shard=\"{shard}\"}} {lookups}"
            );
        }
        let _ = writeln!(out, "# TYPE imars_fault_timeouts_total counter");
        let _ = writeln!(out, "imars_fault_timeouts_total {}", cluster.timeouts);
        let _ = writeln!(out, "# TYPE imars_fault_retries_total counter");
        let _ = writeln!(out, "imars_fault_retries_total {}", cluster.retries);
        let _ = writeln!(out, "# TYPE imars_fault_hedges_total counter");
        let _ = writeln!(out, "imars_fault_hedges_total {}", cluster.hedges);
        let _ = writeln!(out, "# TYPE imars_fault_promotions_total counter");
        let _ = writeln!(out, "imars_fault_promotions_total {}", cluster.promotions);
        let _ = writeln!(out, "# TYPE imars_fault_missing_rows_total counter");
        let _ = writeln!(
            out,
            "imars_fault_missing_rows_total {}",
            cluster.missing_rows
        );
    }
    if t.stages.sampled > 0 {
        let exemplars = log.map(StageExemplars::harvest).unwrap_or_default();
        let _ = writeln!(
            out,
            "# HELP imars_stage_latency_us Per-stage latency over traced queries (microseconds)."
        );
        let _ = writeln!(out, "# TYPE imars_stage_latency_us histogram");
        for (i, (name, histogram)) in t.stages.stages().iter().enumerate() {
            let labels = format!("stage=\"{name}\"");
            write_histogram(
                &mut out,
                "imars_stage_latency_us",
                &labels,
                histogram,
                |bucket| exemplars.lookup(Stage::ALL[i], bucket),
            );
        }
        write_histogram(
            &mut out,
            "imars_stage_latency_us",
            "stage=\"total\"",
            &t.stages.total,
            |bucket| exemplars.lookup_total(bucket),
        );
        if let Some((stage, share)) = t.stages.tail_attribution() {
            let _ = writeln!(out, "# TYPE imars_tail_attribution_share gauge");
            let _ = writeln!(
                out,
                "imars_tail_attribution_share{{stage=\"{stage}\"}} {}",
                format_float(share)
            );
        }
    }
    if let Some(series) = &report.metrics {
        let _ = writeln!(out, "# TYPE imars_window_qps gauge");
        for w in &series.windows {
            let _ = writeln!(
                out,
                "imars_window_qps{{window=\"{}\"}} {}",
                w.index,
                format_float(w.qps)
            );
        }
        let _ = writeln!(out, "# TYPE imars_window_p99_us gauge");
        for w in &series.windows {
            let _ = writeln!(
                out,
                "imars_window_p99_us{{window=\"{}\"}} {}",
                w.index,
                format_float(w.p99_us)
            );
        }
        let _ = writeln!(out, "# TYPE imars_window_cache_hit_rate gauge");
        for w in &series.windows {
            let _ = writeln!(
                out,
                "imars_window_cache_hit_rate{{window=\"{}\"}} {}",
                w.index,
                format_float(w.cache_hit_rate())
            );
        }
        let _ = writeln!(out, "# TYPE imars_window_queue_depth gauge");
        for w in &series.windows {
            let _ = writeln!(
                out,
                "imars_window_queue_depth{{window=\"{}\"}} {}",
                w.index, w.queue_depth
            );
        }
    }
    let _ = writeln!(out, "# EOF");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scraping_buckets_events_by_event_time_and_merges_commutatively() {
        let config = MetricsConfig {
            interval_us: 1000.0,
        };
        let mut a = MetricsScraper::new(&config, 2);
        a.record_arrival(10.0);
        a.record_arrival(1500.0);
        a.record_batch(1700.0, &[50.0, 60.0], 1, 1, &[]);
        let mut b = MetricsScraper::new(&config, 2);
        b.record_arrival(20.0);
        b.record_batch(
            500.0,
            &[5.0],
            0,
            1,
            &[
                ShardFaultDelta {
                    timeouts: 1,
                    retries: 1,
                    promotions: 0,
                },
                ShardFaultDelta::default(),
            ],
        );
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.series(), ba.series(), "merge must commute");
        let series = ab.series();
        assert_eq!(series.windows.len(), 2);
        let w0 = &series.windows[0];
        assert_eq!(w0.index, 0);
        assert_eq!(
            w0.arrivals, 2,
            "arrivals at 10us and 20us; 1500us is window 1"
        );
        assert_eq!(w0.completions, 1);
        assert_eq!(w0.queue_depth, 1, "one query still in flight after w0");
        assert_eq!(w0.shard_timeouts, vec![1, 0]);
        assert_eq!(w0.shard_retries, vec![1, 0]);
        let w1 = &series.windows[1];
        assert_eq!(w1.index, 1);
        assert_eq!(w1.completions, 2);
        assert_eq!(w1.queue_depth, 0);
        assert!((w1.qps - 2000.0).abs() < 1e-9, "2 completions / 1ms");
        assert!((w0.cache_hit_rate() - 0.0).abs() < 1e-12);
        assert!((w1.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_rate_math_survives_degenerate_intervals() {
        assert_eq!(rate_per_second(10, 0.0), 0.0);
        assert_eq!(rate_per_second(10, -1.0), 0.0);
        assert_eq!(rate_per_second(10, f64::NAN), 0.0);
        assert_eq!(rate_per_second(10, f64::INFINITY), 0.0);
        assert!((rate_per_second(10, 1e6) - 10.0).abs() < 1e-12);
        let degenerate = MetricsConfig { interval_us: 0.0 };
        assert_eq!(degenerate.sane_interval_us(), 1e6);
        let nan = MetricsConfig {
            interval_us: f64::NAN,
        };
        assert_eq!(nan.sane_interval_us(), 1e6);
        // A scraper built from a degenerate config still windows sanely.
        let mut scraper = MetricsScraper::new(&degenerate, 1);
        scraper.record_arrival(f64::NAN);
        scraper.record_batch(0.0, &[1.0], 0, 0, &[]);
        let series = scraper.series();
        assert_eq!(series.windows.len(), 1);
        assert!(series.windows[0].qps.is_finite());
        let json = series.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn series_json_is_balanced_and_carries_the_columns() {
        let config = MetricsConfig {
            interval_us: 1000.0,
        };
        let mut scraper = MetricsScraper::new(&config, 2);
        scraper.record_arrival(0.0);
        scraper.record_batch(100.0, &[42.0], 1, 0, &[]);
        let json = scraper.series().to_json();
        for needle in [
            "\"interval_us\": 1000.000",
            "\"windows\": [",
            "\"qps\":",
            "\"p99_us\":",
            "\"queue_depth\": 0",
            "\"shard_timeouts\": [0, 0]",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn exemplars_keep_the_worst_sample_and_break_ties_low() {
        let mut map = BTreeMap::new();
        record_exemplar(&mut map, 100.0, 7);
        record_exemplar(&mut map, 100.0, 3); // tie -> lower id wins
        record_exemplar(&mut map, 101.0, 9); // same bucket, worse -> wins
        let bucket = LatencyHistogram::bucket_of(100.0);
        assert_eq!(map.get(&bucket).copied(), Some((9, 101.0)));
        record_exemplar(&mut map, 5.0, 1);
        assert_eq!(map.len(), 2, "distinct buckets get distinct exemplars");
    }
}

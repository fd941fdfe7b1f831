//! The benchmark's metric names and units — the same lists `BENCHMARK.json` declares
//! (`--smoke` checks that the two agree) — and the result line a run ends with.

use crate::json::escape;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("capacity_qps", "queries/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("modeled_energy_pj_per_query", "pJ"),
    ("modeled_qps", "queries/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`. The prefix is
/// the module the number belongs to; `_b64` / `_b3` are per query at the batch shape
/// the closed / open loop forms.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("driver.calibration_us", "us"),
    ("driver.late_p99_us", "us"),
    ("driver.late_max_us", "us"),
    ("driver.sent", "count"),
    ("driver.shed", "count"),
    ("driver.mismatch", "count"),
    ("driver.failed_share", "fraction"),
    ("queue.push_pop_ns", "ns"),
    ("queue.wait_us_p50", "us"),
    ("queue.depth_mean", "count"),
    ("queue.rejected", "count"),
    ("batcher.offer_ns", "ns"),
    ("batcher.form_us_p50", "us"),
    ("batcher.mean_batch_open", "count"),
    ("batcher.mean_batch_closed", "count"),
    ("batcher.stall_us", "us"),
    ("cache.hit_ns", "ns"),
    ("cache.miss_insert_ns", "ns"),
    ("cache.lookup_us_p50", "us"),
    ("cache.hit_rate", "fraction"),
    ("cache.coalesced_share", "fraction"),
    ("cache.evictions_per_query", "count"),
    ("shard.pool_us_b64", "us"),
    ("shard.pool_ns_per_row", "ns"),
    ("cluster.fetch_us_p50", "us"),
    ("cluster.node_queue_wait_us_p50", "us"),
    ("cluster.node_storage_read_us_p50", "us"),
    ("cluster.subrequests_per_batch", "count"),
    ("cluster.mean_fanout", "count"),
    ("cluster.cross_shard_bytes_per_query", "B"),
    ("cluster.retries", "count"),
    ("cluster.timeouts", "count"),
    ("transport.encode_ns_per_kb", "ns/KB"),
    ("transport.decode_ns_per_kb", "ns/KB"),
    ("transport.fetch_span_us_p50", "us"),
    ("transport.setup_load_s", "s"),
    ("nns.signature_us", "us"),
    ("nns.search_us_b64", "us"),
    ("nns.search_us_b3", "us"),
    ("nns.filter_us_p50", "us"),
    ("nns.candidates_per_query", "count"),
    ("mlp.predict_us_b64", "us"),
    ("mlp.predict_us_b3", "us"),
    ("mlp.rank_us_p50", "us"),
    ("mlp.flops_per_query", "flop"),
    ("engine.batch_us_b64", "us"),
    ("engine.batch_us_b3", "us"),
    ("engine.unexplained_us_b64", "us"),
    ("engine.pool_share_b64", "fraction"),
    ("engine.allocs_per_query_b64", "count"),
    ("engine.alloc_bytes_per_query_b64", "B"),
    ("engine.catalogue_resident_mb", "MB"),
    ("engine.busy_share", "fraction"),
    ("runtime.capacity_qps", "queries/s"),
    ("runtime.overhead_us_b64", "us"),
    ("runtime.lat_p50_us", "us"),
    ("runtime.lat_p99_us", "us"),
    ("runtime.lat_p999_us", "us"),
    ("trace.capacity_ratio", "ratio"),
    ("trace.lat_p50_ratio", "ratio"),
    ("metrics.capacity_ratio", "ratio"),
    ("model.cma_read_pj", "pJ"),
    ("model.cma_add_pj", "pJ"),
    ("model.search_pj", "pJ"),
    ("model.rsc_pj", "pJ"),
];

/// The metrics of one run, filled by name against one of the tables above.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Record `name`. Panics on a name outside the table or recorded twice: either is
    /// a bug in the benchmark, not something a run can meet.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .table
            .iter()
            .position(|&(known, _)| known == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(
            self.values[index].replace(value).is_none(),
            "metric {name} recorded twice"
        );
    }

    /// `(name, value, unit)` in table order.
    ///
    /// # Errors
    ///
    /// Names the first metric that was never recorded or is not finite.
    pub fn finished(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), value)| match value {
                Some(value) if value.is_finite() => Ok((name, *value, unit)),
                Some(value) => Err(format!("metric {name} is {value}")),
                None => Err(format!("metric {name} was never recorded")),
            })
            .collect()
    }
}

/// What one run hands back: its metrics, how many requests it sent and how many failed,
/// and the lines a reader wants beside the numbers (sample counts, per-phase tallies).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The result object: exactly `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// As for [`Metrics::finished`].
    pub fn result_json(&self) -> Result<String, String> {
        let metrics: Vec<String> = self
            .metrics
            .finished()?
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    escape(name),
                    escape(unit)
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

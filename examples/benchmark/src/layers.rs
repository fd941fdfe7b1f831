//! The `--trace 1` run: per-layer numbers, measured from outside the program.
//!
//! * a *layer replay* cuts the trace into the batch shapes the closed and open loops
//!   form (64-wide and 3-wide) and times each layer's public entry point inside a
//!   bench-owned span, single-threaded, with the counting allocator armed around the
//!   engine call;
//! * layer micro-loops time the entry points a batch does not expose on its own
//!   (queue, batcher, cache, frame codec);
//! * closed passes and open runs with the engine's own tracing (and metrics) armed
//!   give the waiting times and fetch sub-spans that have no public entry point, and
//!   their slowdown against the plain runs beside them is the observability cost.

use std::hint::black_box;
use std::time::Instant;

use imars::device::ArrayFom;
use imars::fabric::cma::CmaArray;
use imars::fabric::cost::CostComponent;
use imars::recsys::dlrm::DlrmSample;
use imars::recsys::{Dlrm, EmbeddingTable, PoolingBatch, QuantizedTable, RandomHyperplaneLsh};
use imars::serve::transport::{Frame, KIND_ROWS};
use imars::serve::{
    chrome_export, shard_embedding, shard_quantized, BatchPolicy, BoundedQueue, DynamicBatcher,
    HotRowCache, MetricsConfig, Pop, ServeConfig, ServeEngine, ServePrecision, ServeReport,
    ServeRequest, ShardedTable, Stage, TraceConfig, TraceLog,
};

use crate::drive::{calibration_us, closed_pass, open_run, Oracle, Tally};
use crate::endtoend::{requests_for, simulate};
use crate::metrics::{Metrics, RunOutput, PER_LAYER};
use crate::spans::{count_allocations, Recorder};
use crate::stats::{median, percentile};
use crate::workloads::{display, Served, Topology, Workload, ITEM_DIM, OUT_DIR};

/// Batch shapes of the layer replay: what the closed loop and the open loop form.
const WIDE: usize = 64;
const NARROW: usize = 3;
/// Batches replayed per shape at the full run length.
const WIDE_BATCHES: usize = 96;
const NARROW_BATCHES: usize = 480;
/// Groups a shape's batches are replayed in: engine, then layers, group by group.
const REPLAY_GROUPS: usize = 6;
/// Rounds of each micro-loop (the median is reported) and operations per round.
const MICRO_ROUNDS: usize = 5;
const MICRO_OPS: usize = 100_000;
/// Payload of the frame-codec micro-loop: the order of a 64-wide batch's `ROWS` reply.
const FRAME_PAYLOAD_BYTES: usize = 64 * 1024;
/// Closed passes per arm (plain, traced, metrics), interleaved.
const ARM_PASSES: usize = 3;

/// The layers' public entry points, built from the same catalogue and configuration as
/// the engine so each call does the work the engine's stage does.
struct Layers {
    profiles: ShardedTable<f32>,
    quantized: Option<ShardedTable<i8>>,
    lsh: RandomHyperplaneLsh,
    tcam: CmaArray,
    model: Dlrm,
    radius: u32,
}

impl Layers {
    fn build(
        workload: &Workload,
        items: &EmbeddingTable,
        config: &ServeConfig,
    ) -> Result<Self, String> {
        let shards = match workload.topology {
            Topology::InProcess { shards } => shards,
            Topology::SocketNodes { nodes } => nodes,
        };
        let quantized = match workload.precision {
            ServePrecision::Fp32 => None,
            ServePrecision::Int8 => {
                Some(shard_quantized(&QuantizedTable::from_table(items), shards).map_err(display)?)
            }
        };
        let lsh = RandomHyperplaneLsh::new(ITEM_DIM, config.signature_bits, config.lsh_seed)
            .map_err(display)?;
        let mut tcam = CmaArray::new(
            items.rows(),
            config.signature_bits,
            ArrayFom::paper_reference(),
        );
        for row in 0..items.rows() {
            let signature = lsh.signature(items.row(row)).map_err(display)?;
            tcam.write_row_bits(row, &signature, config.signature_bits)
                .map_err(display)?;
        }
        Ok(Self {
            profiles: shard_embedding(items, shards).map_err(display)?,
            quantized,
            lsh,
            tcam,
            model: Dlrm::new(workload.model_config()).map_err(display)?,
            radius: config.search_radius,
        })
    }
}

/// Per-query microseconds of each layer call, one entry per replayed batch.
#[derive(Default)]
struct ShapeTimes {
    batch: Vec<f64>,
    pool: Vec<f64>,
    signature: Vec<f64>,
    search: Vec<f64>,
    predict: Vec<f64>,
    queries: u64,
    rows: u64,
    allocs: u64,
    alloc_bytes: u64,
    mismatches: u64,
}

/// Replay `batches` batches of `width` requests in [`REPLAY_GROUPS`] groups; each group
/// goes first through the engine's `process_batch`, then as separate calls into each
/// layer, every call in its own span. Groups, not batch-by-batch alternation: the layer
/// copies of the model and the TCAM are distinct from the engine's, and alternating
/// would have each evict the other from the CPU caches on every batch, which the
/// serving path never does. Groups, not two whole passes: `engine.unexplained_us_b64`
/// is a difference between the two, and the shared machine drifts within a second.
fn replay_shape(
    recorder: &mut Recorder,
    engine: &mut ServeEngine,
    layers: &Layers,
    oracle: &Oracle,
    requests: &[ServeRequest],
    width: usize,
    batches: usize,
) -> Result<ShapeTimes, String> {
    let mut times = ShapeTimes::default();
    let first_batch_id = recorder.spans().last().map_or(0, |span| span.batch + 1);
    let numbered: Vec<(&[ServeRequest], u32)> = requests
        .chunks_exact(width)
        .take(batches)
        .zip(first_batch_id..)
        .collect();
    for group in numbered.chunks(batches.div_ceil(REPLAY_GROUPS).max(1)) {
        replay_engine(recorder, engine, oracle, group, &mut times)?;
        replay_layers(recorder, layers, group, &mut times)?;
    }
    Ok(times)
}

/// One group of batches through `ServeEngine::process_batch`, allocations counted.
fn replay_engine(
    recorder: &mut Recorder,
    engine: &mut ServeEngine,
    oracle: &Oracle,
    group: &[(&[ServeRequest], u32)],
    times: &mut ShapeTimes,
) -> Result<(), String> {
    for &(batch, batch_id) in group {
        let ((responses, allocs, bytes), engine_us) =
            recorder.span("engine.process_batch", batch_id, |_| {
                count_allocations(|| engine.process_batch(batch))
            });
        times.mismatches += oracle.mismatches(&responses.map_err(display)?);
        times.batch.push(engine_us / batch.len() as f64);
        times.allocs += allocs;
        times.alloc_bytes += bytes;
        times.queries += batch.len() as u64;
    }
    Ok(())
}

/// The same group as separate calls into each layer's public entry point.
fn replay_layers(
    recorder: &mut Recorder,
    layers: &Layers,
    group: &[(&[ServeRequest], u32)],
    times: &mut ShapeTimes,
) -> Result<(), String> {
    for &(batch, batch_id) in group {
        let width = batch.len();
        let per_query = |span_us: f64| span_us / width as f64;
        // The parent span's self time is the benchmark's own glue between the calls.
        let (result, _) = recorder.span("layers", batch_id, |recorder| -> Result<(), String> {
            let histories: Vec<&[u32]> = batch.iter().map(|r| r.history.as_slice()).collect();
            let pooling = PoolingBatch::from_requests(&histories);
            let mut profiles = vec![0.0f32; width * ITEM_DIM];
            let pool_us = match &layers.quantized {
                None => {
                    let (result, pool_us) = recorder.span("shard.pool_batch", batch_id, |_| {
                        layers.profiles.pool_batch(&pooling, &mut profiles)
                    });
                    result.map_err(display)?;
                    pool_us
                }
                Some(quantized) => {
                    // The int8 pool is the timed call; the f32 profile the later
                    // stages read is pooled outside the span.
                    let mut pooled = vec![0i8; width * ITEM_DIM];
                    let (result, pool_us) = recorder.span("shard.pool_batch", batch_id, |_| {
                        quantized.pool_batch(&pooling, &mut pooled)
                    });
                    result.map_err(display)?;
                    black_box(&pooled);
                    layers
                        .profiles
                        .pool_batch(&pooling, &mut profiles)
                        .map_err(display)?;
                    pool_us
                }
            };
            times.pool.push(per_query(pool_us));
            times.rows += pooling.total_lookups() as u64;

            let (signatures, signature_us) = recorder.span("nns.signature", batch_id, |_| {
                profiles
                    .chunks(ITEM_DIM)
                    .map(|profile| layers.lsh.signature(profile))
                    .collect::<Result<Vec<_>, _>>()
            });
            let signatures = signatures.map_err(display)?;
            times.signature.push(per_query(signature_us));

            let (search, search_us) = recorder.span("nns.search_batch", batch_id, |_| {
                layers.tcam.search_batch(&signatures, layers.radius)
            });
            black_box(search.map_err(display)?);
            times.search.push(per_query(search_us));

            let samples: Vec<DlrmSample> = batch
                .iter()
                .zip(profiles.chunks(ITEM_DIM))
                .map(|(request, profile)| DlrmSample {
                    dense: profile.to_vec(),
                    sparse: request.sparse.clone(),
                })
                .collect();
            let (scores, predict_us) = recorder.span("mlp.predict_batch", batch_id, |_| {
                layers.model.predict_batch(&samples)
            });
            black_box(scores.map_err(display)?);
            times.predict.push(per_query(predict_us));
            Ok(())
        });
        result?;
    }
    Ok(())
}

/// Median nanoseconds per operation of `round` over [`MICRO_ROUNDS`] rounds; `round`
/// returns how many operations it did.
fn micro(mut round: impl FnMut() -> usize) -> f64 {
    let per_op: Vec<f64> = (0..MICRO_ROUNDS)
        .map(|_| {
            let started = Instant::now();
            let ops = round();
            started.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
        })
        .collect();
    median(&per_op)
}

/// `HotRowCache::lookup` on resident rows, and `lookup` + `insert` on a scan that
/// never hits, at the workload's capacity: `(hit_ns, miss_insert_ns)`.
fn cache_times<T: Copy + Default>(
    capacity: usize,
    stream: &[u32],
    num_items: usize,
    row: impl Fn(u32) -> Vec<T>,
) -> (f64, f64) {
    let rows: Vec<Vec<T>> = (0..num_items as u32).map(row).collect();
    let mut cache = HotRowCache::<T>::new(capacity, ITEM_DIM);
    for &id in stream {
        if cache.lookup(id).is_none() {
            cache.insert(id, &rows[id as usize]);
        }
    }
    // CLOCK never evicts on a hit, so the rows resident now stay resident below.
    let resident: Vec<u32> = stream
        .iter()
        .copied()
        .filter(|&id| cache.contains(id))
        .take(MICRO_OPS)
        .collect();
    let hit_ns = micro(|| {
        for &id in &resident {
            black_box(cache.lookup(id));
        }
        resident.len()
    });
    // A cyclic scan over more rows than the cache holds misses every time under CLOCK.
    let mut next = 0usize;
    let miss_insert_ns = micro(|| {
        for _ in 0..MICRO_OPS {
            let id = next as u32;
            next = (next + 1) % num_items;
            if cache.lookup(id).is_none() {
                cache.insert(id, &rows[id as usize]);
            }
        }
        MICRO_OPS
    });
    (hit_ns, miss_insert_ns)
}

/// Durations of `stage` over every retained trace, microseconds.
fn stage_durations(log: &TraceLog, stage: Stage) -> Vec<f64> {
    log.traces()
        .iter()
        .filter_map(|trace| trace.span(stage).map(|span| span.duration_us()))
        .collect()
}

/// Median share of a batch's service time (pooling start to ranking end) that passed
/// before candidate filtering began — cache probe, row fetch, staging, pooling and
/// dequantize — read off the engine's own stage boundaries.
fn pool_share(log: &TraceLog) -> f64 {
    let shares: Vec<f64> = log
        .traces()
        .iter()
        .filter_map(|trace| {
            let begin_us = trace.span(Stage::CacheLookup)?.begin_us;
            let pooled_us = trace.span(Stage::NnsFilter)?.begin_us;
            let end_us = trace.span(Stage::MlpRank)?.end_us;
            (end_us > begin_us).then(|| (pooled_us - begin_us) / (end_us - begin_us))
        })
        .collect();
    median(&shares)
}

/// Multiply-adds ×2 of one inference, computed from the layer widths (not measured).
fn flops_per_query(model: &Dlrm) -> f64 {
    let dense: usize = model
        .bottom_layer_shapes()
        .iter()
        .chain(model.top_layer_shapes().iter())
        .map(|&(inputs, outputs)| inputs * outputs)
        .sum();
    let config = model.config();
    let interactions = config.interaction_count() * config.embedding_dim;
    2.0 * (dense + interactions) as f64
}

/// The counts of the simulated replay: they repeat bit for bit for a seed.
fn record_sim_counts(metrics: &mut Metrics, sim: &ServeReport) {
    let sim_queries = sim.telemetry.queries.max(1) as f64;
    let lookups = sim.cache.lookups().max(1) as f64;
    metrics.set("cache.hit_rate", sim.cache.hit_rate());
    metrics.set(
        "cache.coalesced_share",
        sim.cache.coalesced as f64 / lookups,
    );
    metrics.set(
        "cache.evictions_per_query",
        sim.cache.evictions as f64 / sim_queries,
    );
    metrics.set("nns.candidates_per_query", sim.telemetry.mean_candidates());
    for (name, component) in [
        ("model.cma_read_pj", CostComponent::CmaRead),
        ("model.cma_add_pj", CostComponent::CmaAdd),
        ("model.search_pj", CostComponent::CmaSearch),
        ("model.rsc_pj", CostComponent::RscTransfer),
    ] {
        metrics.set(
            name,
            sim.telemetry.cost.component(component).energy_pj / sim_queries,
        );
    }
    let batches = sim.telemetry.batches.max(1) as f64;
    let cluster = sim.cluster.as_ref();
    metrics.set(
        "cluster.subrequests_per_batch",
        cluster.map_or(0.0, |stats| stats.subrequests as f64 / batches),
    );
    metrics.set(
        "cluster.mean_fanout",
        cluster.map_or(0.0, |stats| stats.mean_fanout()),
    );
    metrics.set(
        "cluster.cross_shard_bytes_per_query",
        cluster.map_or(0.0, |stats| stats.cross_shard_bytes as f64 / sim_queries),
    );
}

/// Micro-loops for the entry points a batch does not expose on its own.
fn record_micro_loops(
    metrics: &mut Metrics,
    workload: &Workload,
    items: &EmbeddingTable,
    config: &ServeConfig,
    requests: &[ServeRequest],
) -> Result<(), String> {
    let queue: BoundedQueue<u64> = BoundedQueue::new(256);
    metrics.set(
        "queue.push_pop_ns",
        micro(|| {
            for item in 0..MICRO_OPS as u64 {
                let _ = black_box(queue.try_push(item));
                if let Pop::Item(popped) = queue.pop() {
                    black_box(popped);
                }
            }
            MICRO_OPS
        }),
    );
    let policy: BatchPolicy = config.policy;
    metrics.set(
        "batcher.offer_ns",
        micro(|| {
            let mut batcher: DynamicBatcher<u64> = DynamicBatcher::new(policy);
            for request in requests {
                black_box(batcher.poll(request.arrival_us));
                black_box(batcher.offer(request.id, request.arrival_us));
            }
            requests.len()
        }),
    );
    let stream: Vec<u32> = requests
        .iter()
        .flat_map(|request| request.history.iter().copied())
        .collect();
    let (hit_ns, miss_insert_ns) = match workload.precision {
        ServePrecision::Fp32 => cache_times(workload.cache_rows, &stream, workload.items, |id| {
            items.row(id as usize).to_vec()
        }),
        ServePrecision::Int8 => {
            let quantized = QuantizedTable::from_table(items);
            cache_times(workload.cache_rows, &stream, workload.items, |id| {
                quantized
                    .row(id as usize)
                    .expect("row ids come from the catalogue")
                    .to_vec()
            })
        }
    };
    metrics.set("cache.hit_ns", hit_ns);
    metrics.set("cache.miss_insert_ns", miss_insert_ns);
    let frame = Frame {
        kind: KIND_ROWS,
        shard: 1,
        tag: 7,
        payload: vec![0x5a; FRAME_PAYLOAD_BYTES],
    };
    let frame_ops = 200;
    let kb = FRAME_PAYLOAD_BYTES as f64 / 1024.0;
    metrics.set(
        "transport.encode_ns_per_kb",
        micro(|| {
            for _ in 0..frame_ops {
                black_box(black_box(&frame).encode());
            }
            frame_ops
        }) / kb,
    );
    let encoded = frame.encode();
    let mut decoded_ok = true;
    metrics.set(
        "transport.decode_ns_per_kb",
        micro(|| {
            for _ in 0..frame_ops {
                decoded_ok &= Frame::read_from(&mut black_box(encoded.as_slice())).is_ok();
            }
            frame_ops
        }) / kb,
    );
    if !decoded_ok {
        return Err("an encoded frame did not decode".to_string());
    }
    Ok(())
}

pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let open_s = seconds * 0.2;
    let pass_s = seconds * 0.035;
    let scale = (seconds / 20.0).min(1.0);
    let wide_batches = ((WIDE_BATCHES as f64 * scale) as usize).max(2);
    let narrow_batches = ((NARROW_BATCHES as f64 * scale) as usize).max(8);
    let queries = requests_for(workload.open_qps, open_s)
        .max(wide_batches * WIDE)
        .max(narrow_batches * NARROW);
    let trace = workload.trace(seed, queries)?;
    let requests = trace.requests();
    let open_requests = &requests[..requests_for(workload.open_qps, open_s).min(queries)];
    let closed = &requests[..requests_for(workload.closed_nominal_qps, pass_s).min(queries)];
    let mut metrics = Metrics::new(PER_LAYER);
    let mut notes = Vec::new();
    let mut total = Tally::default();

    // The socket workload's set-up against the same system built in-process: the
    // difference is what spawning the nodes and shipping them their rows costs.
    let mut served = Served::build(workload)?;
    let setup_load_s = match workload.topology {
        Topology::InProcess { .. } => 0.0,
        Topology::SocketNodes { .. } => {
            let started = Instant::now();
            black_box(workload.in_process_engine()?);
            (served.setup_s - started.elapsed().as_secs_f64()).max(0.0)
        }
    };
    metrics.set("transport.setup_load_s", setup_load_s);
    notes.push(format!(
        "setup: {:.4} s, of which {:.4} s spawning nodes and waiting for their sockets",
        served.setup_s, served.spawn_s
    ));

    // Exact counts from the simulated replay.
    let (oracle, sim, second_oracle) = simulate(&mut served, workload, &trace)?;
    total.add(second_oracle);
    record_sim_counts(&mut metrics, &sim);
    metrics.set(
        "engine.catalogue_resident_mb",
        served
            .engine
            .catalogue_resident_bytes()
            .map_or(0.0, |bytes| bytes as f64 / (1024.0 * 1024.0)),
    );

    // Layer replay.
    let config = workload.serve_config()?;
    let layers = Layers::build(workload, &served.items, &config)?;
    metrics.set("mlp.flops_per_query", flops_per_query(&layers.model));
    let mut recorder = Recorder::new();
    let mut engine = served.engine.clone();
    let wide = replay_shape(
        &mut recorder,
        &mut engine,
        &layers,
        &oracle,
        requests,
        WIDE,
        wide_batches,
    )?;
    let narrow = replay_shape(
        &mut recorder,
        &mut engine,
        &layers,
        &oracle,
        requests,
        NARROW,
        narrow_batches,
    )?;
    drop(engine);
    let batch_us_b64 = median(&wide.batch);
    let pool_us_b64 = median(&wide.pool);
    let signature_us = median(&wide.signature);
    let search_us_b64 = median(&wide.search);
    let predict_us_b64 = median(&wide.predict);
    metrics.set("engine.batch_us_b64", batch_us_b64);
    metrics.set("engine.batch_us_b3", median(&narrow.batch));
    metrics.set("shard.pool_us_b64", pool_us_b64);
    metrics.set(
        "shard.pool_ns_per_row",
        pool_us_b64 * 1e3 * wide.queries as f64 / wide.rows.max(1) as f64,
    );
    metrics.set("nns.signature_us", signature_us);
    metrics.set("nns.search_us_b64", search_us_b64);
    metrics.set("nns.search_us_b3", median(&narrow.search));
    metrics.set("mlp.predict_us_b64", predict_us_b64);
    metrics.set("mlp.predict_us_b3", median(&narrow.predict));
    metrics.set(
        "engine.unexplained_us_b64",
        batch_us_b64 - (pool_us_b64 + signature_us + search_us_b64 + predict_us_b64),
    );
    metrics.set(
        "engine.allocs_per_query_b64",
        wide.allocs as f64 / wide.queries.max(1) as f64,
    );
    metrics.set(
        "engine.alloc_bytes_per_query_b64",
        wide.alloc_bytes as f64 / wide.queries.max(1) as f64,
    );
    let replay_tally = Tally {
        sent: wide.queries + narrow.queries,
        failed: wide.mismatches + narrow.mismatches,
    };
    notes.push(format!(
        "layer replay: {wide_batches} batches of {WIDE} and {narrow_batches} of {NARROW}, \
         medians over batches; sent {} failed {}",
        replay_tally.sent, replay_tally.failed
    ));
    total.add(replay_tally);

    record_micro_loops(&mut metrics, workload, &served.items, &config, requests)?;

    // Closed passes: plain, traced and metrics arms interleaved, so drift on the
    // shared machine lands on all three alike.
    let trace_config = TraceConfig {
        sample_every: 1,
        capacity: queries,
        ..TraceConfig::default()
    };
    let mut traced_engine = served.engine.clone();
    traced_engine.enable_tracing(trace_config);
    let mut metered_engine = served.engine.clone();
    metered_engine.enable_metrics(MetricsConfig::default());
    let mut arms: [Vec<f64>; 3] = Default::default();
    let mut closed_tally = Tally::default();
    let mut mean_batch_closed = 0.0;
    let mut calibration = Vec::with_capacity(ARM_PASSES);
    let mut pool_shares = Vec::with_capacity(ARM_PASSES);
    for _ in 0..ARM_PASSES {
        calibration.push(calibration_us());
        for (arm, engine) in [&served.engine, &traced_engine, &metered_engine]
            .into_iter()
            .enumerate()
        {
            let pass = closed_pass(engine, closed, &oracle)?;
            closed_tally.add(pass.tally);
            arms[arm].push(pass.qps);
            match arm {
                0 => mean_batch_closed = pass.report.telemetry.mean_batch_size(),
                1 => pool_shares.push(pool_share(&pass.trace)),
                _ => {}
            }
        }
    }
    metrics.set("driver.calibration_us", median(&calibration));
    let capacity_qps = median(&arms[0]);
    metrics.set("runtime.capacity_qps", capacity_qps);
    metrics.set("runtime.overhead_us_b64", 1e6 / capacity_qps - batch_us_b64);
    metrics.set("batcher.mean_batch_closed", mean_batch_closed);
    metrics.set("engine.pool_share_b64", median(&pool_shares));
    metrics.set("trace.capacity_ratio", median(&arms[1]) / capacity_qps);
    metrics.set("metrics.capacity_ratio", median(&arms[2]) / capacity_qps);
    notes.push(format!(
        "closed: {ARM_PASSES} passes per arm of {} requests; plain {:.0?}, traced {:.0?}, \
         metrics {:.0?} queries/s (ratios are armed / plain); sent {} failed {}",
        closed.len(),
        arms[0],
        arms[1],
        arms[2],
        closed_tally.sent,
        closed_tally.failed
    ));
    total.add(closed_tally);

    // Open runs: plain for the driver/queue/batcher/runtime figures, traced for spans.
    let open_span_us = open_requests
        .last()
        .map_or(0.0, |request| request.arrival_us);
    let plain = open_run(&served.engine, open_requests, 0.0, open_span_us, &oracle)?;
    let runtime = plain
        .outcome
        .report
        .runtime
        .clone()
        .ok_or("the threaded runtime reported no runtime stats")?;
    metrics.set("driver.late_p99_us", percentile(&plain.lateness, 0.99));
    metrics.set("driver.late_max_us", percentile(&plain.lateness, 1.0));
    metrics.set("driver.sent", plain.tally.sent as f64);
    metrics.set("driver.shed", plain.shed as f64);
    metrics.set("queue.depth_mean", runtime.mean_queue_depth());
    metrics.set("queue.rejected", runtime.rejected as f64);
    metrics.set(
        "batcher.mean_batch_open",
        plain.outcome.report.telemetry.mean_batch_size(),
    );
    metrics.set("batcher.stall_us", runtime.batcher_stall_us);
    metrics.set("engine.busy_share", runtime.utilization());
    let plain_p50_us = plain.window_latency_us(0.5);
    metrics.set("runtime.lat_p50_us", plain_p50_us);
    metrics.set("runtime.lat_p99_us", plain.window_latency_us(0.99));
    metrics.set("runtime.lat_p999_us", plain.latency_us(0.999));
    let cluster_after = plain.outcome.report.cluster.as_ref();
    metrics.set(
        "cluster.retries",
        cluster_after.map_or(0.0, |stats| stats.retries as f64),
    );
    metrics.set(
        "cluster.timeouts",
        cluster_after.map_or(0.0, |stats| stats.timeouts as f64),
    );

    let traced = open_run(&traced_engine, open_requests, 0.0, open_span_us, &oracle)?;
    let log = &traced.outcome.trace;
    for (name, stage) in [
        ("batcher.form_us_p50", Stage::BatchForm),
        ("queue.wait_us_p50", Stage::QueueWait),
        ("cache.lookup_us_p50", Stage::CacheLookup),
        ("cluster.fetch_us_p50", Stage::ClusterFetch),
        ("nns.filter_us_p50", Stage::NnsFilter),
        ("mlp.rank_us_p50", Stage::MlpRank),
    ] {
        metrics.set(name, percentile(&stage_durations(log, stage), 0.5));
    }
    let fetches = || log.traces().iter().flat_map(|trace| trace.fetch.iter());
    let fetch_spans: Vec<f64> = fetches()
        .map(|span| (span.end_us - span.begin_us).max(0.0))
        .collect();
    let node_waits: Vec<f64> = fetches()
        .filter_map(|span| span.node.map(|node| node.queue_wait_us))
        .collect();
    let node_reads: Vec<f64> = fetches()
        .filter_map(|span| span.node.map(|node| node.storage_read_us))
        .collect();
    metrics.set("transport.fetch_span_us_p50", percentile(&fetch_spans, 0.5));
    metrics.set(
        "cluster.node_queue_wait_us_p50",
        percentile(&node_waits, 0.5),
    );
    metrics.set(
        "cluster.node_storage_read_us_p50",
        percentile(&node_reads, 0.5),
    );
    metrics.set(
        "trace.lat_p50_ratio",
        traced.window_latency_us(0.5) / plain_p50_us,
    );
    let mut open_tally = plain.tally;
    open_tally.add(traced.tally);
    metrics.set(
        "driver.mismatch",
        (plain.mismatches + traced.mismatches) as f64,
    );
    notes.push(format!(
        "open: plain then traced, {:.0} queries/s for {:.1} s each; {} and {} latency samples, \
         {} traces with {} fetch spans; sent {} failed {}",
        workload.open_qps,
        plain.span_us / 1e6,
        plain.latencies.len(),
        traced.latencies.len(),
        log.len(),
        fetch_spans.len(),
        open_tally.sent,
        open_tally.failed
    ));
    total.add(open_tally);
    metrics.set(
        "driver.failed_share",
        total.failed as f64 / total.sent.max(1) as f64,
    );

    // The traces go out once nothing is left to measure.
    std::fs::create_dir_all(OUT_DIR).map_err(display)?;
    let bench_trace = format!("{OUT_DIR}/benchmark_{}_trace.json", workload.name);
    std::fs::write(&bench_trace, recorder.to_chrome_json()).map_err(display)?;
    let runtime_trace = format!("{OUT_DIR}/benchmark_{}_runtime_trace.json", workload.name);
    std::fs::write(&runtime_trace, chrome_export([("open", log)])).map_err(display)?;
    notes.push(format!(
        "traces: {} bench spans in {bench_trace}; the engine's own spans of the traced \
         open run in {runtime_trace}",
        recorder.spans().len()
    ));

    drop(traced_engine);
    drop(metered_engine);
    served.teardown()?;
    Ok(RunOutput {
        metrics,
        attempted: total.sent,
        failed: total.failed,
        notes,
    })
}

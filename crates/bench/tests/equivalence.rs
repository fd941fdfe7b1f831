//! Cross-crate equivalence properties of the pooling hot path:
//!
//! * the batched f32 path matches the naive per-request path **bit-for-bit**;
//! * the int8 packed (SWAR/GPCiM) path matches the naive scalar saturating path
//!   bit-for-bit, and the f32 path within quantization error while unsaturated;
//! * `pack_embedding` / `unpack_embedding` round-trip on random rows of every width;
//! * the full `imars-serve` pipeline (batcher + shards + cache + TCAM filter + ranking)
//!   matches a query-at-a-time pipeline built directly from the primitive APIs.

use imars_device::characterization::ArrayFom;
use imars_fabric::cma::{pack_embedding, unpack_embedding, CmaArray, PackedTable};
use imars_recsys::batch::{PoolingBatch, PoolingMode};
use imars_recsys::dlrm::{Dlrm, DlrmConfig, DlrmSample};
use imars_recsys::lsh::RandomHyperplaneLsh;
use imars_recsys::quantization::QuantizedTable;
use imars_recsys::EmbeddingTable;
use imars_serve::{
    replay_threaded, BatchPolicy, CachePlacement, CachePolicy, ClusterConfig, Placement,
    ReplayConfig, ReplayWorkload, RuntimeConfig, ServeConfig, ServeEngine, ServePrecision,
    ThreadedReplayConfig, TraceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn pack_unpack_round_trip_property() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..200 {
        let dim = rng.gen_range(1..=64usize);
        let row: Vec<i8> = (0..dim)
            .map(|_| rng.gen_range(-128..=127i32) as i8)
            .collect();
        let packed = pack_embedding(&row);
        assert_eq!(packed.len(), dim.div_ceil(8));
        assert_eq!(unpack_embedding(&packed, dim), row);
    }
}

#[test]
fn batched_f32_pooling_matches_naive_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(2);
    for &dim in &[8usize, 32, 33] {
        let table = EmbeddingTable::new(500, dim, 3).unwrap();
        let requests: Vec<Vec<u32>> = (0..64)
            .map(|_| {
                (0..rng.gen_range(0..40usize))
                    .map(|_| rng.gen_range(0..500u32))
                    .collect()
            })
            .collect();
        let batch = PoolingBatch::from_requests(&requests);
        let mut out = vec![0.0f32; batch.len() * dim];
        table
            .gather_pool_batch(&batch, PoolingMode::Sum, &mut out)
            .unwrap();
        for (request, chunk) in requests.iter().zip(out.chunks(dim)) {
            let naive: Vec<usize> = request.iter().map(|&i| i as usize).collect();
            assert_eq!(chunk, table.pool(&naive).unwrap().as_slice());
        }
    }
}

#[test]
fn int8_packed_pooling_matches_naive_scalar_saturating_path() {
    let mut rng = StdRng::seed_from_u64(4);
    let dim = 32;
    let rows: Vec<Vec<i8>> = (0..300)
        .map(|_| {
            (0..dim)
                .map(|_| rng.gen_range(-128..=127i32) as i8)
                .collect()
        })
        .collect();
    let packed = PackedTable::from_rows(rows.iter().map(|r| r.as_slice()), dim).unwrap();
    for _ in 0..100 {
        let indices: Vec<u32> = (0..rng.gen_range(1..30usize))
            .map(|_| rng.gen_range(0..300u32))
            .collect();
        // Naive scalar reference: sequential per-element saturating adds.
        let mut expected = vec![0i8; dim];
        for &index in &indices {
            for (acc, &value) in expected.iter_mut().zip(rows[index as usize].iter()) {
                *acc = acc.saturating_add(value);
            }
        }
        assert_eq!(packed.pool(&indices).unwrap(), expected);
    }
}

#[test]
fn int8_packed_pooling_tracks_f32_within_quantization_error() {
    // One large-magnitude row pins the quantization scale; the pooled rows are small
    // enough that the int8 accumulator cannot saturate, so the int8 sum must stay within
    // the accumulated half-step quantization error of the f32 sum.
    let mut rng = StdRng::seed_from_u64(5);
    let dim = 32;
    let pooling_factor = 16;
    let mut table = EmbeddingTable::zeros(101, dim).unwrap();
    table.lookup_mut(100).unwrap().fill(1.0); // scale anchor: quantizes to 127
    for row in 0..100 {
        let values: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.05..0.05f32)).collect();
        table.lookup_mut(row).unwrap().copy_from_slice(&values);
    }
    let quantized = QuantizedTable::from_table(&table);
    let scale = quantized.params().scale;
    let packed = PackedTable::from_rows(quantized.iter_rows(), dim).unwrap();

    for _ in 0..50 {
        let indices: Vec<u32> = (0..pooling_factor)
            .map(|_| rng.gen_range(0..100u32))
            .collect();
        let int8_sum = packed.pool(&indices).unwrap();
        let f32_sum = table
            .pool(&indices.iter().map(|&i| i as usize).collect::<Vec<usize>>())
            .unwrap();
        // Worst case |q·scale − v| per row is scale/2; errors add across the pool.
        let tolerance = scale * 0.5 * pooling_factor as f32 + 1e-5;
        for (&q, &v) in int8_sum.iter().zip(f32_sum.iter()) {
            assert!(
                (q as f32 * scale - v).abs() <= tolerance,
                "int8 {} (dequant {}) vs f32 {} exceeds tolerance {}",
                q,
                q as f32 * scale,
                v,
                tolerance
            );
        }
    }
}

#[test]
fn serve_engine_matches_the_unbatched_primitive_pipeline() {
    // The engine coalesces queries into batches, shards the catalogue, routes lookups
    // through the hot-row cache and filters in TCAM mode — none of which may change a
    // single bit versus serving each query alone from the primitive APIs.
    let items = EmbeddingTable::new(256, 4, 21).unwrap();
    let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
    let signature_bits = 64;
    let search_radius = 26;
    let lsh_seed = 5;
    let mut engine = ServeEngine::new(
        model.clone(),
        &items,
        ServeConfig {
            shards: 3,
            cache_capacity: 32,
            cache_policy: CachePolicy::Clock,
            cache_placement: CachePlacement::Router,
            precision: ServePrecision::Fp32,
            policy: BatchPolicy::new(16, 200.0).unwrap(),
            signature_bits,
            search_radius,
            lsh_seed,
        },
    )
    .unwrap();
    let workload = ReplayWorkload::generate(&ReplayConfig {
        queries: 300,
        num_users: 50,
        num_items: 256,
        zipf_exponent: 1.1,
        history_len: 10,
        offered_qps: 30_000.0,
        candidates_per_query: 40,
        top_k: 10,
        sparse_cardinalities: DlrmConfig::tiny().sparse_cardinalities,
        seed: 9,
        item_permutation_seed: None,
    })
    .unwrap();
    let outcome = engine.replay(&workload).unwrap();
    assert_eq!(outcome.responses.len(), 300);

    // Query-at-a-time reference from the primitives.
    let lsh = RandomHyperplaneLsh::new(4, signature_bits, lsh_seed).unwrap();
    let mut tcam = CmaArray::new(256, signature_bits, ArrayFom::paper_reference());
    for row in 0..256 {
        let signature = lsh.signature(items.lookup(row).unwrap()).unwrap();
        tcam.write_row_bits(row, &signature, signature_bits)
            .unwrap();
    }
    for response in &outcome.responses {
        let request = &workload.requests()[response.id as usize];
        let history: Vec<usize> = request.history.iter().map(|&row| row as usize).collect();
        let profile = items.pool(&history).unwrap();
        let matches = tcam
            .search(&lsh.signature(&profile).unwrap(), search_radius)
            .unwrap()
            .value;
        let score = model
            .predict(&DlrmSample {
                dense: profile,
                sparse: request.sparse.clone(),
            })
            .unwrap();
        assert_eq!(
            response.score.to_bits(),
            score.to_bits(),
            "query {}",
            response.id
        );
        assert_eq!(
            response.candidates,
            matches.len().min(request.query.candidates),
            "query {}",
            response.id
        );
    }
}

#[test]
fn threaded_runtime_matches_the_simulated_replay_bit_for_bit() {
    // The tentpole equivalence: the threaded runtime (bounded queue -> wall-clock
    // batcher -> worker pool of engine clones) re-batches the trace by *real* timing,
    // so batch boundaries and worker assignment differ run to run — and still no
    // output bit may move versus the virtual-clock single-pipeline replay.
    let items = EmbeddingTable::new(512, 4, 21).unwrap();
    let model = Dlrm::new(DlrmConfig::tiny()).unwrap();
    let config = ServeConfig {
        shards: 4,
        cache_capacity: 64,
        cache_policy: CachePolicy::Clock,
        cache_placement: CachePlacement::Router,
        precision: ServePrecision::Fp32,
        policy: BatchPolicy::new(16, 200.0).unwrap(),
        signature_bits: 64,
        search_radius: 26,
        lsh_seed: 5,
    };
    let mut engine = ServeEngine::new(model, &items, config).unwrap();
    let workload = ReplayWorkload::generate(&ReplayConfig {
        queries: 500,
        num_users: 80,
        num_items: 512,
        zipf_exponent: 1.2,
        history_len: 12,
        offered_qps: 100_000.0,
        candidates_per_query: 40,
        top_k: 10,
        sparse_cardinalities: DlrmConfig::tiny().sparse_cardinalities,
        seed: 13,
        item_permutation_seed: None,
    })
    .unwrap();
    let simulated = engine.replay(&workload).unwrap();
    for workers in [1, 4] {
        let threaded = replay_threaded(
            &engine,
            &workload,
            &ThreadedReplayConfig {
                runtime: RuntimeConfig::new(workers, 1024).unwrap(),
                speedup: f64::INFINITY, // back-to-back submits: maximum batching variance
                shed_on_full: false,
            },
        )
        .unwrap();
        assert_eq!(threaded.responses.len(), simulated.responses.len());
        let mut by_id = threaded.responses.clone();
        by_id.sort_unstable_by_key(|response| response.id);
        for (threaded_response, simulated_response) in by_id.iter().zip(simulated.responses.iter())
        {
            assert_eq!(threaded_response.id, simulated_response.id);
            assert_eq!(
                threaded_response.score.to_bits(),
                simulated_response.score.to_bits(),
                "query {} with {workers} workers",
                threaded_response.id
            );
            assert_eq!(
                threaded_response.candidates, simulated_response.candidates,
                "query {} with {workers} workers",
                threaded_response.id
            );
        }
        // The threaded report measures, the simulated one models — both must agree on
        // what was served.
        let stats = threaded
            .report
            .runtime
            .expect("threaded runs carry runtime stats");
        assert_eq!(stats.workers, workers);
        assert_eq!(stats.submitted, 500);
        assert_eq!(stats.rejected, 0);
        assert_eq!(threaded.report.telemetry.queries, 500);
        assert_eq!(threaded.report.telemetry.latency.count(), 500);
    }
}

#[test]
fn tracing_is_a_pure_observer_with_complete_stage_accounting() {
    // The observability equivalence: arming the tracer may not move one output bit
    // versus the untraced replay, and its accounting must be complete — every sampled
    // query lands exactly once in every stage histogram, stage p50s nest under the
    // end-to-end p50, and the Chrome export names every pipeline stage.
    let items = EmbeddingTable::new(512, 4, 21).unwrap();
    let config = ServeConfig {
        shards: 4,
        cache_capacity: 64,
        cache_policy: CachePolicy::Clock,
        cache_placement: CachePlacement::Router,
        precision: ServePrecision::Fp32,
        policy: BatchPolicy::new(16, 200.0).unwrap(),
        signature_bits: 64,
        search_radius: 26,
        lsh_seed: 5,
    };
    let workload = ReplayWorkload::generate(&ReplayConfig {
        queries: 500,
        num_users: 80,
        num_items: 512,
        zipf_exponent: 1.2,
        history_len: 12,
        offered_qps: 100_000.0,
        candidates_per_query: 40,
        top_k: 10,
        sparse_cardinalities: DlrmConfig::tiny().sparse_cardinalities,
        seed: 13,
        item_permutation_seed: None,
    })
    .unwrap();
    let mut plain = ServeEngine::new(
        Dlrm::new(DlrmConfig::tiny()).unwrap(),
        &items,
        config.clone(),
    )
    .unwrap();
    let expected = plain.replay(&workload).unwrap();
    assert!(expected.trace.is_empty(), "untraced replays log nothing");

    let mut traced_engine =
        ServeEngine::new(Dlrm::new(DlrmConfig::tiny()).unwrap(), &items, config).unwrap();
    traced_engine.enable_tracing(TraceConfig {
        sample_every: 4,
        seed: 9,
        capacity: 1024,
        slow_k: 5,
    });
    for workers in [0usize, 4] {
        // workers == 0 is the simulated replay; otherwise the threaded runtime.
        let outcome = if workers == 0 {
            traced_engine.replay(&workload).unwrap()
        } else {
            replay_threaded(
                &traced_engine,
                &workload,
                &ThreadedReplayConfig {
                    runtime: RuntimeConfig::new(workers, 1024).unwrap(),
                    speedup: f64::INFINITY,
                    shed_on_full: false,
                },
            )
            .unwrap()
        };
        let mut by_id = outcome.responses.clone();
        by_id.sort_unstable_by_key(|response| response.id);
        for (a, b) in by_id.iter().zip(&expected.responses) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "query {} ({workers} workers): traced vs untraced",
                a.id
            );
            assert_eq!(a.candidates, b.candidates, "query {}", a.id);
        }

        // Complete stage accounting: sampling is a pure function of (seed, id), so
        // both drivers sample the same queries, and each one lands exactly once in
        // every stage histogram.
        let stages = &outcome.report.telemetry.stages;
        assert!(stages.sampled > 0, "the workload must sample something");
        assert_eq!(stages.sampled, outcome.trace.sampled());
        assert_eq!(stages.total.count(), stages.sampled);
        for (name, histogram) in stages.stages() {
            assert_eq!(
                histogram.count(),
                stages.sampled,
                "{name} must record every sampled query"
            );
            assert!(
                histogram.quantile_us(0.50) <= stages.total.quantile_us(0.50),
                "{name} p50 must nest under the end-to-end p50"
            );
        }

        // The Chrome export carries a complete span tree: every stage name appears.
        let json = outcome.trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        for name in [
            "batch_form",
            "queue_wait",
            "cache_lookup",
            "nns_filter",
            "mlp_rank",
        ] {
            assert!(json.contains(name), "chrome export must name {name}");
        }
    }
}

#[test]
fn clustered_serving_matches_single_node_across_placements() {
    // The multi-node equivalence: catalogue partitions behind per-shard queues and
    // worker threads, lookups routed and gathered across shards, cross-shard traffic
    // charged to the RSC bus — and the ranked outputs still bit-identical to the
    // single-node engine, under both placement policies, fp32 and int8, through both
    // the simulated and threaded drivers.
    let items = EmbeddingTable::new(512, 4, 21).unwrap();
    let workload = ReplayWorkload::generate(&ReplayConfig {
        queries: 400,
        num_users: 80,
        num_items: 512,
        zipf_exponent: 1.2,
        history_len: 12,
        offered_qps: 100_000.0,
        candidates_per_query: 40,
        top_k: 10,
        sparse_cardinalities: DlrmConfig::tiny().sparse_cardinalities,
        seed: 17,
        item_permutation_seed: Some(3), // ids are not popularity-sorted
    })
    .unwrap();
    let histogram = workload.row_histogram(512).unwrap();
    for precision in [ServePrecision::Fp32, ServePrecision::Int8] {
        let config = ServeConfig {
            shards: 4,
            cache_capacity: 64,
            cache_policy: CachePolicy::Clock,
            cache_placement: CachePlacement::Router,
            precision,
            policy: BatchPolicy::new(16, 200.0).unwrap(),
            signature_bits: 64,
            search_radius: 26,
            lsh_seed: 5,
        };
        let mut single = ServeEngine::new(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &items,
            config.clone(),
        )
        .unwrap();
        let expected = single.replay(&workload).unwrap();
        for placement in [Placement::Range, Placement::Frequency] {
            let cluster = ClusterConfig {
                shards: 4,
                workers_per_shard: 2,
                queue_capacity: 32,
                placement,
                hot_replicas: 64,
                interconnect: Default::default(),
                resilience: None,
            };
            let (mut engine, handle) = ServeEngine::new_clustered(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &items,
                config.clone(),
                &cluster,
                Some(&histogram),
            )
            .unwrap();
            let outcome = engine.replay(&workload).unwrap();
            for (a, b) in outcome.responses.iter().zip(&expected.responses) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "query {} ({precision:?}, {placement:?})",
                    a.id
                );
                assert_eq!(a.candidates, b.candidates);
            }
            let stats = outcome
                .report
                .cluster
                .expect("clustered reports carry cluster stats");
            assert_eq!(stats.placement, placement.label());
            assert!(stats.fetches > 0);

            // Threaded driver over the same cluster: still bit-identical.
            let threaded = replay_threaded(
                &engine,
                &workload,
                &ThreadedReplayConfig {
                    runtime: RuntimeConfig::new(2, 1024).unwrap(),
                    speedup: f64::INFINITY,
                    shed_on_full: false,
                },
            )
            .unwrap();
            let mut by_id = threaded.responses.clone();
            by_id.sort_unstable_by_key(|response| response.id);
            for (a, b) in by_id.iter().zip(&expected.responses) {
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "threaded query {} ({precision:?}, {placement:?})",
                    a.id
                );
            }
            assert!(threaded.report.cluster.is_some());
            handle.shutdown().unwrap();
        }
    }
}

#[test]
fn quantized_rows_feed_the_packed_table_unchanged() {
    let table = EmbeddingTable::new(50, 16, 9).unwrap();
    let quantized = QuantizedTable::from_table(&table);
    let packed = PackedTable::from_rows(quantized.iter_rows(), 16).unwrap();
    assert_eq!(packed.rows(), 50);
    for i in 0..50 {
        assert_eq!(
            unpack_embedding(packed.row_words(i), 16).as_slice(),
            quantized.row(i).unwrap()
        );
    }
}

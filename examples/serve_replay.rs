//! Replay a Zipf-skewed query stream through the `imars-serve` engine: dynamic batching,
//! sharded embedding storage, hot-row caching, TCAM candidate filtering and batched DLRM
//! ranking — then compare against the same replay with the cache disabled to show that
//! caching changes the modeled energy, not a single output bit.
//!
//! Run with: `cargo run --release --example serve_replay`
//! CI smoke mode (short trace): `cargo run --release --example serve_replay -- --smoke`
//!
//! With `--threads N` the trace is additionally replayed through the **threaded
//! runtime** (bounded request queue -> wall-clock batcher -> N workers), pacing the
//! Poisson arrivals in real time: the run reports *measured* p50/p95/p99 latency, queue
//! depth, backpressure and worker utilization, asserts the ranking outputs are
//! bit-identical to the simulated replay, and writes `serve_replay_threaded.json`.
//!
//! With `--shards N` the trace is replayed through the **multi-node cluster**: the
//! catalogue is partitioned across N shard nodes (each behind its own bounded queue
//! and worker thread) under the policy picked by `--placement {range,freq}`, every
//! cross-shard row fetch is charged to the RSC bus, and the run reports cross-shard
//! bytes/hops, fan-out and shard imbalance — with outputs asserted bit-identical to
//! the single-node engine. The sharded runs use a permuted catalogue (`ids != Zipf
//! rank`, like a real catalogue), which is what makes the two placements differ; the
//! telemetry lands in `serve_replay_sharded_<placement>.json`.
//!
//! With `--transport uds` the sharded run additionally replays through **real shard
//! processes**: one child process per shard (this same binary re-invoked with
//! `--shard-node <socket>`), length-prefixed frames over Unix-domain sockets, and the
//! outputs asserted bit-identical to the in-process cluster — the fault-free socket
//! path is the same oracle.
//!
//! With `--chaos <fault>:<shard>` (kill, stall, slow or drop) the sharded run is
//! repeated with a resilience-enabled router while the fault fires mid-replay: the
//! replay must still complete with zero lost queries — replicated hot rows are
//! promoted onto surviving shards, the rest degrade to zero-filled lookups — and the
//! degraded-mode accounting lands in `serve_replay_chaos.json`.
//!
//! With `--cache-policy {clock,lfu,tinylfu}`, `--cache-capacity <rows>` and
//! `--cache-placement {router,shard}` the hot-row cache hierarchy is reconfigured:
//! the replacement/admission policy, the row budget, and whether the cache lives at
//! the router (the classic layout) or is split across the shard nodes. All three knobs
//! move only counters and modeled cost — every configuration is asserted bit-identical
//! to the cache-off control.
//!
//! With `--trace-out <path>` every run is traced (seeded head-based sampling, one
//! query in 8) and a combined Chrome-trace-event JSON — one trace "process" per run,
//! loadable in Perfetto or `chrome://tracing` — is written to `<path>`: the simulated
//! sections carry virtual-time spans, the threaded/UDS sections measured ones. With
//! `--slow-log <K>` each traced run also prints its K worst queries as span trees.
//! If tracing was requested but no query got sampled, the run exits 1: an empty
//! trace artifact green-lighting CI would exercise nothing.
//!
//! With `--metrics-out <path>` the metrics plane is armed on every run: each engine
//! scrapes its counters into event-time windows (the report JSON gains a `metrics`
//! time-series section), and a Prometheus-style text exposition — one
//! `# == run: <name> ==` section per run, histogram exemplars linking tail buckets
//! to retained trace ids when tracing is also on — is written to `<path>`.

use std::path::PathBuf;
use std::sync::Arc;

use imars::fabric::cost::CostComponent;
use imars::recsys::dlrm::{Dlrm, DlrmConfig};
use imars::recsys::EmbeddingTable;
use imars::serve::transport::socket_path;
use imars::serve::{
    chrome_export, exposition, replay_threaded, run_shard_node, CachePlacement, CachePolicy,
    ChaosPlan, ClusterConfig, ClusterOptions, FaultSpec, Placement, ReplayConfig, ReplayWorkload,
    ResilienceConfig, RuntimeConfig, ServeConfig, ServeEngine, ServeReport, Stage, StageExemplars,
    ThreadedReplayConfig, TraceConfig, TraceLog, MAX_THREADS,
};

const NUM_ITEMS: usize = 8192;
const ITEM_DIM: usize = 32;
const CACHE_ROWS: usize = 1024;

/// The paper's DLRM layer widths with the dense input being the pooled 32-d item
/// profile, and capped cardinalities so the example starts instantly.
fn model_config() -> DlrmConfig {
    DlrmConfig {
        num_dense_features: ITEM_DIM,
        sparse_cardinalities: vec![1000; 26],
        embedding_dim: 32,
        bottom_hidden: vec![256, 128, 32],
        top_hidden: vec![256, 64, 1],
        seed: 42,
    }
}

fn engine(config: ServeConfig, items: &EmbeddingTable) -> ServeEngine {
    ServeEngine::new(
        Dlrm::new(model_config()).expect("valid config"),
        items,
        config,
    )
    .expect("valid engine")
}

/// Flags followed by a value, and flags that stand alone.
const VALUE_FLAGS: [&str; 12] = [
    "--shard-node",
    "--threads",
    "--shards",
    "--transport",
    "--chaos",
    "--trace-out",
    "--slow-log",
    "--metrics-out",
    "--placement",
    "--cache-policy",
    "--cache-placement",
    "--cache-capacity",
];
const SWITCHES: [&str; 1] = ["--smoke"];

/// Refuse any argument that is neither a known flag nor the value after one: a
/// mistyped flag would otherwise run the default configuration without a word.
fn reject_unknown_args(args: &[String]) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next();
        } else if !SWITCHES.contains(&arg.as_str()) {
            eprintln!("serve_replay: unknown argument {arg:?}");
            std::process::exit(2);
        }
    }
}

/// Parse `--flag value` as a count, failing loudly on a missing or malformed value:
/// silently skipping a mode would let a mis-quoted CI step green-light without
/// exercising it.
fn parse_count(args: &[String], flag: &str) -> usize {
    match args.iter().position(|arg| arg == flag) {
        None => 0,
        Some(i) => match args.get(i + 1).and_then(|value| value.parse().ok()) {
            Some(count) => count,
            None => {
                eprintln!("serve_replay: {flag} needs a count (e.g. {flag} 2)");
                std::process::exit(2);
            }
        },
    }
}

/// The observability lines of the human summary: tail attribution (with the exemplar
/// trace to replay when tracing is on) and the top fault counters — previously these
/// landed only in the JSON artifacts.
fn print_observability(report: &ServeReport, log: Option<&TraceLog>) {
    if let Some((stage, share)) = report.telemetry.stages.tail_attribution() {
        let exemplar = log.map(StageExemplars::harvest).and_then(|exemplars| {
            Stage::ALL
                .iter()
                .find(|s| s.name() == stage)
                .and_then(|&s| exemplars.worst(s))
        });
        match exemplar {
            Some((id, worst_us)) => println!(
                "  tail: p99 is {:.0}% {stage}; worst retained sample is query {id} ({worst_us:.0}us — replay it via the slow-query log)",
                share * 100.0
            ),
            None => println!("  tail: p99 is {:.0}% {stage}", share * 100.0),
        }
    }
    if let Some(cluster) = &report.cluster {
        let mut faults = [
            ("timeouts", cluster.timeouts),
            ("retries", cluster.retries),
            ("hedges", cluster.hedges),
            ("promotions", cluster.promotions),
            ("missing_rows", cluster.missing_rows),
        ];
        faults.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        let top: Vec<String> = faults
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(name, count)| format!("{name} {count}"))
            .collect();
        if top.is_empty() {
            println!("  faults: none");
        } else {
            println!("  faults: {}", top.join(", "));
        }
    }
}

fn replay_config(queries: usize, item_permutation_seed: Option<u64>) -> ReplayConfig {
    ReplayConfig {
        queries,
        num_users: 4096,
        num_items: NUM_ITEMS,
        zipf_exponent: 1.2,
        history_len: 32,
        offered_qps: 4_000.0,
        candidates_per_query: 100,
        top_k: 10,
        sparse_cardinalities: model_config().sparse_cardinalities,
        seed: 11,
        item_permutation_seed,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_args(&args);
    // Shard-node mode: this same binary re-invoked as one shard process of a UDS
    // cluster. Serve until a SHUTDOWN frame (or a chaos kill), then exit.
    if let Some(i) = args.iter().position(|arg| arg == "--shard-node") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("serve_replay: --shard-node needs a socket path");
            std::process::exit(2);
        };
        if let Err(error) = run_shard_node(std::path::Path::new(path)) {
            eprintln!("serve_replay: shard node on {path} failed: {error}");
            std::process::exit(1);
        }
        return;
    }
    let smoke = args.iter().any(|arg| arg == "--smoke");
    let threads = parse_count(&args, "--threads");
    let mut shard_nodes = parse_count(&args, "--shards");
    // Each count starts that many threads (over sockets, shard-node processes).
    for (flag, count) in [("--threads", threads), ("--shards", shard_nodes)] {
        if count > MAX_THREADS {
            eprintln!("serve_replay: {flag} {count} is above the bound of {MAX_THREADS}");
            std::process::exit(2);
        }
    }
    let uds = match args.iter().position(|arg| arg == "--transport") {
        None => false,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("inproc") => false,
            Some("uds") => true,
            other => {
                eprintln!("serve_replay: --transport must be 'inproc' or 'uds', got {other:?}");
                std::process::exit(2);
            }
        },
    };
    let chaos_spec = match args.iter().position(|arg| arg == "--chaos") {
        None => None,
        Some(i) => match args.get(i + 1).map(|text| FaultSpec::parse(text)) {
            Some(Ok(spec)) => Some(spec),
            _ => {
                eprintln!("serve_replay: --chaos needs <fault>:<shard> (e.g. kill:1)");
                std::process::exit(2);
            }
        },
    };
    // Both the socket transport and the chaos harness live on the cluster path; asking
    // for either implies a cluster even without an explicit --shards.
    if shard_nodes == 0 && (uds || chaos_spec.is_some()) {
        shard_nodes = 4;
    }
    if let Some(spec) = chaos_spec {
        if spec.shard >= shard_nodes {
            eprintln!(
                "serve_replay: --chaos targets shard {} but the cluster has {} shards",
                spec.shard, shard_nodes
            );
            std::process::exit(2);
        }
    }
    let trace_out = match args.iter().position(|arg| arg == "--trace-out") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => Some(PathBuf::from(path)),
            _ => {
                eprintln!("serve_replay: --trace-out needs a file path");
                std::process::exit(2);
            }
        },
    };
    let slow_log: Option<usize> = match args.iter().position(|arg| arg == "--slow-log") {
        None => None,
        Some(i) => match args.get(i + 1).and_then(|value| value.parse().ok()) {
            Some(k) if k > 0 => Some(k),
            _ => {
                eprintln!("serve_replay: --slow-log needs a positive count (e.g. --slow-log 4)");
                std::process::exit(2);
            }
        },
    };
    let metrics_out = match args.iter().position(|arg| arg == "--metrics-out") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => Some(PathBuf::from(path)),
            _ => {
                eprintln!("serve_replay: --metrics-out needs a file path");
                std::process::exit(2);
            }
        },
    };
    let metrics_on = metrics_out.is_some();
    // One exposition section per run, concatenated into the --metrics-out artifact.
    let mut metrics_sections: Vec<(String, String)> = Vec::new();
    // Either flag arms the tracer on every run; the Chrome export gets one trace
    // "process" per section so virtual-time and measured-time runs sit side by side.
    let tracing = trace_out.is_some() || slow_log.is_some();
    let trace_config = TraceConfig {
        sample_every: 8,
        seed: 42,
        capacity: 512,
        slow_k: slow_log.unwrap_or(4),
    };
    let mut trace_sections: Vec<(String, TraceLog)> = Vec::new();
    let placement = match args.iter().position(|arg| arg == "--placement") {
        None => Placement::Range,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("range") => Placement::Range,
            Some("freq") => Placement::Frequency,
            other => {
                eprintln!("serve_replay: --placement must be 'range' or 'freq', got {other:?}");
                std::process::exit(2);
            }
        },
    };
    let cache_policy = match args.iter().position(|arg| arg == "--cache-policy") {
        None => CachePolicy::Clock,
        Some(i) => match args.get(i + 1).and_then(|text| CachePolicy::parse(text)) {
            Some(policy) => policy,
            None => {
                eprintln!("serve_replay: --cache-policy must be 'clock', 'lfu' or 'tinylfu'");
                std::process::exit(2);
            }
        },
    };
    let cache_placement = match args.iter().position(|arg| arg == "--cache-placement") {
        None => CachePlacement::Router,
        Some(i) => match args.get(i + 1).and_then(|text| CachePlacement::parse(text)) {
            Some(placement) => placement,
            None => {
                eprintln!("serve_replay: --cache-placement must be 'router' or 'shard'");
                std::process::exit(2);
            }
        },
    };
    let cache_capacity = match args.iter().position(|arg| arg == "--cache-capacity") {
        None => CACHE_ROWS,
        Some(i) => match args.get(i + 1).and_then(|value| value.parse().ok()) {
            Some(rows) => rows,
            None => {
                eprintln!("serve_replay: --cache-capacity needs a row count");
                std::process::exit(2);
            }
        },
    };
    // The one cache layout every run in this process shares; capacity varies per run
    // (the cache-off control pins bit-identity at capacity 0).
    let serve_config = |capacity: usize| {
        let mut config = ServeConfig::paper_serving(capacity).expect("valid config");
        config.cache_policy = cache_policy;
        config.cache_placement = cache_placement;
        config
    };
    let queries = if smoke { 1_000 } else { 10_000 };

    let items = EmbeddingTable::new(NUM_ITEMS, ITEM_DIM, 77).expect("valid table");
    let workload =
        ReplayWorkload::generate(&replay_config(queries, None)).expect("valid replay config");
    println!(
        "== Zipf replay: {} queries, {} items (exponent 1.2), history 32, offered 4k qps ==",
        queries, NUM_ITEMS
    );

    // 1. The headline run: sharded + cached serving.
    let mut cached_engine = engine(serve_config(cache_capacity), &items);
    if tracing {
        cached_engine.enable_tracing(trace_config);
    }
    if metrics_on {
        cached_engine.enable_metrics(workload.metrics_config(50));
    }
    let mut cached = cached_engine.replay(&workload).expect("replay succeeds");
    if tracing {
        trace_sections.push(("simulated".to_string(), std::mem::take(&mut cached.trace)));
    }
    print!("{}", cached.report.summary());
    let section_log = trace_sections.last().map(|(_, log)| log);
    print_observability(&cached.report, section_log);
    if metrics_on {
        metrics_sections.push((
            "simulated".to_string(),
            exposition(&cached.report, section_log),
        ));
    }
    match cached.report.write_json() {
        Ok(path) => println!("  telemetry JSON written to {}\n", path.display()),
        Err(error) => eprintln!("  warning: could not write telemetry: {error}\n"),
    }

    // 2. Same trace, cache disabled: identical outputs, higher modeled energy.
    let mut uncached_engine = engine(serve_config(0), &items);
    let uncached = uncached_engine.replay(&workload).expect("replay succeeds");
    assert_eq!(cached.responses.len(), uncached.responses.len());
    for (a, b) in cached.responses.iter().zip(uncached.responses.iter()) {
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {}", a.id);
        assert_eq!(a.candidates, b.candidates, "query {}", a.id);
    }
    let cached_pj = cached.report.telemetry.energy_pj_per_query();
    let uncached_pj = uncached.report.telemetry.energy_pj_per_query();
    // The cache saves CMA row reads; pooling adds and TCAM searches are unaffected, so
    // the read component is where the hit rate shows up.
    let queries_f = cached.responses.len() as f64;
    let cached_read_pj = cached
        .report
        .telemetry
        .cost
        .component(CostComponent::CmaRead)
        .energy_pj
        / queries_f;
    let uncached_read_pj = uncached
        .report
        .telemetry
        .cost
        .component(CostComponent::CmaRead)
        .energy_pj
        / queries_f;
    println!("== Cache-off control ==");
    println!(
        "  all {} predictions bit-identical with the cache off; {:.1}% hit rate cuts the CMA read traffic {:.1} -> {:.1} pJ/query ({:.1}x), total GPCiM energy {:.1} -> {:.1} pJ/query",
        cached.responses.len(),
        cached.report.cache.hit_rate() * 100.0,
        uncached_read_pj,
        cached_read_pj,
        uncached_read_pj / cached_read_pj.max(f64::MIN_POSITIVE),
        uncached_pj,
        cached_pj,
    );

    // 3. Optional: the same trace on the threaded runtime, arrivals paced in real time.
    //    The simulated replay above *models* latency on a virtual clock; this measures
    //    it on real threads, and the ranking outputs must still match bit for bit.
    if threads > 0 {
        println!("\n== Threaded runtime: {threads} workers, real-time Poisson pacing ==");
        let mut runtime_engine = engine(serve_config(cache_capacity), &items);
        if tracing {
            runtime_engine.enable_tracing(trace_config);
        }
        if metrics_on {
            runtime_engine.enable_metrics(workload.metrics_config(50));
        }
        let config = ThreadedReplayConfig {
            runtime: RuntimeConfig::new(threads, 4096).expect("valid runtime config"),
            speedup: 1.0,
            shed_on_full: false,
        };
        let mut threaded =
            replay_threaded(&runtime_engine, &workload, &config).expect("threaded replay succeeds");
        if tracing {
            trace_sections.push(("threaded".to_string(), std::mem::take(&mut threaded.trace)));
        }
        let mut by_id = threaded.responses.clone();
        by_id.sort_unstable_by_key(|response| response.id);
        for (threaded_response, simulated_response) in by_id.iter().zip(cached.responses.iter()) {
            assert_eq!(threaded_response.id, simulated_response.id);
            assert_eq!(
                threaded_response.score.to_bits(),
                simulated_response.score.to_bits(),
                "query {}: threaded vs simulated",
                threaded_response.id
            );
        }
        let mut report = threaded.report;
        report.name = "serve_replay_threaded".to_string();
        print!("{}", report.summary());
        let section_log = trace_sections.last().map(|(_, log)| log);
        print_observability(&report, section_log);
        if metrics_on {
            metrics_sections.push(("threaded".to_string(), exposition(&report, section_log)));
        }
        println!(
            "  all {} threaded predictions bit-identical to the simulated replay",
            by_id.len()
        );
        println!(
            "  measured vs modeled: wall p50 {:.0}us / p99 {:.0}us over {:.2}s, vs virtual p50 {:.0}us / p99 {:.0}us",
            report.telemetry.latency.quantile_us(0.50),
            report.telemetry.latency.quantile_us(0.99),
            report.runtime.as_ref().map_or(0.0, |stats| stats.wall_us) / 1e6,
            cached.report.telemetry.latency.quantile_us(0.50),
            cached.report.telemetry.latency.quantile_us(0.99),
        );
        match report.write_json() {
            Ok(path) => println!("  threaded telemetry JSON written to {}", path.display()),
            Err(error) => eprintln!("  warning: could not write threaded telemetry: {error}"),
        }
    }

    // 4. Optional: the multi-node cluster. The catalogue is permuted (ids are not
    //    popularity-sorted, as in a real catalogue) so shard placement actually
    //    matters: range placement scatters the hot rows across nodes, frequency-aware
    //    placement packs them from the trace histogram and replicates the hottest
    //    eighth — and the cross-shard RSC-bus traffic shows the difference.
    if shard_nodes > 0 {
        println!(
            "\n== Multi-node cluster: {shard_nodes} shard nodes, {} placement, permuted catalogue ==",
            placement.label()
        );
        let sharded_workload = ReplayWorkload::generate(&replay_config(queries, Some(11)))
            .expect("valid replay config");
        let histogram = sharded_workload
            .row_histogram(NUM_ITEMS)
            .expect("histories are in range");
        let cluster_config = ClusterConfig {
            shards: shard_nodes,
            workers_per_shard: 1,
            queue_capacity: 256,
            placement,
            hot_replicas: if placement == Placement::Frequency {
                NUM_ITEMS / 8
            } else {
                0
            },
            interconnect: Default::default(),
            resilience: None,
        };
        // Single-node control on the same permuted trace: the equivalence anchor.
        let mut control = engine(serve_config(cache_capacity), &items);
        let expected = control
            .replay(&sharded_workload)
            .expect("control replay succeeds");
        let (mut clustered, handle) = ServeEngine::new_clustered(
            Dlrm::new(model_config()).expect("valid config"),
            &items,
            serve_config(cache_capacity),
            &cluster_config,
            Some(&histogram),
        )
        .expect("valid clustered engine");
        if tracing {
            clustered.enable_tracing(trace_config);
        }
        if metrics_on {
            clustered.enable_metrics(sharded_workload.metrics_config(50));
        }
        let mut outcome = clustered
            .replay(&sharded_workload)
            .expect("clustered replay succeeds");
        if tracing {
            trace_sections.push(("sharded".to_string(), std::mem::take(&mut outcome.trace)));
        }
        for (a, b) in outcome.responses.iter().zip(expected.responses.iter()) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "query {}: clustered vs single-node",
                a.id
            );
            assert_eq!(a.candidates, b.candidates, "query {}", a.id);
        }
        let mut report = outcome.report;
        report.name = format!("serve_replay_sharded_{}", placement.label());
        print!("{}", report.summary());
        let section_log = trace_sections.last().map(|(_, log)| log);
        print_observability(&report, section_log);
        if metrics_on {
            metrics_sections.push(("sharded".to_string(), exposition(&report, section_log)));
        }
        println!(
            "  all {} clustered predictions bit-identical to the single-node engine",
            outcome.responses.len()
        );
        match report.write_json() {
            Ok(path) => println!("  sharded telemetry JSON written to {}", path.display()),
            Err(error) => eprintln!("  warning: could not write sharded telemetry: {error}"),
        }

        if threads > 0 {
            println!("\n== Threaded runtime over the cluster: {threads} workers ==");
            let mut threaded = replay_threaded(
                &clustered,
                &sharded_workload,
                &ThreadedReplayConfig {
                    runtime: RuntimeConfig::new(threads, 4096).expect("valid runtime config"),
                    speedup: 1.0,
                    shed_on_full: false,
                },
            )
            .expect("threaded clustered replay succeeds");
            if tracing {
                trace_sections.push((
                    "sharded-threaded".to_string(),
                    std::mem::take(&mut threaded.trace),
                ));
            }
            let mut by_id = threaded.responses.clone();
            by_id.sort_unstable_by_key(|response| response.id);
            for (a, b) in by_id.iter().zip(expected.responses.iter()) {
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "query {}: threaded clustered vs single-node",
                    a.id
                );
            }
            let mut threaded_report = threaded.report;
            threaded_report.name = format!("serve_replay_sharded_{}_threaded", placement.label());
            print!("{}", threaded_report.summary());
            let section_log = trace_sections.last().map(|(_, log)| log);
            print_observability(&threaded_report, section_log);
            if metrics_on {
                metrics_sections.push((
                    "sharded-threaded".to_string(),
                    exposition(&threaded_report, section_log),
                ));
            }
            println!(
                "  all {} threaded clustered predictions bit-identical to the single-node engine",
                by_id.len()
            );
            match threaded_report.write_json() {
                Ok(path) => println!("  sharded threaded telemetry written to {}", path.display()),
                Err(error) => eprintln!("  warning: could not write telemetry: {error}"),
            }
        }
        handle.shutdown().expect("cluster shuts down cleanly");

        // 5. Optional: the same cluster over real processes and Unix-domain sockets.
        //    Fault-free, the wire changes nothing: every prediction must match the
        //    in-process cluster (and therefore the single-node engine) bit for bit.
        if uds {
            println!("\n== UDS transport: {shard_nodes} shard-node processes ==");
            let exe = std::env::current_exe().expect("own executable path");
            let sockets: Vec<PathBuf> = (0..shard_nodes)
                .map(|shard| socket_path("serve-replay", shard))
                .collect();
            let mut children: Vec<std::process::Child> = sockets
                .iter()
                .map(|path| {
                    std::process::Command::new(&exe)
                        .arg("--shard-node")
                        .arg(path)
                        .spawn()
                        .expect("spawn shard-node process")
                })
                .collect();
            for path in &sockets {
                let started = std::time::Instant::now();
                while std::os::unix::net::UnixStream::connect(path).is_err() {
                    assert!(
                        started.elapsed() < std::time::Duration::from_secs(10),
                        "shard node never came up on {path:?}"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
            let (mut uds_engine, uds_handle) = ServeEngine::new_clustered_sockets(
                Dlrm::new(model_config()).expect("valid config"),
                &items,
                serve_config(cache_capacity),
                &cluster_config,
                Some(&histogram),
                &sockets,
                ClusterOptions::default(),
            )
            .expect("valid uds engine");
            if tracing {
                uds_engine.enable_tracing(trace_config);
            }
            if metrics_on {
                uds_engine.enable_metrics(sharded_workload.metrics_config(50));
            }
            let mut uds_outcome = uds_engine
                .replay(&sharded_workload)
                .expect("uds replay succeeds");
            if tracing {
                trace_sections.push(("uds".to_string(), std::mem::take(&mut uds_outcome.trace)));
            }
            assert_eq!(uds_outcome.responses.len(), expected.responses.len());
            for (a, b) in uds_outcome.responses.iter().zip(expected.responses.iter()) {
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "query {}: uds vs in-process",
                    a.id
                );
                assert_eq!(a.candidates, b.candidates, "query {}", a.id);
            }
            let mut uds_report = uds_outcome.report;
            uds_report.name = "serve_replay_uds".to_string();
            print!("{}", uds_report.summary());
            let section_log = trace_sections.last().map(|(_, log)| log);
            print_observability(&uds_report, section_log);
            if metrics_on {
                metrics_sections.push(("uds".to_string(), exposition(&uds_report, section_log)));
            }
            println!(
                "  all {} UDS predictions bit-identical to the in-process cluster",
                uds_outcome.responses.len()
            );
            match uds_report.write_json() {
                Ok(path) => println!("  uds telemetry JSON written to {}", path.display()),
                Err(error) => eprintln!("  warning: could not write uds telemetry: {error}"),
            }
            drop(uds_engine); // hang the links up before the nodes are told to exit
            uds_handle
                .shutdown()
                .expect("uds cluster shuts down cleanly");
            for child in &mut children {
                let status = child.wait().expect("shard node reaped");
                assert!(status.success(), "shard node exited with {status}");
            }
        }

        // 6. Optional: the chaos run. The fault fires mid-replay against a
        //    resilience-enabled router; the replay must still complete with zero lost
        //    queries, and the degraded-mode accounting goes into the report.
        if let Some(spec) = chaos_spec {
            println!(
                "\n== Chaos: {:?} on shard {} mid-replay, resilient router ==",
                spec.kind, spec.shard
            );
            let mut chaos_cluster = cluster_config.clone();
            // Replicate deeper than the cache: rows the cache absorbs never reach the
            // cluster, so hedging and promotion only have material to work with when
            // the replicated set extends past the cached one.
            chaos_cluster.hot_replicas = chaos_cluster.hot_replicas.max(NUM_ITEMS / 4);
            // Tight deadlines keep a stalled shard from dominating the run; two
            // retries with backoff, and hedging just above the healthy service time so
            // a slowed shard's tail is actually rescued by replica reads.
            chaos_cluster.resilience = Some(ResilienceConfig {
                request_timeout_us: 50_000.0,
                hedge_after_us: 1_000.0,
                max_retries: 2,
                backoff_us: 1_000.0,
            });
            // Fire early (after 5 served sub-requests) so the fault lands even on the
            // coldest shard of a frequency-packed placement.
            let plan = Arc::new(ChaosPlan::new(spec, 5));
            let mut chaos_options = ClusterOptions::default();
            chaos_options.chaos = Some(plan.clone());
            let (mut chaos_engine, chaos_handle) = ServeEngine::new_clustered_with(
                Dlrm::new(model_config()).expect("valid config"),
                &items,
                serve_config(cache_capacity),
                &chaos_cluster,
                Some(&histogram),
                chaos_options,
            )
            .expect("valid chaos engine");
            if tracing {
                chaos_engine.enable_tracing(trace_config);
            }
            if metrics_on {
                chaos_engine.enable_metrics(sharded_workload.metrics_config(50));
            }
            let mut chaos_outcome = chaos_engine
                .replay(&sharded_workload)
                .expect("chaos replay completes");
            if tracing {
                trace_sections.push((
                    "chaos".to_string(),
                    std::mem::take(&mut chaos_outcome.trace),
                ));
            }
            if !plan.fired() {
                // Loud failure over a silent green-light: a fault that never fired
                // exercised nothing (frequency placement can leave tail shards with
                // zero traffic — aim at a shard that actually serves).
                eprintln!(
                    "serve_replay: chaos fault never fired: shard {} served too few \
                     sub-requests; aim --chaos at a busier shard",
                    spec.shard
                );
                std::process::exit(1);
            }
            assert_eq!(
                chaos_outcome.responses.len(),
                expected.responses.len(),
                "zero lost queries under chaos"
            );
            let mut chaos_report = chaos_outcome.report;
            chaos_report.name = "serve_replay_chaos".to_string();
            print!("{}", chaos_report.summary());
            let section_log = trace_sections.last().map(|(_, log)| log);
            print_observability(&chaos_report, section_log);
            if metrics_on {
                metrics_sections
                    .push(("chaos".to_string(), exposition(&chaos_report, section_log)));
            }
            let stats = chaos_report
                .cluster
                .as_ref()
                .expect("clustered runs report cluster stats");
            println!(
                "  all {} queries answered under {:?}: {} timeouts, {} retries, {} hedges ({} won), {} promotions, {} rows zero-filled, {} degraded queries",
                chaos_outcome.responses.len(),
                spec.kind,
                stats.timeouts,
                stats.retries,
                stats.hedges,
                stats.hedge_wins,
                stats.promotions,
                stats.missing_rows,
                chaos_report.telemetry.degraded_queries,
            );
            match chaos_report.write_json() {
                Ok(path) => println!("  chaos telemetry JSON written to {}", path.display()),
                Err(error) => eprintln!("  warning: could not write chaos telemetry: {error}"),
            }
            // A killed shard's worker is allowed (expected, for kill) to be dead at
            // shutdown; the handle must report it rather than hang.
            match chaos_handle.shutdown() {
                Ok(_) => println!("  cluster shut down cleanly"),
                Err(error) => println!("  cluster shut down degraded: {error}"),
            }
        }
    }

    // 7. Optional: the metrics artifact. Every armed run contributed one exposition
    //    section; a requested dump with no time-series windows anywhere would be the
    //    same silent-green-light hazard as an empty trace, so that case exits loudly.
    if let Some(path) = metrics_out {
        let windowed = metrics_sections
            .iter()
            .filter(|(_, section)| section.contains("imars_window_qps{"))
            .count();
        if windowed == 0 {
            eprintln!(
                "serve_replay: --metrics-out was requested but no run produced a \
                 time-series window; the scraper never saw an event"
            );
            std::process::exit(1);
        }
        let mut dump = String::new();
        for (name, section) in &metrics_sections {
            dump.push_str(&format!("# == run: {name} ==\n"));
            dump.push_str(section);
        }
        match std::fs::write(&path, &dump) {
            Ok(()) => println!(
                "\nmetrics exposition ({} sections, {windowed} with time series) written to {}",
                metrics_sections.len(),
                path.display()
            ),
            Err(error) => {
                eprintln!("serve_replay: could not write metrics to {path:?}: {error}");
                std::process::exit(1);
            }
        }
    }

    // 8. Optional: the trace artifacts. A requested trace with zero sampled queries is
    //    a CI hazard — an empty-but-valid JSON would green-light a run that exercised
    //    nothing — so that case exits loudly instead.
    if tracing {
        let total_sampled: u64 = trace_sections.iter().map(|(_, log)| log.sampled()).sum();
        if total_sampled == 0 {
            eprintln!(
                "serve_replay: tracing was requested but no query was sampled; \
                 raise --smoke query counts or lower TraceConfig::sample_every"
            );
            std::process::exit(1);
        }
        if let Some(k) = slow_log {
            for (name, log) in &trace_sections {
                println!("\n== Slow-query log: {name} (top {k}) ==");
                print!("{}", log.render_slow_log());
            }
        }
        if let Some(path) = trace_out {
            let json = chrome_export(
                trace_sections
                    .iter()
                    .map(|(name, log)| (name.as_str(), log)),
            );
            match std::fs::write(&path, &json) {
                Ok(()) => println!(
                    "\nchrome trace ({} sections, {total_sampled} sampled queries) written to {}",
                    trace_sections.len(),
                    path.display()
                ),
                Err(error) => {
                    eprintln!("serve_replay: could not write trace to {path:?}: {error}");
                    std::process::exit(1);
                }
            }
        }
    }
}

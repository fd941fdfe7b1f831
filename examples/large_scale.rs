//! Paper-scale offline driver: the MovieLens-1M-sized accuracy study plus a
//! multi-million-row Zipf replay through the serving stack, with throughput, tail
//! latency and resident-memory accounting.
//!
//! Run with: `cargo run --release --example large_scale [-- --smoke]`
//!
//! `--smoke` swaps in the CI-sized proxy grid (same code paths, seconds instead of
//! minutes). Writes `target/imars-bench/large_scale.json`. Set `IMARS_FORCE_SCALAR=1`
//! to replay on the scalar pooling kernels for a SIMD before/after comparison.

use imars::core::large_scale::{run_large_scale, LargeScaleConfig};

/// Resident set size of this process in bytes (Linux; `None` elsewhere).
fn resident_set_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    let smoke = std::env::args().skip(1).any(|arg| arg == "--smoke");
    let config = if smoke {
        LargeScaleConfig::smoke()
    } else {
        LargeScaleConfig::paper()
    };
    let simd = if imars::fabric::simd::force_scalar() {
        "scalar (forced)"
    } else {
        "runtime-dispatched"
    };
    println!(
        "== large_scale ({}) — pooling kernels: {simd} ==",
        if smoke { "smoke" } else { "paper scale" }
    );

    let rss_before = resident_set_bytes();
    let outcome = run_large_scale(&config).expect("study runs");
    let rss_after = resident_set_bytes();

    println!(
        "-- accuracy: {} users x {} items, {} test users, training improved: {}",
        config.accuracy.dataset.num_users,
        config.accuracy.dataset.num_items,
        outcome.accuracy.test_users,
        outcome.accuracy.training_improved,
    );
    println!(
        "   {:<18} {:>9} {:>9} {:>9} {:>12}",
        "variant", "hit rate", "mrr", "auc", "candidates"
    );
    for variant in &outcome.accuracy.variants {
        println!(
            "   {:<18} {:>9.3} {:>9.3} {:>9.3} {:>12.1}",
            variant.label, variant.hit_rate, variant.mrr, variant.auc, variant.mean_candidates
        );
    }

    println!(
        "-- replay: {} rows x {} queries, {} shards, Zipf {:.2}",
        config.replay.num_items,
        config.replay.queries,
        config.replay.shards,
        config.replay.zipf_exponent,
    );
    for point in &outcome.replay {
        println!(
            "   {:>4}: {:>10.0} qps served ({:>12.0} modeled) | p50 {:>8.1}us p95 {:>8.1}us p99 {:>8.1}us | cache {:>5.1}% | catalogue {:.1} MB resident (one arena allocation)",
            match point.precision {
                imars::serve::ServePrecision::Fp32 => "fp32",
                imars::serve::ServePrecision::Int8 => "int8",
            },
            point.served_qps,
            point.modeled_qps,
            point.p50_us,
            point.p95_us,
            point.p99_us,
            point.hit_rate * 100.0,
            point.catalogue_bytes as f64 / 1e6,
        );
    }
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        println!(
            "   process RSS: {:.0} MB -> {:.0} MB across the study (peak includes the borrowed source table; the old per-shard-copy layout would add another {:.1} MB per dtype)",
            before as f64 / 1e6,
            after as f64 / 1e6,
            outcome
                .replay
                .iter()
                .map(|p| p.catalogue_bytes)
                .max()
                .unwrap_or(0) as f64
                / 1e6,
        );
    }

    match outcome.study().write_json() {
        Ok(path) => println!("study written to {}", path.display()),
        Err(error) => eprintln!("warning: could not write study JSON: {error}"),
    }
}

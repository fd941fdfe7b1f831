//! What the cluster's test modules share: a small catalogue, the serve / replay /
//! cluster configurations the suites run, and thread-hosted socket nodes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use imars_fabric::config::InterconnectParams;
use imars_recsys::arena::RowArena;
use imars_recsys::dlrm::DlrmConfig;
use imars_recsys::EmbeddingTable;

use super::{spawn_cluster_with, ClusterClient, ClusterConfig, ClusterHandle, ClusterOptions};
use crate::batcher::BatchPolicy;
use crate::cache::CachePolicy;
use crate::engine::{ServeConfig, ServePrecision};
use crate::error::ServeError;
use crate::placement::{Placement, ShardPlan};
use crate::replay::ReplayConfig;
use crate::shard::Lane;
use crate::transport;

pub(super) const ITEM_DIM: usize = 4;
pub(super) const NUM_ITEMS: usize = 512;

pub(super) fn items() -> EmbeddingTable {
    EmbeddingTable::new(NUM_ITEMS, ITEM_DIM, 31).unwrap()
}

pub(super) fn arena_of(table: &EmbeddingTable) -> RowArena<f32> {
    RowArena::from_rows(table.iter_rows(), table.dim()).unwrap()
}

pub(super) fn serve_config(cache_capacity: usize, precision: ServePrecision) -> ServeConfig {
    ServeConfig {
        shards: 4,
        cache_capacity,
        cache_policy: CachePolicy::Clock,
        cache_placement: crate::cache::CachePlacement::Router,
        shard_batching: false,
        precision,
        policy: BatchPolicy::new(16, 300.0).unwrap(),
        signature_bits: 64,
        search_radius: 27,
        lsh_seed: 7,
    }
}

pub(super) fn replay_config(queries: usize) -> ReplayConfig {
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
        seed: 123,
        item_permutation_seed: None,
    }
}

pub(super) fn cluster_config(shards: usize, workers_per_shard: usize) -> ClusterConfig {
    ClusterConfig {
        shards,
        workers_per_shard,
        queue_capacity: 32,
        placement: Placement::Range,
        hot_replicas: 0,
        interconnect: InterconnectParams::default(),
        resilience: None,
    }
}

/// One in-thread [`transport::run_shard_node`] per shard on fresh socket paths,
/// returned once every node accepts connections.
#[allow(clippy::type_complexity)]
pub(super) fn spawn_uds_nodes(
    label: &str,
    shards: usize,
) -> (
    Vec<PathBuf>,
    Vec<std::thread::JoinHandle<std::io::Result<()>>>,
) {
    let sockets: Vec<PathBuf> = (0..shards)
        .map(|shard| transport::socket_path(label, shard))
        .collect();
    let nodes = sockets
        .iter()
        .cloned()
        .map(|path| std::thread::spawn(move || transport::run_shard_node(&path)))
        .collect();
    for path in &sockets {
        let started = Instant::now();
        while std::os::unix::net::UnixStream::connect(path).is_err() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "shard node never came up on {path:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    (sockets, nodes)
}

/// [`spawn_cluster_with`] with no chaos, the wall clock and no node caches.
pub(super) fn spawn_cluster<T: Lane>(
    arena: &RowArena<T>,
    plan: ShardPlan,
    config: &ClusterConfig,
) -> Result<(ClusterClient<T>, ClusterHandle), ServeError> {
    spawn_cluster_with(arena, plan, config, ClusterOptions::default())
}

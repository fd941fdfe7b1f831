//! The four workloads, frozen: what each one builds, the trace it replays, and the
//! shard-node child processes the socket workload runs against. `README.md` says why
//! each exists and which layer it isolates.

use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use imars::recsys::{Dlrm, DlrmConfig, EmbeddingTable};
use imars::serve::{
    ClusterConfig, ClusterHandle, ClusterOptions, Placement, ReplayConfig, ReplayWorkload,
    ServeConfig, ServeEngine, ServePrecision,
};

/// Item embedding width; the pooled profile is the DLRM dense input.
pub const ITEM_DIM: usize = 32;
/// Seed of the item catalogue (the trace seed is the `--seed` argument).
const CATALOGUE_SEED: u64 = 77;
/// Where the benchmark writes: socket files and the Chrome trace, inside the checkout.
pub const OUT_DIR: &str = "target/imars-bench";

/// Where the item rows live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `ServeEngine::new` over this many in-process shards.
    InProcess { shards: usize },
    /// `ServeEngine::new_clustered_sockets` over this many shard-node child processes.
    SocketNodes { nodes: usize },
}

/// DLRM layer widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// The paper's: bottom 256-128-32, top 256-64-1.
    Paper,
    /// Bottom 512-256-32, top 1024-512-256-1: makes ranking the dominant stage.
    Wide,
}

/// One frozen workload. The parameters are part of the name's meaning: change one and
/// the numbers recorded under the name stop being comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub items: usize,
    pub zipf: f64,
    pub history: usize,
    pub cache_rows: usize,
    pub precision: ServePrecision,
    pub topology: Topology,
    pub model: Model,
    /// Fixed open-loop arrival rate, queries/s (0.35–0.55 worker utilization at the
    /// commit that defined the benchmark).
    pub open_qps: f64,
    /// Sizes a closed pass: requests per second of pass length. Near the capacity at
    /// the defining commit; it never enters a reported number.
    pub closed_nominal_qps: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "nns-bound",
        items: 8192,
        zipf: 1.2,
        history: 32,
        cache_rows: 1024,
        precision: ServePrecision::Fp32,
        topology: Topology::InProcess { shards: 4 },
        model: Model::Paper,
        open_qps: 2500.0,
        closed_nominal_qps: 7000.0,
    },
    Workload {
        name: "mlp-bound",
        items: 1024,
        zipf: 1.2,
        history: 8,
        cache_rows: 128,
        precision: ServePrecision::Fp32,
        topology: Topology::InProcess { shards: 4 },
        model: Model::Wide,
        open_qps: 1500.0,
        closed_nominal_qps: 6500.0,
    },
    Workload {
        name: "pool-hit",
        items: 1024,
        zipf: 1.2,
        history: 256,
        cache_rows: 128,
        precision: ServePrecision::Int8,
        topology: Topology::InProcess { shards: 4 },
        model: Model::Paper,
        open_qps: 2500.0,
        closed_nominal_qps: 16000.0,
    },
    Workload {
        name: "fetch-uds",
        items: 2048,
        zipf: 0.6,
        history: 128,
        cache_rows: 64,
        precision: ServePrecision::Fp32,
        topology: Topology::SocketNodes { nodes: 2 },
        model: Model::Paper,
        open_qps: 2000.0,
        closed_nominal_qps: 12000.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

impl Workload {
    pub fn model_config(&self) -> DlrmConfig {
        let (bottom_hidden, top_hidden) = match self.model {
            Model::Paper => (vec![256, 128, 32], vec![256, 64, 1]),
            Model::Wide => (vec![512, 256, 32], vec![1024, 512, 256, 1]),
        };
        DlrmConfig {
            num_dense_features: ITEM_DIM,
            sparse_cardinalities: vec![1000; 26],
            embedding_dim: 32,
            bottom_hidden,
            top_hidden,
            seed: 42,
        }
    }

    pub fn serve_config(&self) -> Result<ServeConfig, String> {
        let mut config = ServeConfig::paper_serving(self.cache_rows).map_err(display)?;
        config.precision = self.precision;
        if let Topology::InProcess { shards } = self.topology {
            config.shards = shards;
        }
        Ok(config)
    }

    /// The trace: Zipf histories over a permuted catalogue, Poisson arrivals at the
    /// workload's open-loop rate. A pure function of `seed`.
    pub fn trace(&self, seed: u64, queries: usize) -> Result<ReplayWorkload, String> {
        ReplayWorkload::generate(&ReplayConfig {
            queries,
            num_users: 4096,
            num_items: self.items,
            zipf_exponent: self.zipf,
            history_len: self.history,
            offered_qps: self.open_qps,
            candidates_per_query: 100,
            top_k: 10,
            sparse_cardinalities: self.model_config().sparse_cardinalities,
            seed,
            item_permutation_seed: Some(seed),
        })
        .map_err(display)
    }

    fn catalogue(&self) -> Result<EmbeddingTable, String> {
        EmbeddingTable::new(self.items, ITEM_DIM, CATALOGUE_SEED).map_err(display)
    }

    fn model(&self) -> Result<Dlrm, String> {
        Dlrm::new(self.model_config()).map_err(display)
    }

    /// A single-node in-process engine over the same catalogue and model: the second
    /// oracle of the socket workload.
    pub fn in_process_engine(&self) -> Result<ServeEngine, String> {
        ServeEngine::new(self.model()?, &self.catalogue()?, self.serve_config()?).map_err(display)
    }
}

pub fn display(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// A built system ready for its first query, with how long building took.
#[derive(Debug)]
pub struct Served {
    pub items: EmbeddingTable,
    pub engine: ServeEngine,
    cluster: Option<(ClusterHandle, ShardNodes)>,
    /// Time until the engine could take its first query.
    pub setup_s: f64,
    /// Part of `setup_s` spent spawning shard nodes and waiting for their sockets.
    pub spawn_s: f64,
}

impl Served {
    /// Phase 1: catalogue, model, engine (TCAM load, quantize, node spawn + LOAD).
    pub fn build(workload: &Workload) -> Result<Self, String> {
        let started = Instant::now();
        let items = workload.catalogue()?;
        let model = workload.model()?;
        let config = workload.serve_config()?;
        let (engine, cluster, spawn_s) = match workload.topology {
            Topology::InProcess { .. } => (
                ServeEngine::new(model, &items, config).map_err(display)?,
                None,
                0.0,
            ),
            Topology::SocketNodes { nodes } => {
                let spawn_started = Instant::now();
                let shard_nodes = ShardNodes::spawn(nodes)?;
                let spawn_s = spawn_started.elapsed().as_secs_f64();
                let cluster = ClusterConfig {
                    shards: nodes,
                    workers_per_shard: 1,
                    queue_capacity: 256,
                    placement: Placement::Range,
                    hot_replicas: 0,
                    interconnect: Default::default(),
                    resilience: None,
                };
                // An error here drops `shard_nodes`, which kills and reaps the children.
                let (engine, handle) = ServeEngine::new_clustered_sockets(
                    model,
                    &items,
                    config,
                    &cluster,
                    None,
                    &shard_nodes.sockets,
                    ClusterOptions::default(),
                )
                .map_err(display)?;
                (engine, Some((handle, shard_nodes)), spawn_s)
            }
        };
        Ok(Self {
            items,
            engine,
            cluster,
            setup_s: started.elapsed().as_secs_f64(),
            spawn_s,
        })
    }

    /// Hang up, tell the nodes to exit, and wait until every child has ended cleanly.
    pub fn teardown(self) -> Result<(), String> {
        let Self {
            engine, cluster, ..
        } = self;
        drop(engine); // the links hang up before the nodes are told to exit
        if let Some((handle, nodes)) = cluster {
            handle.shutdown().map_err(display)?;
            nodes.reap()?;
        }
        Ok(())
    }
}

/// Distinguishes the socket files of successive set-ups in one process.
static NODE_SERIAL: AtomicUsize = AtomicUsize::new(0);

/// Shard-node child processes (this executable re-run with `--shard-node <socket>`).
/// Dropping the value kills and reaps whatever is still running, so no error path
/// leaves a child behind.
#[derive(Debug)]
pub struct ShardNodes {
    children: Vec<Child>,
    pub sockets: Vec<PathBuf>,
}

impl ShardNodes {
    pub fn spawn(count: usize) -> Result<Self, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(display)?;
        let exe = std::env::current_exe().map_err(display)?;
        let serial = NODE_SERIAL.fetch_add(1, Ordering::Relaxed);
        let mut nodes = Self {
            children: Vec::new(),
            sockets: Vec::new(),
        };
        for shard in 0..count {
            // Relative to the working directory, so the path stays far below the
            // 108-byte `sun_path` limit wherever the checkout lives.
            let socket = PathBuf::from(format!(
                "{OUT_DIR}/node-{}-{serial}-{shard}.sock",
                std::process::id()
            ));
            let child = Command::new(&exe)
                .arg("--shard-node")
                .arg(&socket)
                .spawn()
                .map_err(|error| format!("spawn shard node: {error}"))?;
            nodes.children.push(child);
            nodes.sockets.push(socket);
        }
        for socket in &nodes.sockets {
            let started = Instant::now();
            while std::os::unix::net::UnixStream::connect(socket).is_err() {
                if started.elapsed() > Duration::from_secs(10) {
                    return Err(format!("shard node never came up on {}", socket.display()));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(nodes)
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Wait for every node to exit on its own (they were sent `SHUTDOWN`) and check
    /// that each exited with success.
    fn reap(mut self) -> Result<(), String> {
        for child in &mut self.children {
            let started = Instant::now();
            let status = loop {
                match child.try_wait().map_err(display)? {
                    Some(status) => break status,
                    None if started.elapsed() > Duration::from_secs(10) => {
                        return Err(format!("shard node {} ignored SHUTDOWN", child.id()));
                    }
                    None => std::thread::sleep(Duration::from_millis(1)),
                }
            };
            if !status.success() {
                return Err(format!("shard node {} exited with {status}", child.id()));
            }
        }
        Ok(())
    }
}

impl Drop for ShardNodes {
    fn drop(&mut self) {
        for child in &mut self.children {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        for socket in &self.sockets {
            let _ = std::fs::remove_file(socket);
        }
    }
}

//! Analytical kernel cost models for the GPU baseline.
//!
//! The RecSys inference kernels at batch size 1 are short: their run time is dominated by
//! kernel-launch/dispatch overhead plus (for the embedding kernels) scattered DRAM
//! gathers. Each model here decomposes one paper-measured operation into those terms.

use crate::specs::GpuSpecs;

/// Latency (µs) and energy (µJ) of one GPU operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuCost {
    /// Latency in microseconds.
    pub latency_us: f64,
    /// Energy in microjoules.
    pub energy_uj: f64,
}

impl GpuCost {
    /// Sequential composition of two operations.
    pub fn serial(self, other: GpuCost) -> GpuCost {
        GpuCost {
            latency_us: self.latency_us + other.latency_us,
            energy_uj: self.energy_uj + other.energy_uj,
        }
    }

    /// Repeat this operation `n` times sequentially.
    pub fn repeat(self, n: usize) -> GpuCost {
        GpuCost {
            latency_us: self.latency_us * n as f64,
            energy_uj: self.energy_uj * n as f64,
        }
    }
}

/// Description of one embedding-table access pattern of a lookup kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableAccess {
    /// Number of rows in the table (drives nothing directly but kept for reporting).
    pub rows: usize,
    /// Number of rows gathered from this table for one input.
    pub lookups: usize,
}

/// Embedding lookup + pooling kernel: gathers `lookups` rows of `dim × 4` bytes from each
/// table, sums them, and writes the pooled vectors back.
///
/// The dominant terms at batch size 1 are two kernel launches (gather + pooling) and a
/// fixed dispatch cost per distinct table, matching the per-table growth visible across
/// the three Table III workloads.
pub(crate) fn embedding_lookup(specs: &GpuSpecs, tables: &[TableAccess], dim: usize) -> GpuCost {
    let launches = 2.0;
    let total_lookups: usize = tables.iter().map(|t| t.lookups).sum();
    let gathered_bytes = (total_lookups * dim * 4) as f64;
    let pooling_flops = (total_lookups * dim) as f64;
    let latency_us = launches * specs.kernel_launch_overhead_us
        + tables.len() as f64 * specs.per_table_overhead_us
        + specs.gather_time_us(gathered_bytes)
        + specs.compute_time_us(pooling_flops);
    GpuCost {
        latency_us,
        energy_uj: specs.energy_uj(latency_us),
    }
}

/// Exact cosine nearest-neighbour search over `items` vectors of `dim` dimensions:
/// normalization, dot products and a top-k reduction (three launches), streaming the item
/// matrix once per pass.
pub fn nns_cosine(specs: &GpuSpecs, items: usize, dim: usize) -> GpuCost {
    let launches = 3.0;
    let matrix_bytes = (items * dim * 4) as f64;
    let flops = (2 * items * dim) as f64;
    let latency_us = launches * specs.kernel_launch_overhead_us
        + specs.streaming_time_us(matrix_bytes)
        + specs.compute_time_us(flops)
        + specs.streaming_time_us((items * 4) as f64); // score pass for the top-k
    GpuCost {
        latency_us,
        energy_uj: specs.energy_uj(latency_us),
    }
}

/// LSH Hamming nearest-neighbour search over `items` signatures of `signature_bits` bits:
/// XOR + popcount plus a top-k reduction (two launches).
pub(crate) fn nns_lsh_hamming(specs: &GpuSpecs, items: usize, signature_bits: usize) -> GpuCost {
    let launches = 2.0;
    let signature_bytes = (items * signature_bits / 8) as f64;
    let flops = (items * signature_bits / 32) as f64;
    let latency_us = launches * specs.kernel_launch_overhead_us
        + specs.streaming_time_us(signature_bytes)
        + specs.compute_time_us(flops)
        + specs.streaming_time_us((items * 4) as f64);
    GpuCost {
        latency_us,
        energy_uj: specs.energy_uj(latency_us),
    }
}

/// Fully connected DNN stack with the given `(inputs, outputs)` layer shapes, evaluated
/// for a batch of `batch` inputs. One launch per layer; compute and weight traffic scale
/// with the batch and layer sizes.
pub(crate) fn mlp_forward(
    specs: &GpuSpecs,
    layer_shapes: &[(usize, usize)],
    batch: usize,
) -> GpuCost {
    let launches = layer_shapes.len() as f64;
    let weight_bytes: f64 = layer_shapes.iter().map(|&(i, o)| (i * o * 4) as f64).sum();
    let flops: f64 = layer_shapes
        .iter()
        .map(|&(i, o)| (2 * i * o * batch.max(1)) as f64)
        .sum();
    let latency_us = launches * specs.kernel_launch_overhead_us
        + specs.streaming_time_us(weight_bytes)
        + specs.compute_time_us(flops);
    GpuCost {
        latency_us,
        energy_uj: specs.energy_uj(latency_us),
    }
}

/// Top-k selection over `items` scores (one reduction launch).
pub fn top_k(specs: &GpuSpecs, items: usize) -> GpuCost {
    let latency_us = specs.kernel_launch_overhead_us + specs.streaming_time_us((items * 4) as f64);
    GpuCost {
        latency_us,
        energy_uj: specs.energy_uj(latency_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> GpuSpecs {
        GpuSpecs::gtx_1080()
    }

    #[test]
    fn cost_composition() {
        let a = GpuCost {
            latency_us: 1.0,
            energy_uj: 10.0,
        };
        let b = GpuCost {
            latency_us: 2.0,
            energy_uj: 5.0,
        };
        let c = a.serial(b);
        assert_eq!(c.latency_us, 3.0);
        assert_eq!(c.energy_uj, 15.0);
        let r = a.repeat(4);
        assert_eq!(r.latency_us, 4.0);
        assert_eq!(r.energy_uj, 40.0);
    }

    #[test]
    fn lookup_latency_grows_with_table_count() {
        let six: Vec<TableAccess> = (0..6)
            .map(|_| TableAccess {
                rows: 3706,
                lookups: 5,
            })
            .collect();
        let twenty_six: Vec<TableAccess> = (0..26)
            .map(|_| TableAccess {
                rows: 30000,
                lookups: 1,
            })
            .collect();
        let small = embedding_lookup(&specs(), &six, 32);
        let large = embedding_lookup(&specs(), &twenty_six, 32);
        assert!(large.latency_us > small.latency_us);
        assert!(large.energy_uj > small.energy_uj);
    }

    #[test]
    fn lookup_latency_grows_with_pooling_factor() {
        let light = vec![TableAccess {
            rows: 3706,
            lookups: 1,
        }];
        let heavy = vec![TableAccess {
            rows: 3706,
            lookups: 5000,
        }];
        assert!(
            embedding_lookup(&specs(), &heavy, 32).latency_us
                > embedding_lookup(&specs(), &light, 32).latency_us
        );
    }

    #[test]
    fn cosine_costs_more_than_lsh() {
        let cosine = nns_cosine(&specs(), 3706, 32);
        let lsh = nns_lsh_hamming(&specs(), 3706, 256);
        assert!(cosine.latency_us > lsh.latency_us);
        assert!(cosine.energy_uj > lsh.energy_uj);
    }

    #[test]
    fn mlp_cost_scales_with_batch_and_depth() {
        let shapes = vec![(160, 128), (128, 64), (64, 32)];
        let single = mlp_forward(&specs(), &shapes, 1);
        let batched = mlp_forward(&specs(), &shapes, 512);
        assert!(batched.latency_us > single.latency_us);
        // Batching amortizes the launches: 512x the work costs far less than 512x the time.
        assert!(batched.latency_us < single.latency_us * 32.0);
        let shallow = mlp_forward(&specs(), &shapes[..1], 1);
        assert!(single.latency_us > shallow.latency_us);
    }

    #[test]
    fn topk_is_cheap_but_not_free() {
        let cost = top_k(&specs(), 100);
        assert!(cost.latency_us >= specs().kernel_launch_overhead_us);
        assert!(cost.latency_us < 2.0 * specs().kernel_launch_overhead_us);
        assert!(cost.energy_uj > 0.0);
    }

    #[test]
    fn energy_tracks_latency_via_average_power() {
        let cost = nns_cosine(&specs(), 1000, 32);
        assert!((cost.energy_uj / cost.latency_us - specs().average_power_w).abs() < 1e-9);
    }
}

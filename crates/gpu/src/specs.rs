//! Hardware specification of the GPU baseline.

/// Specification of the GPU used as the baseline (a GTX/RTX 1080-class part, as in the
/// paper's evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpecs {
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// Effective bandwidth fraction achieved by scattered (gather-style) embedding reads.
    pub random_access_efficiency: f64,
    /// Fixed overhead of launching one kernel and synchronizing, in microseconds. At
    /// batch size 1 this dominates the short RecSys kernels.
    pub kernel_launch_overhead_us: f64,
    /// Additional dispatch overhead per embedding table touched by a lookup kernel, in
    /// microseconds (separate tables are separate gather launches in the baseline code).
    pub per_table_overhead_us: f64,
    /// Average board power drawn while executing these memory-bound inference kernels,
    /// in watts (as reported by `nvidia-smi` during the paper's measurements).
    pub average_power_w: f64,
    /// Board thermal design power in watts (informational).
    pub tdp_w: f64,
}

impl GpuSpecs {
    /// A GTX 1080-class baseline with the dispatch overheads implied by the paper's
    /// measurements (Table III and Sec. IV-C2).
    pub fn gtx_1080() -> Self {
        Self {
            peak_gflops: 8_873.0,
            dram_bandwidth_gbps: 320.0,
            random_access_efficiency: 0.12,
            kernel_launch_overhead_us: 3.6,
            per_table_overhead_us: 0.28,
            average_power_w: 22.0,
            tdp_w: 180.0,
        }
    }

    /// Time to move `bytes` bytes of contiguous data at peak DRAM bandwidth, in µs.
    pub(crate) fn streaming_time_us(&self, bytes: f64) -> f64 {
        bytes / (self.dram_bandwidth_gbps * 1.0e9) * 1.0e6
    }

    /// Time to gather `bytes` bytes with scattered accesses, in µs.
    pub(crate) fn gather_time_us(&self, bytes: f64) -> f64 {
        self.streaming_time_us(bytes) / self.random_access_efficiency.max(1e-6)
    }

    /// Time to execute `flops` floating-point operations at peak throughput, in µs.
    pub(crate) fn compute_time_us(&self, flops: f64) -> f64 {
        flops / (self.peak_gflops * 1.0e9) * 1.0e6
    }

    /// Energy drawn over `latency_us` microseconds at the average kernel power, in µJ.
    pub fn energy_uj(&self, latency_us: f64) -> f64 {
        self.average_power_w * latency_us
    }
}

impl Default for GpuSpecs {
    fn default() -> Self {
        Self::gtx_1080()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx_1080_constants_are_sensible() {
        let specs = GpuSpecs::gtx_1080();
        assert!(specs.peak_gflops > 8000.0);
        assert!(specs.dram_bandwidth_gbps > 300.0);
        assert!(specs.average_power_w < specs.tdp_w);
        assert!(specs.random_access_efficiency > 0.0 && specs.random_access_efficiency < 1.0);
    }

    #[test]
    fn streaming_time_matches_bandwidth() {
        let specs = GpuSpecs::gtx_1080();
        // 320 GB at 320 GB/s = 1 s = 1e6 µs.
        assert!((specs.streaming_time_us(320.0e9) - 1.0e6).abs() < 1.0);
        // Gather is slower than streaming.
        assert!(specs.gather_time_us(1.0e6) > specs.streaming_time_us(1.0e6));
    }

    #[test]
    fn compute_time_matches_throughput() {
        let specs = GpuSpecs::gtx_1080();
        let t = specs.compute_time_us(specs.peak_gflops * 1.0e9);
        assert!((t - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn energy_is_power_times_time() {
        let specs = GpuSpecs::gtx_1080();
        assert!((specs.energy_uj(10.0) - 220.0).abs() < 1e-9);
        assert_eq!(specs.energy_uj(0.0), 0.0);
    }
}

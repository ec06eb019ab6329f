//! WSE-2 hardware description and compiler tuning parameters.

use serde::{Deserialize, Serialize};

/// Static hardware description of a wafer-scale engine.
///
/// Defaults ([`WseSpec::cs2`]) follow the CS-2 data sheet: 850,000 PEs,
/// 48 KB SRAM per PE (~40 GB total), 20 PB/s aggregate memory bandwidth and
/// a 220 PB/s Swarm fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WseSpec {
    /// PE grid height (rows).
    pub grid_rows: u64,
    /// PE grid width (columns).
    pub grid_cols: u64,
    /// Local SRAM per PE, bytes.
    pub sram_per_pe_bytes: u64,
    /// Peak 16-bit FLOP/s per PE.
    pub peak_flops_per_pe: f64,
    /// Aggregate on-chip memory bandwidth, bytes/second.
    pub mem_bw_bytes_per_s: f64,
    /// Aggregate fabric bandwidth, bytes/second.
    pub fabric_bw_bytes_per_s: f64,
    /// External (host/MemoryX) ingest bandwidth used by weight streaming,
    /// bytes/second.
    pub external_bw_bytes_per_s: f64,
}

impl WseSpec {
    /// The CS-2 / WSE-2 configuration from the vendor data sheet.
    #[must_use]
    pub fn cs2() -> Self {
        Self {
            grid_rows: 850,
            grid_cols: 1000,
            sram_per_pe_bytes: 48 * 1024,
            // 850k PEs × ~1.94 GFLOP/s ≈ 1.65 PFLOP/s peak at 16-bit —
            // consistent with the ~20% efficiency at 327-338 TFLOPs the
            // paper measures.
            peak_flops_per_pe: 1.94e9,
            mem_bw_bytes_per_s: 20e15,
            fabric_bw_bytes_per_s: 220e15,
            external_bw_bytes_per_s: 1.2e12,
        }
    }

    /// Total PE count.
    #[must_use]
    pub fn pe_count(&self) -> u64 {
        self.grid_rows * self.grid_cols
    }

    /// Total on-chip SRAM, bytes.
    #[must_use]
    pub fn total_sram_bytes(&self) -> u64 {
        self.pe_count() * self.sram_per_pe_bytes
    }

    /// Peak chip throughput at 16-bit precision, TFLOP/s.
    #[must_use]
    pub fn peak_tflops(&self) -> f64 {
        self.pe_count() as f64 * self.peak_flops_per_pe / 1e12
    }
}

impl Default for WseSpec {
    fn default() -> Self {
        Self::cs2()
    }
}

/// Tuning constants of the (modelled) Cerebras graph compiler.
///
/// These are *mechanism* parameters — how the elastic allocator, placer and
/// memory layout behave — calibrated once so that the emergent results land
/// in the bands of Table I and Figs. 6/8(a)/9(a) of the paper. Experiments
/// never read paper numbers directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WseCompilerParams {
    /// FLOPs-per-token one PE should own before an extra PE stops paying
    /// for its fabric traffic; sets every GEMM kernel's scalability cap
    /// (`cap = flops_per_token / gemm_flops_per_token_per_pe`).
    pub gemm_flops_per_token_per_pe: f64,
    /// Parameters one PE can serve for gather-style kernels (embedding);
    /// their cap is `params / params_per_pe`.
    pub params_per_pe: f64,
    /// Per-PE byte budget for resident weights+grads+optimizer; kernels
    /// get at least `weight_state_bytes / budget` PEs (weights must fit).
    pub weight_bytes_per_pe_budget: f64,
    /// Transmission (routing/fan-out) PEs per computation PE — Fig. 6's
    /// second population.
    pub transmission_ratio: f64,
    /// Fraction of the grid the placer may use (I/O rows and reserved
    /// lanes excluded); drives the 92-93% allocation plateau.
    pub usable_grid_fraction: f64,
    /// Sustained fraction of per-PE peak on GEMM kernels with comfortable
    /// memory.
    pub sustained_gemm_efficiency: f64,
    /// Relative processing rate of data-movement kernels (embedding,
    /// loss) versus GEMM kernels; < 1 makes them the pipeline bottleneck
    /// candidates.
    pub io_kernel_rate_factor: f64,
    /// Per-PE configuration memory: fixed code footprint, bytes.
    pub config_base_bytes: f64,
    /// Per-PE configuration memory: growth per kernel-count², bytes
    /// (routing tables; drives the sharp config growth past ~36 layers
    /// and the compile failure at 78).
    pub config_quadratic_bytes: f64,
    /// Fixed per-PE runtime buffer reservation, bytes.
    pub runtime_reserved_bytes: f64,
    /// Fraction of a kernel's per-item forward activations resident at a
    /// time (the rest is recomputed/streamed through the fabric).
    pub activation_residency_factor: f64,
    /// Free working bytes per PE below which compute efficiency degrades
    /// linearly.
    pub comfort_working_bytes: f64,
    /// Floor of the memory-pressure efficiency factor.
    pub min_memory_efficiency: f64,
    /// Minimum PEs any kernel receives.
    pub min_pes_per_kernel: u64,
    /// Throughput multiplier of the CB16 block format relative to FP16.
    pub cb16_speedup: f64,
    /// Per-replica gradient-allreduce cost coefficient for intra-chip data
    /// parallelism (fraction of step time at two replicas per unit of
    /// `(r-1)/r`).
    pub dp_comm_coefficient: f64,
    /// Extra communication penalty per replica beyond two (placement can
    /// no longer keep all replica pairs adjacent).
    pub dp_distance_penalty: f64,
    /// Whole-grid sustained efficiency in weight-streaming mode (layers
    /// run serially across the full wafer at lower per-PE efficiency).
    pub weight_streaming_efficiency: f64,
}

impl Default for WseCompilerParams {
    fn default() -> Self {
        Self {
            gemm_flops_per_token_per_pe: 1900.0,
            params_per_pe: 1100.0,
            weight_bytes_per_pe_budget: 17.0 * 1024.0,
            transmission_ratio: 0.55,
            usable_grid_fraction: 0.93,
            sustained_gemm_efficiency: 0.40,
            io_kernel_rate_factor: 0.85,
            config_base_bytes: 6.0 * 1024.0,
            config_quadratic_bytes: 0.85,
            runtime_reserved_bytes: 2.0 * 1024.0,
            activation_residency_factor: 0.5,
            comfort_working_bytes: 20.0 * 1024.0,
            min_memory_efficiency: 0.25,
            min_pes_per_kernel: 16,
            cb16_speedup: 1.107,
            dp_comm_coefficient: 0.12,
            dp_distance_penalty: 0.25,
            weight_streaming_efficiency: 0.26,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs2_matches_data_sheet() {
        let s = WseSpec::cs2();
        assert_eq!(s.pe_count(), 850_000);
        // ~40 GB of distributed SRAM (48 KB × 850k ≈ 41.8e9 B).
        assert!((s.total_sram_bytes() as f64 - 40e9).abs() / 40e9 < 0.05);
        // Peak in the paper-consistent band.
        assert!((1500.0..1800.0).contains(&s.peak_tflops()));
    }

    #[test]
    fn defaults_are_sane() {
        let p = WseCompilerParams::default();
        assert!(p.usable_grid_fraction < 1.0);
        assert!(p.transmission_ratio > 0.0);
        assert!(p.sustained_gemm_efficiency <= 1.0);
        assert!(p.min_memory_efficiency < 1.0);
        assert!(p.cb16_speedup > 1.0);
    }
}

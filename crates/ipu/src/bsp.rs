//! BSP (bulk-synchronous parallel) cost model for IPU compute.

use crate::chip::{IpuCompilerParams, IpuSpec};
use dabench_model::{Precision, TrainingWorkload};
use serde::{Deserialize, Serialize};

/// Decomposed BSP costs of one decoder layer processing one sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BspCosts {
    /// Compute-phase time, seconds.
    pub compute_s: f64,
    /// Exchange-phase time, seconds.
    pub exchange_s: f64,
    /// Sync-phase time, seconds.
    pub sync_s: f64,
}

impl BspCosts {
    /// Total superstep time.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.compute_s + self.exchange_s + self.sync_s
    }
}

pub(crate) fn precision_rate_factor(p: Precision, params: &IpuCompilerParams) -> f64 {
    match p {
        Precision::Fp32 => params.fp32_rate_factor,
        // FP8 is a KV-cache storage format; tile compute still runs at
        // the half-width rate.
        Precision::Fp16 | Precision::Bf16 | Precision::Cb16 | Precision::Fp8 => 1.0,
    }
}

/// Tiles the compiler assigns to one decoder layer (per-layer parallelism
/// is capped by communication, so small layer counts under-fill the chip —
/// the rising edge of Fig. 9(d)).
#[must_use]
pub fn tiles_for_layer(
    workload: &TrainingWorkload,
    spec: &IpuSpec,
    params: &IpuCompilerParams,
) -> u64 {
    let model = workload.model();
    // Per-token training FLOPs of one layer (fwd + bwd ≈ 3 × fwd).
    let layer_flops_per_token = 3.0
        * dabench_core::compile::training_graph(workload)
            .summary()
            .layer0_forward_flops
        / workload.tokens_per_step() as f64;
    let demand = (layer_flops_per_token / params.flops_per_token_per_tile).ceil() as u64;
    // The chip-share clamp caps elastic demand; the minimum wins last so a
    // layer never drops below the schedulable floor.
    demand
        .min(spec.tiles / model.num_layers.min(spec.tiles).max(1))
        .max(params.min_tiles_per_layer)
}

/// BSP cost of one decoder layer processing one sequence on `tiles` tiles.
#[must_use]
pub fn layer_compute_time(
    workload: &TrainingWorkload,
    tiles: u64,
    spec: &IpuSpec,
    params: &IpuCompilerParams,
) -> BspCosts {
    let rate = precision_rate_factor(workload.precision(), params);
    let tokens = workload.tokens_per_step() as f64;
    let layer_flops_per_seq = 3.0
        * dabench_core::compile::training_graph(workload)
            .summary()
            .layer0_forward_flops
        / tokens
        * workload.seq_len() as f64;
    let compute = layer_flops_per_seq
        / (tiles as f64 * spec.peak_flops_per_tile * params.sustained_tile_efficiency * rate);
    let exchange =
        layer_flops_per_seq * params.exchange_bytes_per_flop / spec.exchange_bw_bytes_per_s;
    let sync = params.supersteps_per_layer * params.bsp_sync_s;
    BspCosts {
        compute_s: compute,
        exchange_s: exchange,
        sync_s: sync,
    }
}

/// Total FLOPs per step attributable to decoder layers (all phases).
#[must_use]
pub fn layer_flops_per_step(workload: &TrainingWorkload) -> f64 {
    dabench_core::compile::training_graph(workload)
        .summary()
        .layer_flops
}

/// Stage time of the embedding/head IPU processing one sequence: all
/// non-decoder work (embedding, final norm, LM head, loss) mapped across
/// the full tile array.
#[must_use]
pub fn nonlayer_stage_time(
    workload: &TrainingWorkload,
    spec: &IpuSpec,
    params: &IpuCompilerParams,
) -> f64 {
    let rate = precision_rate_factor(workload.precision(), params);
    let step = *dabench_core::compile::training_graph(workload).summary();
    let nonlayer_flops = step.total_flops - step.layer_flops;
    let per_item = nonlayer_flops / workload.batch_size() as f64;
    per_item
        / (spec.tiles as f64 * spec.peak_flops_per_tile * params.sustained_tile_efficiency * rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::ModelConfig;

    fn w(layers: u64) -> TrainingWorkload {
        TrainingWorkload::new(
            ModelConfig::gpt2_probe(768, layers),
            16,
            1024,
            Precision::Fp16,
        )
    }

    #[test]
    fn layer_demand_near_quarter_chip() {
        let spec = IpuSpec::bow2000();
        let tiles = tiles_for_layer(&w(1), &spec, &IpuCompilerParams::default());
        assert!((300..450).contains(&tiles), "{tiles}");
    }

    #[test]
    fn tiles_shrink_when_many_layers_share_the_chip() {
        let spec = IpuSpec::bow2000();
        let p = IpuCompilerParams::default();
        let few = tiles_for_layer(&w(2), &spec, &p);
        let many = tiles_for_layer(&w(9), &spec, &p);
        assert!(many < few, "{many} !< {few}");
    }

    #[test]
    fn more_tiles_means_faster_compute() {
        let spec = IpuSpec::bow2000();
        let p = IpuCompilerParams::default();
        let slow = layer_compute_time(&w(4), 100, &spec, &p);
        let fast = layer_compute_time(&w(4), 400, &spec, &p);
        assert!(fast.compute_s < slow.compute_s);
        // Exchange does not depend on the tile count.
        assert!((fast.exchange_s - slow.exchange_s).abs() < 1e-12);
    }

    #[test]
    fn compute_dominates_supersteps() {
        let spec = IpuSpec::bow2000();
        let p = IpuCompilerParams::default();
        let c = layer_compute_time(&w(4), 368, &spec, &p);
        assert!(c.compute_s > c.sync_s);
        assert!(c.total() > c.compute_s);
    }

    #[test]
    fn fp32_is_slower() {
        let spec = IpuSpec::bow2000();
        let p = IpuCompilerParams::default();
        let w32 = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 4), 16, 1024, Precision::Fp32);
        let half = layer_compute_time(&w(4), 368, &spec, &p);
        let full = layer_compute_time(&w32, 368, &spec, &p);
        assert!(full.compute_s > half.compute_s);
    }
}

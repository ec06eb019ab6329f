//! Pipeline-parallel execution across IPUs (Sec. III-C / VI-A.3c).

use crate::bsp::{layer_compute_time, nonlayer_stage_time, tiles_for_layer};
use crate::chip::{IpuCompilerParams, IpuSpec};
use crate::memory::{decoder_ipu_memory, embedding_ipu_memory};
use dabench_core::PlatformError;
use dabench_model::TrainingWorkload;
use dabench_sim::steady_state_analysis;
use serde::{Deserialize, Serialize};

/// Load and timing of one pipeline stage (one IPU).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLoad {
    /// Stage label, e.g. `"ipu1 (4 layers)"`.
    pub name: String,
    /// Decoder layers assigned (0 for the embedding IPU).
    pub layers: u64,
    /// Stage time for one micro-batch (one sequence), seconds.
    pub stage_time_s: f64,
    /// Tiles in use on the IPU.
    pub tiles_used: u64,
    /// SRAM utilization (`0..=1`).
    pub memory_utilization: f64,
}

/// Outcome of a pipeline-parallel execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinePlan {
    /// Per-IPU stage loads (embedding IPU first).
    pub stages: Vec<StageLoad>,
    /// Index of the bottleneck stage.
    pub bottleneck_stage: usize,
    /// Wall-clock time of one optimizer step, seconds.
    pub step_time_s: f64,
    /// Training throughput, tokens/second.
    pub throughput_tokens_per_s: f64,
    /// Achieved compute throughput over all IPUs, TFLOP/s.
    pub achieved_tflops: f64,
    /// Fraction of the step lost to pipeline fill/drain and host I/O.
    pub overhead_fraction: f64,
}

/// Run `workload` with its decoder layers distributed per `allocation`
/// (layers per decoder IPU); an embedding IPU is always prepended.
///
/// This is the Fig. 11(c) interface: explicit, possibly unbalanced layer
/// allocations. Throughput is set by the most heavily loaded IPU.
///
/// # Errors
///
/// - [`PlatformError::Unsupported`] if the allocation does not cover the
///   model's layers;
/// - [`PlatformError::OutOfMemory`] if any IPU's assignment exceeds SRAM.
pub fn pipeline_with_allocation(
    spec: &IpuSpec,
    params: &IpuCompilerParams,
    workload: &TrainingWorkload,
    allocation: &[u64],
) -> Result<PipelinePlan, PlatformError> {
    use dabench_core::obs;
    obs::span(obs::Phase::Execute, "ipu.pipeline", || {
        let plan = pipeline_with_allocation_inner(spec, params, workload, allocation);
        if let Ok(p) = &plan {
            obs::counter("ipu.stages", p.stages.len() as f64);
            obs::counter("ipu.step_time_s", p.step_time_s);
            obs::counter("ipu.overhead_fraction", p.overhead_fraction);
        }
        plan
    })
}

fn pipeline_with_allocation_inner(
    spec: &IpuSpec,
    params: &IpuCompilerParams,
    workload: &TrainingWorkload,
    allocation: &[u64],
) -> Result<PipelinePlan, PlatformError> {
    let total: u64 = allocation.iter().sum();
    if total != workload.model().num_layers || allocation.is_empty() {
        return Err(PlatformError::Unsupported(format!(
            "allocation covers {total} layers, model has {}",
            workload.model().num_layers
        )));
    }

    // Embedding IPU.
    let emb_mem = embedding_ipu_memory(workload, spec, params);
    if !emb_mem.fits() {
        return Err(PlatformError::OutOfMemory {
            level: "ipu-sram".to_owned(),
            required_bytes: emb_mem.total_bytes(),
            capacity_bytes: emb_mem.capacity_bytes,
        });
    }
    // IPU0 handles the embedding, final norm, LM head and loss.
    let layer_tiles = tiles_for_layer(workload, spec, params);
    let mut stages = vec![StageLoad {
        name: "ipu0 (embedding+head)".to_owned(),
        layers: 0,
        stage_time_s: nonlayer_stage_time(workload, spec, params),
        tiles_used: spec.tiles,
        memory_utilization: emb_mem.utilization(),
    }];

    // Per-item boundary tensor shipped between consecutive stages.
    let boundary_bytes = (workload.seq_len()
        * workload.model().hidden_size
        * workload.precision().bytes_per_element()) as f64;
    for (i, &layers) in allocation.iter().enumerate() {
        let mem = decoder_ipu_memory(workload, layers, spec, params);
        if !mem.fits() {
            return Err(PlatformError::OutOfMemory {
                level: "ipu-sram".to_owned(),
                required_bytes: mem.total_bytes(),
                capacity_bytes: mem.capacity_bytes,
            });
        }
        // Layers on one IPU share its tiles; per-layer parallelism is
        // capped by the layer's own scalability.
        let per_layer_tiles = layer_tiles.min(spec.tiles / layers.max(1)).max(1);
        let costs = layer_compute_time(workload, per_layer_tiles, spec, params);
        // Stage-to-stage transfer: IPU-Link inside a chassis, the slower
        // gateway hop when the pipeline spans chassis (fwd + bwd tensors).
        let link_bw = if (i + 1) as u64 >= spec.ipus_per_chassis {
            spec.inter_chassis_bw_bytes_per_s
        } else {
            spec.link_bw_bytes_per_s
        };
        let transfer = 2.0 * boundary_bytes / link_bw;
        stages.push(StageLoad {
            name: format!("ipu{} ({layers} layers)", i + 1),
            layers,
            stage_time_s: layers as f64 * costs.total() + transfer,
            tiles_used: (per_layer_tiles * layers).min(spec.tiles),
            memory_utilization: mem.utilization(),
        });
    }

    let stage_times: Vec<f64> = stages.iter().map(|s| s.stage_time_s).collect();
    let report = steady_state_analysis(&stage_times, workload.batch_size());
    let step_time = report.total_time + params.step_fixed_overhead_s;

    let flops = dabench_core::compile::training_graph(workload)
        .summary()
        .total_flops;
    Ok(PipelinePlan {
        bottleneck_stage: report.bottleneck_index,
        step_time_s: step_time,
        throughput_tokens_per_s: workload.tokens_per_step() as f64 / step_time,
        achieved_tflops: flops / step_time / 1e12,
        overhead_fraction: 1.0
            - (workload.batch_size() as f64 * report.bottleneck_time) / step_time,
        stages,
    })
}

/// Run `workload` pipeline-parallel over `devices` IPUs: one embedding IPU
/// and `devices − 1` decoder IPUs, each decoder IPU holding at most
/// `⌈layers / (devices − 1)⌉` layers.
///
/// # Errors
///
/// [`PlatformError::Unsupported`] for fewer than two devices (training
/// needs an embedding IPU plus at least one decoder IPU), or more decoder
/// IPUs than layers; [`PlatformError::OutOfMemory`] as in
/// [`pipeline_with_allocation`].
pub fn pipeline_parallel(
    spec: &IpuSpec,
    params: &IpuCompilerParams,
    workload: &TrainingWorkload,
    devices: u32,
) -> Result<PipelinePlan, PlatformError> {
    if devices < 2 {
        return Err(PlatformError::Unsupported(
            "IPU training needs ≥ 2 devices (embedding + decoders)".to_owned(),
        ));
    }
    let decoder_ipus = u64::from(devices) - 1;
    let layers = workload.model().num_layers;
    if decoder_ipus > layers {
        return Err(PlatformError::Unsupported(format!(
            "{decoder_ipus} decoder IPUs for only {layers} layers"
        )));
    }
    let allocation = layer_split(layers, decoder_ipus);
    pipeline_with_allocation(spec, params, workload, &allocation)
}

/// Layers per decoder IPU when `layers` identical layers go to `ipus`
/// IPUs (`1 ≤ ipus ≤ layers`): stages of `⌈layers / ipus⌉` from the front
/// and the remainder last; then, while there are fewer than `ipus` stages,
/// the last of the largest stages moves one layer to a new stage right
/// after it. The heaviest stage, which sets throughput, holds
/// `⌈layers / ipus⌉` layers, but the split can be lopsided: 11 layers on 5
/// IPUs give `[3, 3, 2, 1, 2]`.
fn layer_split(layers: u64, ipus: u64) -> Vec<u64> {
    let per_ipu = layers.div_ceil(ipus);
    let mut split = vec![per_ipu; (layers / per_ipu) as usize];
    let rest = layers % per_ipu;
    if rest > 0 {
        split.push(rest);
    }
    while (split.len() as u64) < ipus {
        let largest = split.iter().copied().max().expect("at least one stage");
        let i = split
            .iter()
            .rposition(|&s| s == largest)
            .expect("the largest stage");
        split[i] -= 1;
        split.insert(i + 1, 1);
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};

    fn w(layers: u64, batch: u64) -> TrainingWorkload {
        TrainingWorkload::new(
            ModelConfig::gpt2_probe(768, layers),
            batch,
            1024,
            Precision::Fp16,
        )
    }

    fn spec() -> IpuSpec {
        IpuSpec::bow2000()
    }

    fn params() -> IpuCompilerParams {
        IpuCompilerParams::default()
    }

    #[test]
    fn throughput_inverse_in_max_layers() {
        // Paper Fig. 11(c): throughput is set by the most loaded IPU.
        let balanced =
            pipeline_with_allocation(&spec(), &params(), &w(12, 64), &[4, 4, 4]).unwrap();
        let skewed = pipeline_with_allocation(&spec(), &params(), &w(12, 64), &[6, 3, 3]).unwrap();
        assert!(balanced.throughput_tokens_per_s > skewed.throughput_tokens_per_s);
        let ratio = balanced.throughput_tokens_per_s / skewed.throughput_tokens_per_s;
        // Bottleneck 4 vs 6 layers → ≈ 1.5× before overheads.
        assert!((1.15..1.55).contains(&ratio), "{ratio}");
    }

    #[test]
    fn bottleneck_is_most_loaded_ipu() {
        let plan = pipeline_with_allocation(&spec(), &params(), &w(12, 64), &[2, 7, 3]).unwrap();
        assert_eq!(plan.bottleneck_stage, 2); // ipu2 holds 7 layers
    }

    #[test]
    fn layer_split_pins() {
        assert_eq!(layer_split(4, 3), [2, 1, 1]);
        assert_eq!(layer_split(10, 4), [3, 3, 3, 1]);
        assert_eq!(layer_split(11, 5), [3, 3, 2, 1, 2]);
    }

    #[test]
    fn balanced_grouping_from_devices() {
        let plan = pipeline_parallel(&spec(), &params(), &w(12, 64), 4).unwrap();
        let layers: Vec<u64> = plan.stages.iter().map(|s| s.layers).collect();
        assert_eq!(layers, vec![0, 4, 4, 4]);
    }

    #[test]
    fn oom_when_one_ipu_holds_ten_layers() {
        let err =
            pipeline_with_allocation(&spec(), &params(), &w(12, 64), &[10, 1, 1]).unwrap_err();
        assert!(matches!(err, PlatformError::OutOfMemory { .. }));
    }

    #[test]
    fn too_few_devices_rejected() {
        let err = pipeline_parallel(&spec(), &params(), &w(4, 16), 1).unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported(_)));
    }

    #[test]
    fn allocation_must_cover_model() {
        let err = pipeline_with_allocation(&spec(), &params(), &w(12, 16), &[4, 4]).unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported(_)));
    }

    #[test]
    fn batch_scaling_near_linear() {
        // Paper Fig. 12: IPU throughput scales near-linearly with batch in
        // the measured range (pipeline fill and host overhead amortize).
        let t1 = pipeline_parallel(&spec(), &params(), &w(8, 1), 3)
            .unwrap()
            .throughput_tokens_per_s;
        let t8 = pipeline_parallel(&spec(), &params(), &w(8, 8), 3)
            .unwrap()
            .throughput_tokens_per_s;
        let scaling = t8 / t1;
        // Fill/drain and host overhead amortize strongly at small batch.
        assert!(scaling > 2.2, "{scaling}");
    }

    #[test]
    fn mixed_precision_gain_about_22_percent() {
        // Paper Table IV: Full 154k vs Mixed 188k (+22%).
        let full =
            TrainingWorkload::new(ModelConfig::gpt2_probe(768, 8), 64, 1024, Precision::Fp32);
        let mixed = full.with_precision(Precision::Fp16);
        let t_full = pipeline_parallel(&spec(), &params(), &full, 4)
            .unwrap()
            .throughput_tokens_per_s;
        let t_mixed = pipeline_parallel(&spec(), &params(), &mixed, 4)
            .unwrap()
            .throughput_tokens_per_s;
        let gain = t_mixed / t_full - 1.0;
        assert!((0.1..0.35).contains(&gain), "{gain}");
    }

    #[test]
    fn deeper_models_need_more_ipus() {
        // 30 layers across 16 IPUs (15 decoder IPUs) works; across 4 IPUs
        // (3 decoder IPUs → 10 layers each) OOMs — the Table III pattern.
        assert!(pipeline_parallel(&spec(), &params(), &w(30, 32), 16).is_ok());
        assert!(matches!(
            pipeline_parallel(&spec(), &params(), &w(30, 32), 4),
            Err(PlatformError::OutOfMemory { .. })
        ));
    }
}

//! [`Platform`] and [`Scalable`] implementations for the GPU baseline.

use crate::parallelism::{megatron_throughput, MegatronConfig};
use crate::GpuCluster;
use dabench_core::{
    ChipProfile, ComputeUnitSpec, HardwareSpec, Memoizable, MemoryLevelSpec, MemoryLevelUsage,
    MemoryScope, ParallelStrategy, Platform, PlatformError, Scalable, ScalingProfile,
};
use dabench_model::TrainingWorkload;

impl Platform for GpuCluster {
    fn name(&self) -> &str {
        "gpu-reference"
    }

    fn spec(&self) -> HardwareSpec {
        let g = self.gpu_spec();
        HardwareSpec {
            name: "GPU (reference)".to_owned(),
            compute_units: vec![ComputeUnitSpec {
                kind: "sm".to_owned(),
                count: 108,
            }],
            peak_tflops: g.peak_tflops,
            memory_levels: vec![MemoryLevelSpec {
                name: "hbm".to_owned(),
                scope: MemoryScope::OffChip,
                capacity_bytes: g.hbm_bytes,
                bandwidth_bytes_per_s: Some(g.hbm_bw_bytes_per_s),
            }],
        }
    }

    fn profile(&self, workload: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
        use dabench_core::obs;
        obs::span(obs::Phase::Execute, "gpu.profile", || {
            let p = self.profile_inner(workload);
            if let Ok(p) = &p {
                obs::counter("gpu.step_time_s", p.step_time_s);
                obs::counter("gpu.achieved_tflops", p.achieved_tflops);
            }
            p
        })
    }
}

impl GpuCluster {
    fn profile_inner(&self, workload: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
        let g = self.gpu_spec();
        let state = workload.training_state_bytes() + workload.activation_memory().stored_bytes();
        if state > g.hbm_bytes {
            return Err(PlatformError::OutOfMemory {
                level: "hbm".to_owned(),
                required_bytes: state,
                capacity_bytes: g.hbm_bytes,
            });
        }
        let run = megatron_throughput(g, workload, MegatronConfig::new(1, 1, 1))?;
        Ok(ChipProfile {
            unit_usage: vec![("sm".to_owned(), 108, 108)],
            tasks: vec![],
            sections: vec![],
            memory: vec![MemoryLevelUsage {
                name: "hbm".to_owned(),
                used_bytes: state,
                capacity_bytes: g.hbm_bytes,
            }],
            achieved_tflops: dabench_core::compile::training_graph(workload)
                .summary()
                .total_flops
                / run.step_time_s
                / 1e12,
            throughput_tokens_per_s: run.tokens_per_s,
            step_time_s: run.step_time_s,
        })
    }
}

impl Memoizable for GpuCluster {
    fn cache_key(&self) -> dabench_core::CacheKey {
        self.cache_key
    }
}

impl Scalable for GpuCluster {
    fn scale(
        &self,
        workload: &TrainingWorkload,
        strategy: ParallelStrategy,
    ) -> Result<ScalingProfile, PlatformError> {
        let config = match strategy {
            ParallelStrategy::TensorParallel { degree } => MegatronConfig::new(degree, 1, 1),
            ParallelStrategy::PipelineParallel { devices } => MegatronConfig::new(1, devices, 1),
            ParallelStrategy::DataParallel { replicas } => MegatronConfig::new(1, 1, replicas),
            ParallelStrategy::WeightStreaming => {
                return Err(PlatformError::Unsupported(
                    "weight streaming is a Cerebras mode".to_owned(),
                ))
            }
        };
        let run = megatron_throughput(self.gpu_spec(), workload, config)?;
        Ok(ScalingProfile {
            strategy,
            throughput_tokens_per_s: run.tokens_per_s,
            communication_fraction: run.comm_fraction,
            per_unit_allocation: vec![("sm".to_owned(), 1.0)],
            detail: vec![("tokens_per_s_per_gpu".to_owned(), run.tokens_per_s_per_gpu)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::tier1;
    use dabench_model::{ModelConfig, Precision};

    #[test]
    fn single_gpu_profile_works() {
        let cluster = GpuCluster::default();
        let w = TrainingWorkload::new(ModelConfig::gpt2_small(), 8, 1024, Precision::Fp16);
        let r = tier1::run(&cluster, &w).unwrap();
        assert!(r.achieved_tflops > 50.0);
        assert!(r.compute_efficiency < 0.6);
    }

    #[test]
    fn hbm_capacity_enforced() {
        let cluster = GpuCluster::default();
        let huge = TrainingWorkload::new(ModelConfig::llama2_70b(), 8, 4096, Precision::Fp16);
        assert!(matches!(
            cluster.profile(&huge),
            Err(PlatformError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn scale_maps_strategies() {
        let cluster = GpuCluster::default();
        let w = TrainingWorkload::new(ModelConfig::gpt2_xl(), 64, 1024, Precision::Fp16);
        assert!(cluster
            .scale(&w, ParallelStrategy::TensorParallel { degree: 8 })
            .is_ok());
        assert!(cluster
            .scale(&w, ParallelStrategy::PipelineParallel { devices: 8 })
            .is_ok());
        assert!(matches!(
            cluster.scale(&w, ParallelStrategy::WeightStreaming),
            Err(PlatformError::Unsupported(_))
        ));
    }
}

//! [`Platform`] and [`Scalable`] implementations for the WSE model.

use crate::chip::{WseCompilerParams, WseSpec};
use crate::compile::{compile, WseCompilation};
use crate::runtime::execute;
use crate::scale::{data_parallel, weight_streaming};
use crate::Wse;
use dabench_core::{
    ChipProfile, ComputeUnitSpec, HardwareSpec, Memoizable, MemoryLevelSpec, MemoryLevelUsage,
    MemoryScope, ParallelStrategy, Platform, PlatformError, Scalable, ScalingProfile,
};
use dabench_model::TrainingWorkload;

/// Execute `comp` on `spec` and report it as a chip profile: the one
/// assembly behind the healthy profile and the remapped one of
/// `Degradable::degrade`.
pub(crate) fn profile_of(
    spec: &WseSpec,
    params: &WseCompilerParams,
    comp: &WseCompilation,
    workload: &TrainingWorkload,
) -> ChipProfile {
    let exec = execute(spec, params, comp, workload);
    ChipProfile {
        unit_usage: vec![("pe".to_owned(), comp.allocated_pes(), comp.chip_pes)],
        tasks: exec.task_profiles,
        sections: vec![],
        memory: vec![MemoryLevelUsage {
            name: "pe-sram".to_owned(),
            used_bytes: comp.memory.config_bytes + comp.memory.training_bytes,
            capacity_bytes: comp.memory.capacity_bytes,
        }],
        achieved_tflops: exec.achieved_tflops,
        throughput_tokens_per_s: exec.throughput_tokens_per_s,
        step_time_s: exec.step_time_s,
    }
}

impl Platform for Wse {
    fn name(&self) -> &str {
        "cerebras-wse2"
    }

    fn spec(&self) -> HardwareSpec {
        let s = self.wse_spec();
        HardwareSpec {
            name: "Cerebras WSE-2".to_owned(),
            compute_units: vec![ComputeUnitSpec {
                kind: "pe".to_owned(),
                count: s.pe_count(),
            }],
            peak_tflops: s.peak_tflops(),
            memory_levels: vec![MemoryLevelSpec {
                // The WSE uses its distributed SRAM as both shared and
                // global memory (unified model, Sec. V-C of the paper).
                name: "pe-sram".to_owned(),
                scope: MemoryScope::OnChip,
                capacity_bytes: s.total_sram_bytes(),
                bandwidth_bytes_per_s: Some(s.mem_bw_bytes_per_s),
            }],
        }
    }

    fn profile(&self, workload: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
        let compilation = compile(self.wse_spec(), self.compiler_params(), workload, None)?;
        Ok(profile_of(
            self.wse_spec(),
            self.compiler_params(),
            &compilation,
            workload,
        ))
    }
}

impl Memoizable for Wse {
    fn cache_key(&self) -> dabench_core::CacheKey {
        self.cache_key
    }
}

impl Scalable for Wse {
    fn scale(
        &self,
        workload: &TrainingWorkload,
        strategy: ParallelStrategy,
    ) -> Result<ScalingProfile, PlatformError> {
        match strategy {
            ParallelStrategy::DataParallel { replicas } => {
                let plan =
                    data_parallel(self.wse_spec(), self.compiler_params(), workload, replicas)?;
                Ok(ScalingProfile {
                    strategy,
                    throughput_tokens_per_s: plan.net_tokens_per_s,
                    communication_fraction: plan.communication_fraction,
                    per_unit_allocation: vec![(
                        "pe".to_owned(),
                        plan.budget_per_replica as f64 / self.wse_spec().pe_count() as f64,
                    )],
                    detail: vec![
                        (
                            "computation_tokens_per_s".to_owned(),
                            plan.computation_tokens_per_s,
                        ),
                        (
                            "per_replica_tokens_per_s".to_owned(),
                            plan.per_replica_tokens_per_s,
                        ),
                    ],
                })
            }
            ParallelStrategy::WeightStreaming => {
                let run = weight_streaming(self.wse_spec(), self.compiler_params(), workload)?;
                Ok(ScalingProfile {
                    strategy,
                    throughput_tokens_per_s: run.throughput_tokens_per_s,
                    communication_fraction: run.streaming_fraction,
                    per_unit_allocation: vec![("pe".to_owned(), 1.0)],
                    detail: vec![("achieved_tflops".to_owned(), run.achieved_tflops)],
                })
            }
            ParallelStrategy::TensorParallel { .. } | ParallelStrategy::PipelineParallel { .. } => {
                Err(PlatformError::Unsupported(
                    "WSE-2 scales via intra-chip DP and weight streaming only".to_owned(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::tier1;
    use dabench_model::{ModelConfig, Precision};

    fn wse() -> Wse {
        Wse::default()
    }

    fn w(layers: u64) -> TrainingWorkload {
        TrainingWorkload::new(
            ModelConfig::gpt2_probe(768, layers),
            256,
            1024,
            Precision::Fp16,
        )
    }

    #[test]
    fn tier1_report_is_complete() {
        let r = tier1::run(&wse(), &w(24)).unwrap();
        assert!(r.allocation_of("pe").unwrap() > 0.85);
        assert!(r.load_imbalance.unwrap() > 0.9);
        assert!(r.compute_efficiency > 0.1 && r.compute_efficiency < 0.35);
        // Unified on-chip memory → compute-bound for LLM training.
        assert_eq!(r.bound, Some(dabench_core::BoundKind::ComputeBound));
    }

    #[test]
    fn profile_fails_oom_at_78_layers() {
        let err = wse().profile(&w(78)).unwrap_err();
        assert!(matches!(err, PlatformError::OutOfMemory { .. }));
    }

    #[test]
    fn scale_rejects_tensor_parallel() {
        let err = wse()
            .scale(&w(12), ParallelStrategy::TensorParallel { degree: 2 })
            .unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported(_)));
    }

    #[test]
    fn scale_weight_streaming_works() {
        let p = wse()
            .scale(&w(12), ParallelStrategy::WeightStreaming)
            .unwrap();
        assert!(p.throughput_tokens_per_s > 0.0);
    }

    #[test]
    fn spec_reports_unified_memory() {
        let s = wse().spec();
        assert_eq!(s.memory_levels.len(), 1);
        assert_eq!(s.unit_count("pe"), 850_000);
    }
}

//! [`Platform`] and [`Scalable`] implementations for the RDU model.

use crate::modes::partition;
use crate::schedule::{execute_sections, SectionTiming};
use crate::tp::tensor_parallel;
use crate::{Rdu, RduSpec, Section};
use dabench_core::{
    ChipProfile, ComputeUnitSpec, HardwareSpec, Memoizable, MemoryLevelSpec, MemoryLevelUsage,
    MemoryScope, ParallelStrategy, Platform, PlatformError, Scalable, ScalingProfile,
    SectionProfile, TaskProfile,
};
use dabench_model::TrainingWorkload;

impl Platform for Rdu {
    fn name(&self) -> &str {
        match self.mode() {
            crate::CompilationMode::O0 => "sambanova-sn30-o0",
            crate::CompilationMode::O1 => "sambanova-sn30-o1",
            crate::CompilationMode::O3 => "sambanova-sn30-o3",
        }
    }

    fn spec(&self) -> HardwareSpec {
        let s = self.rdu_spec();
        HardwareSpec {
            name: "SambaNova SN30 RDU".to_owned(),
            compute_units: vec![
                ComputeUnitSpec {
                    kind: "pcu".to_owned(),
                    count: s.pcu_count(),
                },
                ComputeUnitSpec {
                    kind: "pmu".to_owned(),
                    count: s.pmu_count(),
                },
            ],
            peak_tflops: s.peak_tflops(),
            memory_levels: vec![
                MemoryLevelSpec {
                    name: "pmu-scratch".to_owned(),
                    scope: MemoryScope::OnChip,
                    capacity_bytes: s.on_chip_bytes(),
                    // PMU bandwidth is not public (Sec. IV-B.3).
                    bandwidth_bytes_per_s: None,
                },
                MemoryLevelSpec {
                    name: "ddr".to_owned(),
                    scope: MemoryScope::OffChip,
                    capacity_bytes: s.ddr_capacity_bytes,
                    bandwidth_bytes_per_s: Some(s.ddr_bw_bytes_per_s),
                },
            ],
        }
    }

    fn profile(&self, workload: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
        let spec = self.rdu_spec();
        let params = self.compiler_params();

        // The RDU trains arbitrarily large models as long as the training
        // state fits in DDR. In O1/O3 the quadratic attention internals
        // are tiled on chip and recomputed, so only linear-size
        // activations are DDR-resident.
        let eb = workload.precision().bytes_per_element();
        let graph = dabench_core::compile::training_graph(workload);
        let summary = graph.summary();
        let resident_acts: u64 = if self.mode() == crate::CompilationMode::O0 {
            summary.forward_out_elems
        } else {
            summary.forward_out_elems_no_attn_internal
        } * eb;
        let state = workload.training_state_bytes() + resident_acts;
        if state > spec.ddr_capacity_bytes {
            return Err(PlatformError::OutOfMemory {
                level: "ddr".to_owned(),
                required_bytes: state,
                capacity_bytes: spec.ddr_capacity_bytes,
            });
        }

        let sections = partition(workload, spec, params, self.mode());
        let exec = execute_sections(&sections, workload, spec, params);

        let section_profiles = section_profiles(&sections, &exec.timings, spec);
        let peak_working = sections
            .iter()
            .map(|s| s.ddr_bytes_per_invocation())
            .max()
            .unwrap_or(0);

        Ok(ChipProfile {
            unit_usage: vec![],
            tasks: vec![],
            sections: section_profiles,
            memory: vec![
                MemoryLevelUsage {
                    name: "pmu-scratch".to_owned(),
                    used_bytes: peak_working.min(spec.on_chip_bytes()),
                    capacity_bytes: spec.on_chip_bytes(),
                },
                MemoryLevelUsage {
                    name: "ddr".to_owned(),
                    used_bytes: state,
                    capacity_bytes: spec.ddr_capacity_bytes,
                },
            ],
            achieved_tflops: exec.achieved_tflops,
            throughput_tokens_per_s: exec.throughput_tokens_per_s,
            step_time_s: exec.step_time_s,
        })
    }
}

/// One [`SectionProfile`] per section run, carrying its copy count.
pub(crate) fn section_profiles(
    sections: &[Section],
    timings: &[SectionTiming],
    spec: &RduSpec,
) -> Vec<SectionProfile> {
    sections
        .iter()
        .zip(timings)
        .map(|(s, t)| SectionProfile {
            name: s.name.clone(),
            copies: s.copies,
            runtime_s: t.runtime_s,
            unit_usage: vec![
                ("pcu".to_owned(), s.pcus, spec.pcu_count()),
                ("pmu".to_owned(), s.pmus, spec.pmu_count()),
            ],
            tasks: s
                .ops
                .iter()
                .filter(|o| o.flops > 0.0)
                .map(|o| TaskProfile::new(o.name.clone(), o.throughput(), o.pcus as f64))
                .collect(),
        })
        .collect()
}

impl Memoizable for Rdu {
    fn cache_key(&self) -> dabench_core::CacheKey {
        self.cache_key
    }
}

impl Scalable for Rdu {
    fn scale(
        &self,
        workload: &TrainingWorkload,
        strategy: ParallelStrategy,
    ) -> Result<ScalingProfile, PlatformError> {
        match strategy {
            ParallelStrategy::TensorParallel { degree } => {
                let plan = tensor_parallel(
                    self.rdu_spec(),
                    self.compiler_params(),
                    self.mode(),
                    workload,
                    degree,
                )?;
                Ok(ScalingProfile {
                    strategy,
                    throughput_tokens_per_s: plan.throughput_tokens_per_s,
                    communication_fraction: plan.communication_fraction,
                    per_unit_allocation: vec![
                        ("pcu".to_owned(), plan.pcu_allocation),
                        ("pmu".to_owned(), plan.pmu_allocation),
                    ],
                    detail: vec![(
                        "cross_machine".to_owned(),
                        if plan.cross_machine { 1.0 } else { 0.0 },
                    )],
                })
            }
            _ => Err(PlatformError::Unsupported(
                "the RDU scales via tensor parallelism".to_owned(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompilationMode;
    use dabench_core::tier1;
    use dabench_model::{ModelConfig, Precision};

    fn w(h: u64, l: u64) -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_probe(h, l), 8, 1024, Precision::Bf16)
    }

    #[test]
    fn tier1_reports_sectioned_metrics() {
        let rdu = Rdu::with_mode(CompilationMode::O3);
        let r = tier1::run(&rdu, &w(768, 12)).unwrap();
        let pcu = r.allocation_of("pcu").unwrap();
        assert!((0.2..0.68).contains(&pcu), "{pcu}");
        assert!(r.allocation_of("pmu").is_some());
        assert!(r.load_imbalance.is_some());
        // DDR roofline → memory-bound for LLM training.
        assert_eq!(r.bound, Some(dabench_core::BoundKind::MemoryBound));
    }

    #[test]
    fn o3_allocation_exceeds_o0() {
        let o0 = tier1::run(&Rdu::with_mode(CompilationMode::O0), &w(768, 12)).unwrap();
        let o3 = tier1::run(&Rdu::with_mode(CompilationMode::O3), &w(768, 12)).unwrap();
        assert!(
            o3.allocation_of("pcu").unwrap() > o0.allocation_of("pcu").unwrap(),
            "o3 {:?} vs o0 {:?}",
            o3.allocation_of("pcu"),
            o0.allocation_of("pcu")
        );
    }

    #[test]
    fn o1_li_beats_o3_li() {
        // Paper Fig. 8: O1's fusion gives markedly better operator-level
        // balance than O3.
        let o1 = tier1::run(&Rdu::with_mode(CompilationMode::O1), &w(1024, 12)).unwrap();
        let o3 = tier1::run(&Rdu::with_mode(CompilationMode::O3), &w(1024, 12)).unwrap();
        assert!(
            o1.load_imbalance.unwrap() > o3.load_imbalance.unwrap(),
            "o1 {:?} vs o3 {:?}",
            o1.load_imbalance,
            o3.load_imbalance
        );
    }

    #[test]
    fn huge_models_fail_on_ddr() {
        let rdu = Rdu::default();
        let huge = TrainingWorkload::new(ModelConfig::llama2_70b(), 64, 4096, Precision::Bf16);
        let err = rdu.profile(&huge).unwrap_err();
        assert!(matches!(err, PlatformError::OutOfMemory { .. }));
    }

    #[test]
    fn scale_rejects_pipeline_parallel() {
        let err = Rdu::default()
            .scale(
                &w(768, 4),
                ParallelStrategy::PipelineParallel { devices: 4 },
            )
            .unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported(_)));
    }
}

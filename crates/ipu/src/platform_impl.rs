//! [`Platform`] and [`Scalable`] implementations for the IPU model.

use crate::bsp::{layer_compute_time, layer_flops_per_step, nonlayer_stage_time, tiles_for_layer};
use crate::memory::decoder_ipu_memory;
use crate::pipeline::pipeline_parallel;
use crate::Ipu;
use dabench_core::{
    ChipProfile, ComputeUnitSpec, HardwareSpec, Memoizable, MemoryLevelSpec, MemoryLevelUsage,
    MemoryScope, ParallelStrategy, Platform, PlatformError, Scalable, ScalingProfile, TaskProfile,
};
use dabench_model::TrainingWorkload;
use dabench_sim::steady_state_analysis;

impl Platform for Ipu {
    fn name(&self) -> &str {
        "graphcore-bow-ipu"
    }

    fn spec(&self) -> HardwareSpec {
        let s = self.ipu_spec();
        HardwareSpec {
            name: "Graphcore Bow IPU".to_owned(),
            compute_units: vec![ComputeUnitSpec {
                kind: "tile".to_owned(),
                count: s.tiles,
            }],
            peak_tflops: s.peak_tflops(),
            memory_levels: vec![
                MemoryLevelSpec {
                    name: "tile-sram".to_owned(),
                    scope: MemoryScope::OnChip,
                    capacity_bytes: s.sram_per_ipu_bytes(),
                    // On-tile bandwidth is not public.
                    bandwidth_bytes_per_s: None,
                },
                MemoryLevelSpec {
                    name: "ddr".to_owned(),
                    scope: MemoryScope::OffChip,
                    capacity_bytes: s.external_ddr_bytes,
                    bandwidth_bytes_per_s: Some(s.external_ddr_bw_bytes_per_s),
                },
            ],
        }
    }

    /// Tier-1 profiling of a single decoder IPU holding all of the model's
    /// layers — the Fig. 9(d) configuration: tile allocation saturates near
    /// four GPT-2-small layers and SRAM overflows at ten.
    fn profile(&self, workload: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
        use dabench_core::obs;
        obs::span(obs::Phase::Execute, "ipu.bsp", || {
            let p = self.profile_inner(workload);
            if let Ok(p) = &p {
                obs::counter("ipu.step_time_s", p.step_time_s);
                obs::counter("ipu.achieved_tflops", p.achieved_tflops);
            }
            p
        })
    }
}

impl Ipu {
    fn profile_inner(&self, workload: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
        let spec = self.ipu_spec();
        let params = self.compiler_params();
        let layers = workload.model().num_layers;

        let mem = decoder_ipu_memory(workload, layers, spec, params);
        if !mem.fits() {
            return Err(PlatformError::OutOfMemory {
                level: "tile-sram".to_owned(),
                required_bytes: mem.total_bytes(),
                capacity_bytes: mem.capacity_bytes,
            });
        }

        // Layers map to disjoint tile regions and pipeline across them;
        // per-layer parallelism is capped by layer scalability and by the
        // equal split of the chip.
        let cap = tiles_for_layer(workload, spec, params);
        let per_layer_tiles = cap.min(spec.tiles / layers.max(1)).max(1);
        let costs = layer_compute_time(workload, per_layer_tiles, spec, params);

        // A companion IPU handles embedding/head/loss; its stage bounds
        // the pipeline for shallow models.
        let mut stage_times = vec![nonlayer_stage_time(workload, spec, params)];
        stage_times.resize(layers as usize + 1, costs.total());
        let report = steady_state_analysis(&stage_times, workload.batch_size());
        let step_time = report.total_time + params.step_fixed_overhead_s;

        let tiles_used = (per_layer_tiles * layers).min(spec.tiles);
        let tasks: Vec<TaskProfile> = (0..layers)
            .map(|l| TaskProfile::new(format!("l{l}"), 1.0 / costs.total(), per_layer_tiles as f64))
            .collect();

        Ok(ChipProfile {
            unit_usage: vec![("tile".to_owned(), tiles_used, spec.tiles)],
            tasks,
            sections: vec![],
            memory: vec![MemoryLevelUsage {
                name: "tile-sram".to_owned(),
                used_bytes: mem.total_bytes(),
                capacity_bytes: mem.capacity_bytes,
            }],
            // Fig. 9(d) charts the decoder IPU, so efficiency counts the
            // decoder-layer FLOPs only.
            achieved_tflops: layer_flops_per_step(workload) / step_time / 1e12,
            throughput_tokens_per_s: workload.tokens_per_step() as f64 / step_time,
            step_time_s: step_time,
        })
    }
}

impl Memoizable for Ipu {
    fn cache_key(&self) -> dabench_core::CacheKey {
        self.cache_key
    }
}

impl Scalable for Ipu {
    fn scale(
        &self,
        workload: &TrainingWorkload,
        strategy: ParallelStrategy,
    ) -> Result<ScalingProfile, PlatformError> {
        match strategy {
            ParallelStrategy::PipelineParallel { devices } => {
                let plan =
                    pipeline_parallel(self.ipu_spec(), self.compiler_params(), workload, devices)?;
                let max_layers = plan.stages.iter().map(|s| s.layers).max().unwrap_or(0);
                Ok(ScalingProfile {
                    strategy,
                    throughput_tokens_per_s: plan.throughput_tokens_per_s,
                    communication_fraction: plan.overhead_fraction,
                    per_unit_allocation: plan
                        .stages
                        .iter()
                        .map(|s| {
                            (
                                s.name.clone(),
                                s.tiles_used as f64 / self.ipu_spec().tiles as f64,
                            )
                        })
                        .collect(),
                    detail: vec![("max_layers_per_ipu".to_owned(), max_layers as f64)],
                })
            }
            _ => Err(PlatformError::Unsupported(
                "the IPU scales via pipeline parallelism".to_owned(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::tier1;
    use dabench_model::{ModelConfig, Precision};

    fn w(layers: u64) -> TrainingWorkload {
        TrainingWorkload::new(
            ModelConfig::gpt2_probe(768, layers),
            64,
            1024,
            Precision::Fp16,
        )
    }

    #[test]
    fn tflops_rise_then_plateau() {
        // Paper Fig. 9(d): TFLOPs rise to ~4 layers, then plateau.
        let ipu = Ipu::default();
        let t1 = tier1::run(&ipu, &w(1)).unwrap().achieved_tflops;
        let t4 = tier1::run(&ipu, &w(4)).unwrap().achieved_tflops;
        let t8 = tier1::run(&ipu, &w(8)).unwrap().achieved_tflops;
        assert!(t4 > 2.5 * t1, "{t4} vs {t1}");
        let plateau = t8 / t4;
        assert!((0.75..1.25).contains(&plateau), "{plateau}");
    }

    #[test]
    fn plateau_tflops_in_paper_band() {
        // Paper: 91-143 TFLOPs, peak efficiency ~41%.
        let r = tier1::run(&Ipu::default(), &w(6)).unwrap();
        assert!(
            (80.0..160.0).contains(&r.achieved_tflops),
            "{}",
            r.achieved_tflops
        );
        assert!(
            (0.2..0.48).contains(&r.compute_efficiency),
            "{}",
            r.compute_efficiency
        );
    }

    #[test]
    fn memory_grows_linearly_and_fails_at_ten() {
        let ipu = Ipu::default();
        let m4 = tier1::run(&ipu, &w(4))
            .unwrap()
            .memory_utilization_of("tile-sram")
            .unwrap();
        let m8 = tier1::run(&ipu, &w(8))
            .unwrap()
            .memory_utilization_of("tile-sram")
            .unwrap();
        assert!(m8 > 1.8 * m4 * 0.8, "{m4} {m8}");
        let err = ipu.profile(&w(10)).unwrap_err();
        assert!(matches!(err, PlatformError::OutOfMemory { .. }));
    }

    #[test]
    fn roofline_is_memory_bound_at_ddr() {
        let r = tier1::run(&Ipu::default(), &w(6)).unwrap();
        assert_eq!(r.bound, Some(dabench_core::BoundKind::MemoryBound));
    }

    #[test]
    fn scale_supports_only_pp() {
        let ipu = Ipu::default();
        assert!(ipu
            .scale(&w(12), ParallelStrategy::PipelineParallel { devices: 4 })
            .is_ok());
        assert!(matches!(
            ipu.scale(&w(12), ParallelStrategy::TensorParallel { degree: 2 }),
            Err(PlatformError::Unsupported(_))
        ));
    }

    #[test]
    fn tile_allocation_saturates() {
        let ipu = Ipu::default();
        let a2 = tier1::run(&ipu, &w(2))
            .unwrap()
            .allocation_of("tile")
            .unwrap();
        let a6 = tier1::run(&ipu, &w(6))
            .unwrap()
            .allocation_of("tile")
            .unwrap();
        assert!(a6 > a2);
        assert!(a6 > 0.9, "{a6}");
    }
}

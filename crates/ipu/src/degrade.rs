//! Fault remapping: rebalancing the BSP pipeline over surviving IPUs.
//!
//! The IPU's pipeline-parallel execution recovers from a lost device by
//! re-grouping decoder layers over the chassis' surviving IPUs — the same
//! layer split Poplar would recompile, only with one fewer stage. Tile
//! faults thin every surviving IPU's fabric (layer compute slows as
//! per-layer tile caps shrink), and link faults stretch the
//! stage-to-stage boundary transfers.

use crate::chip::IpuSpec;
use crate::pipeline::{pipeline_parallel, PipelinePlan};
use crate::Ipu;
use dabench_core::{
    ChipProfile, Degradable, DegradedProfile, FaultKind, FaultSet, MemoryLevelUsage, PlatformError,
    RecoveryCost, TaskProfile,
};
use dabench_model::TrainingWorkload;

/// Coarse wall-clock cost of re-compiling one pipeline stage's Poplar
/// program, seconds.
const RECOMPILE_S_PER_STAGE: f64 = 25.0;

/// IPUs of one chassis still usable under `faults`.
#[must_use]
pub fn surviving_devices(spec: &IpuSpec, faults: &FaultSet) -> u32 {
    let chassis = spec.ipus_per_chassis as u32;
    let dropped = faults
        .dropped_devices()
        .iter()
        .filter(|&&i| i < chassis)
        .count() as u32;
    chassis - dropped
}

/// Build the surviving per-IPU hardware description under `faults`.
///
/// # Errors
///
/// [`PlatformError::DeviceFault`] when no tiles survive.
fn degraded_ipu_spec(spec: &IpuSpec, faults: &FaultSet) -> Result<IpuSpec, PlatformError> {
    let tile_loss = (faults.dead_unit_fraction("tile") + faults.dead_pe_fraction()).min(1.0);
    let link = faults.link_retained_fraction();
    let tiles = ((spec.tiles as f64) * (1.0 - tile_loss)).floor() as u64;
    if tiles == 0 {
        return Err(PlatformError::DeviceFault {
            unit: "tile".to_owned(),
            detail: "no usable tiles survive on any IPU".to_owned(),
        });
    }
    let mut out = spec.clone();
    out.tiles = tiles;
    out.link_bw_bytes_per_s *= link;
    out.inter_chassis_bw_bytes_per_s *= link;
    out.external_ddr_bw_bytes_per_s *= link;
    Ok(out)
}

/// Synthesize a [`ChipProfile`] from a pipeline plan over `devices` IPUs.
fn profile_of(plan: &PipelinePlan, spec: &IpuSpec, devices: u32) -> ChipProfile {
    let tiles_used: u64 = plan.stages.iter().map(|s| s.tiles_used).sum();
    let peak_util = plan
        .stages
        .iter()
        .map(|s| s.memory_utilization)
        .fold(0.0f64, f64::max);
    let capacity = spec.sram_per_ipu_bytes();
    ChipProfile {
        unit_usage: vec![(
            "tile".to_owned(),
            tiles_used,
            u64::from(devices) * spec.tiles,
        )],
        tasks: plan
            .stages
            .iter()
            .map(|s| {
                TaskProfile::new(
                    s.name.clone(),
                    1.0 / s.stage_time_s.max(f64::MIN_POSITIVE),
                    s.tiles_used as f64,
                )
            })
            .collect(),
        sections: vec![],
        memory: vec![MemoryLevelUsage {
            name: "tile-sram".to_owned(),
            used_bytes: (peak_util * capacity as f64) as u64,
            capacity_bytes: capacity,
        }],
        achieved_tflops: plan.achieved_tflops,
        throughput_tokens_per_s: plan.throughput_tokens_per_s,
        step_time_s: plan.step_time_s,
    }
}

impl Degradable for Ipu {
    fn fault_kind(&self) -> FaultKind {
        FaultKind::BspPipeline
    }

    fn degrade(
        &self,
        workload: &TrainingWorkload,
        faults: &FaultSet,
    ) -> Result<DegradedProfile, PlatformError> {
        let spec = self.ipu_spec();
        let layers = workload.model().num_layers;
        // Healthy baseline: a full chassis pipeline (never more decoder
        // IPUs than layers), so healthy and degraded are apples-to-apples
        // and deep models need not fit a single tier-1 decoder IPU.
        let chassis = spec.ipus_per_chassis.min(layers + 1).max(2) as u32;
        let healthy_plan = pipeline_parallel(spec, self.compiler_params(), workload, chassis)?;
        let healthy = profile_of(&healthy_plan, spec, chassis);
        if faults.is_empty() {
            return Ok(DegradedProfile {
                degraded: healthy.clone(),
                healthy,
                recovery_cost: RecoveryCost::default(),
            });
        }

        let survivors = surviving_devices(spec, faults).min(chassis);
        if survivors < 2 {
            return Err(PlatformError::DeviceFault {
                unit: "ipu".to_owned(),
                detail: format!(
                    "{survivors} of {chassis} IPUs survive; training needs an \
                     embedding IPU plus at least one decoder IPU"
                ),
            });
        }
        let degraded_spec = degraded_ipu_spec(spec, faults)?;
        let devices = u32::try_from(u64::from(survivors).min(layers + 1)).unwrap_or(2);
        let plan = pipeline_parallel(&degraded_spec, self.compiler_params(), workload, devices)?;
        let degraded = profile_of(&plan, &degraded_spec, devices);

        let recovery_cost =
            RecoveryCost::of(faults, plan.stages.len() as f64 * RECOMPILE_S_PER_STAGE);
        Ok(DegradedProfile {
            healthy,
            degraded,
            recovery_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::Fault;
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
    fn dropped_ipu_rebalances_pipeline() {
        let ipu = Ipu::default();
        let faults = FaultSet::new(vec![Fault::DroppedDevice { index: 1 }]);
        let d = ipu.degrade(&w(12), &faults).unwrap();
        // 12 layers over 2 decoder IPUs (6 each) instead of 3 (4 each).
        assert!(d.degraded.throughput_tokens_per_s < d.healthy.throughput_tokens_per_s);
        assert!(d.degraded.throughput_tokens_per_s > 0.0);
        assert_eq!(d.degraded.tasks.len(), 3); // embedding + 2 decoder stages
        assert!(d.recovery_cost.remap_time_s > 0.0);
    }

    #[test]
    fn tile_loss_slows_stages() {
        let ipu = Ipu::default();
        let faults = FaultSet::new(vec![Fault::DeadUnits {
            kind: "tile".to_owned(),
            fraction: 0.3,
        }]);
        let d = ipu.degrade(&w(12), &faults).unwrap();
        let retention = d.throughput_retention();
        assert!(retention < 1.0, "{retention}");
        assert!(retention > 0.0);
    }

    #[test]
    fn link_degradation_stretches_boundary_transfers() {
        let ipu = Ipu::default();
        let faults = FaultSet::new(vec![Fault::LinkDegraded {
            retained_fraction: 0.1,
        }]);
        let d = ipu.degrade(&w(12), &faults).unwrap();
        assert!(d.throughput_retention() < 1.0);
        // Links are not the bottleneck: a 10x link cut costs far less than
        // a 10x throughput hit.
        assert!(d.throughput_retention() > 0.5);
    }

    #[test]
    fn losing_the_chassis_is_a_device_fault() {
        let ipu = Ipu::default();
        let faults = FaultSet::new(vec![
            Fault::DroppedDevice { index: 1 },
            Fault::DroppedDevice { index: 2 },
            Fault::DroppedDevice { index: 3 },
        ]);
        assert!(matches!(
            ipu.degrade(&w(12), &faults),
            Err(PlatformError::DeviceFault { .. })
        ));
    }

    #[test]
    fn empty_fault_set_is_identity() {
        let ipu = Ipu::default();
        let d = ipu.degrade(&w(6), &FaultSet::default()).unwrap();
        assert_eq!(d.healthy, d.degraded);
        assert_eq!(d.recovery_cost.total_s(), 0.0);
    }
}

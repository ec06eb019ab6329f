//! Fault remapping: re-compiling around dead regions of the wafer.
//!
//! Wafer-scale integration ships with defective PEs by design, and more
//! fail in the field; the real toolchain routes around them. The modelled
//! remap mirrors that: a dead rectangle poisons its full columns for strip
//! placement (strips are full-height, so a strip may never straddle a dead
//! band), the PE budget shrinks by the surviving-fabric fraction, and the
//! elastic allocator re-runs followed by a dead-band-avoiding placement.

use crate::chip::{WseCompilerParams, WseSpec};
use crate::compile::{compile, WseCompilation};
use crate::placement::{healthy_runs, Placement};
use crate::platform_impl::profile_of;
use crate::Wse;
use dabench_core::{
    Degradable, DegradedProfile, FaultKind, FaultSet, Platform, PlatformError, RecoveryCost,
};
use dabench_model::TrainingWorkload;

/// Coarse wall-clock cost of one full WSE compile pass, seconds. Wafer
/// compiles are minutes-long in practice; remap time scales with the
/// number of placement attempts.
const COMPILE_ATTEMPT_S: f64 = 40.0;

/// Re-compile `workload` around the dead fabric in `faults`, returning the
/// compilation and the number of placement attempts it took.
///
/// # Errors
///
/// - [`PlatformError::DeviceFault`] when no healthy columns remain or no
///   budget shrink produces a placement clear of every dead band;
/// - any error the healthy compile path produces (OOM, weight floors).
pub fn compile_degraded(
    spec: &WseSpec,
    params: &WseCompilerParams,
    workload: &TrainingWorkload,
    faults: &FaultSet,
) -> Result<(WseCompilation, u32), PlatformError> {
    let dead_intervals: Vec<(u64, u64)> = faults
        .dead_rects()
        .map(|r| r.column_interval(spec.grid_cols))
        .collect();
    let runs = healthy_runs(spec.grid_cols, &dead_intervals);
    let healthy_cols: u64 = runs.iter().map(|&(s, e)| e - s).sum();
    if healthy_cols == 0 {
        return Err(PlatformError::DeviceFault {
            unit: "pe".to_owned(),
            detail: "every fabric column intersects a dead rectangle".to_owned(),
        });
    }

    let surviving =
        (healthy_cols as f64 / spec.grid_cols as f64) * (1.0 - faults.dead_unit_fraction("pe"));
    let mut budget =
        (params.usable_grid_fraction * spec.pe_count() as f64 * surviving).floor() as u64;
    let mut attempts = 0u32;
    for _ in 0..8 {
        attempts += 1;
        let mut comp = compile(spec, params, workload, Some(budget))?;
        let regions: Vec<(String, u64)> = comp
            .kernels
            .iter()
            .map(|k| (k.kernel.name(), k.total_pes()))
            .collect();
        match Placement::strips_avoiding(&regions, spec.grid_rows, spec.grid_cols, &dead_intervals)
        {
            Some(placement) => {
                comp.placement = placement;
                return Ok((comp, attempts));
            }
            // Fragmented healthy runs: shrink the budget so narrower strips
            // can first-fit into them.
            None => budget = (budget as f64 * 0.95) as u64,
        }
    }
    Err(PlatformError::DeviceFault {
        unit: "pe".to_owned(),
        detail: format!(
            "no placement clears {} dead column band(s) after {attempts} attempts",
            dead_intervals.len()
        ),
    })
}

impl Degradable for Wse {
    fn fault_kind(&self) -> FaultKind {
        FaultKind::WaferGrid
    }

    fn degrade(
        &self,
        workload: &TrainingWorkload,
        faults: &FaultSet,
    ) -> Result<DegradedProfile, PlatformError> {
        let healthy = self.profile(workload)?;
        if faults.is_empty() {
            return Ok(DegradedProfile {
                degraded: healthy.clone(),
                healthy,
                recovery_cost: RecoveryCost::default(),
            });
        }

        let mut spec = self.wse_spec().clone();
        spec.external_bw_bytes_per_s *= faults.link_retained_fraction();
        let (comp, attempts) = compile_degraded(&spec, self.compiler_params(), workload, faults)?;
        let degraded = profile_of(&spec, self.compiler_params(), &comp, workload);

        let recovery_cost = RecoveryCost::of(faults, f64::from(attempts) * COMPILE_ATTEMPT_S);
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
    use dabench_core::{DeadRect, Fault};
    use dabench_model::{ModelConfig, Precision};

    fn w(layers: u64) -> TrainingWorkload {
        TrainingWorkload::new(
            ModelConfig::gpt2_probe(768, layers),
            256,
            1024,
            Precision::Fp16,
        )
    }

    fn dead_band(col: f64, width: f64) -> Fault {
        Fault::DeadRect(DeadRect {
            col,
            row: 0.0,
            width,
            height: 1.0,
        })
    }

    #[test]
    fn five_percent_dead_degrades_without_error() {
        let wse = Wse::default();
        let faults = FaultSet::new(vec![dead_band(0.4, 0.05)]);
        let d = wse.degrade(&w(24), &faults).unwrap();
        assert!(d.degraded.throughput_tokens_per_s <= d.healthy.throughput_tokens_per_s);
        assert!(d.degraded.throughput_tokens_per_s > 0.0);
        assert!(d.recovery_cost.total_s() > 0.0);
    }

    #[test]
    fn remap_avoids_dead_columns() {
        let spec = WseSpec::cs2();
        let faults = FaultSet::new(vec![dead_band(0.3, 0.1)]);
        let (comp, _) =
            compile_degraded(&spec, &WseCompilerParams::default(), &w(24), &faults).unwrap();
        let dead: Vec<(u64, u64)> = faults
            .dead_rects()
            .map(|r| r.column_interval(spec.grid_cols))
            .collect();
        assert!(!comp.placement.overlaps_any(&dead));
    }

    #[test]
    fn empty_fault_set_is_identity() {
        let wse = Wse::default();
        let d = wse.degrade(&w(12), &FaultSet::default()).unwrap();
        assert_eq!(d.healthy, d.degraded);
        assert_eq!(d.recovery_cost.total_s(), 0.0);
    }

    #[test]
    fn fully_dead_wafer_is_a_device_fault() {
        let wse = Wse::default();
        let faults = FaultSet::new(vec![dead_band(0.0, 1.0)]);
        let err = wse.degrade(&w(12), &faults).unwrap_err();
        assert!(matches!(err, PlatformError::DeviceFault { .. }));
    }

    #[test]
    fn transient_stalls_cost_recovery_but_not_throughput() {
        let wse = Wse::default();
        let faults = FaultSet::new(vec![Fault::TransientStall {
            task_index: 2,
            stall_s: 0.5,
        }]);
        let d = wse.degrade(&w(12), &faults).unwrap();
        assert!(
            (d.degraded.throughput_tokens_per_s - d.healthy.throughput_tokens_per_s).abs()
                / d.healthy.throughput_tokens_per_s
                < 1e-9
        );
        assert!(d.recovery_cost.lost_work_s > 0.5);
        assert_eq!(d.recovery_cost.remap_time_s, 0.0);
    }
}

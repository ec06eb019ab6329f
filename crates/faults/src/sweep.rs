//! Resilience sweeps: degrade a platform across growing fault fractions.

use crate::plan::{FaultPlan, PlatformKind};
use crate::report::{ResilienceReport, SweepPoint};
use crate::spec::PlanSpec;
use dabench_core::{catch_labeled, par_map, Degradable, SplitMix64};
use dabench_model::TrainingWorkload;

/// Dead-fabric fractions every sweep visits, in order.
pub const FAULT_FRACTIONS: [f64; 6] = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20];

/// Sweep `platform` over [`FAULT_FRACTIONS`], drawing each point's plan
/// from a seed forked off `seed` (same seed ⇒ byte-identical report).
///
/// The `base` spec's link/stall/drop intensities apply at every point;
/// only the dead-fabric fraction varies. A point whose remap fails is
/// recorded with its error rather than aborting the sweep — a platform
/// that cannot survive 20% dead fabric is a finding, not a crash. The
/// same holds for a remap that *panics*: the panic is caught per point
/// (labelled with the platform and fraction) and recorded as that
/// point's error, so one buggy fault path cannot take down the sweep.
///
/// Points are independent — each forks its own RNG stream off `seed` by
/// sweep index — so they are evaluated in parallel (respecting
/// [`dabench_core::jobs`]) and collected back in sweep order; the report
/// is byte-identical regardless of worker count.
#[must_use]
pub fn resilience_sweep(
    platform: &(dyn Degradable + Sync),
    workload: &TrainingWorkload,
    base: &PlanSpec,
    seed: u64,
) -> ResilienceReport {
    // The platform reports its own fault geometry; no name sniffing, no
    // silent fallback to a wrong plan family.
    let kind = PlatformKind::from_fault_kind(platform.fault_kind());
    let indexed: Vec<(usize, f64)> = FAULT_FRACTIONS.iter().copied().enumerate().collect();
    let points = par_map(&indexed, |&(i, fraction)| {
        let spec = base.with_dead_fraction(fraction);
        let mut fork = SplitMix64::fork(seed, i as u64);
        let plan = FaultPlan::generate(kind, &spec, fork.next_u64());
        let label = format!("{} dead={fraction}", platform.name());
        let outcome = catch_labeled(&label, || platform.degrade(workload, &plan.fault_set()));
        match outcome {
            Ok(Ok(d)) => SweepPoint {
                fraction,
                retention: Some(d.throughput_retention()),
                tokens_per_s: Some(d.degraded.throughput_tokens_per_s),
                recover_s: Some(d.recovery_cost.total_s()),
                error: None,
                plan,
            },
            Ok(Err(e)) => SweepPoint {
                fraction,
                retention: None,
                tokens_per_s: None,
                recover_s: None,
                error: Some(e.to_string()),
                plan,
            },
            Err(panicked) => SweepPoint {
                fraction,
                retention: None,
                tokens_per_s: None,
                recover_s: None,
                error: Some(panicked),
                plan,
            },
        }
    });
    ResilienceReport {
        platform: platform.name().to_owned(),
        seed,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_core::{
        ChipProfile, ComputeUnitSpec, DegradedProfile, FaultKind, FaultSet, HardwareSpec, Platform,
        PlatformError, RecoveryCost, TaskProfile,
    };
    use dabench_model::{ModelConfig, Precision};

    /// A platform whose fault path panics at high dead fractions — the
    /// kind of bug the sweep must survive, not crash on.
    struct PanickyChip;

    impl Platform for PanickyChip {
        fn name(&self) -> &str {
            "panicky-chip"
        }

        fn spec(&self) -> HardwareSpec {
            HardwareSpec {
                name: "panicky-chip".into(),
                compute_units: vec![ComputeUnitSpec {
                    kind: "pe".into(),
                    count: 10,
                }],
                peak_tflops: 100.0,
                memory_levels: vec![],
            }
        }

        fn profile(&self, _w: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
            Ok(healthy_profile())
        }
    }

    fn healthy_profile() -> ChipProfile {
        ChipProfile {
            unit_usage: vec![("pe".into(), 8, 10)],
            tasks: vec![TaskProfile::new("k", 1.0, 8.0)],
            sections: vec![],
            memory: vec![],
            achieved_tflops: 40.0,
            throughput_tokens_per_s: 1.0e4,
            step_time_s: 0.5,
        }
    }

    impl Degradable for PanickyChip {
        fn fault_kind(&self) -> FaultKind {
            FaultKind::TiledFabric
        }

        fn degrade(
            &self,
            _workload: &TrainingWorkload,
            faults: &FaultSet,
        ) -> Result<DegradedProfile, PlatformError> {
            assert!(
                faults.dead_unit_fraction("pcu") < 0.1,
                "unhandled fault geometry"
            );
            Ok(DegradedProfile {
                healthy: healthy_profile(),
                degraded: healthy_profile(),
                recovery_cost: RecoveryCost::default(),
            })
        }
    }

    #[test]
    fn panicking_point_is_recorded_not_propagated() {
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), 4, 512, Precision::Fp16);
        let report = resilience_sweep(&PanickyChip, &w, &PlanSpec::default(), 42);
        assert_eq!(report.points.len(), FAULT_FRACTIONS.len());
        let panicked: Vec<_> = report
            .points
            .iter()
            .filter(|p| p.error.as_deref().is_some_and(|e| e.contains("panicked")))
            .collect();
        assert!(!panicked.is_empty(), "high fractions should have panicked");
        for p in &panicked {
            let e = p.error.as_deref().unwrap();
            assert!(e.contains("panicky-chip"), "label names the platform: {e}");
            assert!(e.contains("unhandled fault geometry"), "{e}");
        }
        // Low fractions still succeeded — the sweep kept going.
        assert!(report.points.iter().any(|p| p.remapped()));
    }
}

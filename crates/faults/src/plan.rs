//! Seeded generation of concrete fault plans.
//!
//! A [`FaultPlan`] assigns coordinates to the intensities of a
//! [`PlanSpec`] using a [`SplitMix64`] stream, so the same `(platform,
//! spec, seed)` triple always yields byte-identical faults. Each platform
//! family receives the fault shapes its architecture actually exhibits:
//! dead PE rectangles on the WSE wafer, failed PCU/PMU populations and
//! tiles on the RDU, dropped devices in the IPU's BSP pipeline.

use crate::spec::PlanSpec;
use dabench_core::{DeadRect, Fault, FaultKind, FaultSet, SplitMix64};

/// The architectural family a plan targets; decides which fault shapes
/// the generator draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// Wafer-scale PE grid (Cerebras WSE): dead rectangles.
    Wse,
    /// Tiled PCU/PMU fabric (SambaNova RDU): failed unit populations and
    /// whole tiles.
    Rdu,
    /// Multi-device BSP pipeline (Graphcore IPU): dead tiles and dropped
    /// devices.
    Ipu,
}

impl PlatformKind {
    /// The plan family for a platform-reported fault geometry — the
    /// authoritative mapping, used by sweeps instead of name inference.
    #[must_use]
    pub fn from_fault_kind(kind: FaultKind) -> Self {
        match kind {
            FaultKind::WaferGrid => Self::Wse,
            FaultKind::TiledFabric => Self::Rdu,
            FaultKind::BspPipeline => Self::Ipu,
        }
    }

    /// Infer the family from a [`dabench_core::Platform::name`] string.
    ///
    /// Heuristic only — prefer [`PlatformKind::from_fault_kind`] with
    /// [`dabench_core::Degradable::fault_kind`] when a platform instance
    /// is at hand; a renamed platform silently defeats this matcher.
    #[must_use]
    pub fn infer(platform_name: &str) -> Option<Self> {
        let n = platform_name.to_ascii_lowercase();
        if n.contains("wse") || n.contains("cerebras") {
            Some(Self::Wse)
        } else if n.contains("rdu") || n.contains("sn30") || n.contains("sambanova") {
            Some(Self::Rdu)
        } else if n.contains("ipu") || n.contains("bow") || n.contains("graphcore") {
            Some(Self::Ipu)
        } else {
            None
        }
    }
}

/// One generated fault plus a human-readable label for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFault {
    /// Short description, e.g. `"dead-band0"`.
    pub label: String,
    /// The fault itself.
    pub fault: Fault,
}

/// A concrete, reproducible set of faults for one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was drawn from.
    pub seed: u64,
    /// Platform family the shapes were drawn for.
    pub kind: PlatformKind,
    /// Intensities the plan realizes.
    pub spec: PlanSpec,
    /// The generated faults.
    pub faults: Vec<PlannedFault>,
}

/// IPUs per Bow-2000 chassis / tiles per SN30 — the device quantum whole-
/// device faults are drawn against (both machines carry four).
const DEVICES_PER_MACHINE: u64 = 4;

impl FaultPlan {
    /// Draw a plan for `kind` realizing `spec`, deterministically from
    /// `seed`.
    #[must_use]
    pub fn generate(kind: PlatformKind, spec: &PlanSpec, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::new();

        if spec.dead_fraction > 0.0 {
            match kind {
                PlatformKind::Wse => dead_bands(&mut rng, spec.dead_fraction, &mut faults),
                PlatformKind::Rdu => {
                    // Both unit populations fail; PMUs somewhat less often
                    // (they carry no arithmetic state to corrupt).
                    let pmu_share = rng.uniform(0.6, 1.0);
                    push_units(&mut faults, "pcu", spec.dead_fraction);
                    push_units(&mut faults, "pmu", spec.dead_fraction * pmu_share);
                }
                PlatformKind::Ipu => push_units(&mut faults, "tile", spec.dead_fraction),
            }
        }

        if spec.dropped_devices > 0 {
            match kind {
                PlatformKind::Ipu => {
                    // Distinct device indices within the chassis.
                    let count = u64::from(spec.dropped_devices).min(DEVICES_PER_MACHINE);
                    let mut pool: Vec<u64> = (0..DEVICES_PER_MACHINE).collect();
                    for i in 0..count {
                        let pick = i as usize + rng.below(pool.len() as u64 - i) as usize;
                        pool.swap(i as usize, pick);
                        faults.push(PlannedFault {
                            label: format!("dropped-ipu{}", pool[i as usize]),
                            fault: Fault::DroppedDevice {
                                index: pool[i as usize] as u32,
                            },
                        });
                    }
                }
                PlatformKind::Rdu => {
                    // A lost RDU tile takes a quarter of the fabric with it.
                    let count = u64::from(spec.dropped_devices).min(DEVICES_PER_MACHINE);
                    faults.push(PlannedFault {
                        label: format!("failed-tiles({count})"),
                        fault: Fault::DeadUnits {
                            kind: "tile".to_owned(),
                            fraction: count as f64 / DEVICES_PER_MACHINE as f64,
                        },
                    });
                }
                // The wafer is one device; dropping it is total loss.
                PlatformKind::Wse => faults.push(PlannedFault {
                    label: "dead-wafer".to_owned(),
                    fault: Fault::DeadRect(DeadRect {
                        col: 0.0,
                        row: 0.0,
                        width: 1.0,
                        height: 1.0,
                    }),
                }),
            }
        }

        if spec.link_retained < 1.0 {
            faults.push(PlannedFault {
                label: format!("link({:.2})", spec.link_retained),
                fault: Fault::LinkDegraded {
                    retained_fraction: spec.link_retained,
                },
            });
        }

        for i in 0..spec.transient_stalls {
            let task_index = rng.below(12) as u32;
            let stall_s = rng.uniform(0.05, 1.5);
            faults.push(PlannedFault {
                label: format!("stall{i}@t{task_index}"),
                fault: Fault::TransientStall {
                    task_index,
                    stall_s,
                },
            });
        }

        Self {
            seed,
            kind,
            spec: *spec,
            faults,
        }
    }

    /// The plan as a platform-consumable fault set.
    #[must_use]
    pub fn fault_set(&self) -> FaultSet {
        FaultSet::new(self.faults.iter().map(|p| p.fault.clone()).collect())
    }
}

fn push_units(faults: &mut Vec<PlannedFault>, kind: &str, fraction: f64) {
    faults.push(PlannedFault {
        label: format!("dead-{kind}({fraction:.3})"),
        fault: Fault::DeadUnits {
            kind: kind.to_owned(),
            fraction,
        },
    });
}

/// Draw 1–3 disjoint full-height dead bands whose widths sum exactly to
/// `fraction`, so the dead area equals the dead column fraction (strips
/// are full-height on the WSE, making a partial-height dead PE poison its
/// whole column anyway).
fn dead_bands(rng: &mut SplitMix64, fraction: f64, faults: &mut Vec<PlannedFault>) {
    let k = (1 + rng.below(3)) as usize;
    let raw: Vec<f64> = (0..k).map(|_| rng.uniform(0.5, 1.5)).collect();
    let total: f64 = raw.iter().sum();
    // Each band lives in its own 1/k slot of the wafer width, so bands
    // can never overlap and the area sum stays exact.
    let slot = 1.0 / k as f64;
    for (i, r) in raw.iter().enumerate() {
        let width = (fraction * r / total).min(slot);
        let offset = rng.next_f64() * (slot - width);
        faults.push(PlannedFault {
            label: format!("dead-band{i}"),
            fault: Fault::DeadRect(DeadRect {
                col: i as f64 * slot + offset,
                row: 0.0,
                width,
                height: 1.0,
            }),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_identical_plan() {
        let spec = PlanSpec {
            dead_fraction: 0.1,
            link_retained: 0.7,
            transient_stalls: 3,
            dropped_devices: 1,
        };
        for kind in [PlatformKind::Wse, PlatformKind::Rdu, PlatformKind::Ipu] {
            let a = FaultPlan::generate(kind, &spec, 42);
            let b = FaultPlan::generate(kind, &spec, 42);
            assert_eq!(a, b);
            assert_ne!(a, FaultPlan::generate(kind, &spec, 43));
        }
    }

    #[test]
    fn wse_dead_area_matches_spec_fraction() {
        for seed in 0..20 {
            let spec = PlanSpec::default().with_dead_fraction(0.05);
            let plan = FaultPlan::generate(PlatformKind::Wse, &spec, seed);
            let area = plan.fault_set().dead_pe_fraction();
            assert!((area - 0.05).abs() < 1e-9, "seed {seed}: {area}");
        }
    }

    #[test]
    fn wse_bands_are_disjoint_and_full_height() {
        let spec = PlanSpec::default().with_dead_fraction(0.2);
        let plan = FaultPlan::generate(PlatformKind::Wse, &spec, 7);
        let set = plan.fault_set();
        let rects: Vec<&DeadRect> = set.dead_rects().collect();
        for r in &rects {
            assert_eq!(r.height, 1.0);
        }
        for (i, a) in rects.iter().enumerate() {
            for b in rects.iter().skip(i + 1) {
                assert!(
                    a.col + a.width <= b.col || b.col + b.width <= a.col,
                    "{a:?} overlaps {b:?}"
                );
            }
        }
    }

    #[test]
    fn ipu_drops_distinct_devices() {
        let spec = PlanSpec {
            dead_fraction: 0.0,
            link_retained: 1.0,
            transient_stalls: 0,
            dropped_devices: 3,
        };
        let plan = FaultPlan::generate(PlatformKind::Ipu, &spec, 9);
        let dropped = plan.fault_set().dropped_devices();
        assert_eq!(dropped.len(), 3);
        assert!(dropped.iter().all(|&i| i < 4));
    }

    #[test]
    fn healthy_spec_yields_empty_plan() {
        let spec: PlanSpec = "dead=0".parse().unwrap();
        for kind in [PlatformKind::Wse, PlatformKind::Rdu, PlatformKind::Ipu] {
            assert!(FaultPlan::generate(kind, &spec, 1).fault_set().is_empty());
        }
    }

    #[test]
    fn kind_inference_covers_platform_names() {
        assert_eq!(
            PlatformKind::infer("cerebras-wse2"),
            Some(PlatformKind::Wse)
        );
        assert_eq!(
            PlatformKind::infer("sambanova-sn30-o3"),
            Some(PlatformKind::Rdu)
        );
        assert_eq!(
            PlatformKind::infer("graphcore-bow-ipu"),
            Some(PlatformKind::Ipu)
        );
        assert_eq!(PlatformKind::infer("gpu-reference"), None);
    }
}

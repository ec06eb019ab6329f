//! Fault descriptors and the degradation contract platforms implement.
//!
//! Dataflow accelerators amortize their compile-time mapping over many
//! steps, so a hardware fault is not a transparent stall the way it is on a
//! cache-coherent GPU: dead PEs invalidate the placement, a failed RDU tile
//! invalidates the section partition, and a dropped IPU breaks the BSP
//! pipeline. This module describes faults abstractly — which unit
//! population, how much of it, where on the grid — and defines the
//! [`Degradable`] trait through which each platform model re-maps the
//! workload around the surviving hardware, and [`RecoveryCost::of`], the
//! one price every platform puts on recovering from a fault set.
//!
//! Plan *generation* (seeding, scheduling, sweeps) lives in the
//! `dabench-faults` crate; keeping only the descriptors here lets platform
//! crates implement [`Degradable`] without depending on it.

use crate::error::PlatformError;
use crate::platform::{ChipProfile, Platform};
use dabench_model::TrainingWorkload;
use serde::{Deserialize, Serialize};

/// The architectural fault-geometry family of a [`Degradable`] platform.
///
/// Plan generators (the `dabench-faults` crate) use this to draw the
/// fault shapes a platform's architecture actually exhibits. Platforms
/// report their own family through [`Degradable::fault_kind`] — the
/// generator never has to guess from a display name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Wafer-scale 2-D PE grid: faults are dead rectangles / column bands
    /// (Cerebras WSE).
    WaferGrid,
    /// Tiled unit fabric: faults are failed PCU/PMU populations and whole
    /// tiles (SambaNova RDU).
    TiledFabric,
    /// Multi-device BSP pipeline: faults are dead tiles and dropped
    /// devices (Graphcore IPU).
    BspPipeline,
}

/// A rectangle of dead PEs on a 2-D fabric, in normalized `[0, 1]`
/// coordinates so the same fault plan applies to any grid size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadRect {
    /// Left edge, fraction of grid width.
    pub col: f64,
    /// Top edge, fraction of grid height.
    pub row: f64,
    /// Width, fraction of grid width.
    pub width: f64,
    /// Height, fraction of grid height.
    pub height: f64,
}

impl DeadRect {
    /// Fraction of the grid area covered by this rectangle.
    #[must_use]
    pub fn area(&self) -> f64 {
        (self.width * self.height).clamp(0.0, 1.0)
    }

    /// The column interval `[start, end)` this rectangle occupies on a
    /// fabric `grid_cols` wide, clamped to the grid.
    #[must_use]
    pub fn column_interval(&self, grid_cols: u64) -> (u64, u64) {
        let w = grid_cols as f64;
        let start = (self.col.clamp(0.0, 1.0) * w).floor() as u64;
        let end = ((self.col + self.width).clamp(0.0, 1.0) * w).ceil() as u64;
        (start.min(grid_cols), end.min(grid_cols))
    }
}

/// One injectable fault, in platform-neutral terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// A rectangle of permanently dead PEs on a 2-D fabric (WSE).
    DeadRect(DeadRect),
    /// A fraction of a unit population permanently failed (RDU PCUs/PMUs,
    /// IPU tiles).
    DeadUnits {
        /// Unit kind as named in [`crate::HardwareSpec::compute_units`]
        /// (e.g. `"pcu"`, `"pmu"`, `"tile"`).
        kind: String,
        /// Fraction of the population lost, `0..=1`.
        fraction: f64,
    },
    /// A whole device dropped from a multi-device configuration (one IPU
    /// out of a BSP pipeline).
    DroppedDevice {
        /// Zero-based index of the lost device.
        index: u32,
    },
    /// Interconnect or external-memory bandwidth degraded to a fraction of
    /// nominal.
    LinkDegraded {
        /// Surviving fraction of nominal bandwidth, `0..=1`.
        retained_fraction: f64,
    },
    /// A transient stall hitting one task/section: recoverable by retry,
    /// costing `stall_s` per attempt.
    TransientStall {
        /// Index of the affected task in submission order.
        task_index: u32,
        /// Stall duration per failed attempt, seconds.
        stall_s: f64,
    },
}

impl Fault {
    /// Whether the fault is permanent (requires remapping) rather than
    /// transient (recoverable by retry).
    #[must_use]
    pub fn is_permanent(&self) -> bool {
        !matches!(self, Fault::TransientStall { .. })
    }
}

/// The set of faults active during one experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSet {
    /// Active faults.
    pub faults: Vec<Fault>,
}

impl FaultSet {
    /// An empty (healthy) fault set.
    #[must_use]
    pub fn new(faults: Vec<Fault>) -> Self {
        Self { faults }
    }

    /// No faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// All dead-PE rectangles.
    pub fn dead_rects(&self) -> impl Iterator<Item = &DeadRect> {
        self.faults.iter().filter_map(|f| match f {
            Fault::DeadRect(r) => Some(r),
            _ => None,
        })
    }

    /// Total grid-area fraction covered by dead rectangles, clamped to 1.
    /// (Overlaps are counted twice; plans drawn by `dabench-faults` use
    /// disjoint rectangles.)
    #[must_use]
    pub fn dead_pe_fraction(&self) -> f64 {
        self.dead_rects().map(DeadRect::area).sum::<f64>().min(1.0)
    }

    /// Fraction of the `kind` unit population lost, clamped to 1.
    #[must_use]
    pub fn dead_unit_fraction(&self, kind: &str) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::DeadUnits { kind: k, fraction } if k == kind => Some(*fraction),
                _ => None,
            })
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Indices of dropped devices, deduplicated and sorted.
    #[must_use]
    pub fn dropped_devices(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::DroppedDevice { index } => Some(*index),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Product of all link degradations (1.0 when links are healthy).
    #[must_use]
    pub fn link_retained_fraction(&self) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::LinkDegraded { retained_fraction } => {
                    Some(retained_fraction.clamp(0.0, 1.0))
                }
                _ => None,
            })
            .product()
    }

    /// All transient stalls as `(task_index, stall_s)`.
    #[must_use]
    pub fn transient_stalls(&self) -> Vec<(u32, f64)> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::TransientStall {
                    task_index,
                    stall_s,
                } => Some((*task_index, *stall_s)),
                _ => None,
            })
            .collect()
    }

    /// Whether any permanent fault is present (remap required).
    #[must_use]
    pub fn has_permanent(&self) -> bool {
        self.faults.iter().any(Fault::is_permanent)
    }
}

/// Backoff after a transient stall's failed attempt, before the retry,
/// seconds.
pub const STALL_BACKOFF_S: f64 = 1e-3;

/// Time to restore the last checkpoint after a permanent fault, seconds.
pub const CHECKPOINT_RESTORE_S: f64 = 15.0;

/// Time between checkpoints, seconds. A permanent fault lands uniformly
/// within one, so a restart replays half of it on average.
pub const CHECKPOINT_INTERVAL_S: f64 = 600.0;

/// One-time cost of recovering from the faults in a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCost {
    /// Time to re-compile / re-partition / re-balance around permanent
    /// faults, seconds.
    pub remap_time_s: f64,
    /// Work replayed after restart (checkpoint restore + lost steps),
    /// seconds.
    pub lost_work_s: f64,
}

impl RecoveryCost {
    /// Price recovery from `faults` on a platform that takes
    /// `remap_time_s` to remap around permanent faults.
    ///
    /// Each transient stall is retried once, after one failed attempt: it
    /// costs the stall plus [`STALL_BACKOFF_S`]. A fault set with any
    /// permanent fault also costs the remap and a restart from the last
    /// checkpoint: [`CHECKPOINT_RESTORE_S`] plus half of
    /// [`CHECKPOINT_INTERVAL_S`].
    #[must_use]
    pub fn of(faults: &FaultSet, remap_time_s: f64) -> Self {
        let stalls_s: f64 = faults
            .transient_stalls()
            .iter()
            .map(|&(_, stall_s)| stall_s + STALL_BACKOFF_S)
            .sum();
        let permanent = faults.has_permanent();
        let restart_s = if permanent {
            CHECKPOINT_RESTORE_S + CHECKPOINT_INTERVAL_S / 2.0
        } else {
            0.0
        };
        Self {
            remap_time_s: if permanent { remap_time_s } else { 0.0 },
            lost_work_s: stalls_s + restart_s,
        }
    }

    /// Total wall-clock recovery time, seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.remap_time_s + self.lost_work_s
    }
}

/// Outcome of profiling a workload on healthy and degraded hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedProfile {
    /// Profile on fault-free hardware.
    pub healthy: ChipProfile,
    /// Profile after remapping around the fault set.
    pub degraded: ChipProfile,
    /// One-time recovery cost.
    pub recovery_cost: RecoveryCost,
}

impl DegradedProfile {
    /// Degraded throughput as a fraction of healthy throughput (`0..=1`
    /// for any physical remap).
    #[must_use]
    pub fn throughput_retention(&self) -> f64 {
        if self.healthy.throughput_tokens_per_s <= 0.0 {
            0.0
        } else {
            self.degraded.throughput_tokens_per_s / self.healthy.throughput_tokens_per_s
        }
    }
}

/// Platforms that can re-map a workload around hardware faults.
///
/// Implementations re-run their compilation / partitioning / pipeline
/// balancing against the surviving hardware: the WSE placer re-packs
/// kernel strips excluding dead rectangles, the RDU re-partitions sections
/// over surviving PCU/PMU counts, and the IPU rebalances pipeline stages
/// over the remaining devices.
pub trait Degradable: Platform {
    /// The fault-geometry family of this platform, used by plan
    /// generators to draw architecture-appropriate fault shapes.
    fn fault_kind(&self) -> FaultKind;

    /// Profile `workload` on hardware degraded by `faults`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::DeviceFault`] when the surviving hardware cannot
    /// host the workload at all; any other [`PlatformError`] the healthy
    /// profile itself would produce.
    fn degrade(
        &self,
        workload: &TrainingWorkload,
        faults: &FaultSet,
    ) -> Result<DegradedProfile, PlatformError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_rect_area_and_interval() {
        let r = DeadRect {
            col: 0.25,
            row: 0.0,
            width: 0.5,
            height: 0.5,
        };
        assert!((r.area() - 0.25).abs() < 1e-12);
        assert_eq!(r.column_interval(100), (25, 75));
    }

    #[test]
    fn column_interval_clamps_to_grid() {
        let r = DeadRect {
            col: 0.9,
            row: 0.0,
            width: 0.5,
            height: 1.0,
        };
        assert_eq!(r.column_interval(10), (9, 10));
    }

    #[test]
    fn fault_set_aggregates() {
        let fs = FaultSet::new(vec![
            Fault::DeadUnits {
                kind: "pcu".into(),
                fraction: 0.1,
            },
            Fault::DeadUnits {
                kind: "pcu".into(),
                fraction: 0.05,
            },
            Fault::DroppedDevice { index: 2 },
            Fault::DroppedDevice { index: 2 },
            Fault::LinkDegraded {
                retained_fraction: 0.5,
            },
            Fault::TransientStall {
                task_index: 3,
                stall_s: 0.25,
            },
        ]);
        assert!((fs.dead_unit_fraction("pcu") - 0.15).abs() < 1e-12);
        assert_eq!(fs.dead_unit_fraction("pmu"), 0.0);
        assert_eq!(fs.dropped_devices(), vec![2]);
        assert!((fs.link_retained_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(fs.transient_stalls(), vec![(3, 0.25)]);
        assert!(fs.has_permanent());
    }

    #[test]
    fn transient_only_set_has_no_permanent() {
        let fs = FaultSet::new(vec![Fault::TransientStall {
            task_index: 0,
            stall_s: 0.1,
        }]);
        assert!(!fs.has_permanent());
        assert!(fs.dropped_devices().is_empty());
        assert_eq!(fs.link_retained_fraction(), 1.0);
    }

    #[test]
    fn recovery_prices_stalls_and_restarts() {
        let stall = |stall_s| Fault::TransientStall {
            task_index: 0,
            stall_s,
        };
        let healthy = RecoveryCost::of(&FaultSet::default(), 40.0);
        assert_eq!(healthy.total_s(), 0.0);

        let stalls = RecoveryCost::of(&FaultSet::new(vec![stall(0.5), stall(0.25)]), 40.0);
        assert_eq!(stalls.remap_time_s, 0.0);
        assert_eq!(stalls.lost_work_s, (0.5 + 1e-3) + (0.25 + 1e-3));

        let permanent = FaultSet::new(vec![stall(0.5), Fault::DroppedDevice { index: 1 }]);
        let restart = RecoveryCost::of(&permanent, 40.0);
        assert_eq!(restart.remap_time_s, 40.0);
        assert_eq!(restart.lost_work_s, (0.5 + 1e-3) + 315.0);
    }
}

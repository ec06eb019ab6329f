//! Seeded fault-injection planning and resilience benchmarking.
//!
//! This crate turns the descriptive fault types in [`dabench_core::faults`]
//! into concrete, reproducible experiments: a [`plan::FaultPlan`] is drawn
//! deterministically from a seed (same seed ⇒ byte-identical plan), applied
//! to any platform implementing [`dabench_core::Degradable`], and summarised
//! as a [`report::ResilienceReport`] (throughput retention vs. fault
//! fraction, remap success rate, time-to-recover).

pub mod plan;
pub mod report;
pub mod spec;
pub mod sweep;

pub use plan::{FaultPlan, PlannedFault, PlatformKind};
pub use report::{render_report, ResilienceReport, SweepPoint};
pub use spec::{PlanSpec, PlanSpecError};
pub use sweep::{resilience_sweep, FAULT_FRACTIONS};

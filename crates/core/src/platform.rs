//! The platform abstraction every chip model implements.

use crate::error::PlatformError;
use dabench_model::TrainingWorkload;
use serde::{Deserialize, Serialize};

/// Where a memory level sits relative to the compute die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryScope {
    /// On-chip SRAM distributed with the compute units ("shared" tier in
    /// the paper's GPU-style classification).
    OnChip,
    /// Off-chip DRAM ("global" tier).
    OffChip,
}

/// Static description of one memory level of a chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryLevelSpec {
    /// Level name, e.g. `"pe-sram"`, `"ddr"`.
    pub name: String,
    /// Scope of the level.
    pub scope: MemoryScope,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Aggregate bandwidth in bytes/second, when publicly known.
    pub bandwidth_bytes_per_s: Option<f64>,
}

/// Static description of one compute-unit population of a chip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputeUnitSpec {
    /// Unit kind, e.g. `"pe"`, `"pcu"`, `"pmu"`, `"tile"`.
    pub kind: String,
    /// Total number of units of this kind on the chip.
    pub count: u64,
}

/// Static hardware description of a chip, assembled from vendor data
/// sheets (Sec. II-B of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Marketing name, e.g. `"Cerebras WSE-2"`.
    pub name: String,
    /// Compute-unit populations.
    pub compute_units: Vec<ComputeUnitSpec>,
    /// Peak throughput at 16-bit precision, TFLOP/s.
    pub peak_tflops: f64,
    /// Memory hierarchy.
    pub memory_levels: Vec<MemoryLevelSpec>,
}

impl HardwareSpec {
    /// Total units of a given kind, 0 when the kind is absent.
    #[must_use]
    pub fn unit_count(&self, kind: &str) -> u64 {
        self.compute_units
            .iter()
            .find(|u| u.kind == kind)
            .map_or(0, |u| u.count)
    }

    /// Look up a memory level by name.
    #[must_use]
    pub fn memory_level(&self, name: &str) -> Option<&MemoryLevelSpec> {
        self.memory_levels.iter().find(|l| l.name == name)
    }

    /// The global-memory level used for roofline analysis: the off-chip
    /// level if present, otherwise the (unified) on-chip level.
    #[must_use]
    pub fn global_memory(&self) -> Option<&MemoryLevelSpec> {
        self.memory_levels
            .iter()
            .find(|l| l.scope == MemoryScope::OffChip)
            .or_else(|| self.memory_levels.first())
    }
}

/// Profiling record of one schedulable task (a kernel on the WSE, an
/// operator on the RDU, a pipeline stage on the IPU).
///
/// `resources` is the number of compute units allocated to the task and
/// `throughput` its per-task processing rate (any consistent unit — the
/// load-imbalance metric is scale-free).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskProfile {
    /// Task name.
    pub name: String,
    /// Per-task throughput (items/s in any consistent unit).
    pub throughput: f64,
    /// Compute units allocated to the task.
    pub resources: f64,
}

impl TaskProfile {
    /// Create a task profile.
    #[must_use]
    pub fn new(name: impl Into<String>, throughput: f64, resources: f64) -> Self {
        Self {
            name: name.into(),
            throughput,
            resources,
        }
    }
}

/// Profiling record of one RDU-style *section*: a subgraph executed as a
/// unit, with its runtime used as weight in Eqs. 2 and 4.
///
/// One record may stand for `copies` identical sections run back to back
/// (the RDU's O3 decoder runs); Eqs. 2 and 4 then weight each copy by
/// `runtime_s`, adding it once per copy in schedule order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectionProfile {
    /// Section name.
    pub name: String,
    /// Identical copies of the section, run back to back (usually 1).
    pub copies: u64,
    /// Wall-clock runtime of one copy in seconds (`L_i`).
    pub runtime_s: f64,
    /// Per-resource-kind usage: `(kind, used, available)`.
    pub unit_usage: Vec<(String, u64, u64)>,
    /// Per-task profiles inside the section, for operator-level LI.
    pub tasks: Vec<TaskProfile>,
}

/// Runtime usage of one memory level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryLevelUsage {
    /// Level name, matching a [`MemoryLevelSpec`].
    pub name: String,
    /// Bytes in use for this workload.
    pub used_bytes: u64,
    /// Bytes available.
    pub capacity_bytes: u64,
}

impl MemoryLevelUsage {
    /// Used fraction of the level (`0..=1`).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.capacity_bytes == 0 {
            0.0
        } else {
            self.used_bytes as f64 / self.capacity_bytes as f64
        }
    }
}

/// Everything a platform reports about executing one workload on one chip.
///
/// Exactly one of `tasks` / `sections` drives the Tier-1 metrics: chips
/// that map the whole graph at once (WSE, IPU) fill `tasks` and the
/// unsectioned `unit_usage`; section-sequential chips (RDU) fill
/// `sections`, and the framework applies the paper's time-weighted
/// averaging (Eqs. 2 and 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipProfile {
    /// Per-resource-kind allocation for whole-graph mappings:
    /// `(kind, used, available)`.
    pub unit_usage: Vec<(String, u64, u64)>,
    /// Task-level profiles for whole-graph mappings.
    pub tasks: Vec<TaskProfile>,
    /// Section profiles for section-sequential execution.
    pub sections: Vec<SectionProfile>,
    /// Memory usage per level.
    pub memory: Vec<MemoryLevelUsage>,
    /// Achieved compute throughput, TFLOP/s.
    pub achieved_tflops: f64,
    /// End-to-end training throughput, tokens/second.
    pub throughput_tokens_per_s: f64,
    /// Wall-clock time of one optimizer step, seconds.
    pub step_time_s: f64,
}

impl ChipProfile {
    /// Whether the profile is section-based (RDU-style).
    #[must_use]
    pub fn is_sectioned(&self) -> bool {
        !self.sections.is_empty()
    }
}

/// A dataflow accelerator model benchmarkable by the framework.
///
/// Implementations live in `dabench-wse`, `dabench-rdu`, `dabench-ipu` and
/// `dabench-gpu`.
pub trait Platform {
    /// Platform display name, e.g. `"cerebras-wse2"`.
    fn name(&self) -> &str;

    /// Static hardware description.
    fn spec(&self) -> HardwareSpec;

    /// Compile and execute `workload` on one chip, reporting the profile
    /// the framework's Tier-1 metrics are computed from.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] when the workload cannot be mapped
    /// (out of memory, unsupported configuration, compile failure).
    fn profile(&self, workload: &TrainingWorkload) -> Result<ChipProfile, PlatformError>;
}

/// A multi-chip (or multi-region) scaling strategy, classified through the
/// classical DP/TP/PP lens of Sec. IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParallelStrategy {
    /// Data parallelism with `replicas` model copies (intra-chip on WSE-2).
    DataParallel {
        /// Number of model replicas.
        replicas: u32,
    },
    /// Tensor parallelism across `degree` chips (RDU).
    TensorParallel {
        /// Number of chips operators are sharded over.
        degree: u32,
    },
    /// Pipeline parallelism across `devices` chips (IPU).
    PipelineParallel {
        /// Number of devices in the pipeline.
        devices: u32,
    },
    /// Cerebras weight-streaming mode (single chip, weights streamed from
    /// external memory).
    WeightStreaming,
}

/// Result of scaling a workload with a [`ParallelStrategy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingProfile {
    /// Strategy that produced this profile.
    pub strategy: ParallelStrategy,
    /// Aggregate training throughput, tokens/second.
    pub throughput_tokens_per_s: f64,
    /// Fraction of step time spent communicating (`0..=1`).
    pub communication_fraction: f64,
    /// Per-chip (or per-replica) resource allocation ratios after scaling:
    /// `(kind, ratio)`.
    pub per_unit_allocation: Vec<(String, f64)>,
    /// Free-form per-device detail (e.g. layers per IPU).
    pub detail: Vec<(String, f64)>,
}

/// Optional extension: platforms that support multi-chip / multi-region
/// scaling implement this alongside [`Platform`].
pub trait Scalable: Platform {
    /// Execute `workload` under `strategy`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Unsupported`] when the platform cannot realize the
    /// strategy (e.g. tensor parallelism on the WSE-2).
    fn scale(
        &self,
        workload: &TrainingWorkload,
        strategy: ParallelStrategy,
    ) -> Result<ScalingProfile, PlatformError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> HardwareSpec {
        HardwareSpec {
            name: "test-chip".into(),
            compute_units: vec![ComputeUnitSpec {
                kind: "pe".into(),
                count: 100,
            }],
            peak_tflops: 10.0,
            memory_levels: vec![
                MemoryLevelSpec {
                    name: "sram".into(),
                    scope: MemoryScope::OnChip,
                    capacity_bytes: 1 << 20,
                    bandwidth_bytes_per_s: Some(1e12),
                },
                MemoryLevelSpec {
                    name: "ddr".into(),
                    scope: MemoryScope::OffChip,
                    capacity_bytes: 1 << 30,
                    bandwidth_bytes_per_s: Some(2e11),
                },
            ],
        }
    }

    #[test]
    fn unit_count_lookup() {
        assert_eq!(spec().unit_count("pe"), 100);
        assert_eq!(spec().unit_count("tile"), 0);
    }

    #[test]
    fn global_memory_prefers_off_chip() {
        let s = spec();
        assert_eq!(s.global_memory().unwrap().name, "ddr");
    }

    #[test]
    fn global_memory_falls_back_to_unified() {
        let mut s = spec();
        s.memory_levels.truncate(1);
        assert_eq!(s.global_memory().unwrap().name, "sram");
    }

    #[test]
    fn memory_usage_utilization() {
        let u = MemoryLevelUsage {
            name: "sram".into(),
            used_bytes: 512,
            capacity_bytes: 1024,
        };
        assert!((u.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_utilization_is_zero() {
        let u = MemoryLevelUsage {
            name: "x".into(),
            used_bytes: 10,
            capacity_bytes: 0,
        };
        assert_eq!(u.utilization(), 0.0);
    }
}

//! Report types assembled by the framework drivers.

use crate::platform::MemoryLevelUsage;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which roof limits a workload in the roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoundKind {
    /// Limited by peak compute.
    ComputeBound,
    /// Limited by memory bandwidth.
    MemoryBound,
}

impl fmt::Display for BoundKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BoundKind::ComputeBound => "compute-bound",
            BoundKind::MemoryBound => "memory-bound",
        })
    }
}

/// The complete Tier-1 (intra-chip) report for one workload on one chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tier1Report {
    /// Platform name.
    pub platform: String,
    /// Workload description.
    pub workload: String,
    /// Resource allocation ratio per unit kind (Eq. 1 / Eq. 2).
    pub allocation: Vec<(String, f64)>,
    /// Load imbalance (Eq. 3 / Eq. 4), when computable.
    pub load_imbalance: Option<f64>,
    /// Achieved compute throughput, TFLOP/s.
    pub achieved_tflops: f64,
    /// Chip peak, TFLOP/s.
    pub peak_tflops: f64,
    /// `achieved / peak`.
    pub compute_efficiency: f64,
    /// Arithmetic intensity of the workload (Eq. 5), FLOPs/byte.
    pub arithmetic_intensity: f64,
    /// Attainable throughput at this intensity under the global-memory
    /// roofline, TFLOP/s (absent when bandwidth is not public).
    pub attainable_tflops: Option<f64>,
    /// Roofline classification (absent when bandwidth is not public).
    pub bound: Option<BoundKind>,
    /// Memory usage per level.
    pub memory: Vec<MemoryLevelUsage>,
    /// Training throughput, tokens/second.
    pub throughput_tokens_per_s: f64,
    /// Step latency, seconds.
    pub step_time_s: f64,
}

impl Tier1Report {
    /// Allocation ratio of a given unit kind, if reported.
    #[must_use]
    pub fn allocation_of(&self, kind: &str) -> Option<f64> {
        self.allocation
            .iter()
            .find(|(k, _)| k == kind)
            .map(|&(_, r)| r)
    }

    /// Memory utilization of a named level, if reported.
    #[must_use]
    pub fn memory_utilization_of(&self, level: &str) -> Option<f64> {
        self.memory
            .iter()
            .find(|m| m.name == level)
            .map(MemoryLevelUsage::utilization)
    }
}

/// One point of a Tier-2 batch-size sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPoint {
    /// Batch size in sequences.
    pub batch_size: u64,
    /// Training throughput in tokens/second; `None` when the configuration
    /// failed (e.g. out of memory).
    pub throughput_tokens_per_s: Option<f64>,
}

/// One point of a Tier-2 precision sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrecisionPoint {
    /// Precision label (e.g. `"fp16"`, `"mixed(bf16)"`).
    pub label: String,
    /// Training throughput in tokens/second; `None` on failure.
    pub throughput_tokens_per_s: Option<f64>,
}

/// The smallest batch size in `points` achieving at least `fraction` of
/// the best observed throughput (the paper's "use batch ≥ 200 on WSE"
/// rule). Returns `None` when no point succeeded.
#[must_use]
pub fn batch_saturation_point(points: &[BatchPoint], fraction: f64) -> Option<u64> {
    let best = points
        .iter()
        .filter_map(|p| p.throughput_tokens_per_s)
        .fold(f64::NAN, f64::max);
    if !best.is_finite() {
        return None;
    }
    points
        .iter()
        .filter(|p| {
            p.throughput_tokens_per_s
                .is_some_and(|t| t >= fraction * best)
        })
        .map(|p| p.batch_size)
        .min()
}

/// The Tier-2 (deployment-optimization) report for one chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tier2Report {
    /// Platform name.
    pub platform: String,
    /// Batch-size scaling behaviour.
    pub batch_sweep: Vec<BatchPoint>,
    /// Precision sensitivity.
    pub precision_sweep: Vec<PrecisionPoint>,
}

impl Tier2Report {
    /// The smallest batch size achieving at least `fraction` of the best
    /// observed throughput (the paper's "use batch ≥ 200 on WSE" rule).
    #[must_use]
    pub fn saturation_batch(&self, fraction: f64) -> Option<u64> {
        batch_saturation_point(&self.batch_sweep, fraction)
    }

    /// Relative gain of the best precision over the worst, e.g. `0.34` for
    /// the RDU's 34% mixed-precision improvement.
    #[must_use]
    pub fn precision_gain(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .precision_sweep
            .iter()
            .filter_map(|p| p.throughput_tokens_per_s)
            .collect();
        if vals.len() < 2 {
            return None;
        }
        let max = vals.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let min = vals.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        (min > 0.0).then(|| max / min - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_kind_display() {
        assert_eq!(BoundKind::ComputeBound.to_string(), "compute-bound");
        assert_eq!(BoundKind::MemoryBound.to_string(), "memory-bound");
    }

    fn tier2() -> Tier2Report {
        Tier2Report {
            platform: "x".into(),
            batch_sweep: vec![
                BatchPoint {
                    batch_size: 32,
                    throughput_tokens_per_s: Some(100.0),
                },
                BatchPoint {
                    batch_size: 64,
                    throughput_tokens_per_s: Some(180.0),
                },
                BatchPoint {
                    batch_size: 128,
                    throughput_tokens_per_s: Some(200.0),
                },
                BatchPoint {
                    batch_size: 256,
                    throughput_tokens_per_s: None,
                },
            ],
            precision_sweep: vec![
                PrecisionPoint {
                    label: "fp32".into(),
                    throughput_tokens_per_s: Some(100.0),
                },
                PrecisionPoint {
                    label: "mixed(fp16)".into(),
                    throughput_tokens_per_s: Some(130.0),
                },
            ],
        }
    }

    #[test]
    fn saturation_batch_finds_knee() {
        assert_eq!(tier2().saturation_batch(0.9), Some(64));
        assert_eq!(tier2().saturation_batch(1.0), Some(128));
    }

    #[test]
    fn precision_gain_is_relative() {
        assert!((tier2().precision_gain().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_sweeps_give_none() {
        let r = Tier2Report {
            platform: "x".into(),
            batch_sweep: vec![],
            precision_sweep: vec![],
        };
        assert_eq!(r.saturation_batch(0.9), None);
        assert_eq!(r.precision_gain(), None);
    }
}

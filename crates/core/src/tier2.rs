//! Tier 2: inter-chip scalability and deployment optimization.
//!
//! The scalability side is each platform's [`Scalable`] implementation
//! (DP / TP / PP / weight streaming, Sec. VI-A), which the experiments
//! call directly; this module is the deployment side, sweeps of the two
//! highest-impact knobs — batch size and precision (Sec. VI-B).
//!
//! [`Scalable`]: crate::platform::Scalable

use crate::platform::Platform;
use crate::report::{BatchPoint, PrecisionPoint, Tier2Report};
use dabench_model::{Precision, TrainingWorkload};

/// Sweep the global batch size, recording throughput per point.
///
/// Failing configurations (typically out-of-memory at large batch) are
/// recorded as `None` rather than aborting the sweep — the paper reports
/// those as missing points.
#[must_use]
pub fn batch_sweep(
    platform: &dyn Platform,
    base: &TrainingWorkload,
    batch_sizes: &[u64],
) -> Vec<BatchPoint> {
    batch_sizes
        .iter()
        .map(|&b| {
            let throughput = platform
                .profile(&base.with_batch_size(b))
                .ok()
                .map(|p| p.throughput_tokens_per_s);
            BatchPoint {
                batch_size: b,
                throughput_tokens_per_s: throughput,
            }
        })
        .collect()
}

/// Sweep element precisions, recording throughput per point.
#[must_use]
pub fn precision_sweep(
    platform: &dyn Platform,
    base: &TrainingWorkload,
    precisions: &[Precision],
) -> Vec<PrecisionPoint> {
    precisions
        .iter()
        .map(|&p| {
            let throughput = platform
                .profile(&base.with_precision(p))
                .ok()
                .map(|r| r.throughput_tokens_per_s);
            PrecisionPoint {
                label: p.as_str().to_owned(),
                throughput_tokens_per_s: throughput,
            }
        })
        .collect()
}

/// Run the full deployment-optimization analysis of Tier 2.
#[must_use]
pub fn run(
    platform: &dyn Platform,
    base: &TrainingWorkload,
    batch_sizes: &[u64],
    precisions: &[Precision],
) -> Tier2Report {
    Tier2Report {
        platform: platform.name().to_owned(),
        batch_sweep: batch_sweep(platform, base, batch_sizes),
        precision_sweep: precision_sweep(platform, base, precisions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlatformError;
    use crate::platform::{ChipProfile, ComputeUnitSpec, HardwareSpec};
    use dabench_model::ModelConfig;

    /// A toy platform whose throughput saturates with batch size and gains
    /// 30% from half precision; batches > 64 run out of memory.
    struct Toy;

    impl Platform for Toy {
        fn name(&self) -> &str {
            "toy"
        }

        fn spec(&self) -> HardwareSpec {
            HardwareSpec {
                name: "toy".into(),
                compute_units: vec![ComputeUnitSpec {
                    kind: "pe".into(),
                    count: 1,
                }],
                peak_tflops: 1.0,
                memory_levels: vec![],
            }
        }

        fn profile(&self, w: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
            if w.batch_size() > 64 {
                return Err(PlatformError::OutOfMemory {
                    level: "sram".into(),
                    required_bytes: 2,
                    capacity_bytes: 1,
                });
            }
            let b = w.batch_size() as f64;
            let base = 1000.0 * b / (b + 8.0);
            let factor = if w.precision().is_half_width() {
                1.3
            } else {
                1.0
            };
            Ok(ChipProfile {
                unit_usage: vec![("pe".into(), 1, 1)],
                tasks: vec![],
                sections: vec![],
                memory: vec![],
                achieved_tflops: 0.5,
                throughput_tokens_per_s: base * factor,
                step_time_s: 0.01,
            })
        }
    }

    fn base() -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_mini(), 8, 128, Precision::Fp32)
    }

    #[test]
    fn batch_sweep_records_failures_as_none() {
        let pts = batch_sweep(&Toy, &base(), &[8, 32, 128]);
        assert!(pts[0].throughput_tokens_per_s.is_some());
        assert!(pts[1].throughput_tokens_per_s.is_some());
        assert!(pts[2].throughput_tokens_per_s.is_none());
    }

    #[test]
    fn batch_sweep_is_monotone_for_toy() {
        let pts = batch_sweep(&Toy, &base(), &[4, 16, 64]);
        let v: Vec<f64> = pts
            .iter()
            .filter_map(|p| p.throughput_tokens_per_s)
            .collect();
        assert!(v[0] < v[1] && v[1] < v[2]);
    }

    #[test]
    fn precision_sweep_shows_gain() {
        let report = run(&Toy, &base(), &[8, 16], &[Precision::Fp32, Precision::Fp16]);
        let gain = report.precision_gain().unwrap();
        assert!((gain - 0.3).abs() < 1e-9);
    }
}

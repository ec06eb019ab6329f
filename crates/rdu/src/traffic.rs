//! DDR-traffic breakdown of a section schedule.
//!
//! The RDU's memory-bound behaviour (Fig. 10(b)) is entirely a traffic
//! story; this module splits a schedule's per-step DDR bytes into the
//! categories a compiler engineer would optimize separately.

use crate::section::Section;
use serde::{Deserialize, Serialize};

/// Per-category DDR traffic of one training step, bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficReport {
    /// Weight reads (every invocation of every copy).
    pub weight_bytes: u64,
    /// Boundary/activation tensor reads.
    pub input_bytes: u64,
    /// Boundary/activation tensor writes.
    pub output_bytes: u64,
    /// Traffic of the optimizer section (master state round trip).
    pub optimizer_bytes: u64,
}

impl TrafficReport {
    /// Total bytes per step.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.input_bytes + self.output_bytes + self.optimizer_bytes
    }
}

/// Break a schedule's per-step DDR traffic into categories.
///
/// # Example
///
/// ```
/// use dabench_model::{ModelConfig, Precision, TrainingWorkload};
/// use dabench_rdu::{partition, traffic_report, CompilationMode, RduCompilerParams, RduSpec};
///
/// let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Fp16);
/// let sections = partition(&w, &RduSpec::sn30(), &RduCompilerParams::default(), CompilationMode::O0);
/// let report = traffic_report(&sections);
/// // Per-operator sections make activations the dominant traffic class.
/// assert!(2 * (report.input_bytes + report.output_bytes) > report.total_bytes());
/// ```
#[must_use]
pub fn traffic_report(sections: &[Section]) -> TrafficReport {
    let mut r = TrafficReport::default();
    for s in sections {
        let inv = s.invocations * s.copies;
        if s.name == "optimizer" {
            r.optimizer_bytes += s.ddr_bytes_per_step();
            continue;
        }
        r.weight_bytes += s.weight_bytes * inv;
        r.input_bytes += s.input_bytes * inv;
        r.output_bytes += s.output_bytes * inv;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{RduCompilerParams, RduSpec};
    use crate::modes::{partition, CompilationMode};
    use dabench_model::{ModelConfig, Precision, TrainingWorkload};

    fn report(mode: CompilationMode) -> TrafficReport {
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Fp16);
        let sections = partition(&w, &RduSpec::sn30(), &RduCompilerParams::default(), mode);
        traffic_report(&sections)
    }

    #[test]
    fn categories_sum_to_schedule_total() {
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 6), 8, 1024, Precision::Fp16);
        let sections = partition(
            &w,
            &RduSpec::sn30(),
            &RduCompilerParams::default(),
            CompilationMode::O3,
        );
        let r = traffic_report(&sections);
        let direct: u64 = sections
            .iter()
            .map(crate::Section::ddr_bytes_per_step)
            .sum();
        assert_eq!(r.total_bytes(), direct);
    }

    #[test]
    fn fusion_cuts_activation_traffic_most() {
        let o0 = report(CompilationMode::O0);
        let o1 = report(CompilationMode::O1);
        // Weights are read either way; fusion removes boundary tensors.
        let act = |r: &TrafficReport| r.input_bytes + r.output_bytes;
        assert!(act(&o0) > 2 * act(&o1), "{} vs {}", act(&o0), act(&o1));
        let drop_w = o0.weight_bytes as f64 / o1.weight_bytes as f64;
        assert!((0.8..1.3).contains(&drop_w), "{drop_w}");
    }

    #[test]
    fn optimizer_traffic_is_isolated() {
        let r = report(CompilationMode::O3);
        assert!(r.optimizer_bytes > 0);
        // Optimizer state round trip ≈ params × (tens of bytes).
        let per_param =
            r.optimizer_bytes as f64 / ModelConfig::gpt2_probe(768, 12).parameter_count() as f64;
        assert!((10.0..60.0).contains(&per_param), "{per_param}");
    }
}

//! Activation-memory accounting for transformer training.

use crate::config::ModelConfig;
use crate::ops::{self, Phase};
use crate::precision::Precision;
use serde::{Deserialize, Serialize};

/// Activation memory required by one training step.
///
/// Two estimates are exposed:
///
/// - [`ActivationMemory::stored_bytes`]: everything the forward pass
///   produces and must keep live for the backward pass (the conservative,
///   no-recomputation number used in the paper's Eq. 5 denominator).
/// - [`ActivationMemory::peak_working_bytes`]: the largest single tensor,
///   a lower bound for streaming-style executors.
///
/// # Example
///
/// ```
/// use dabench_model::{ActivationMemory, ModelConfig, Precision};
///
/// let cfg = ModelConfig::gpt2_small();
/// let act = ActivationMemory::for_step(&cfg, 8, 1024, Precision::Fp16);
/// assert!(act.stored_bytes() > act.peak_working_bytes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivationMemory {
    stored_bytes: u64,
    peak_working_bytes: u64,
    per_layer_bytes: u64,
}

impl ActivationMemory {
    /// Compute activation memory for one training step of `cfg` at the
    /// given batch size, sequence length and element precision.
    ///
    /// Read off the [`ops::StepTemplate`]: every decoder layer repeats
    /// layer 0, and all three sums are whole numbers, so the fixed
    /// operators plus `L` copies of layer 0 give them exactly.
    #[must_use]
    pub fn for_step(cfg: &ModelConfig, batch: u64, seq: u64, precision: Precision) -> Self {
        let template = ops::step_template(cfg, batch, seq);
        let records = template.records();
        let elem = precision.bytes_per_element();
        let (mut fixed, mut layer0) = (0u64, 0u64);
        for r in records.iter().filter(|r| r.phase == Phase::Forward) {
            match r.layer {
                Some(_) => layer0 += r.cost.out_elems,
                None => fixed += r.cost.out_elems,
            }
        }
        let peak: u64 = records
            .iter()
            .map(|r| r.cost.out_elems.max(r.cost.in_elems))
            .max()
            .unwrap_or(0);
        Self {
            stored_bytes: (fixed + template.layers() * layer0) * elem,
            peak_working_bytes: peak * elem,
            per_layer_bytes: layer0 * elem,
        }
    }

    /// Total forward activations retained for the backward pass, in bytes.
    #[must_use]
    pub const fn stored_bytes(self) -> u64 {
        self.stored_bytes
    }

    /// Size of the largest individual activation tensor, in bytes.
    #[must_use]
    pub const fn peak_working_bytes(self) -> u64 {
        self.peak_working_bytes
    }

    /// Stored activations attributable to a single decoder layer, in bytes.
    #[must_use]
    pub const fn per_layer_bytes(self) -> u64 {
        self.per_layer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    #[test]
    fn stored_scales_linearly_with_batch() {
        let cfg = ModelConfig::gpt2_probe(768, 4);
        let a = ActivationMemory::for_step(&cfg, 1, 512, Precision::Fp16);
        let b = ActivationMemory::for_step(&cfg, 3, 512, Precision::Fp16);
        assert_eq!(b.stored_bytes(), 3 * a.stored_bytes());
    }

    #[test]
    fn precision_halves_memory() {
        let cfg = ModelConfig::gpt2_probe(768, 2);
        let half = ActivationMemory::for_step(&cfg, 2, 256, Precision::Fp16);
        let full = ActivationMemory::for_step(&cfg, 2, 256, Precision::Fp32);
        assert_eq!(full.stored_bytes(), 2 * half.stored_bytes());
    }

    #[test]
    fn per_layer_is_layer_marginal_cost() {
        let a =
            ActivationMemory::for_step(&ModelConfig::gpt2_probe(768, 2), 2, 256, Precision::Fp16);
        let b =
            ActivationMemory::for_step(&ModelConfig::gpt2_probe(768, 3), 2, 256, Precision::Fp16);
        assert_eq!(b.stored_bytes() - a.stored_bytes(), a.per_layer_bytes());
    }

    #[test]
    fn attention_quadratic_term_present() {
        // Doubling the sequence length more than doubles stored activations
        // because of the S^2 attention-score tensors.
        let cfg = ModelConfig::gpt2_probe(768, 2);
        let s1 = ActivationMemory::for_step(&cfg, 1, 512, Precision::Fp16).stored_bytes();
        let s2 = ActivationMemory::for_step(&cfg, 1, 1024, Precision::Fp16).stored_bytes();
        assert!(s2 > 2 * s1);
    }
}

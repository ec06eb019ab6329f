//! Inference workload accounting (extension beyond the paper's
//! training-only scope).
//!
//! The paper's framework is defined for training, but its metrics only
//! need FLOP and byte accounting, so extending the workload model to
//! autoregressive inference is natural future work (and lets the roofline
//! analysis explain why decode is memory-bound on *every* platform). This
//! module provides exact prefill/decode accounting with KV-cache traffic,
//! a storage-precision knob for the cache (e.g. FP8 KV under BF16
//! compute), and the batching-mode axis that separates time-to-first-token
//! from steady-state decode throughput. See `docs/inference.md`.

use crate::config::ModelConfig;
use crate::precision::Precision;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Validation failure of an [`InferenceWorkload`] (same structured-error
/// pattern as `PlanSpec::validate` in `dabench-faults`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceWorkloadError {
    /// A dimension that must be positive is zero.
    ZeroDimension {
        /// Field name (`batch_size`, `prompt_len`, or `decode_len`).
        field: &'static str,
    },
    /// A byte/FLOP product overflows `u64` — the workload is rejected up
    /// front instead of silently wrapping in the accounting.
    DimensionOverflow {
        /// The product that overflowed.
        term: &'static str,
    },
}

impl fmt::Display for InferenceWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceWorkloadError::ZeroDimension { field } => {
                write!(f, "{field} must be positive")
            }
            InferenceWorkloadError::DimensionOverflow { term } => {
                write!(
                    f,
                    "{term} overflows u64; workload dimensions are implausibly large"
                )
            }
        }
    }
}

impl Error for InferenceWorkloadError {}

/// How requests are scheduled onto the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BatchingMode {
    /// All `batch_size` prompts are prefilled together, then decoded in
    /// lock-step; a request's first token waits for the whole batch's
    /// prefill.
    #[default]
    Static,
    /// Slots are refilled as sequences finish (vLLM-style). Decode
    /// batches stay full, and a new request's first token only waits for
    /// its *own* prefill.
    Continuous,
}

impl BatchingMode {
    /// Stable lower-case name used in tables and CSV.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            BatchingMode::Static => "static",
            BatchingMode::Continuous => "continuous",
        }
    }
}

impl fmt::Display for BatchingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An autoregressive inference workload: prefill a prompt, then decode
/// tokens one at a time with a KV cache.
///
/// The KV cache may be stored at a narrower precision than the compute
/// format (`kv_precision`), mirroring how [`crate::PrecisionPolicy`]
/// distinguishes compute from master-copy storage for training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceWorkload {
    model: ModelConfig,
    batch_size: u64,
    prompt_len: u64,
    decode_len: u64,
    precision: Precision,
    kv_precision: Precision,
    batching: BatchingMode,
}

/// FLOP/byte accounting of one inference phase.
///
/// KV-cache traffic is split by direction so the asymmetry is explicit:
/// prefill only *writes* the cache (scores are formed from K/V tiles still
/// resident in the compute units), while every decode step *reads* the
/// whole cache and writes one new position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Floating-point operations.
    pub flops: f64,
    /// Weight bytes read.
    pub weight_bytes: f64,
    /// KV-cache bytes read.
    pub kv_read_bytes: f64,
    /// KV-cache bytes written.
    pub kv_write_bytes: f64,
    /// Arithmetic intensity, FLOPs/byte over all traffic.
    pub intensity: f64,
}

impl PhaseCost {
    /// Total memory traffic of the phase, bytes.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.kv_read_bytes + self.kv_write_bytes
    }

    /// KV-cache traffic in both directions, bytes.
    #[must_use]
    pub fn kv_bytes(&self) -> f64 {
        self.kv_read_bytes + self.kv_write_bytes
    }
}

impl InferenceWorkload {
    /// Create an inference workload with the KV cache stored at the
    /// compute precision and [`BatchingMode::Static`] scheduling. Use
    /// [`InferenceWorkload::with_kv_precision`] /
    /// [`InferenceWorkload::with_batching`] to change either axis.
    ///
    /// # Errors
    ///
    /// [`InferenceWorkloadError::ZeroDimension`] if any dimension is zero,
    /// [`InferenceWorkloadError::DimensionOverflow`] if the attention
    /// quadratic term or the peak KV-cache byte count would overflow
    /// `u64` (checked with `checked_mul`, never silently wrapped).
    pub fn new(
        model: ModelConfig,
        batch_size: u64,
        prompt_len: u64,
        decode_len: u64,
        precision: Precision,
    ) -> Result<Self, InferenceWorkloadError> {
        let w = Self {
            model,
            batch_size,
            prompt_len,
            decode_len,
            precision,
            kv_precision: precision,
            batching: BatchingMode::Static,
        };
        w.validate()?;
        Ok(w)
    }

    /// Validate dimensions: positivity plus overflow-freedom of every u64
    /// product the accounting forms. Overflow checks assume the widest
    /// storage format (FP32) so later [`Self::with_kv_precision`] calls
    /// can never re-introduce wraparound.
    fn validate(&self) -> Result<(), InferenceWorkloadError> {
        for (field, v) in [
            ("batch_size", self.batch_size),
            ("prompt_len", self.prompt_len),
            ("decode_len", self.decode_len),
        ] {
            if v == 0 {
                return Err(InferenceWorkloadError::ZeroDimension { field });
            }
        }
        let overflow = |term| InferenceWorkloadError::DimensionOverflow { term };
        // Attention quadratic term: prompt_len² must not wrap before the
        // f64 conversion in `prefill_cost`.
        self.prompt_len
            .checked_mul(self.prompt_len)
            .ok_or(overflow("prompt_len * prompt_len"))?;
        let ctx = self
            .prompt_len
            .checked_add(self.decode_len)
            .ok_or(overflow("prompt_len + decode_len"))?;
        // Peak per-sequence KV bytes at the widest storage precision…
        let per_seq = 2u64
            .checked_mul(self.model.num_layers)
            .and_then(|x| x.checked_mul(ctx))
            .and_then(|x| x.checked_mul(self.model.kv_dim()))
            .and_then(|x| x.checked_mul(Precision::Fp32.bytes_per_element()))
            .ok_or(overflow("2 * num_layers * ctx * kv_dim * bytes"))?;
        // …and across the batch.
        per_seq
            .checked_mul(self.batch_size)
            .ok_or(overflow("batch_size * kv_cache_bytes_per_seq"))?;
        Ok(())
    }

    /// Same workload with the KV cache stored at `kv_precision` (e.g.
    /// [`Precision::Fp8`] under FP16 compute). Infallible: `new` already
    /// bounds the KV products at the widest format.
    #[must_use]
    pub fn with_kv_precision(mut self, kv_precision: Precision) -> Self {
        self.kv_precision = kv_precision;
        self
    }

    /// Same workload under a different [`BatchingMode`].
    #[must_use]
    pub fn with_batching(mut self, batching: BatchingMode) -> Self {
        self.batching = batching;
        self
    }

    /// Same workload at a different batch size.
    ///
    /// # Errors
    ///
    /// See [`InferenceWorkload::new`].
    pub fn with_batch_size(&self, batch_size: u64) -> Result<Self, InferenceWorkloadError> {
        let mut w = self.clone();
        w.batch_size = batch_size;
        w.validate()?;
        Ok(w)
    }

    /// The model architecture.
    #[must_use]
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Concurrent sequences per step.
    #[must_use]
    pub fn batch_size(&self) -> u64 {
        self.batch_size
    }

    /// Prompt length in tokens.
    #[must_use]
    pub fn prompt_len(&self) -> u64 {
        self.prompt_len
    }

    /// Tokens generated per sequence.
    #[must_use]
    pub fn decode_len(&self) -> u64 {
        self.decode_len
    }

    /// Compute precision (weights and activations).
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Storage precision of the KV cache.
    #[must_use]
    pub fn kv_precision(&self) -> Precision {
        self.kv_precision
    }

    /// Scheduling mode.
    #[must_use]
    pub fn batching(&self) -> BatchingMode {
        self.batching
    }

    /// Final context length (`prompt_len + decode_len`).
    #[must_use]
    pub fn total_context(&self) -> u64 {
        self.prompt_len + self.decode_len
    }

    /// KV-cache bytes per sequence at context length `ctx`, at the
    /// cache's *storage* precision.
    #[must_use]
    pub fn kv_cache_bytes_per_seq(&self, ctx: u64) -> u64 {
        // K and V, one vector of kv_dim per layer per position.
        2 * self.model.num_layers
            * ctx
            * self.model.kv_dim()
            * self.kv_precision.bytes_per_element()
    }

    /// Peak KV-cache footprint of the whole batch, bytes (at the final
    /// context length). This is what a platform's memory model admits
    /// against.
    #[must_use]
    pub fn kv_cache_peak_bytes(&self) -> u64 {
        self.batch_size * self.kv_cache_bytes_per_seq(self.total_context())
    }

    /// Resident weight bytes at the compute precision.
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.model.parameter_count() * self.precision.bytes_per_element()
    }

    /// Cost of the prefill phase (the whole prompt in one pass).
    #[must_use]
    pub fn prefill_cost(&self) -> PhaseCost {
        let p = self.model.parameter_count() as f64;
        let tokens = (self.batch_size * self.prompt_len) as f64;
        // 2 FLOPs per parameter per token plus the attention quadratic
        // term. `prompt_len * prompt_len` cannot wrap: `new` rejects it
        // with checked_mul.
        let attn = 4.0
            * self.batch_size as f64
            * (self.prompt_len * self.prompt_len) as f64
            * self.model.hidden_size as f64
            * self.model.num_layers as f64;
        let flops = 2.0 * p * tokens + attn;
        let wb = p * self.precision.bytes_per_element() as f64;
        // Prefill builds the cache: write-only. K/V tiles are consumed by
        // the in-flight attention before ever leaving the compute units,
        // so no cache *read* traffic is charged here.
        let kv_write = (self.batch_size * self.kv_cache_bytes_per_seq(self.prompt_len)) as f64;
        PhaseCost {
            flops,
            weight_bytes: wb,
            kv_read_bytes: 0.0,
            kv_write_bytes: kv_write,
            intensity: flops / (wb + kv_write),
        }
    }

    /// Cost of one decode step at context length `ctx` (whole batch).
    #[must_use]
    pub fn decode_step_cost(&self, ctx: u64) -> PhaseCost {
        let p = self.model.parameter_count() as f64;
        let b = self.batch_size as f64;
        let attn =
            4.0 * b * ctx as f64 * self.model.hidden_size as f64 * self.model.num_layers as f64;
        let flops = 2.0 * p * b + attn;
        // Every decode step re-reads all weights and the full KV cache,
        // and appends one position per sequence.
        let wb = p * self.precision.bytes_per_element() as f64;
        let kv_read = b * self.kv_cache_bytes_per_seq(ctx) as f64;
        let kv_write = b * self.kv_cache_bytes_per_seq(1) as f64;
        PhaseCost {
            flops,
            weight_bytes: wb,
            kv_read_bytes: kv_read,
            kv_write_bytes: kv_write,
            intensity: flops / (wb + kv_read + kv_write),
        }
    }

    /// Total cost of the full decode phase (summed over steps).
    ///
    /// Bitwise equal to summing [`InferenceWorkload::decode_step_cost`]
    /// over the steps: the terms that do not depend on the context are
    /// computed once, with each product in the same association, and
    /// every step still adds its own copy of them.
    #[must_use]
    pub fn decode_cost(&self) -> PhaseCost {
        let p = self.model.parameter_count() as f64;
        let b = self.batch_size as f64;
        let h = self.model.hidden_size as f64;
        let layers = self.model.num_layers as f64;
        let weight_flops = 2.0 * p * b;
        let attn_per_ctx = 4.0 * b;
        let wb = p * self.precision.bytes_per_element() as f64;
        // `kv_cache_bytes_per_seq(ctx)` is `ctx` times this, exactly.
        let kv_per_pos = self.kv_cache_bytes_per_seq(1);
        let kv_write = b * kv_per_pos as f64;
        let mut sum = PhaseCost {
            flops: 0.0,
            weight_bytes: 0.0,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
            intensity: 0.0,
        };
        for i in 0..self.decode_len {
            let ctx = self.prompt_len + i;
            sum.flops += weight_flops + attn_per_ctx * ctx as f64 * h * layers;
            sum.weight_bytes += wb;
            sum.kv_read_bytes += b * (ctx * kv_per_pos) as f64;
            sum.kv_write_bytes += kv_write;
        }
        sum.intensity = sum.flops / (sum.weight_bytes + sum.kv_read_bytes + sum.kv_write_bytes);
        sum
    }
}

impl fmt::Display for InferenceWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} B={} prompt={} decode={} {} kv={} {}",
            self.model,
            self.batch_size,
            self.prompt_len,
            self.decode_len,
            self.precision,
            self.kv_precision,
            self.batching,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> InferenceWorkload {
        InferenceWorkload::new(ModelConfig::gpt2_small(), 8, 512, 128, Precision::Fp16)
            .expect("valid workload")
    }

    #[test]
    fn prefill_is_compute_dense_decode_is_not() {
        let w = w();
        let prefill = w.prefill_cost();
        let decode = w.decode_step_cost(512);
        // The well-known inference asymmetry: prefill AI ≫ decode AI.
        assert!(
            prefill.intensity > 20.0 * decode.intensity,
            "prefill {} vs decode {}",
            prefill.intensity,
            decode.intensity
        );
    }

    #[test]
    fn decode_intensity_near_batch_size() {
        // Weight-bound decode: AI ≈ 2·B FLOPs per weight byte / 2 bytes.
        let w = w();
        let c = w.decode_step_cost(512);
        assert!((c.intensity - w.batch_size as f64).abs() < 0.6 * w.batch_size as f64);
    }

    #[test]
    fn kv_cache_grows_linearly_with_context() {
        let w = w();
        assert_eq!(
            w.kv_cache_bytes_per_seq(1024),
            2 * w.kv_cache_bytes_per_seq(512)
        );
    }

    #[test]
    fn kv_precision_scales_cache_bytes_not_weights() {
        let fp16 = w();
        let fp8 = w().with_kv_precision(Precision::Fp8);
        assert_eq!(
            fp16.kv_cache_bytes_per_seq(512),
            2 * fp8.kv_cache_bytes_per_seq(512),
            "fp8 KV halves the cache"
        );
        // The compute path is untouched: same weights, same FLOPs.
        assert_eq!(fp16.weight_bytes(), fp8.weight_bytes());
        let (a, b) = (fp16.decode_step_cost(512), fp8.decode_step_cost(512));
        assert!((a.flops - b.flops).abs() < f64::EPSILON);
        assert!(b.kv_read_bytes < a.kv_read_bytes);
        assert!(b.intensity > a.intensity, "narrower cache raises decode AI");
    }

    #[test]
    fn prefill_kv_is_write_only_decode_reads_the_cache() {
        let w = w();
        let prefill = w.prefill_cost();
        assert_eq!(prefill.kv_read_bytes, 0.0);
        assert!(prefill.kv_write_bytes > 0.0);
        let decode = w.decode_step_cost(512);
        assert!(decode.kv_read_bytes > 0.0);
        // One appended position per step per sequence.
        assert!(
            (decode.kv_write_bytes - (8 * w.kv_cache_bytes_per_seq(1)) as f64).abs() < f64::EPSILON
        );
        assert!(
            (decode.total_bytes() - (decode.weight_bytes + decode.kv_bytes())).abs() < f64::EPSILON
        );
    }

    #[test]
    fn gqa_shrinks_the_kv_cache() {
        let mha = InferenceWorkload::new(ModelConfig::llama2_7b(), 1, 512, 16, Precision::Fp16)
            .expect("valid");
        let gqa = InferenceWorkload::new(ModelConfig::llama2_70b(), 1, 512, 16, Precision::Fp16)
            .expect("valid");
        // 70B has 8 KV heads of 128 → kv_dim 1024 vs 7B's 4096; per layer
        // the cache is 4× smaller despite the much larger model.
        let per_layer =
            |w: &InferenceWorkload| w.kv_cache_bytes_per_seq(512) / w.model().num_layers;
        assert!(per_layer(&gqa) < per_layer(&mha));
    }

    #[test]
    fn decode_cost_sums_steps() {
        let w = w();
        let total = w.decode_cost();
        let first = w.decode_step_cost(512);
        let last = w.decode_step_cost(512 + 127);
        assert!(total.flops > 127.0 * first.flops);
        assert!(total.flops < 129.0 * last.flops);
    }

    #[test]
    fn zero_dimensions_are_structured_errors() {
        let err = InferenceWorkload::new(ModelConfig::gpt2_mini(), 1, 0, 1, Precision::Fp16)
            .expect_err("zero prompt rejected");
        assert_eq!(
            err,
            InferenceWorkloadError::ZeroDimension {
                field: "prompt_len"
            }
        );
        assert!(format!("{err}").contains("prompt_len"));
        assert!(
            InferenceWorkload::new(ModelConfig::gpt2_mini(), 0, 1, 1, Precision::Fp16).is_err()
        );
        assert!(
            InferenceWorkload::new(ModelConfig::gpt2_mini(), 1, 1, 0, Precision::Fp16).is_err()
        );
    }

    #[test]
    fn overflow_prone_dimensions_are_rejected_not_wrapped() {
        // prompt_len² alone wraps u64.
        let err = InferenceWorkload::new(ModelConfig::gpt2_mini(), 1, 1 << 33, 1, Precision::Fp16)
            .expect_err("quadratic overflow rejected");
        assert!(matches!(
            err,
            InferenceWorkloadError::DimensionOverflow { .. }
        ));
        // Batch × per-seq cache wraps even at modest context.
        let err = InferenceWorkload::new(
            ModelConfig::llama2_7b(),
            u64::MAX / 2,
            512,
            16,
            Precision::Fp16,
        )
        .expect_err("batch overflow rejected");
        assert!(matches!(
            err,
            InferenceWorkloadError::DimensionOverflow { .. }
        ));
    }

    #[test]
    fn batching_and_display_round_trip() {
        let w = w().with_batching(BatchingMode::Continuous);
        assert_eq!(w.batching(), BatchingMode::Continuous);
        let s = format!("{w}");
        assert!(s.contains("continuous") && s.contains("kv=fp16"), "{s}");
        assert_eq!(BatchingMode::Static.as_str(), "static");
    }

    #[test]
    fn peak_kv_matches_final_context() {
        let w = w();
        assert_eq!(
            w.kv_cache_peak_bytes(),
            8 * w.kv_cache_bytes_per_seq(512 + 128)
        );
    }
}

//! # dabench-gpu
//!
//! A conventional-GPU reference baseline (the "GPU (Reference)" columns of
//! the paper's Table III), modelled as a von-Neumann / BSP machine running
//! Megatron-LM-style 3D parallelism:
//!
//! - **tensor parallelism** inside a node (per-layer activation allreduces
//!   over NVLink),
//! - **pipeline parallelism** across stages (fill/drain bubble governed by
//!   the micro-batch count),
//! - **data parallelism** across replicas (gradient allreduce over the
//!   cluster fabric, partially overlapped with backward).
//!
//! The model reproduces the reference rows' shape: at eight GPUs,
//! throughput degrades monotonically from pure TP to pure PP, and the
//! large-cluster configurations stay competitive per GPU because huge
//! global batches hide the pipeline bubble.
//!
//! # Example
//!
//! ```
//! use dabench_gpu::{megatron_throughput, GpuSpec, MegatronConfig};
//! use dabench_model::{ModelConfig, Precision, TrainingWorkload};
//!
//! let w = TrainingWorkload::new(ModelConfig::gpt2_xl(), 64, 1024, Precision::Fp16);
//! let run = megatron_throughput(&GpuSpec::a100(), &w, MegatronConfig::new(8, 1, 1)).unwrap();
//! assert!(run.tokens_per_s_per_gpu > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod infer;
mod parallelism;
mod platform_impl;

pub use chip::GpuSpec;
pub use infer::{admission_probe, infer_model};
pub use parallelism::{megatron_throughput, GpuRun, MegatronConfig};

/// A GPU cluster baseline platform.
#[derive(Debug, Clone)]
pub struct GpuCluster {
    spec: GpuSpec,
    // Precomputed at construction so memo-cache lookups allocate nothing.
    cache_key: dabench_core::CacheKey,
}

impl Default for GpuCluster {
    fn default() -> Self {
        Self::new(GpuSpec::default())
    }
}

fn cache_token_of(spec: &GpuSpec) -> String {
    format!("gpu|{spec:?}")
}

impl GpuCluster {
    /// Create a cluster model from a GPU spec.
    #[must_use]
    pub fn new(spec: GpuSpec) -> Self {
        let cache_key = dabench_core::CacheKey::of_token(&cache_token_of(&spec));
        Self { spec, cache_key }
    }

    /// Hardware description in use.
    #[must_use]
    pub fn gpu_spec(&self) -> &GpuSpec {
        &self.spec
    }
}

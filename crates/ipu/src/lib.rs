//! # dabench-ipu
//!
//! A performance model of the Graphcore Bow-2000 / IPU platform, faithful
//! to the execution strategy of Sec. III-C of the DABench-LLM paper:
//!
//! - each IPU is a 1,472-tile MIMD processor executing in BSP supersteps
//!   (compute → sync → exchange);
//! - training a language model uses **pipeline parallelism**: the embedding
//!   layer gets a dedicated IPU, decoder layers are grouped onto the
//!   remaining IPUs, and overall throughput is set by the most heavily
//!   loaded IPU (Fig. 11(c));
//! - all weights, gradients and optimizer state must live in on-tile SRAM;
//!   there is no flexible spill path, so the decoder IPU runs out of memory
//!   at ~10 GPT-2-small layers (~70M parameters), the paper's Fig. 9(d)
//!   failure;
//! - tile allocation saturates around four decoder layers, below which
//!   compute is tile-starved (the rising edge of Fig. 9(d)).
//!
//! On-tile memory note: the paper's Fig. 3 text says 64 KB/tile, but the
//! Bow product spec (and the paper's own OOM point) imply ~624 KB/tile;
//! we use the latter (see DESIGN.md).
//!
//! # Example
//!
//! ```
//! use dabench_core::tier1;
//! use dabench_model::{ModelConfig, Precision, TrainingWorkload};
//! use dabench_ipu::Ipu;
//!
//! let ipu = Ipu::default();
//! let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 6), 16, 1024, Precision::Fp16);
//! let report = tier1::run(&ipu, &w).unwrap();
//! assert!(report.achieved_tflops > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bsp;
mod chip;
mod degrade;
mod infer;
mod memory;
mod pipeline;
mod platform_impl;

pub use bsp::{
    layer_compute_time, layer_flops_per_step, nonlayer_stage_time, tiles_for_layer, BspCosts,
};
pub use chip::{IpuCompilerParams, IpuSpec};
pub use degrade::surviving_devices;
pub use infer::{admission_probe, infer_model};
pub use memory::{decoder_ipu_memory, embedding_ipu_memory, IpuMemoryUse};
pub use pipeline::{pipeline_parallel, pipeline_with_allocation, PipelinePlan, StageLoad};

/// The Graphcore Bow-2000 / IPU platform model.
#[derive(Debug, Clone)]
pub struct Ipu {
    spec: IpuSpec,
    params: IpuCompilerParams,
    // Precomputed at construction so memo-cache lookups allocate nothing.
    cache_key: dabench_core::CacheKey,
}

impl Default for Ipu {
    fn default() -> Self {
        Self::new(IpuSpec::default(), IpuCompilerParams::default())
    }
}

fn cache_token_of(spec: &IpuSpec, params: &IpuCompilerParams) -> String {
    format!("ipu|{spec:?}|{params:?}")
}

impl Ipu {
    /// Create an IPU model with explicit hardware/compiler parameters.
    #[must_use]
    pub fn new(spec: IpuSpec, params: IpuCompilerParams) -> Self {
        let cache_key = dabench_core::CacheKey::of_token(&cache_token_of(&spec, &params));
        Self {
            spec,
            params,
            cache_key,
        }
    }

    /// Hardware description in use.
    #[must_use]
    pub fn ipu_spec(&self) -> &IpuSpec {
        &self.spec
    }

    /// Compiler parameters in use.
    #[must_use]
    pub fn compiler_params(&self) -> &IpuCompilerParams {
        &self.params
    }
}

//! # dabench-wse
//!
//! A performance model of the Cerebras CS-2 / WSE-2 wafer-scale dataflow
//! accelerator, faithful to the execution strategy described in Sec. III-A
//! of the DABench-LLM paper:
//!
//! - the **whole** computation graph is mapped onto the chip at once, at
//!   layer granularity (one attention kernel and one FFN kernel per decoder
//!   layer, plus embedding / LM-head / loss kernels);
//! - every kernel receives an **elastic allocation** of processing
//!   elements, capped by its own scalability limit (communication overhead
//!   makes PEs beyond the cap useless);
//! - kernels are **placed** as rectangles on the PE grid by a shelf packer;
//!   placement fragmentation and routing ("transmission") PEs are modelled
//!   explicitly;
//! - each PE owns 48 KB of SRAM holding configuration data (growing with
//!   graph size), weights, gradients, optimizer state and activations —
//!   overflowing it is a compile failure, the paper's observed behaviour at
//!   78 decoder layers;
//! - execution is a spatial pipeline over the batch, so throughput
//!   saturates with batch size (Fig. 12).
//!
//! # Example
//!
//! ```
//! use dabench_core::tier1;
//! use dabench_model::{ModelConfig, Precision, TrainingWorkload};
//! use dabench_wse::Wse;
//!
//! let wse = Wse::default();
//! let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 24), 256, 1024, Precision::Fp16);
//! let report = tier1::run(&wse, &w).unwrap();
//! // Deep models reach the paper's 91-93% allocation plateau.
//! assert!(report.allocation_of("pe").unwrap() > 0.85);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod compile;
mod degrade;
mod infer;
mod kernel;
mod placement;
mod platform_impl;
mod runtime;
mod scale;

pub use chip::{WseCompilerParams, WseSpec};
pub use compile::{compile, CompiledKernel, WseCompilation, WseMemoryReport};
pub use degrade::compile_degraded;
pub use infer::{admission_probe, infer_model};
pub use kernel::{kernels_of, Kernel, KernelKind};
pub use placement::{healthy_runs, PlacedRect, Placement};
pub use runtime::{execute, WseExecution};
pub use scale::{data_parallel, weight_streaming, ReplicaPlan, WeightStreamingRun};

/// The Cerebras WSE-2 platform model.
///
/// Construct with [`Wse::default`] for the data-sheet configuration, or
/// [`Wse::new`] to probe hypothetical chips.
#[derive(Debug, Clone)]
pub struct Wse {
    spec: WseSpec,
    params: WseCompilerParams,
    // Precomputed at construction so memo-cache lookups allocate nothing
    // (see `Memoizable::cache_key` and docs/benchmarking.md).
    cache_key: dabench_core::CacheKey,
}

impl Default for Wse {
    fn default() -> Self {
        Self::new(WseSpec::default(), WseCompilerParams::default())
    }
}

fn cache_token_of(spec: &WseSpec, params: &WseCompilerParams) -> String {
    format!("wse|{spec:?}|{params:?}")
}

impl Wse {
    /// Create a WSE model with explicit hardware and compiler parameters.
    #[must_use]
    pub fn new(spec: WseSpec, params: WseCompilerParams) -> Self {
        let cache_key = dabench_core::CacheKey::of_token(&cache_token_of(&spec, &params));
        Self {
            spec,
            params,
            cache_key,
        }
    }

    /// Hardware description in use.
    #[must_use]
    pub fn wse_spec(&self) -> &WseSpec {
        &self.spec
    }

    /// Compiler parameters in use.
    #[must_use]
    pub fn compiler_params(&self) -> &WseCompilerParams {
        &self.params
    }
}

//! # dabench-rdu
//!
//! A performance model of the SambaNova DataScale SN30 Reconfigurable
//! Dataflow Unit (RDU), faithful to the execution strategy of Sec. III-B of
//! the DABench-LLM paper:
//!
//! - the training graph is partitioned into **sections** that load onto the
//!   chip one at a time; all parameters and intermediate data live in
//!   off-chip DDR (0.2 TB/s), so every section pays DDR traffic for its
//!   weights and its boundary tensors — the mechanism that makes the RDU
//!   memory-bound in the paper's roofline (Fig. 10);
//! - three compilation modes are implemented exactly as described:
//!   **O0** (one section per operator class, invoked once per layer),
//!   **O1** (operator-fusion modules, with LM-head matrix sharding per
//!   Table II(b)) and **O3** (decoder-by-decoder sections whose boundaries
//!   shift with hidden size, Table II(a));
//! - per-op PCU assignment inside a section follows a conservative
//!   √FLOPs template, which is what produces the paper's operator-level
//!   load-imbalance differences between O1 and O3 (Fig. 8);
//! - multi-chip scaling is tensor parallelism, cheap inside a node (two
//!   RDUs) and expensive across machines (Fig. 11(b), Table III).
//!
//! # Example
//!
//! ```
//! use dabench_core::tier1;
//! use dabench_model::{ModelConfig, Precision, TrainingWorkload};
//! use dabench_rdu::{CompilationMode, Rdu};
//!
//! let rdu = Rdu::with_mode(CompilationMode::O3);
//! let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Bf16);
//! let report = tier1::run(&rdu, &w).unwrap();
//! // The RDU never exceeds ~60% allocation (paper Fig. 7).
//! assert!(report.allocation_of("pcu").unwrap() < 0.68);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod degrade;
mod infer;
mod modes;
mod platform_impl;
#[cfg(test)]
mod reference;
mod schedule;
mod section;
mod sharding;
mod tp;
mod traffic;

pub use chip::{RduCompilerParams, RduSpec};
pub use degrade::degraded_spec;
pub use infer::{admission_probe, infer_model};
pub use modes::{o3_ratios, partition, CompilationMode};
pub use schedule::{execute_sections, RduExecution, SectionTiming};
pub use section::{OpAssignment, Section};
pub use sharding::{shard_lm_head, ShardPlan};
pub use tp::{tensor_parallel, TpPlan};
pub use traffic::{traffic_report, TrafficReport};

/// The SambaNova SN30 RDU platform model.
#[derive(Debug, Clone)]
pub struct Rdu {
    spec: RduSpec,
    params: RduCompilerParams,
    mode: CompilationMode,
    // Precomputed at construction so memo-cache lookups allocate nothing.
    cache_key: dabench_core::CacheKey,
}

fn cache_token_of(mode: CompilationMode, spec: &RduSpec, params: &RduCompilerParams) -> String {
    format!("rdu|{mode:?}|{spec:?}|{params:?}")
}

impl Rdu {
    /// Create an RDU model with explicit hardware/compiler parameters.
    #[must_use]
    pub fn new(spec: RduSpec, params: RduCompilerParams, mode: CompilationMode) -> Self {
        let cache_key = dabench_core::CacheKey::of_token(&cache_token_of(mode, &spec, &params));
        Self {
            spec,
            params,
            mode,
            cache_key,
        }
    }

    /// Default SN30 hardware with the given compilation mode.
    #[must_use]
    pub fn with_mode(mode: CompilationMode) -> Self {
        Self::new(RduSpec::sn30(), RduCompilerParams::default(), mode)
    }

    /// Hardware description in use.
    #[must_use]
    pub fn rdu_spec(&self) -> &RduSpec {
        &self.spec
    }

    /// Compiler parameters in use.
    #[must_use]
    pub fn compiler_params(&self) -> &RduCompilerParams {
        &self.params
    }

    /// Compilation mode in use.
    #[must_use]
    pub fn mode(&self) -> CompilationMode {
        self.mode
    }
}

impl Default for Rdu {
    /// O3 (full-graph mode), the mode SambaNova recommends for LLMs.
    fn default() -> Self {
        Self::with_mode(CompilationMode::O3)
    }
}

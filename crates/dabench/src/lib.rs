//! # dabench
//!
//! The DABench-LLM reproduction, in one crate: re-exports of the framework
//! ([`core`]), the workload model ([`model`], [`graph`]) and the four
//! platform models ([`wse`], [`rdu`], [`ipu`], [`gpu`]), plus
//! [`experiments`] — drivers that regenerate **every table and figure** of
//! the paper's evaluation, and [`render`] for printing them in the paper's
//! row/series layout.
//!
//! # Quickstart
//!
//! ```
//! use dabench::experiments::table1;
//!
//! // Reproduce Table I (WSE-2 PE allocation vs. decoder layers).
//! let rows = table1::run();
//! println!("{}", table1::render(&rows));
//! assert!(rows.iter().any(|r| r.allocation_pct.is_none())); // the 78-layer Fail
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_suite;
pub mod experiments;
pub mod flags;
pub mod render;
pub mod runner;
pub mod serve;
pub mod suite;

/// Re-export of the framework core (`dabench-core`).
pub mod core {
    pub use dabench_core::*;
}

/// Re-export of the workload model (`dabench-model`).
pub mod model {
    pub use dabench_model::*;
}

/// Re-export of the dataflow graph IR (`dabench-graph`).
pub mod graph {
    pub use dabench_graph::*;
}

/// Re-export of the discrete-event engine (`dabench-sim`).
pub mod sim {
    pub use dabench_sim::*;
}

/// Re-export of the Cerebras WSE-2 model (`dabench-wse`).
pub mod wse {
    pub use dabench_wse::*;
}

/// Re-export of the SambaNova RDU model (`dabench-rdu`).
pub mod rdu {
    pub use dabench_rdu::*;
}

/// Re-export of the Graphcore IPU model (`dabench-ipu`).
pub mod ipu {
    pub use dabench_ipu::*;
}

/// Re-export of the GPU reference baseline (`dabench-gpu`).
pub mod gpu {
    pub use dabench_gpu::*;
}

/// Re-export of fault-injection planning and resilience sweeps
/// (`dabench-faults`).
pub mod faults {
    pub use dabench_faults::*;
}

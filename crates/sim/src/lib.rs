//! # dabench-sim
//!
//! Runtime timing for dataflow execution: a closed-form pipeline model.
//!
//! The platform models in `dabench-wse` and `dabench-ipu` derive the
//! paper's *runtime* metrics (pipeline fill, bottleneck stage, steady-state
//! throughput) from [`steady_state_analysis`], while their analytic
//! compilers supply the *compile-time* metrics.
//!
//! The closed form's reference is the max-plus recurrence of a linear
//! chain with one slot per stage: item `i` leaves stage `s` at
//! `f[i][s] = max(f[i-1][s], f[i][s-1]) + t[s]`. The crate's tests and
//! `crates/wse/tests/chain_validation.rs` check the closed form against
//! it, the latter on the WSE kernel pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;

pub use pipeline::{steady_state_analysis, PipelineReport};

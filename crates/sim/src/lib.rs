//! # dabench-sim
//!
//! Runtime timing for dataflow execution: a closed-form pipeline model and
//! the discrete-event engine it is checked against.
//!
//! The platform models in `dabench-wse` and `dabench-ipu` derive the
//! paper's *runtime* metrics (pipeline fill, bottleneck stage, steady-state
//! throughput) from [`steady_state_analysis`], while their analytic
//! compilers supply the *compile-time* metrics. Their fault models, and
//! the RDU's, price recovery with the two cost models in [`faulty`]
//! ([`RetryPolicy`], [`CheckpointModel`]).
//!
//! The engine is the closed form's test reference and is run by no
//! command. Dataflow hardware fires an operator as soon as (a) all of its
//! input data is available and (b) the hardware region it is mapped to is
//! free. The engine models exactly that: tasks with dependencies and
//! durations compete for finite-capacity [`Resource`]s, and a
//! [`Simulation`] reports when everything started and finished.
//! `crates/wse/tests/event_validation.rs` checks the WSE kernel pipeline's
//! closed-form timing against it.
//!
//! # Example
//!
//! ```
//! use dabench_sim::{Resource, Simulation, TaskSpec};
//!
//! // Two independent 1s tasks on a 1-slot resource run back to back.
//! let r = Resource::new("pe", 1);
//! let mut sim = Simulation::new(vec![r]);
//! sim.add_task(TaskSpec::new("a", 0, 1.0));
//! sim.add_task(TaskSpec::new("b", 0, 1.0));
//! let result = sim.run().unwrap();
//! assert!((result.makespan() - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod faulty;
mod pipeline;
mod stats;

pub use engine::{Resource, SimError, Simulation, TaskId, TaskSpec};
pub use faulty::{CheckpointModel, RetryPolicy};
pub use pipeline::{steady_state_analysis, PipelineReport, PipelineStage};
pub use stats::{SimResult, TaskTiming};

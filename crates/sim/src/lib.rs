//! # dabench-sim
//!
//! A small discrete-event simulation engine for dataflow execution.
//!
//! Dataflow hardware fires an operator as soon as (a) all of its input data
//! is available and (b) the hardware region it is mapped to is free. This
//! crate models exactly that: tasks with dependencies and durations compete
//! for finite-capacity [`Resource`]s, and the engine reports when
//! everything started and finished.
//!
//! The platform models in `dabench-wse` / `dabench-rdu` / `dabench-ipu` use
//! it for the paper's *runtime* metrics (per-task throughput feeding the
//! load-imbalance computation, pipeline steady-state throughput) while
//! their analytic compilers supply the *compile-time* metrics. Their
//! fault models price recovery with the two cost models in [`faulty`]
//! ([`RetryPolicy`], [`CheckpointModel`]), and [`trace`] bridges
//! simulated timelines into the Chrome trace.
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
pub mod trace;

pub use engine::{Resource, SimError, Simulation, TaskId, TaskSpec};
pub use faulty::{CheckpointModel, RetryPolicy};
pub use pipeline::{steady_state_analysis, PipelineReport, PipelineStage};
pub use stats::{SimResult, TaskTiming};

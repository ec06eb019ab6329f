//! # dabench-graph
//!
//! Dataflow computation-graph IR for LLM training workloads.
//!
//! Dataflow accelerators represent a program as a computation graph whose
//! nodes are operators and whose edges are data dependencies; compilers then
//! map that graph onto the chip (whole-graph on the Cerebras WSE-2,
//! section-by-section on the SambaNova RDU, layer-pipelined on the Graphcore
//! IPU). This crate provides the graph those mappers consume:
//!
//! - [`DataflowGraph`]: an immutable DAG with exact dependency edges
//!   (sequential chains, residual skips, backward mirrors,
//!   gradient→optimizer edges). Node attributes live in contiguous arenas
//!   and names are interned ([`intern::Symbol`]); nodes are accessed
//!   through the [`NodeRef`] view. The shared topology can be re-costed
//!   cheaply ([`DataflowGraph::with_costs`]) for incremental
//!   recompilation across sweep points.
//! - [`GraphBuilder`]: constructs the training-step graph of a model from
//!   allocation-free operator records.
//! - [`intern`]: the symbol table behind every node name.
//! - [`partition`]: reusable contiguous/weighted partitioning utilities used
//!   by the platform compilers.
//!
//! Each platform crate maps this one IR onto its own unit of work (WSE
//! kernels, RDU sections, IPU pipeline stages). RDU O1 fusion lives in
//! `dabench-rdu`, and prefill/decode costs in `dabench_model::inference`.
//!
//! # Example
//!
//! ```
//! use dabench_graph::GraphBuilder;
//! use dabench_model::ModelConfig;
//!
//! let g = GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 2), 4, 256);
//! assert!(g.validate().is_ok());
//! let order = g.topological_order();
//! assert_eq!(order.len(), g.node_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod graph;
pub mod intern;
pub mod partition;

pub use builder::GraphBuilder;
pub use graph::{DataflowGraph, GraphError, NodeId, NodeRef, StepSummary};
pub use intern::{Interner, Symbol};

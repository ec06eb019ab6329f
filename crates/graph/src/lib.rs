//! # dabench-graph
//!
//! Dataflow computation-graph IR for LLM training workloads.
//!
//! Dataflow accelerators represent a program as a computation graph whose
//! nodes are operators; compilers then map that graph onto the chip
//! (whole-graph on the Cerebras WSE-2, section-by-section on the SambaNova
//! RDU, layer-pipelined on the Graphcore IPU). Every mapping here reads a
//! training step's operators in step order and none walks its data
//! dependencies, so the graph is its operator list. This crate provides
//! the graph those mappers consume:
//!
//! - [`DataflowGraph`]: an immutable list of operators in step order.
//!   Node attributes live in contiguous arenas and names are interned
//!   ([`intern::Symbol`]); nodes are accessed through the [`NodeRef`]
//!   view. The shared topology can be re-costed cheaply
//!   ([`DataflowGraph::with_costs`]) for incremental recompilation across
//!   sweep points.
//! - [`TemplateGraph`]: a training step held as its template, the fixed
//!   operators and decoder layer 0, with the layer count and the
//!   full-depth summary. This is what the platform compilers read.
//! - [`GraphBuilder`]: constructs the full-depth training-step graph of a
//!   model from allocation-free operator records, the reference a
//!   template is checked against.
//! - [`intern`]: the symbol table behind every node name.
//!
//! Each platform crate maps this one IR onto its own unit of work (WSE
//! kernels, RDU sections, IPU pipeline stages). RDU O1 fusion lives in
//! `dabench-rdu`, and prefill/decode costs in `dabench_model::inference`.
//!
//! # Example
//!
//! ```
//! use dabench_graph::{GraphBuilder, TemplateGraph};
//! use dabench_model::{ops, ModelConfig};
//!
//! let cfg = ModelConfig::gpt2_probe(768, 2);
//! let t = TemplateGraph::new(&ops::step_template(&cfg, 4, 256));
//! let full = GraphBuilder::training_step(&cfg, 4, 256);
//! assert_eq!(t.node_count(), full.node_count());
//! assert_eq!(t.summary(), full.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod graph;
pub mod intern;
mod template;

pub use builder::GraphBuilder;
pub use graph::{DataflowGraph, GraphError, NodeId, NodeRef, StepSummary};
pub use intern::{Interner, Symbol};
pub use template::TemplateGraph;

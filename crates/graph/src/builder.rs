//! Construction of full-depth training-step graphs.

use crate::graph::{DataflowGraph, Nodes};
use dabench_model::{ops, ModelConfig, TrainingWorkload};

/// Builds the full-depth [`DataflowGraph`] of an LLM training step: every
/// operator of [`dabench_model::ops::step_records`], in step order.
///
/// Names are rendered once into the graph's interner through a reused
/// scratch buffer; no per-op `String` is ever allocated on this path.
///
/// The platform compilers read a [`crate::TemplateGraph`] instead; this
/// graph is the reference it is checked against, reduced by
/// [`crate::TemplateGraph::from_full`].
///
/// # Example
///
/// ```
/// use dabench_graph::GraphBuilder;
/// use dabench_model::ModelConfig;
///
/// let g = GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 4), 2, 128);
/// // 9 fixed operators plus 12 per layer and phase.
/// assert_eq!(g.node_count(), 9 + 2 * 12 * 4);
/// assert!(g.find("l3.residual1.bwd").is_some());
/// ```
#[derive(Debug)]
pub struct GraphBuilder;

impl GraphBuilder {
    /// Build the graph of one training step of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if two operators share a name (a bug in the op catalogue,
    /// not user error).
    #[must_use]
    pub fn training_step(cfg: &ModelConfig, batch: u64, seq: u64) -> DataflowGraph {
        DataflowGraph::from_interned(Nodes::of_records(&ops::step_records(cfg, batch, seq)))
            .expect("the op catalogue names every operator once")
    }

    /// Build the graph for a [`TrainingWorkload`].
    #[must_use]
    pub fn for_workload(w: &TrainingWorkload) -> DataflowGraph {
        Self::training_step(w.model(), w.batch_size(), w.seq_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::ops::Phase;
    use dabench_model::Precision;

    #[test]
    fn workload_builder_matches_direct() {
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), 2, 128, Precision::Fp16);
        let a = GraphBuilder::for_workload(&w);
        let b = GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 2), 2, 128);
        assert_eq!(a.node_count(), b.node_count());
    }

    #[test]
    fn builder_matches_legacy_string_construction() {
        // Rebuild the same step from the legacy `Vec<Op>` path and compare:
        // same names in the same node order, same FLOPs.
        for cfg in [
            ModelConfig::gpt2_probe(768, 3),
            ModelConfig::llama2_probe(512, 2),
        ] {
            let fast = GraphBuilder::training_step(&cfg, 2, 128);
            let ops = ops::training_step_ops(&cfg, 2, 128);
            assert_eq!(fast.node_count(), ops.len());
            for (id, node) in fast.iter() {
                assert_eq!(node.name(), ops[id.0].name, "node {id}");
                assert!((node.flops() - ops[id.0].flops).abs() < f64::EPSILON);
            }
            // Every backward node twins the forward node carrying the
            // swapped suffix.
            for (id, node) in fast.iter() {
                if node.phase() == Phase::Backward {
                    let twin = fast.forward_twin(id).expect("bwd node has fwd twin");
                    assert_eq!(
                        fast.op(twin).name(),
                        node.name().replace(".bwd", ".fwd"),
                        "twin of {}",
                        node.name()
                    );
                }
            }
        }
    }
}

//! A training step held as its template: the fixed operators and decoder
//! layer 0.

use crate::graph::{DataflowGraph, NodeId, NodeRef, Nodes, StepSummary};
use dabench_model::ops::{Op, StepTemplate};

/// One training step held as its template: a [`DataflowGraph`] of the
/// step's fixed operators and decoder layer 0, in node order, plus the
/// layer count and the summary of the full-depth step.
///
/// Every decoder layer repeats layer 0 with layer 0's costs, so this is
/// all a platform compiler reads of a step. A template holds 37 nodes for
/// a LLaMA-2 step and 33 for GPT-2 at any depth; only the summary's float
/// sums, two additions per full-depth node, grow with the layer count.
/// [`crate::GraphBuilder`] builds the full-depth step, the reference a
/// template is checked against.
///
/// # Example
///
/// ```
/// use dabench_graph::{GraphBuilder, TemplateGraph};
/// use dabench_model::{ModelConfig, ops};
///
/// let cfg = ModelConfig::gpt2_probe(768, 48);
/// let t = TemplateGraph::new(&ops::step_template(&cfg, 8, 1024));
/// assert_eq!(t.template_nodes().count(), 33);
/// assert_eq!(t.node_count(), 9 + 2 * 12 * 48);
/// let full = GraphBuilder::training_step(&cfg, 8, 1024);
/// assert_eq!(t.summary(), full.summary());
/// ```
#[derive(Debug, Clone)]
pub struct TemplateGraph {
    template: DataflowGraph,
    layers: u64,
    summary: StepSummary,
}

impl TemplateGraph {
    /// Build the template graph of `t`. Its summary replays the full
    /// step's node order over the template's costs, adding each layer
    /// copy's terms one at a time, never `copies × value`, so its float
    /// sums are bitwise those of the full-depth graph.
    ///
    /// # Panics
    ///
    /// Panics if two template operators share a name (a bug in the op
    /// catalogue, not user error).
    #[must_use]
    pub fn new(t: &StepTemplate) -> Self {
        let template = DataflowGraph::from_interned(Nodes::of_records(t.records()))
            .expect("the op catalogue names every operator once");
        Self::replayed(template, t.layers())
    }

    fn replayed(template: DataflowGraph, layers: u64) -> Self {
        let summary = template.replay_summary(layers);
        Self {
            template,
            layers,
            summary,
        }
    }

    /// Re-cost this graph with the costs and layer count of `t`, a
    /// template of the same operators: the node names are shared, not
    /// copied. A template's operators do not depend on the depth, so one
    /// graph serves every depth of its model family. This is the
    /// incremental-recompilation patch path.
    ///
    /// # Panics
    ///
    /// Panics if `t` has a different operator count.
    #[must_use]
    pub fn patch(&self, t: &StepTemplate) -> Self {
        let costs = t.records().iter().map(|r| r.cost).collect();
        Self::replayed(self.template.with_costs(costs), t.layers())
    }

    /// The template of a full-depth step graph: its fixed operators and
    /// decoder layer 0, with the summary the full graph summed node by
    /// node. This is the reference the replayed summary of
    /// [`TemplateGraph::new`] must equal.
    #[must_use]
    pub fn from_full(g: &DataflowGraph) -> Self {
        let nodes: Vec<Op> = g
            .iter()
            .filter(|(_, op)| matches!(op.layer(), None | Some(0)))
            .map(|(_, op)| Op {
                name: op.name().to_owned(),
                class: op.class(),
                phase: op.phase(),
                layer: op.layer(),
                flops: op.flops(),
                params: op.params(),
                in_elems: op.in_elems(),
                out_elems: op.out_elems(),
            })
            .collect();
        let layers = g
            .iter()
            .filter_map(|(_, op)| op.layer())
            .max()
            .map_or(0, |l| l + 1);
        Self {
            template: DataflowGraph::from_parts(nodes).expect("a graph's node names are distinct"),
            layers,
            summary: *g.summary(),
        }
    }

    /// Aggregate costs of the full-depth step.
    #[must_use]
    pub fn summary(&self) -> &StepSummary {
        &self.summary
    }

    /// Decoder layers in the step.
    #[must_use]
    pub fn layers(&self) -> u64 {
        self.layers
    }

    /// Nodes of the full-depth step: each fixed operator once, each
    /// layer-0 operator once per layer.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.template_nodes().map(|op| self.copies(op)).sum::<u64>() as usize
    }

    /// How many nodes of the full-depth step `op` stands for: the layer
    /// count for a layer-0 operator, 1 for a fixed one.
    #[must_use]
    pub fn copies(&self, op: NodeRef<'_>) -> u64 {
        if op.layer().is_some() {
            self.layers
        } else {
            1
        }
    }

    /// The step's fixed operators and those of decoder layer 0, in node
    /// order.
    pub fn template_nodes(&self) -> impl Iterator<Item = NodeRef<'_>> {
        self.template.iter().map(|(_, op)| op)
    }

    /// The template operator at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn op(&self, id: NodeId) -> NodeRef<'_> {
        self.template.op(id)
    }

    /// Find a template operator by exact name (`"l0.qkv_proj.fwd"`,
    /// `"lm_head.bwd"`); operators of layers past 0 are not held.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.template.find(name)
    }

    /// The forward twin of a backward template operator; `None` for
    /// forward and update operators.
    #[must_use]
    pub fn forward_twin(&self, id: NodeId) -> Option<NodeId> {
        self.template.forward_twin(id)
    }

    /// Whether `other` was patched from this graph, or this one from it:
    /// the two share one template topology.
    #[must_use]
    pub fn shares_topology(&self, other: &Self) -> bool {
        self.template.shares_topology(&other.template)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use dabench_model::{ops, ModelConfig};

    #[test]
    fn template_nodes_are_the_fixed_ops_and_layer_0() {
        for cfg in [
            ModelConfig::gpt2_probe(768, 3),
            ModelConfig::llama2_probe(512, 1),
        ] {
            let full = GraphBuilder::training_step(&cfg, 2, 128);
            let want: Vec<&str> = full
                .iter()
                .filter(|(_, op)| matches!(op.layer(), None | Some(0)))
                .map(|(_, op)| op.name())
                .collect();
            let built = TemplateGraph::new(&ops::step_template(&cfg, 2, 128));
            let reduced = TemplateGraph::from_full(&full);
            for g in [&built, &reduced] {
                let got: Vec<&str> = g.template_nodes().map(|op| op.name()).collect();
                assert_eq!(got, want, "{}", cfg.name);
                assert_eq!(g.layers(), cfg.num_layers);
                assert_eq!(g.node_count(), full.node_count());
            }
            // The patch path shares the names with its basis.
            let patched = built.patch(&ops::step_template(&cfg, 4, 256));
            assert!(patched.shares_topology(&built));
            assert!(!reduced.shares_topology(&built));
            let names: Vec<&str> = patched.template_nodes().map(|op| op.name()).collect();
            assert_eq!(names, want);
        }
    }

    #[test]
    fn a_patch_takes_the_depth_of_its_template() {
        let cfg = ModelConfig::gpt2_probe(768, 3);
        let g = TemplateGraph::new(&ops::step_template(&cfg, 2, 128));
        let deeper = cfg.with_layers(7);
        let patched = g.patch(&ops::step_template(&deeper, 2, 128));
        assert!(patched.shares_topology(&g));
        assert_eq!(patched.layers(), 7);
        let full = GraphBuilder::training_step(&deeper, 2, 128);
        assert_eq!(patched.summary(), full.summary());
        assert_eq!(patched.node_count(), full.node_count());
    }
}

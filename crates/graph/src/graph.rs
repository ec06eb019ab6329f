//! The operator-graph type.
//!
//! Nodes live in contiguous arenas: one `Vec` per attribute (interned
//! name, class, phase, layer, cost) instead of a `Vec<Op>` of
//! heap-allocated names. The immutable *topology* (names, classes,
//! phases, layers, forward-twin links) is shared behind an `Arc` so that
//! incremental recompilation can re-cost an existing graph without
//! rebuilding or copying its structure (see [`DataflowGraph::with_costs`]).

use crate::intern::{Interner, Symbol};
use dabench_model::ops::{self, Op, OpClass, OpCost, OpRecord, Phase};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Index of a node in a [`DataflowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors produced by graph construction.
///
/// Variants carry the *resolved* operator name (looked up through the
/// graph's interner), never a raw symbol id, so error text stays
/// human-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two nodes share a name.
    DuplicateName(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
        }
    }
}

impl Error for GraphError {}

/// Whole-step aggregate costs, accumulated once at graph construction in
/// node order (so floating-point sums are bitwise reproducible) and read
/// by the platform compilers instead of re-walking the operator list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepSummary {
    /// FLOPs over all nodes.
    pub total_flops: f64,
    /// FLOPs of nodes attributed to a decoder layer (`layer.is_some()`).
    pub layer_flops: f64,
    /// Forward-phase FLOPs of decoder layer 0.
    pub layer0_forward_flops: f64,
    /// Forward-phase output elements of decoder layer 0.
    pub layer0_forward_out_elems: u64,
    /// Output elements over all forward-phase nodes.
    pub forward_out_elems: u64,
    /// Forward output elements excluding attention-internal tensors
    /// (scores and softmax probabilities) — what a fused executor keeps.
    pub forward_out_elems_no_attn_internal: u64,
}

/// Immutable structure shared by every re-costing of one graph shape.
#[derive(Debug)]
struct Topology {
    interner: Interner,
    names: Vec<Symbol>,
    classes: Vec<OpClass>,
    phases: Vec<Phase>,
    layers: Vec<Option<u64>>,
    /// For each backward node, the id of its forward twin (same operator,
    /// `.fwd` suffix); `None` for forward/update nodes.
    fwd_twin: Vec<Option<NodeId>>,
}

/// Borrowed view of one node: identity plus cost, resolved on demand.
///
/// `Copy` and two words wide — pass it by value. Obtained from
/// [`DataflowGraph::op`] or [`DataflowGraph::iter`].
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'g> {
    g: &'g DataflowGraph,
    i: usize,
}

impl<'g> NodeRef<'g> {
    /// This node's id.
    #[must_use]
    pub fn id(self) -> NodeId {
        NodeId(self.i)
    }

    /// The operator name, resolved through the graph's interner.
    #[must_use]
    pub fn name(self) -> &'g str {
        self.g.topo.interner.resolve(self.g.topo.names[self.i])
    }

    /// Operator class.
    #[must_use]
    pub fn class(self) -> OpClass {
        self.g.topo.classes[self.i]
    }

    /// Training phase.
    #[must_use]
    pub fn phase(self) -> Phase {
        self.g.topo.phases[self.i]
    }

    /// Decoder layer, if attributed to one.
    #[must_use]
    pub fn layer(self) -> Option<u64> {
        self.g.topo.layers[self.i]
    }

    /// The full cost record.
    #[must_use]
    pub fn cost(self) -> OpCost {
        self.g.costs[self.i]
    }

    /// FLOPs of this operator.
    #[must_use]
    pub fn flops(self) -> f64 {
        self.g.costs[self.i].flops
    }

    /// Parameter count.
    #[must_use]
    pub fn params(self) -> u64 {
        self.g.costs[self.i].params
    }

    /// Input tensor elements.
    #[must_use]
    pub fn in_elems(self) -> u64 {
        self.g.costs[self.i].in_elems
    }

    /// Output tensor elements.
    #[must_use]
    pub fn out_elems(self) -> u64 {
        self.g.costs[self.i].out_elems
    }
}

/// An immutable list of LLM training operators, in step order.
///
/// Construct with [`DataflowGraph::from_parts`] or, for full training steps,
/// [`crate::GraphBuilder`]. Node attributes are stored in contiguous arenas
/// and names are interned ([`Symbol`]); node `i`'s name is `Symbol(i)`.
/// Access a node through the [`NodeRef`] view.
///
/// # Example
///
/// ```
/// use dabench_graph::GraphBuilder;
/// use dabench_model::ModelConfig;
///
/// let g = GraphBuilder::training_step(&ModelConfig::gpt2_mini(), 1, 64);
/// let loss = g.find("loss.bwd").unwrap();
/// assert_eq!(g.op(loss).name(), "loss.bwd");
/// assert!(g.total_flops() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DataflowGraph {
    topo: Arc<Topology>,
    costs: Vec<OpCost>,
    summary: StepSummary,
}

fn summarize(
    classes: &[OpClass],
    phases: &[Phase],
    layers: &[Option<u64>],
    costs: &[OpCost],
) -> StepSummary {
    let mut s = StepSummary::default();
    for i in 0..costs.len() {
        let c = costs[i];
        s.total_flops += c.flops;
        if layers[i].is_some() {
            s.layer_flops += c.flops;
        }
        if phases[i] == Phase::Forward {
            s.forward_out_elems += c.out_elems;
            if !is_attention_internal(classes[i]) {
                s.forward_out_elems_no_attn_internal += c.out_elems;
            }
            if layers[i] == Some(0) {
                s.layer0_forward_flops += c.flops;
                s.layer0_forward_out_elems += c.out_elems;
            }
        }
    }
    s
}

/// Attention-internal tensors (scores and softmax probabilities), which
/// a fused executor does not keep.
fn is_attention_internal(class: OpClass) -> bool {
    matches!(class, OpClass::AttnScores | OpClass::Softmax)
}

/// The node whose name is `sym`: names are interned in node order.
fn node_of(sym: Symbol) -> NodeId {
    NodeId(sym.0 as usize)
}

/// A graph's nodes in arena form, in node order, names interned.
#[derive(Debug)]
pub(crate) struct Nodes {
    interner: Interner,
    names: Vec<Symbol>,
    classes: Vec<OpClass>,
    phases: Vec<Phase>,
    layers: Vec<Option<u64>>,
    costs: Vec<OpCost>,
}

impl Nodes {
    fn with_capacity(n: usize, avg_name_len: usize) -> Self {
        Self {
            interner: Interner::with_capacity(n, avg_name_len),
            names: Vec::with_capacity(n),
            classes: Vec::with_capacity(n),
            phases: Vec::with_capacity(n),
            layers: Vec::with_capacity(n),
            costs: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, name: &str, class: OpClass, phase: Phase, layer: Option<u64>, cost: OpCost) {
        self.names.push(self.interner.intern(name));
        self.classes.push(class);
        self.phases.push(phase);
        self.layers.push(layer);
        self.costs.push(cost);
    }

    /// The nodes of `records`, each name rendered once through a reused
    /// buffer: no per-node `String` ever exists. All names of a step are
    /// distinct, so the interner assigns `Symbol(i)` to node `i`.
    pub(crate) fn of_records(records: &[OpRecord]) -> Self {
        let mut nodes = Self::with_capacity(records.len(), 18);
        let mut buf = String::new();
        for r in records {
            r.write_name(&mut buf);
            nodes.push(&buf, r.class, r.phase, r.layer, r.cost);
        }
        nodes
    }
}

impl DataflowGraph {
    /// Build a graph from node payloads, in node order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateName`] if node names collide.
    pub fn from_parts(nodes: Vec<Op>) -> Result<Self, GraphError> {
        let mut arena = Nodes::with_capacity(nodes.len(), 16);
        for op in &nodes {
            let cost = OpCost {
                flops: op.flops,
                params: op.params,
                in_elems: op.in_elems,
                out_elems: op.out_elems,
            };
            arena.push(&op.name, op.class, op.phase, op.layer, cost);
        }
        Self::from_interned(arena)
    }

    /// Build a graph directly from interned arenas (the builder fast path).
    ///
    /// # Errors
    ///
    /// Same contract as [`DataflowGraph::from_parts`].
    pub(crate) fn from_interned(nodes: Nodes) -> Result<Self, GraphError> {
        let Nodes {
            interner,
            names,
            classes,
            phases,
            layers,
            costs,
        } = nodes;
        // Names are interned in node order, so node `i`'s name is
        // `Symbol(i)` unless it repeats an earlier node's.
        if let Some((_, &sym)) = (0u32..).zip(&names).find(|&(i, s)| s.0 != i) {
            return Err(GraphError::DuplicateName(interner.resolve(sym).to_owned()));
        }
        // Backward → forward twin links (`l0.qkv_proj.bwd` → `…fwd`).
        let mut buf = String::new();
        let fwd_twin: Vec<Option<NodeId>> = (0..names.len())
            .map(|i| {
                if phases[i] != Phase::Backward {
                    return None;
                }
                let stem = interner.resolve(names[i]).strip_suffix(".bwd")?;
                buf.clear();
                buf.push_str(stem);
                buf.push_str(".fwd");
                interner.get(&buf).map(node_of)
            })
            .collect();
        let summary = summarize(&classes, &phases, &layers, &costs);
        Ok(Self {
            topo: Arc::new(Topology {
                interner,
                names,
                classes,
                phases,
                layers,
                fwd_twin,
            }),
            costs,
            summary,
        })
    }

    /// Re-cost this graph: identical topology (shared, not copied), new
    /// per-node costs. This is the incremental-recompilation patch path —
    /// adjacent sweep points share a graph shape and differ only in costs.
    ///
    /// # Panics
    ///
    /// Panics if `costs` does not have exactly one entry per node.
    #[must_use]
    pub fn with_costs(&self, costs: Vec<OpCost>) -> Self {
        assert_eq!(
            costs.len(),
            self.node_count(),
            "cost vector must match node count"
        );
        let summary = summarize(
            &self.topo.classes,
            &self.topo.phases,
            &self.topo.layers,
            &costs,
        );
        Self {
            topo: Arc::clone(&self.topo),
            costs,
            summary,
        }
    }

    /// Whether `other` shares this graph's topology allocation (same
    /// `Arc`), i.e. was produced by [`DataflowGraph::with_costs`] or a
    /// clone. Used by tests and the compile cache's hit accounting.
    #[must_use]
    pub fn shares_topology(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.topo, &other.topo)
    }

    /// Aggregate step costs, accumulated once at construction.
    #[must_use]
    pub fn summary(&self) -> &StepSummary {
        &self.summary
    }

    /// The summary of the `layers`-deep step whose template this graph
    /// holds (see [`crate::TemplateGraph`]), equal bit for bit to the one
    /// the full-depth graph sums node by node.
    pub(crate) fn replay_summary(&self, layers: u64) -> StepSummary {
        let t = &self.topo;
        let mut s = StepSummary::default();
        // Whole numbers sum exactly in any order, so each layer-0 node
        // counts once per layer. Layer 0's forward FLOPs are added once
        // each, in node order, as the full graph adds them.
        for (i, c) in self.costs.iter().enumerate() {
            if t.phases[i] != Phase::Forward {
                continue;
            }
            let copies = if t.layers[i].is_some() { layers } else { 1 };
            s.forward_out_elems += copies * c.out_elems;
            if !is_attention_internal(t.classes[i]) {
                s.forward_out_elems_no_attn_internal += copies * c.out_elems;
            }
            if t.layers[i] == Some(0) {
                s.layer0_forward_flops += c.flops;
                s.layer0_forward_out_elems += c.out_elems;
            }
        }
        // Float sums round at every addition, so they replay the step's
        // node order and add each layer copy's FLOPs one at a time; a
        // `copies × value` product rounds once and differs in the last
        // bits.
        let layer_ops = (self.node_count() - ops::FIXED_OPS) / 2;
        for (run, layer) in ops::step_runs(layer_ops, layers) {
            let costs = &self.costs[run];
            if layer.is_some() {
                for c in costs {
                    s.total_flops += c.flops;
                    s.layer_flops += c.flops;
                }
            } else {
                for c in costs {
                    s.total_flops += c.flops;
                }
            }
        }
        s
    }

    /// The forward twin of a backward node (`l0.qkv_proj.bwd` →
    /// `l0.qkv_proj.fwd`); `None` for forward/update nodes.
    #[must_use]
    pub fn forward_twin(&self, id: NodeId) -> Option<NodeId> {
        self.topo.fwd_twin[id.0]
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topo.names.len()
    }

    /// The operator at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn op(&self, id: NodeId) -> NodeRef<'_> {
        assert!(id.0 < self.node_count(), "node id out of range");
        NodeRef { g: self, i: id.0 }
    }

    /// Iterate over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeRef<'_>)> {
        (0..self.node_count()).map(|i| (NodeId(i), NodeRef { g: self, i }))
    }

    /// Find a node by exact operator name (constant-time: one interner
    /// lookup, no string scan over the node list).
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.topo.interner.get(name).map(node_of)
    }

    /// Total FLOPs over all nodes.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.costs.iter().map(|c| c.flops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::ops::{OpClass, Phase};

    fn mk_op(name: &str, flops: f64) -> Op {
        Op {
            name: name.to_owned(),
            class: OpClass::Norm,
            phase: Phase::Forward,
            layer: None,
            flops,
            params: 0,
            in_elems: 8,
            out_elems: 8,
        }
    }

    fn four() -> DataflowGraph {
        DataflowGraph::from_parts(vec![
            mk_op("a", 1.0),
            mk_op("b", 2.0),
            mk_op("c", 10.0),
            mk_op("d", 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = DataflowGraph::from_parts(vec![mk_op("a", 1.0), mk_op("a", 1.0)]);
        assert!(matches!(err, Err(GraphError::DuplicateName(_))));
        // A repeat after a distinct name is caught too, and named.
        let err =
            DataflowGraph::from_parts(vec![mk_op("a", 1.0), mk_op("b", 1.0), mk_op("a", 1.0)]);
        assert_eq!(err.unwrap_err(), GraphError::DuplicateName("a".to_owned()));
    }

    #[test]
    fn find_by_name() {
        let g = four();
        assert_eq!(g.find("c"), Some(NodeId(2)));
        assert_eq!(g.find("zzz"), None);
    }

    #[test]
    fn error_messages_render_resolved_names() {
        // The error prints the operator's text name, never a symbol id.
        let dup = DataflowGraph::from_parts(vec![mk_op("x", 1.0), mk_op("x", 1.0)]).unwrap_err();
        assert_eq!(dup.to_string(), "duplicate node name `x`");
    }

    #[test]
    fn node_ref_resolves_attributes() {
        let g = four();
        let c = g.op(NodeId(2));
        assert_eq!(c.name(), "c");
        assert_eq!(c.class(), OpClass::Norm);
        assert_eq!(c.phase(), Phase::Forward);
        assert_eq!(c.layer(), None);
        assert!((c.flops() - 10.0).abs() < 1e-12);
        assert_eq!(c.out_elems(), 8);
    }

    #[test]
    fn with_costs_shares_topology_and_recosts() {
        let g = four();
        let costs: Vec<OpCost> = g
            .iter()
            .map(|(_, n)| OpCost {
                flops: n.flops() * 3.0,
                ..n.cost()
            })
            .collect();
        let h = g.with_costs(costs);
        assert!(g.shares_topology(&h));
        assert_eq!(h.node_count(), g.node_count());
        assert!((h.total_flops() - 3.0 * g.total_flops()).abs() < 1e-9);
        assert!((h.summary().total_flops - h.total_flops()).abs() < 1e-9);
        // Name lookups are unchanged.
        assert_eq!(h.find("c"), Some(NodeId(2)));
    }

    #[test]
    fn summary_matches_direct_sums() {
        let g = four();
        let s = g.summary();
        assert!((s.total_flops - g.total_flops()).abs() < 1e-12);
        assert_eq!(s.forward_out_elems, 32); // four forward nodes × 8
        assert_eq!(s.forward_out_elems_no_attn_internal, 32);
        assert_eq!(s.layer0_forward_out_elems, 0); // no layered nodes
    }

    #[test]
    fn forward_twin_links_backward_nodes() {
        let mut a = mk_op("l0.qkv_proj.fwd", 1.0);
        a.phase = Phase::Forward;
        let mut b = mk_op("l0.qkv_proj.bwd", 2.0);
        b.phase = Phase::Backward;
        let g = DataflowGraph::from_parts(vec![a, b]).unwrap();
        assert_eq!(g.forward_twin(NodeId(1)), Some(NodeId(0)));
        assert_eq!(g.forward_twin(NodeId(0)), None);
    }
}

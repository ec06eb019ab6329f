//! The dataflow DAG type.
//!
//! Nodes live in contiguous arenas: one `Vec` per attribute (interned
//! name, class, phase, layer, cost) plus CSR adjacency, instead of a
//! `Vec<Op>` of heap-allocated names. The immutable *topology* (names,
//! classes, adjacency) is shared behind an `Arc` so that incremental
//! recompilation can re-cost an existing graph without rebuilding or
//! copying its structure (see [`DataflowGraph::with_costs`]).

use crate::intern::{Interner, Symbol};
use dabench_model::ops::{Op, OpClass, OpCost, Phase};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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

/// Errors produced by graph construction and validation.
///
/// Variants carry the *resolved* operator name (looked up through the
/// graph's interner), never a raw symbol id, so error text stays
/// human-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph contains a cycle involving the named node.
    Cycle(String),
    /// An edge endpoint is out of range.
    InvalidNode(usize),
    /// Two nodes share a name.
    DuplicateName(String),
    /// A non-source node has no predecessors.
    Orphan(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle(n) => write!(f, "dependency cycle through node `{n}`"),
            GraphError::InvalidNode(i) => write!(f, "edge references missing node index {i}"),
            GraphError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            GraphError::Orphan(n) => write!(f, "non-source node `{n}` has no predecessors"),
        }
    }
}

impl Error for GraphError {}

/// Whole-step aggregate costs, accumulated once at graph construction in
/// node order (so floating-point sums are bitwise reproducible) and read
/// by the platform compilers instead of re-walking the operator list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    index: HashMap<Symbol, usize>,
    pred_off: Vec<u32>,
    pred_adj: Vec<NodeId>,
    succ_off: Vec<u32>,
    succ_adj: Vec<NodeId>,
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

    /// The interned name symbol.
    #[must_use]
    pub fn symbol(self) -> Symbol {
        self.g.topo.names[self.i]
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

/// An immutable dataflow DAG whose nodes are LLM training operators.
///
/// Construct with [`DataflowGraph::from_parts`] or, for full training steps,
/// [`crate::GraphBuilder`]. Node attributes are stored in contiguous arenas
/// and names are interned ([`Symbol`]); edges point from producer to
/// consumer. Access a node through the [`NodeRef`] view.
///
/// # Example
///
/// ```
/// use dabench_graph::GraphBuilder;
/// use dabench_model::ModelConfig;
///
/// let g = GraphBuilder::training_step(&ModelConfig::gpt2_mini(), 1, 64);
/// // Every graph built by the builder is a valid DAG.
/// g.validate().unwrap();
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
    let mut s = StepSummary {
        total_flops: 0.0,
        layer_flops: 0.0,
        layer0_forward_flops: 0.0,
        layer0_forward_out_elems: 0,
        forward_out_elems: 0,
        forward_out_elems_no_attn_internal: 0,
    };
    for i in 0..costs.len() {
        let c = costs[i];
        s.total_flops += c.flops;
        if layers[i].is_some() {
            s.layer_flops += c.flops;
        }
        if phases[i] == Phase::Forward {
            s.forward_out_elems += c.out_elems;
            if !matches!(classes[i], OpClass::AttnScores | OpClass::Softmax) {
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

impl DataflowGraph {
    /// Build a graph from node payloads and (producer, consumer) edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidNode`] if an edge endpoint is out of
    /// range and [`GraphError::DuplicateName`] if node names collide.
    pub fn from_parts(nodes: Vec<Op>, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let n = nodes.len();
        let mut interner = Interner::with_capacity(n, 16);
        let mut names = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        let mut phases = Vec::with_capacity(n);
        let mut layers = Vec::with_capacity(n);
        let mut costs = Vec::with_capacity(n);
        for op in &nodes {
            names.push(interner.intern(&op.name));
            classes.push(op.class);
            phases.push(op.phase);
            layers.push(op.layer);
            costs.push(OpCost {
                flops: op.flops,
                params: op.params,
                in_elems: op.in_elems,
                out_elems: op.out_elems,
            });
        }
        Self::from_interned(interner, names, classes, phases, layers, costs, edges)
    }

    /// Build a graph directly from interned arenas (the builder fast path:
    /// no per-node `String` ever exists).
    ///
    /// # Errors
    ///
    /// Same contract as [`DataflowGraph::from_parts`].
    pub(crate) fn from_interned(
        interner: Interner,
        names: Vec<Symbol>,
        classes: Vec<OpClass>,
        phases: Vec<Phase>,
        layers: Vec<Option<u64>>,
        costs: Vec<OpCost>,
        edges: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        let n = names.len();
        let mut index = HashMap::with_capacity(n);
        for (i, &sym) in names.iter().enumerate() {
            if index.insert(sym, i).is_some() {
                return Err(GraphError::DuplicateName(interner.resolve(sym).to_owned()));
            }
        }
        for &(a, b) in edges {
            if a >= n {
                return Err(GraphError::InvalidNode(a));
            }
            if b >= n {
                return Err(GraphError::InvalidNode(b));
            }
        }
        // CSR adjacency, filled in edge input order so per-node neighbour
        // order matches the legacy Vec-of-Vecs push order exactly.
        let mut pred_deg = vec![0u32; n];
        let mut succ_deg = vec![0u32; n];
        for &(a, b) in edges {
            succ_deg[a] += 1;
            pred_deg[b] += 1;
        }
        let prefix = |deg: &[u32]| {
            let mut off = Vec::with_capacity(n + 1);
            let mut acc = 0u32;
            off.push(0);
            for &d in deg {
                acc += d;
                off.push(acc);
            }
            off
        };
        let pred_off = prefix(&pred_deg);
        let succ_off = prefix(&succ_deg);
        let mut pred_cur: Vec<u32> = pred_off[..n].to_vec();
        let mut succ_cur: Vec<u32> = succ_off[..n].to_vec();
        let mut pred_adj = vec![NodeId(0); edges.len()];
        let mut succ_adj = vec![NodeId(0); edges.len()];
        for &(a, b) in edges {
            succ_adj[succ_cur[a] as usize] = NodeId(b);
            succ_cur[a] += 1;
            pred_adj[pred_cur[b] as usize] = NodeId(a);
            pred_cur[b] += 1;
        }
        // Backward → forward twin links (`l0.qkv_proj.bwd` → `…fwd`).
        let mut buf = String::new();
        let fwd_twin: Vec<Option<NodeId>> = (0..n)
            .map(|i| {
                if phases[i] != Phase::Backward {
                    return None;
                }
                let stem = interner.resolve(names[i]).strip_suffix(".bwd")?;
                buf.clear();
                buf.push_str(stem);
                buf.push_str(".fwd");
                interner
                    .get(&buf)
                    .and_then(|s| index.get(&s).copied().map(NodeId))
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
                index,
                pred_off,
                pred_adj,
                succ_off,
                succ_adj,
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

    /// Number of distinct interned names backing this graph.
    #[must_use]
    pub fn interned_symbol_count(&self) -> usize {
        self.topo.interner.len()
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

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.topo.succ_adj.len()
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

    /// All node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterate over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeRef<'_>)> {
        (0..self.node_count()).map(|i| (NodeId(i), NodeRef { g: self, i }))
    }

    /// Predecessors (producers) of `id`.
    #[must_use]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        let t = &self.topo;
        &t.pred_adj[t.pred_off[id.0] as usize..t.pred_off[id.0 + 1] as usize]
    }

    /// Successors (consumers) of `id`.
    #[must_use]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        let t = &self.topo;
        &t.succ_adj[t.succ_off[id.0] as usize..t.succ_off[id.0 + 1] as usize]
    }

    /// Find a node by exact operator name (constant-time: interner lookup
    /// plus one hash probe, no string scan over the node list).
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        let sym = self.topo.interner.get(name)?;
        self.topo.index.get(&sym).copied().map(NodeId)
    }

    /// Total FLOPs over all nodes.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.costs.iter().map(|c| c.flops).sum()
    }

    /// A topological order of all nodes (Kahn's algorithm). Ties are broken
    /// by insertion order, so the result is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle; use [`DataflowGraph::validate`]
    /// first on untrusted input.
    #[must_use]
    pub fn topological_order(&self) -> Vec<NodeId> {
        self.try_topological_order()
            .expect("graph contains a cycle")
    }

    fn try_topological_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.node_count();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.preds(NodeId(i)).len()).collect();
        // A simple FIFO over a sorted frontier keeps the order stable.
        let mut frontier: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < frontier.len() {
            let u = frontier[head];
            head += 1;
            order.push(NodeId(u));
            for &NodeId(v) in self.succs(NodeId(u)) {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    frontier.push(v);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .map(|i| self.topo.interner.resolve(self.topo.names[i]).to_owned())
                .unwrap_or_default();
            return Err(GraphError::Cycle(stuck));
        }
        Ok(order)
    }

    /// ASAP level of every node: sources are level 0, every other node is
    /// one more than its deepest predecessor. The maximum level + 1 is the
    /// graph's critical-path length in operators.
    #[must_use]
    pub fn levels(&self) -> Vec<usize> {
        let order = self.topological_order();
        let mut level = vec![0usize; self.node_count()];
        for &NodeId(u) in &order {
            for &NodeId(p) in self.preds(NodeId(u)) {
                level[u] = level[u].max(level[p] + 1);
            }
        }
        level
    }

    /// Check structural invariants: DAG-ness and that every node except the
    /// designated sources is reachable from a producer.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.try_topological_order()?;
        Ok(())
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

    fn diamond() -> DataflowGraph {
        // a -> b, a -> c, b -> d, c -> d
        DataflowGraph::from_parts(
            vec![
                mk_op("a", 1.0),
                mk_op("b", 2.0),
                mk_op("c", 10.0),
                mk_op("d", 1.0),
            ],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, NodeId(n)) in order.iter().enumerate() {
                p[*n] = i;
            }
            p
        };
        assert!(pos[0] < pos[1]);
        assert!(pos[0] < pos[2]);
        assert!(pos[1] < pos[3]);
        assert!(pos[2] < pos[3]);
    }

    #[test]
    fn cycle_detected() {
        let g =
            DataflowGraph::from_parts(vec![mk_op("a", 1.0), mk_op("b", 1.0)], &[(0, 1), (1, 0)])
                .unwrap();
        assert!(matches!(g.validate(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = DataflowGraph::from_parts(vec![mk_op("a", 1.0), mk_op("a", 1.0)], &[]);
        assert!(matches!(err, Err(GraphError::DuplicateName(_))));
    }

    #[test]
    fn invalid_edge_rejected() {
        let err = DataflowGraph::from_parts(vec![mk_op("a", 1.0)], &[(0, 5)]);
        assert!(matches!(err, Err(GraphError::InvalidNode(5))));
    }

    #[test]
    fn levels_of_diamond() {
        let g = diamond();
        assert_eq!(g.levels(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn find_by_name() {
        let g = diamond();
        assert_eq!(g.find("c"), Some(NodeId(2)));
        assert_eq!(g.find("zzz"), None);
    }

    #[test]
    fn error_messages_render_resolved_names() {
        // Every variant prints the operator's text name, never a symbol id.
        let cycle =
            DataflowGraph::from_parts(vec![mk_op("a", 1.0), mk_op("b", 1.0)], &[(0, 1), (1, 0)])
                .unwrap()
                .validate()
                .unwrap_err();
        assert_eq!(cycle.to_string(), "dependency cycle through node `a`");
        let dup =
            DataflowGraph::from_parts(vec![mk_op("x", 1.0), mk_op("x", 1.0)], &[]).unwrap_err();
        assert_eq!(dup.to_string(), "duplicate node name `x`");
        let invalid = DataflowGraph::from_parts(vec![mk_op("a", 1.0)], &[(0, 7)]).unwrap_err();
        assert_eq!(invalid.to_string(), "edge references missing node index 7");
        let orphan = GraphError::Orphan("l3.rope.fwd".to_owned());
        assert_eq!(
            orphan.to_string(),
            "non-source node `l3.rope.fwd` has no predecessors"
        );
    }

    #[test]
    fn node_ref_resolves_attributes() {
        let g = diamond();
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
        let g = diamond();
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
        assert_eq!(h.edge_count(), g.edge_count());
        assert!((h.total_flops() - 3.0 * g.total_flops()).abs() < 1e-9);
        assert!((h.summary().total_flops - h.total_flops()).abs() < 1e-9);
        // Topology queries are unchanged.
        assert_eq!(h.find("c"), Some(NodeId(2)));
        assert_eq!(h.succs(NodeId(0)), g.succs(NodeId(0)));
    }

    #[test]
    fn summary_matches_direct_sums() {
        let g = diamond();
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
        let g = DataflowGraph::from_parts(vec![a, b], &[(0, 1)]).unwrap();
        assert_eq!(g.forward_twin(NodeId(1)), Some(NodeId(0)));
        assert_eq!(g.forward_twin(NodeId(0)), None);
    }

    #[test]
    fn interned_symbol_count_tracks_names() {
        let g = diamond();
        assert_eq!(g.interned_symbol_count(), 4);
    }
}

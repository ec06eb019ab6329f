//! Construction of training-step dataflow graphs.

use crate::graph::DataflowGraph;
use crate::intern::Interner;
use dabench_model::ops::{self, Phase};
use dabench_model::{ModelConfig, TrainingWorkload};
use std::fmt::Write as _;

/// Builds [`DataflowGraph`]s for complete LLM training steps.
///
/// The builder consumes the allocation-free operator records from
/// [`dabench_model::ops::step_records`] and reconstructs the real
/// dependency structure:
///
/// - the forward chain (embedding → layer 0 → … → loss), including the
///   residual skip edges inside each decoder block;
/// - the backward chain mirroring it in reverse, with mirrored skips;
/// - gradient → optimizer edges from every parameterized backward op.
///
/// Names are rendered once into the graph's interner through a reused
/// scratch buffer; no per-op `String` is ever allocated on this path.
///
/// # Example
///
/// ```
/// use dabench_graph::GraphBuilder;
/// use dabench_model::ModelConfig;
///
/// let g = GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 4), 2, 128);
/// // The residual add joins two producers: the skip and the out-projection.
/// let resid = g.find("l0.residual1.fwd").unwrap();
/// assert_eq!(g.preds(resid).len(), 2);
/// ```
#[derive(Debug)]
pub struct GraphBuilder;

/// Index of the forward op `l{l}.{label}.fwd`, or `None` when the model
/// family omits it (e.g. `rope` on learned-positional models).
fn layer_get(interner: &Interner, buf: &mut String, l: u64, label: &str) -> Option<usize> {
    buf.clear();
    let _ = write!(buf, "l{l}.{label}.fwd");
    interner.get(buf).map(|s| s.0 as usize)
}

/// Like [`layer_get`] but for ops every decoder block must have.
fn layer_at(interner: &Interner, buf: &mut String, l: u64, label: &str) -> usize {
    layer_get(interner, buf, l, label)
        .unwrap_or_else(|| panic!("op catalogue missing `l{l}.{label}.fwd`"))
}

impl GraphBuilder {
    /// Build the dataflow graph of one training step of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the generated op list violates graph invariants (this
    /// indicates a bug in the op catalogue, not user error).
    #[must_use]
    pub fn training_step(cfg: &ModelConfig, batch: u64, seq: u64) -> DataflowGraph {
        let records = ops::step_records(cfg, batch, seq);
        let n = records.len();

        // Intern every name in node order. All names are distinct, so the
        // interner assigns `Symbol(i)` to node `i` — name lookups during
        // edge construction resolve straight to node indices.
        let mut interner = Interner::with_capacity(n, 18);
        let mut names = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        let mut phases = Vec::with_capacity(n);
        let mut layers = Vec::with_capacity(n);
        let mut costs = Vec::with_capacity(n);
        let mut buf = String::new();
        for r in &records {
            r.write_name(&mut buf);
            names.push(interner.intern(&buf));
            classes.push(r.class);
            phases.push(r.phase);
            layers.push(r.layer);
            costs.push(r.cost);
        }

        // Record layout of `step_records`: forward ops 0..f, then the
        // backward ops as the forward list reversed (f..2f), then the
        // optimizer (2f). So the backward twin of forward op `i` sits at
        // `2f - 1 - i` — no name lookups needed for the mirror pass.
        let f = (n - 1) / 2;
        debug_assert_eq!(interner.resolve(names[f - 1]), "loss.fwd");
        debug_assert_eq!(interner.resolve(names[f]), "loss.bwd");
        debug_assert_eq!(interner.resolve(names[n - 1]), "optimizer.upd");
        let bwd_of = |i: usize| 2 * f - 1 - i;

        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(6 * n);

        // --- Forward chain with residual skips ---
        //
        // Inside a block the main path is
        //   in -> norm1 -> qkv -> [rope] -> scores -> softmax -> context
        //      -> out_proj -> residual1 -> norm2 -> mlp... -> residual2
        // with skips  in -> residual1  and  residual1 -> residual2.
        let mut prev_out = 0usize; // embedding.fwd
        debug_assert_eq!(interner.resolve(names[0]), "embedding.fwd");
        for l in 0..cfg.num_layers {
            let block_in = prev_out;
            let norm1 = layer_at(&interner, &mut buf, l, "norm1");
            edges.push((block_in, norm1));
            let mut cur = norm1;
            for label in [
                "qkv_proj",
                "rope",
                "attn_scores",
                "softmax",
                "attn_context",
                "out_proj",
            ] {
                if let Some(next) = layer_get(&interner, &mut buf, l, label) {
                    edges.push((cur, next));
                    cur = next;
                }
            }
            // residual1 <- out_proj + skip from block input.
            let resid1 = layer_at(&interner, &mut buf, l, "residual1");
            edges.push((cur, resid1));
            edges.push((block_in, resid1));

            let norm2 = layer_at(&interner, &mut buf, l, "norm2");
            edges.push((resid1, norm2));
            // MLP: up (and gate) feed the activation, activation feeds down.
            let mlp_up = layer_at(&interner, &mut buf, l, "mlp_up");
            edges.push((norm2, mlp_up));
            let act = layer_at(&interner, &mut buf, l, "act_fn");
            edges.push((mlp_up, act));
            if let Some(gate) = layer_get(&interner, &mut buf, l, "mlp_gate") {
                edges.push((norm2, gate));
                edges.push((gate, act));
            }
            let mlp_down = layer_at(&interner, &mut buf, l, "mlp_down");
            edges.push((act, mlp_down));
            let resid2 = layer_at(&interner, &mut buf, l, "residual2");
            edges.push((mlp_down, resid2));
            edges.push((resid1, resid2));
            prev_out = resid2;
        }
        // prev_out -> final_norm -> lm_head -> loss, by record position.
        edges.push((prev_out, f - 3));
        edges.push((f - 3, f - 2));
        edges.push((f - 2, f - 1));
        debug_assert_eq!(interner.resolve(names[f - 3]), "final_norm.fwd");

        // --- Backward: mirror every forward edge, reversed, between the
        //     corresponding .bwd nodes; seed from loss.fwd -> loss.bwd. ---
        let fwd_edges = edges.clone();
        edges.push((f - 1, f));
        for &(a, b) in &fwd_edges {
            edges.push((bwd_of(b), bwd_of(a)));
        }
        // The backward of a parameterized op also needs its forward input
        // activation; that dependency is already implied by program order on
        // real systems and by the mirrored edges here, so we do not add
        // duplicate activation edges.

        // --- Optimizer depends on every parameterized backward op. ---
        let opt = n - 1;
        for (i, r) in records.iter().enumerate() {
            if r.phase == Phase::Backward && r.cost.params > 0 {
                edges.push((i, opt));
            }
        }

        edges.sort_unstable();
        edges.dedup();

        DataflowGraph::from_interned(interner, names, classes, phases, layers, costs, &edges)
            .expect("builder produced invalid graph")
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
    use dabench_model::Precision;

    fn g() -> DataflowGraph {
        GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 3), 2, 128)
    }

    #[test]
    fn graph_is_valid_dag() {
        g().validate().unwrap();
    }

    #[test]
    fn llama_graph_is_valid_dag() {
        GraphBuilder::training_step(&ModelConfig::llama2_probe(512, 2), 1, 64)
            .validate()
            .unwrap();
    }

    #[test]
    fn residual_skip_edges_exist() {
        let g = g();
        let r1 = g.find("l1.residual1.fwd").unwrap();
        let r2 = g.find("l1.residual2.fwd").unwrap();
        assert_eq!(g.preds(r1).len(), 2);
        assert_eq!(g.preds(r2).len(), 2);
    }

    #[test]
    fn backward_mirrors_forward_depth() {
        let g = g();
        let levels = g.levels();
        let loss_fwd = g.find("loss.fwd").unwrap();
        let emb_bwd = g.find("embedding.bwd").unwrap();
        // The backward of the embedding is the deepest compute node.
        assert!(levels[emb_bwd.0] > levels[loss_fwd.0]);
    }

    #[test]
    fn optimizer_is_sink() {
        let g = g();
        let opt = g.find("optimizer.upd").unwrap();
        assert!(g.succs(opt).is_empty());
        assert!(g.preds(opt).len() > 5);
    }

    #[test]
    fn workload_builder_matches_direct() {
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), 2, 128, Precision::Fp16);
        let a = GraphBuilder::for_workload(&w);
        let b = GraphBuilder::training_step(&ModelConfig::gpt2_probe(768, 2), 2, 128);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn no_dangling_interior_nodes() {
        let g = g();
        // Exactly one forward source (embedding.fwd).
        let sources: Vec<_> = g.node_ids().filter(|&id| g.preds(id).is_empty()).collect();
        assert_eq!(sources.len(), 1);
        assert_eq!(g.op(sources[0]).name(), "embedding.fwd");
    }

    #[test]
    fn builder_matches_legacy_string_construction() {
        // Rebuild the same step from the legacy `Vec<Op>` path and compare
        // full topology: same names in the same node order, same edge set.
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
            // The backward arithmetic shortcut must agree with name-based
            // twin resolution for every backward node.
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

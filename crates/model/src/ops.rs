//! Operator catalogue: the exact operator sequence of one LLM training step.
//!
//! DABench-LLM treats a training step as a dataflow graph whose nodes are
//! operators. This module enumerates those operators for a decoder-only
//! transformer — forward and backward — with exact FLOP, parameter and
//! activation-element accounting. Platform models consume this list to
//! build sections (RDU), kernels (WSE) or pipeline stages (IPU).
//!
//! All sizes here are in *elements*; byte conversions happen at the
//! workload level where the numeric precision is known.

use crate::config::{Activation, ModelConfig, Normalization, PositionalEncoding};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter;
use std::ops::Range;

/// Coarse operator class, used by partitioners and fusion rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    /// Token (+ positional) embedding lookup.
    Embedding,
    /// LayerNorm or RMSNorm.
    Norm,
    /// Fused Q/K/V projection GEMM.
    QkvProj,
    /// Rotary position embedding application.
    Rope,
    /// Attention score GEMM (`Q Kᵀ`).
    AttnScores,
    /// Softmax over attention scores.
    Softmax,
    /// Attention context GEMM (`P V`).
    AttnContext,
    /// Attention output projection GEMM.
    OutProj,
    /// MLP up-projection GEMM.
    MlpUp,
    /// MLP gate GEMM (SwiGLU only).
    MlpGate,
    /// Elementwise activation (GELU / SiLU·gate).
    ActFn,
    /// MLP down-projection GEMM.
    MlpDown,
    /// Residual addition.
    ResidualAdd,
    /// LM head GEMM onto the vocabulary.
    LmHead,
    /// Softmax + cross-entropy loss.
    Loss,
    /// Optimizer parameter update.
    OptimizerStep,
}

impl OpClass {
    /// Whether this operator is a dense matrix multiplication.
    #[must_use]
    pub const fn is_matmul(self) -> bool {
        matches!(
            self,
            OpClass::QkvProj
                | OpClass::AttnScores
                | OpClass::AttnContext
                | OpClass::OutProj
                | OpClass::MlpUp
                | OpClass::MlpGate
                | OpClass::MlpDown
                | OpClass::LmHead
        )
    }

    /// Whether this operator belongs to the attention sub-block.
    #[must_use]
    pub const fn is_attention(self) -> bool {
        matches!(
            self,
            OpClass::QkvProj
                | OpClass::Rope
                | OpClass::AttnScores
                | OpClass::Softmax
                | OpClass::AttnContext
                | OpClass::OutProj
        )
    }

    /// Short stable identifier used in reports.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            OpClass::Embedding => "embedding",
            OpClass::Norm => "norm",
            OpClass::QkvProj => "qkv_proj",
            OpClass::Rope => "rope",
            OpClass::AttnScores => "attn_scores",
            OpClass::Softmax => "softmax",
            OpClass::AttnContext => "attn_context",
            OpClass::OutProj => "out_proj",
            OpClass::MlpUp => "mlp_up",
            OpClass::MlpGate => "mlp_gate",
            OpClass::ActFn => "act_fn",
            OpClass::MlpDown => "mlp_down",
            OpClass::ResidualAdd => "residual_add",
            OpClass::LmHead => "lm_head",
            OpClass::Loss => "loss",
            OpClass::OptimizerStep => "optimizer_step",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Training phase an operator belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass (activation and weight gradients).
    Backward,
    /// Weight update.
    Update,
}

/// One operator instance of a training step.
///
/// `flops` already includes batch and sequence dimensions; `in_elems` /
/// `out_elems` are activation tensor sizes in elements; `params` counts the
/// weights owned by the operator (zero for elementwise ops).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// Unique name within the step, e.g. `"l3.attn_scores.fwd"`.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Forward / backward / update phase.
    pub phase: Phase,
    /// Decoder layer index, `None` for embedding / head / loss / update.
    pub layer: Option<u64>,
    /// Floating-point operations for the whole step (batch included).
    pub flops: f64,
    /// Weight parameters owned by this operator.
    pub params: u64,
    /// Activation input elements consumed.
    pub in_elems: u64,
    /// Activation output elements produced.
    pub out_elems: u64,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{:.3e} FLOPs]", self.name, self.flops)
    }
}

/// Numeric cost fields of one operator — everything about an op except its
/// identity. Separated from [`Op`] so incremental recompilation can rebuild
/// the costs of an existing graph topology without re-rendering any names.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCost {
    /// Floating-point operations for the whole step (batch included).
    pub flops: f64,
    /// Weight parameters owned by this operator.
    pub params: u64,
    /// Activation input elements consumed.
    pub in_elems: u64,
    /// Activation output elements produced.
    pub out_elems: u64,
}

/// One operator of a training step in *record* form: a static label plus
/// numeric costs, with the display name derivable on demand. This is the
/// allocation-free twin of [`Op`] — generating a step's records performs no
/// per-op `String` formatting, which is what makes interned graph
/// construction and cost-only repatching cheap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Static label, e.g. `"qkv_proj"` or `"residual1"` (no layer prefix or
    /// phase suffix).
    pub label: &'static str,
    /// Operator class.
    pub class: OpClass,
    /// Forward / backward / update phase.
    pub phase: Phase,
    /// Decoder layer index, `None` for embedding / head / loss / update.
    pub layer: Option<u64>,
    /// Numeric costs.
    pub cost: OpCost,
}

impl OpRecord {
    /// Render the operator's unique step name (`"l3.qkv_proj.fwd"`,
    /// `"optimizer.upd"`) into `buf`, clearing it first. Byte-identical to
    /// the names [`training_step_ops`] has always produced.
    pub fn write_name(&self, buf: &mut String) {
        use std::fmt::Write;
        buf.clear();
        let suffix = match self.phase {
            Phase::Forward => "fwd",
            Phase::Backward => "bwd",
            Phase::Update => "upd",
        };
        match self.layer {
            Some(l) => {
                let _ = write!(buf, "l{l}.{}.{suffix}", self.label);
            }
            None => {
                let _ = write!(buf, "{}.{suffix}", self.label);
            }
        }
    }

    /// The operator's unique step name as an owned `String`.
    #[must_use]
    pub fn name(&self) -> String {
        let mut buf = String::new();
        self.write_name(&mut buf);
        buf
    }
}

/// Dimension bundle threaded through the op builders.
#[derive(Debug, Clone, Copy)]
struct Dims {
    b: f64,
    s: f64,
    h: f64,
    heads: f64,
    kv: f64,
    f: f64,
    v: f64,
}

/// Enumerate the forward-pass operators of decoder layer 0 (every layer
/// repeats them).
fn layer_forward_records(cfg: &ModelConfig, d: Dims) -> Vec<OpRecord> {
    let mut ops = Vec::new();
    let bs = d.b * d.s;
    let bsh = bs * d.h;
    let push_named = |ops: &mut Vec<OpRecord>,
                      label: &'static str,
                      class: OpClass,
                      flops: f64,
                      params: u64,
                      in_e: f64,
                      out_e: f64| {
        ops.push(OpRecord {
            label,
            class,
            phase: Phase::Forward,
            layer: Some(0),
            cost: OpCost {
                flops,
                params,
                in_elems: in_e as u64,
                out_elems: out_e as u64,
            },
        });
    };
    macro_rules! push {
        ($class:expr, $flops:expr, $params:expr, $in:expr, $out:expr $(,)?) => {
            push_named(
                &mut ops,
                $class.as_str(),
                $class,
                $flops,
                $params,
                $in,
                $out,
            )
        };
        ($label:literal, $class:expr, $flops:expr, $params:expr, $in:expr, $out:expr $(,)?) => {
            push_named(&mut ops, $label, $class, $flops, $params, $in, $out)
        };
    }

    let norm_flops_per_elem = match cfg.normalization {
        Normalization::LayerNorm => 8.0,
        Normalization::RmsNorm => 4.0,
    };
    let norm_params = match cfg.normalization {
        Normalization::LayerNorm => 2 * cfg.hidden_size,
        Normalization::RmsNorm => cfg.hidden_size,
    };

    // Pre-attention norm.
    push!(
        "norm1",
        OpClass::Norm,
        norm_flops_per_elem * bsh,
        norm_params,
        bsh,
        bsh
    );

    // QKV projection: output width h + 2*kv.
    let qkv_out = d.h + 2.0 * d.kv;
    let qkv_params = (d.h * qkv_out) as u64
        + if cfg.normalization == Normalization::LayerNorm {
            qkv_out as u64
        } else {
            0
        };
    push!(
        OpClass::QkvProj,
        2.0 * bs * d.h * qkv_out,
        qkv_params,
        bsh,
        bs * qkv_out,
    );

    if cfg.positional == PositionalEncoding::Rotary {
        let rot = bs * (d.h + d.kv);
        push!(OpClass::Rope, 6.0 * rot, 0, rot, rot);
    }

    // Attention scores Q·Kᵀ: per head S×S×head_dim → total 2·B·S²·h.
    let scores = d.b * d.heads * d.s * d.s;
    push!(
        OpClass::AttnScores,
        2.0 * d.b * d.s * d.s * d.h,
        0,
        bs * (d.h + d.kv),
        scores,
    );
    push!(OpClass::Softmax, 5.0 * scores, 0, scores, scores);
    push!(
        OpClass::AttnContext,
        2.0 * d.b * d.s * d.s * d.h,
        0,
        scores + bs * d.kv,
        bsh,
    );

    let out_params = (d.h * d.h) as u64
        + if cfg.normalization == Normalization::LayerNorm {
            d.h as u64
        } else {
            0
        };
    push!(OpClass::OutProj, 2.0 * bs * d.h * d.h, out_params, bsh, bsh,);
    push!("residual1", OpClass::ResidualAdd, bsh, 0, 2.0 * bsh, bsh);

    // Pre-MLP norm.
    push!(
        "norm2",
        OpClass::Norm,
        norm_flops_per_elem * bsh,
        norm_params,
        bsh,
        bsh
    );

    let bias = |w: f64| -> u64 {
        if cfg.normalization == Normalization::LayerNorm {
            w as u64
        } else {
            0
        }
    };
    match cfg.activation {
        Activation::Gelu => {
            push!(
                OpClass::MlpUp,
                2.0 * bs * d.h * d.f,
                (d.h * d.f) as u64 + bias(d.f),
                bsh,
                bs * d.f,
            );
            push!(OpClass::ActFn, 8.0 * bs * d.f, 0, bs * d.f, bs * d.f);
        }
        Activation::SwiGlu => {
            push!(
                OpClass::MlpUp,
                2.0 * bs * d.h * d.f,
                (d.h * d.f) as u64,
                bsh,
                bs * d.f,
            );
            push!(
                OpClass::MlpGate,
                2.0 * bs * d.h * d.f,
                (d.h * d.f) as u64,
                bsh,
                bs * d.f,
            );
            // SiLU on the gate plus the elementwise product.
            push!(OpClass::ActFn, 9.0 * bs * d.f, 0, 2.0 * bs * d.f, bs * d.f,);
        }
    }
    push!(
        OpClass::MlpDown,
        2.0 * bs * d.f * d.h,
        (d.f * d.h) as u64 + bias(d.h),
        bs * d.f,
        bsh,
    );
    push!("residual2", OpClass::ResidualAdd, bsh, 0, 2.0 * bsh, bsh);

    ops
}

/// The standard cost model: backward of an op costs twice its forward
/// FLOPs (one GEMM for the input gradient, one for the weight gradient),
/// which yields the paper's overall `6 · P · B · S` training-FLOP estimate.
const BACKWARD_FLOP_FACTOR: f64 = 2.0;

fn backward_of(r: &OpRecord) -> OpRecord {
    OpRecord {
        label: r.label,
        class: r.class,
        phase: Phase::Backward,
        layer: r.layer,
        cost: OpCost {
            flops: r.cost.flops * BACKWARD_FLOP_FACTOR,
            params: r.cost.params,
            // Gradient tensors mirror the forward activations, flowing the
            // opposite way.
            in_elems: r.cost.out_elems,
            out_elems: r.cost.in_elems,
        },
    }
}

/// Enumerate every operator of one full training step (forward, backward,
/// optimizer update) in data-dependency order.
///
/// The returned vector is ordered so that each operator appears after all
/// operators producing its inputs: embedding, layers `0..L` forward, LM head
/// and loss, then the backward mirror in reverse, then the update.
///
/// # Example
///
/// ```
/// use dabench_model::{ModelConfig, ops};
///
/// let step = ops::training_step_ops(&ModelConfig::gpt2_probe(768, 2), 4, 1024);
/// assert!(step.iter().any(|o| o.name == "l1.attn_scores.fwd"));
/// assert!(step.iter().any(|o| o.name == "l0.mlp_down.bwd"));
/// ```
#[must_use]
pub fn training_step_ops(cfg: &ModelConfig, batch: u64, seq: u64) -> Vec<Op> {
    step_records(cfg, batch, seq)
        .iter()
        .map(|r| Op {
            name: r.name(),
            class: r.class,
            phase: r.phase,
            layer: r.layer,
            flops: r.cost.flops,
            params: r.cost.params,
            in_elems: r.cost.in_elems,
            out_elems: r.cost.out_elems,
        })
        .collect()
}

/// Enumerate every operator of one training step in *record* form — the
/// same operators, order and costs as [`training_step_ops`] but without
/// rendering any names (no per-op allocations): the expansion of
/// [`step_template`].
#[must_use]
pub fn step_records(cfg: &ModelConfig, batch: u64, seq: u64) -> Vec<OpRecord> {
    step_template(cfg, batch, seq).expand()
}

/// Operators of a training step outside every decoder layer: embedding,
/// final norm, LM head and loss, each forward and backward, plus the
/// optimizer update.
pub const FIXED_OPS: usize = 9;

/// One training step held as its template: the [`FIXED_OPS`] fixed
/// operators and the operators of decoder layer 0, plus the layer count.
///
/// Every decoder layer repeats layer 0's operators with layer 0's costs;
/// only the layer index differs. So the template determines the whole
/// step: [`StepTemplate::expand`] writes it out, and [`step_runs`]
/// walks it in step order without writing it out.
///
/// # Example
///
/// ```
/// use dabench_model::{ModelConfig, ops};
///
/// let t = ops::step_template(&ModelConfig::llama2_probe(1024, 32), 4, 512);
/// // 9 fixed operators plus 14 per layer and phase: 37, at any depth.
/// assert_eq!(t.records().len(), 37);
/// assert_eq!(t.expand().len(), 9 + 2 * 14 * 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepTemplate {
    records: Vec<OpRecord>,
    layers: u64,
}

impl StepTemplate {
    /// The fixed operators and those of decoder layer 0, in step order:
    /// `embedding.fwd`; layer 0 forward; `final_norm`, `lm_head` and
    /// `loss` forward, then their backward in reverse; layer 0 backward;
    /// `embedding.bwd`; `optimizer.upd`.
    #[must_use]
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Decoder layers in the step.
    #[must_use]
    pub fn layers(&self) -> u64 {
        self.layers
    }

    /// Operators of one decoder layer in one phase (forward or backward).
    #[must_use]
    pub fn layer_ops(&self) -> usize {
        (self.records.len() - FIXED_OPS) / 2
    }

    /// Every operator of the step, in step order: layer 0's records
    /// repeated for each layer with its index.
    #[must_use]
    pub fn expand(&self) -> Vec<OpRecord> {
        let mut ops = Vec::with_capacity(FIXED_OPS + 2 * self.layer_ops() * self.layers as usize);
        for (run, layer) in step_runs(self.layer_ops(), self.layers) {
            ops.extend(self.records[run].iter().map(|r| OpRecord { layer, ..*r }));
        }
        ops
    }
}

/// Every operator of a training step in step order, as runs of
/// consecutive records of a [`StepTemplate`] with `layer_ops` operators
/// per layer and phase: each run's record range, and the decoder layer
/// its operators belong to. This order is the one definition of where
/// each layer's operators sit in the step.
pub fn step_runs(
    layer_ops: usize,
    layers: u64,
) -> impl Iterator<Item = (Range<usize>, Option<u64>)> {
    let k = layer_ops;
    let forward = (0..layers).map(move |l| (1..k + 1, Some(l)));
    let backward = (0..layers).rev().map(move |l| (k + 7..2 * k + 7, Some(l)));
    iter::once((0..1, None))
        .chain(forward)
        .chain(iter::once((k + 1..k + 7, None)))
        .chain(backward)
        .chain(iter::once((2 * k + 7..2 * k + 9, None)))
}

/// The [`StepTemplate`] of one training step: the fixed operators and
/// decoder layer 0, in step order. Graph construction interns names
/// straight from these records; incremental recompilation re-derives
/// only their [`OpCost`]s.
#[must_use]
pub fn step_template(cfg: &ModelConfig, batch: u64, seq: u64) -> StepTemplate {
    let d = Dims {
        b: batch as f64,
        s: seq as f64,
        h: cfg.hidden_size as f64,
        heads: cfg.num_heads as f64,
        kv: cfg.kv_dim() as f64,
        f: cfg.ffn_hidden as f64,
        v: cfg.vocab_size as f64,
    };
    let bs = d.b * d.s;
    let bsh = bs * d.h;

    let mut forward = Vec::new();

    // Embedding: gather + positional add. No FLOPs to speak of; charge the
    // positional addition when learned.
    let pos_flops = if cfg.positional == PositionalEncoding::Learned {
        bsh
    } else {
        0.0
    };
    forward.push(OpRecord {
        label: "embedding",
        class: OpClass::Embedding,
        phase: Phase::Forward,
        layer: None,
        cost: OpCost {
            flops: pos_flops,
            params: cfg.embedding_parameter_count(),
            in_elems: bs as u64,
            out_elems: bsh as u64,
        },
    });

    if cfg.num_layers > 0 {
        forward.extend(layer_forward_records(cfg, d));
    }

    // Final norm.
    let (fnf, fnp) = match cfg.normalization {
        Normalization::LayerNorm => (8.0 * bsh, 2 * cfg.hidden_size),
        Normalization::RmsNorm => (4.0 * bsh, cfg.hidden_size),
    };
    forward.push(OpRecord {
        label: "final_norm",
        class: OpClass::Norm,
        phase: Phase::Forward,
        layer: None,
        cost: OpCost {
            flops: fnf,
            params: fnp,
            in_elems: bsh as u64,
            out_elems: bsh as u64,
        },
    });

    // LM head. Tied embeddings share parameters; the GEMM cost is identical.
    forward.push(OpRecord {
        label: "lm_head",
        class: OpClass::LmHead,
        phase: Phase::Forward,
        layer: None,
        cost: OpCost {
            flops: 2.0 * bs * d.h * d.v,
            params: cfg.lm_head_parameter_count(),
            in_elems: bsh as u64,
            out_elems: (bs * d.v) as u64,
        },
    });

    forward.push(OpRecord {
        label: "loss",
        class: OpClass::Loss,
        phase: Phase::Forward,
        layer: None,
        cost: OpCost {
            flops: 5.0 * bs * d.v,
            params: 0,
            in_elems: (bs * d.v) as u64,
            out_elems: bs as u64,
        },
    });

    let mut ops = forward.clone();
    ops.extend(forward.iter().rev().map(backward_of));

    let total_params = cfg.parameter_count();
    ops.push(OpRecord {
        label: "optimizer",
        class: OpClass::OptimizerStep,
        phase: Phase::Update,
        layer: None,
        cost: OpCost {
            // Adam: ~10 FLOPs per parameter.
            flops: 10.0 * total_params as f64,
            params: 0,
            in_elems: total_params,
            out_elems: total_params,
        },
    });

    StepTemplate {
        records: ops,
        layers: cfg.num_layers,
    }
}

/// Sum of FLOPs over `ops` restricted to a phase.
#[must_use]
pub fn phase_flops(ops: &[Op], phase: Phase) -> f64 {
    ops.iter()
        .filter(|o| o.phase == phase)
        .map(|o| o.flops)
        .sum()
}

/// Total FLOPs of a training step.
#[must_use]
pub fn total_flops(ops: &[Op]) -> f64 {
    ops.iter().map(|o| o.flops).sum()
}

/// Sum of stored forward activations in elements — what must be kept live
/// for the backward pass.
#[must_use]
pub fn stored_activation_elems(ops: &[Op]) -> u64 {
    ops.iter()
        .filter(|o| o.phase == Phase::Forward)
        .map(|o| o.out_elems)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    fn step() -> Vec<Op> {
        training_step_ops(&ModelConfig::gpt2_probe(768, 4), 8, 1024)
    }

    #[test]
    fn backward_is_twice_forward() {
        let ops = step();
        let fwd = phase_flops(&ops, Phase::Forward);
        let bwd = phase_flops(&ops, Phase::Backward);
        assert!((bwd / fwd - BACKWARD_FLOP_FACTOR).abs() < 1e-9);
    }

    #[test]
    fn matches_six_p_b_s_convention() {
        // For long-enough sequences relative to hidden size the attention
        // quadratic term matters, so compare against 6*P*B*S with slack.
        let cfg = ModelConfig::gpt2_probe(768, 24);
        let ops = training_step_ops(&cfg, 4, 1024);
        let exact = total_flops(&ops);
        let approx = 6.0 * cfg.parameter_count() as f64 * (4 * 1024) as f64;
        let ratio = exact / approx;
        assert!((0.7..1.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn op_count_scales_with_layers() {
        let a = training_step_ops(&ModelConfig::gpt2_probe(768, 2), 1, 128).len();
        let b = training_step_ops(&ModelConfig::gpt2_probe(768, 4), 1, 128).len();
        assert!(b > a);
        // Each extra GPT-2 layer adds 12 forward ops and 12 backward ops.
        assert_eq!(b - a, 2 * 2 * 12);
    }

    #[test]
    fn swiglu_has_gate_ops() {
        let ops = training_step_ops(&ModelConfig::llama2_probe(4096, 2), 1, 512);
        assert!(ops.iter().any(|o| o.class == OpClass::MlpGate));
        assert!(ops.iter().any(|o| o.class == OpClass::Rope));
    }

    #[test]
    fn gpt2_has_no_rope_or_gate() {
        let ops = step();
        assert!(!ops.iter().any(|o| o.class == OpClass::MlpGate));
        assert!(!ops.iter().any(|o| o.class == OpClass::Rope));
    }

    #[test]
    fn per_layer_params_sum_to_model_params() {
        let cfg = ModelConfig::gpt2_probe(768, 6);
        let ops = training_step_ops(&cfg, 1, 64);
        let fwd_params: u64 = ops
            .iter()
            .filter(|o| o.phase == Phase::Forward)
            .map(|o| o.params)
            .sum();
        assert_eq!(fwd_params, cfg.parameter_count());
    }

    #[test]
    fn backward_mirrors_tensor_shapes() {
        let ops = step();
        let fwd = ops.iter().find(|o| o.name == "l0.mlp_up.fwd").unwrap();
        let bwd = ops.iter().find(|o| o.name == "l0.mlp_up.bwd").unwrap();
        assert_eq!(fwd.out_elems, bwd.in_elems);
        assert_eq!(fwd.in_elems, bwd.out_elems);
    }

    #[test]
    fn forward_flops_dominated_by_matmuls() {
        let ops = step();
        let total: f64 = phase_flops(&ops, Phase::Forward);
        let matmul: f64 = ops
            .iter()
            .filter(|o| o.phase == Phase::Forward && o.class.is_matmul())
            .map(|o| o.flops)
            .sum();
        assert!(matmul / total > 0.9);
    }

    #[test]
    fn stored_activations_scale_with_batch() {
        let cfg = ModelConfig::gpt2_probe(768, 2);
        let a = stored_activation_elems(&training_step_ops(&cfg, 1, 256));
        let b = stored_activation_elems(&training_step_ops(&cfg, 2, 256));
        assert_eq!(b, 2 * a);
    }

    #[test]
    fn names_are_unique() {
        let ops = step();
        let mut names: Vec<_> = ops.iter().map(|o| o.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ops.len());
    }

    #[test]
    fn records_align_with_ops() {
        // step_records is the single source behind training_step_ops; the
        // two views must agree index-for-index.
        for cfg in [
            ModelConfig::gpt2_probe(768, 3),
            ModelConfig::llama2_probe(1024, 2),
        ] {
            let ops = training_step_ops(&cfg, 4, 256);
            let records = step_records(&cfg, 4, 256);
            assert_eq!(ops.len(), records.len());
            let mut buf = String::new();
            for (op, r) in ops.iter().zip(&records) {
                r.write_name(&mut buf);
                assert_eq!(op.name, buf);
                assert_eq!(op.class, r.class);
                assert_eq!(op.phase, r.phase);
                assert_eq!(op.layer, r.layer);
                assert_eq!(op.flops.to_bits(), r.cost.flops.to_bits(), "{}", op.name);
                assert_eq!(op.params, r.cost.params);
                assert_eq!(op.in_elems, r.cost.in_elems);
                assert_eq!(op.out_elems, r.cost.out_elems);
            }
        }
    }

    #[test]
    fn template_is_the_fixed_ops_and_layer_0_of_the_step() {
        for (cfg, layer_ops) in [
            (ModelConfig::gpt2_probe(768, 5), 12),
            (ModelConfig::llama2_probe(1024, 3), 14),
            (ModelConfig::gpt2_probe(512, 1), 12),
        ] {
            let t = step_template(&cfg, 2, 128);
            assert_eq!(t.layers, cfg.num_layers);
            assert_eq!(t.layer_ops(), layer_ops, "{}", cfg.name);
            assert_eq!(t.records.len(), FIXED_OPS + 2 * layer_ops);
            let step = t.expand();
            assert_eq!(
                step.len(),
                FIXED_OPS + 2 * layer_ops * cfg.num_layers as usize
            );
            let fixed_and_layer0: Vec<OpRecord> = step
                .iter()
                .filter(|r| matches!(r.layer, None | Some(0)))
                .copied()
                .collect();
            assert_eq!(fixed_and_layer0, t.records, "{}", cfg.name);
            // Every layer repeats layer 0, in the catalogue's order.
            let mut seen = vec![0usize; t.records.len()];
            for (run, _) in step_runs(t.layer_ops(), t.layers) {
                run.for_each(|i| seen[i] += 1);
            }
            for (r, n) in t.records.iter().zip(&seen) {
                let copies = if r.layer.is_some() { cfg.num_layers } else { 1 };
                assert_eq!(*n as u64, copies, "{}", r.name());
            }
        }
    }

    #[test]
    fn attention_classification() {
        assert!(OpClass::Softmax.is_attention());
        assert!(!OpClass::MlpUp.is_attention());
        assert!(OpClass::LmHead.is_matmul());
        assert!(!OpClass::Loss.is_matmul());
    }
}

//! Kernel extraction: layer-granular grouping of the training graph.
//!
//! Per Sec. III-A of the paper, the Cerebras compiler maps the model at
//! layer granularity: every decoder layer becomes kernels on the chip (we
//! model one attention kernel and one FFN kernel per layer, matching the
//! paper's references to per-layer "attention kernels"), plus dedicated
//! kernels for the embedding, the LM head (with final norm) and the loss.
//! Forward and backward of the same layer share the kernel's PE region;
//! optimizer work is distributed onto the kernels that own the weights.

use dabench_core::compile::training_graph;
use dabench_graph::NodeRef;
use dabench_model::ops::{OpClass, Phase};
use dabench_model::TrainingWorkload;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What part of the model a kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// Token + positional embedding.
    Embedding,
    /// Attention sub-block of one decoder layer (incl. its norm and
    /// residual).
    Attention {
        /// Decoder layer index.
        layer: u64,
    },
    /// MLP sub-block of one decoder layer (incl. its norm and residual).
    Ffn {
        /// Decoder layer index.
        layer: u64,
    },
    /// Final norm + LM head projection.
    LmHead,
    /// Softmax/cross-entropy loss.
    Loss,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelKind::Embedding => write!(f, "embedding"),
            KernelKind::Attention { layer } => write!(f, "l{layer}.attention"),
            KernelKind::Ffn { layer } => write!(f, "l{layer}.ffn"),
            KernelKind::LmHead => write!(f, "lm_head"),
            KernelKind::Loss => write!(f, "loss"),
        }
    }
}

/// A kernel: a chip-resident group of operators with aggregate costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel identity.
    pub kind: KernelKind,
    /// Total FLOPs per training step (fwd + bwd + its share of the
    /// optimizer).
    pub flops: f64,
    /// FLOPs per token, used for elastic PE sizing.
    pub flops_per_token: f64,
    /// Weight parameters resident in the kernel's PE region.
    pub params: u64,
    /// Forward activation elements the kernel must keep for backward.
    pub stored_act_elems: u64,
}

impl Kernel {
    /// Kernel display name.
    #[must_use]
    pub fn name(&self) -> String {
        self.kind.to_string()
    }
}

fn kind_of(op: NodeRef<'_>) -> Option<KernelKind> {
    match op.class() {
        OpClass::Embedding => Some(KernelKind::Embedding),
        OpClass::LmHead => Some(KernelKind::LmHead),
        OpClass::Loss => Some(KernelKind::Loss),
        OpClass::OptimizerStep => None,
        OpClass::Norm if op.layer().is_none() => Some(KernelKind::LmHead), // final norm
        _ => {
            let layer = op.layer()?;
            // norm1 + attention + residual1 → attention kernel;
            // norm2 + MLP + residual2 → FFN kernel. Name checks resolve
            // through the graph's interner — no allocation.
            if op.class().is_attention()
                || op.name().contains(".norm1.")
                || op.name().contains(".residual1.")
            {
                Some(KernelKind::Attention { layer })
            } else {
                Some(KernelKind::Ffn { layer })
            }
        }
    }
}

/// Extract the kernel list of a workload, in pipeline order.
///
/// Only the graph's template nodes are walked (the fixed operators plus
/// decoder layer 0); every decoder layer repeats layer 0, so its two
/// kernels are copies of layer 0's, and the cost is the same at any depth.
///
/// # Example
///
/// ```
/// use dabench_model::{ModelConfig, Precision, TrainingWorkload};
/// use dabench_wse::kernels_of;
///
/// let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 3), 4, 256, Precision::Fp16);
/// let ks = kernels_of(&w);
/// // embedding + 3 × (attention + ffn) + lm_head + loss
/// assert_eq!(ks.len(), 1 + 3 * 2 + 1 + 1);
/// ```
#[must_use]
pub fn kernels_of(workload: &TrainingWorkload) -> Vec<Kernel> {
    let graph = training_graph(workload);
    let tokens = workload.tokens_per_step() as f64;
    let layers = workload.model().num_layers;

    let mut template = [
        KernelKind::Embedding,
        KernelKind::Attention { layer: 0 },
        KernelKind::Ffn { layer: 0 },
        KernelKind::LmHead,
        KernelKind::Loss,
    ]
    .map(|kind| Kernel {
        kind,
        flops: 0.0,
        flops_per_token: 0.0,
        params: 0,
        stored_act_elems: 0,
    });
    let slot = |kind| match kind {
        KernelKind::Embedding => 0,
        KernelKind::Attention { .. } => 1,
        KernelKind::Ffn { .. } => 2,
        KernelKind::LmHead => 3,
        KernelKind::Loss => 4,
    };

    // Graph node order equals the op-catalogue order, and every layer's
    // ops and costs equal layer 0's, so each per-kernel float sum below is
    // bitwise identical to accumulating that kernel over the whole step.
    let mut optimizer_flops = 0.0;
    for op in graph.template_nodes() {
        match kind_of(op) {
            Some(kind) => {
                let k = &mut template[slot(kind)];
                k.flops += op.flops();
                if op.phase() == Phase::Forward {
                    k.params += op.params();
                    k.stored_act_elems += op.out_elems();
                }
            }
            None => optimizer_flops += op.flops(),
        }
    }

    // Distribute optimizer FLOPs onto weight-owning kernels, in proportion
    // to their parameters (the update runs in place on the owning PEs).
    let [embedding, attention, ffn, lm_head, loss] = &template;
    let total_params =
        embedding.params + layers * (attention.params + ffn.params) + lm_head.params + loss.params;
    for k in &mut template {
        if total_params > 0 {
            k.flops += optimizer_flops * k.params as f64 / total_params as f64;
        }
        k.flops_per_token = k.flops / tokens;
    }

    let [embedding, attention, ffn, lm_head, loss] = template;
    let mut kernels = Vec::with_capacity(2 * layers as usize + 3);
    kernels.push(embedding);
    for layer in 0..layers {
        kernels.push(Kernel {
            kind: KernelKind::Attention { layer },
            ..attention
        });
        kernels.push(Kernel {
            kind: KernelKind::Ffn { layer },
            ..ffn
        });
    }
    kernels.extend([lm_head, loss]);
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_graph::GraphBuilder;
    use dabench_model::{ModelConfig, Precision};

    fn w(layers: u64) -> TrainingWorkload {
        TrainingWorkload::new(
            ModelConfig::gpt2_probe(768, layers),
            8,
            1024,
            Precision::Fp16,
        )
    }

    #[test]
    fn kernel_count_is_2l_plus_3() {
        assert_eq!(kernels_of(&w(12)).len(), 27);
    }

    #[test]
    fn kernels_cover_all_flops() {
        let work = w(6);
        let total: f64 = kernels_of(&work).iter().map(|k| k.flops).sum();
        let expect = work.training_flops_per_step();
        assert!((total - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn kernels_cover_all_params() {
        let work = w(6);
        let total: u64 = kernels_of(&work).iter().map(|k| k.params).sum();
        assert_eq!(total, work.model().parameter_count());
    }

    #[test]
    fn lm_head_outweighs_a_layer_at_hs768() {
        let ks = kernels_of(&w(12));
        let head = ks.iter().find(|k| k.kind == KernelKind::LmHead).unwrap();
        let attn = ks
            .iter()
            .find(|k| k.kind == (KernelKind::Attention { layer: 0 }))
            .unwrap();
        let ffn = ks
            .iter()
            .find(|k| k.kind == (KernelKind::Ffn { layer: 0 }))
            .unwrap();
        assert!(head.flops > attn.flops + ffn.flops);
    }

    #[test]
    fn layer_kernels_are_identical_across_layers() {
        let ks = kernels_of(&w(4));
        let a0 = ks
            .iter()
            .find(|k| k.kind == (KernelKind::Attention { layer: 0 }))
            .unwrap();
        let a3 = ks
            .iter()
            .find(|k| k.kind == (KernelKind::Attention { layer: 3 }))
            .unwrap();
        assert!((a0.flops - a3.flops).abs() < 1e-6);
        assert_eq!(a0.params, a3.params);
    }

    /// Reference `kernels_of`: a linear `find` of each op's kernel, over
    /// every node of the full-depth graph.
    fn kernels_by_find(workload: &TrainingWorkload) -> Vec<Kernel> {
        let graph = GraphBuilder::for_workload(workload);
        let mut kernels = vec![KernelKind::Embedding];
        for l in 0..workload.model().num_layers {
            kernels.push(KernelKind::Attention { layer: l });
            kernels.push(KernelKind::Ffn { layer: l });
        }
        kernels.extend([KernelKind::LmHead, KernelKind::Loss]);
        let mut kernels: Vec<Kernel> = kernels
            .into_iter()
            .map(|kind| Kernel {
                kind,
                flops: 0.0,
                flops_per_token: 0.0,
                params: 0,
                stored_act_elems: 0,
            })
            .collect();
        let mut optimizer_flops = 0.0;
        for (_, op) in graph.iter() {
            match kind_of(op) {
                Some(kind) => {
                    let k = kernels.iter_mut().find(|k| k.kind == kind).unwrap();
                    k.flops += op.flops();
                    if op.phase() == Phase::Forward {
                        k.params += op.params();
                        k.stored_act_elems += op.out_elems();
                    }
                }
                None => optimizer_flops += op.flops(),
            }
        }
        let total_params: u64 = kernels.iter().map(|k| k.params).sum();
        if total_params > 0 {
            for k in &mut kernels {
                k.flops += optimizer_flops * k.params as f64 / total_params as f64;
            }
        }
        for k in &mut kernels {
            k.flops_per_token = k.flops / workload.tokens_per_step() as f64;
        }
        kernels
    }

    /// The reference walks every node of the step; `kernels_of` walks the
    /// template and copies layer 0, so this also pins the per-layer
    /// identity it relies on, up to the `gen` cosmic tier's LLaMA h8192
    /// with 8 KV heads.
    #[test]
    fn direct_slots_match_the_linear_find_reference_bit_for_bit() {
        let small = (1..=96).map(|layers| {
            let model = if layers % 2 == 0 {
                ModelConfig::gpt2_probe(512, layers)
            } else {
                ModelConfig::llama2_probe(1024, layers)
            };
            TrainingWorkload::new(model, 4, 512, Precision::Bf16)
        });
        let cosmic = [
            (64, 32, 2048),
            (75, 64, 4096),
            (87, 128, 2048),
            (96, 128, 4096),
        ]
        .map(|(layers, batch, seq)| {
            let model = ModelConfig {
                num_kv_heads: 8,
                ..ModelConfig::llama2_probe(8192, layers)
            };
            TrainingWorkload::new(model, batch, seq, Precision::Fp16)
        });
        for work in small.chain(cosmic) {
            let layers = work.model().num_layers;
            let (got, want) = (kernels_of(&work), kernels_by_find(&work));
            assert_eq!(got.len(), want.len(), "L={layers}");
            for (g, r) in got.iter().zip(&want) {
                assert_eq!(g.kind, r.kind, "L={layers}");
                assert_eq!(
                    g.flops.to_bits(),
                    r.flops.to_bits(),
                    "L={layers} {}",
                    g.kind
                );
                assert_eq!(
                    g.flops_per_token.to_bits(),
                    r.flops_per_token.to_bits(),
                    "L={layers} {}",
                    g.kind
                );
                assert_eq!(g.params, r.params, "L={layers} {}", g.kind);
                assert_eq!(
                    g.stored_act_elems, r.stored_act_elems,
                    "L={layers} {}",
                    g.kind
                );
            }
        }
    }

    #[test]
    fn flops_per_token_consistent() {
        let work = w(2);
        for k in kernels_of(&work) {
            let expect = k.flops / work.tokens_per_step() as f64;
            assert!((k.flops_per_token - expect).abs() < 1e-9);
        }
    }
}

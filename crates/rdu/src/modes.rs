//! Section partitioners for the three SambaFlow compilation modes
//! (Sec. III-B and Fig. 4 of the paper).

use crate::chip::{RduCompilerParams, RduSpec};
use crate::section::{assign_units, Section};
use crate::sharding::shard_lm_head;
use dabench_core::compile::training_graph;
use dabench_graph::{NodeRef, TemplateGraph};
use dabench_model::ops::{OpClass, Phase};
use dabench_model::TrainingWorkload;
use serde::{Deserialize, Serialize};
use std::fmt;

/// SambaFlow graph compilation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompilationMode {
    /// Operator mode: every operator class is its own section, invoked
    /// once per decoder layer.
    O0,
    /// Module mode: operators fused into modules before sectioning; the
    /// LM head is matrix-sharded above the capacity threshold.
    O1,
    /// Full-graph mode: decoder-by-decoder sections whose boundaries move
    /// with the hidden size (Table II(a)).
    O3,
}

impl CompilationMode {
    /// Lowercase mode label, e.g. `"o3"`.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            CompilationMode::O0 => "o0",
            CompilationMode::O1 => "o1",
            CompilationMode::O3 => "o3",
        }
    }
}

impl fmt::Display for CompilationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Partition a workload's training step into sections under `mode`.
///
/// # Example
///
/// ```
/// use dabench_model::{ModelConfig, Precision, TrainingWorkload};
/// use dabench_rdu::{partition, CompilationMode, RduCompilerParams, RduSpec};
///
/// let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Bf16);
/// let o0 = partition(&w, &RduSpec::sn30(), &RduCompilerParams::default(), CompilationMode::O0);
/// let o1 = partition(&w, &RduSpec::sn30(), &RduCompilerParams::default(), CompilationMode::O1);
/// // Fusion means fewer sections.
/// assert!(o1.len() < o0.len());
/// ```
#[must_use]
pub fn partition(
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
    mode: CompilationMode,
) -> Vec<Section> {
    use dabench_core::obs;
    obs::span(
        obs::Phase::Partition,
        &format!("rdu.partition.{mode}"),
        || {
            let sections = match mode {
                CompilationMode::O0 => partition_o0(workload, spec, params),
                CompilationMode::O1 => partition_o1(workload, spec, params),
                CompilationMode::O3 => partition_o3(workload, spec, params),
            };
            let copies: u64 = sections.iter().map(|s| s.copies).sum();
            obs::counter("rdu.sections", copies as f64);
            sections
        },
    )
}

fn elem_bytes(w: &TrainingWorkload) -> u64 {
    w.precision().bytes_per_element()
}

/// The ops of decoder layer 0, the per-layer template (all layers are
/// identical). Node order equals the op-catalogue order, so downstream
/// float accumulations stay bitwise identical to the legacy `step_ops()`
/// walks.
fn layer_template(g: &TemplateGraph) -> Vec<NodeRef<'_>> {
    g.template_nodes()
        .filter(|o| o.layer() == Some(0))
        .collect()
}

fn non_layer_ops(g: &TemplateGraph) -> Vec<NodeRef<'_>> {
    g.template_nodes().filter(|o| o.layer().is_none()).collect()
}

/// Whether an op's tensors are quadratic attention internals that fused
/// (O1/O3) sections keep tiled on chip and recompute for backward —
/// spilling B·heads·S² score matrices to DDR only happens in O0, where
/// every operator is its own section.
fn is_attention_internal(class: OpClass) -> bool {
    matches!(class, OpClass::AttnScores | OpClass::Softmax)
}

/// Forward-input activation bytes a backward op must re-read from DDR (the
/// stashed forward activations). With `tiled` set (O1/O3), attention
/// internals are recomputed on chip instead of re-read.
///
/// The graph's pre-linked forward twin replaces the legacy
/// `name.replace(".bwd", ".fwd")` linear scan with an O(1) lookup.
fn bwd_act_read_bytes(op: NodeRef<'_>, g: &TemplateGraph, eb: u64, tiled: bool) -> u64 {
    if op.phase() != Phase::Backward {
        return 0;
    }
    if tiled && matches!(op.class(), OpClass::Softmax | OpClass::AttnContext) {
        return 0;
    }
    g.forward_twin(op.id())
        .map_or(0, |f| g.op(f).in_elems() * eb)
}

/// A single-operator section (O0 style).
fn op_section(
    op: NodeRef<'_>,
    invocations: u64,
    g: &TemplateGraph,
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
) -> Section {
    let eb = elem_bytes(workload);
    // A tied LM head owns no parameters, but still reads the shared
    // embedding matrix from DDR on every pass.
    let weight = if op.class() == OpClass::LmHead && op.params() == 0 {
        workload.model().vocab_size * workload.model().hidden_size * eb
    } else {
        op.params() * eb
    };
    let input = op.in_elems() * eb + bwd_act_read_bytes(op, g, eb, false);
    let output = op.out_elems() * eb;
    assign_units(
        &format!("op.{}", op.name()),
        &[(op.name(), op.flops())],
        invocations,
        weight,
        input,
        output,
        spec,
        params,
    )
}

fn optimizer_section(
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
    g: &TemplateGraph,
) -> Section {
    let opt = g
        .find("optimizer.upd")
        .map(|id| g.op(id))
        .expect("training step has an optimizer op");
    let p = workload.model().parameter_count();
    let eb = elem_bytes(workload);
    // Read weights+grads+two FP32 moments, write weights+moments.
    let traffic = p * (2 * eb + 16) + p * (eb + 16);
    assign_units(
        "optimizer",
        &[(opt.name(), opt.flops())],
        1,
        0,
        traffic / 2,
        traffic / 2,
        spec,
        params,
    )
}

// ---------------------------------------------------------------- O0 ----

fn partition_o0(
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
) -> Vec<Section> {
    let graph = training_graph(workload);
    let layers = workload.model().num_layers;
    let mut sections = Vec::new();
    for op in non_layer_ops(&graph) {
        if op.class() == OpClass::OptimizerStep {
            continue;
        }
        sections.push(op_section(op, 1, &graph, workload, spec, params));
    }
    for op in layer_template(&graph) {
        let mut sec = op_section(op, layers, &graph, workload, spec, params);
        // O0 sections alternate per operator through each layer's program,
        // so every invocation pays a fresh fabric load.
        sec.reload_per_invocation = true;
        sections.push(sec);
    }
    sections.push(optimizer_section(workload, spec, params, &graph));
    sections
}

// ---------------------------------------------------------------- O1 ----

/// Fusion module labels: ops of one decoder layer grouped as SambaFlow's
/// fusion pass does (attention input / core / output, MLP input / output).
const O1_MODULES: &[(&str, &[&str])] = &[
    ("attn_in", &["norm1", "qkv_proj", "rope"]),
    ("attn_core", &["attn_scores", "softmax", "attn_context"]),
    ("attn_out", &["out_proj", "residual1"]),
    ("mlp_in", &["norm2", "mlp_up", "mlp_gate", "act_fn"]),
    ("mlp_out", &["mlp_down", "residual2"]),
];

fn module_section(
    label: &str,
    members: &[NodeRef<'_>],
    invocations: u64,
    g: &TemplateGraph,
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
) -> Section {
    let eb = elem_bytes(workload);
    let weight: u64 = members.iter().map(|o| o.params() * eb).sum();
    let acts: u64 = members
        .iter()
        .map(|o| bwd_act_read_bytes(*o, g, eb, true))
        .sum();
    // Boundary tensors: the module's first input and last output cross the
    // section boundary; interior tensors stay in PMUs.
    let input = members.first().map_or(0, |o| o.in_elems() * eb) + acts;
    let output = members.last().map_or(0, |o| o.out_elems() * eb);
    let ops: Vec<(&str, f64)> = members.iter().map(|o| (o.name(), o.flops())).collect();
    assign_units(
        label,
        &ops,
        invocations,
        weight,
        input,
        output,
        spec,
        params,
    )
}

fn partition_o1(
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
) -> Vec<Section> {
    let graph = training_graph(workload);
    let layers = workload.model().num_layers;
    let eb = elem_bytes(workload);
    let mut sections = Vec::new();

    for phase in [Phase::Forward, Phase::Backward] {
        let suffix = if phase == Phase::Forward {
            "fwd"
        } else {
            "bwd"
        };
        for (label, op_labels) in O1_MODULES {
            // Members resolve by exact interned name — an O(1) index probe
            // per label instead of the legacy template scan.
            let members: Vec<NodeRef<'_>> = op_labels
                .iter()
                .filter_map(|l| graph.find(&format!("l0.{l}.{suffix}")))
                .map(|id| graph.op(id))
                .collect();
            if members.is_empty() {
                continue;
            }
            sections.push(module_section(
                &format!("o1.{label}.{suffix}"),
                &members,
                layers,
                &graph,
                workload,
                spec,
                params,
            ));
        }
    }

    // Embedding and loss as their own modules.
    for op in non_layer_ops(&graph) {
        match op.class() {
            OpClass::Embedding | OpClass::Loss | OpClass::Norm => {
                sections.push(op_section(op, 1, &graph, workload, spec, params));
            }
            _ => {}
        }
    }

    // LM head: sharded above the capacity threshold (Table II(b)).
    let model = workload.model();
    let plan = shard_lm_head(model.hidden_size, model.vocab_size, eb, params);
    for phase in [Phase::Forward, Phase::Backward] {
        let suffix = if phase == Phase::Forward {
            "fwd"
        } else {
            "bwd"
        };
        let head = graph
            .find(if phase == Phase::Forward {
                "lm_head.fwd"
            } else {
                "lm_head.bwd"
            })
            .map(|id| graph.op(id))
            .expect("lm head present");
        let per_section_flops = head.flops() / plan.sections as f64;
        let head_bytes = model.hidden_size * model.vocab_size * eb;
        for s in 0..plan.sections {
            let mut sec = assign_units(
                &format!("o1.lm_head.{suffix}.shard{s}"),
                &[(head.name(), head.flops())],
                1,
                head_bytes / plan.sections,
                head.in_elems() * eb / plan.sections,
                head.out_elems() * eb / plan.sections,
                spec,
                params,
            );
            // Shard sections use the correlated allocation of Table II(b),
            // not the generic template; a degraded fabric still caps it.
            sec.pcus = plan.pcus_per_section.min(spec.pcu_count());
            sec.pmus = plan.pmus_per_section.min(spec.pmu_count());
            sec.flops_per_invocation = per_section_flops;
            for op_assign in &mut sec.ops {
                op_assign.flops = per_section_flops;
                op_assign.pcus = sec.pcus;
            }
            sections.push(sec);
        }
    }

    sections.push(optimizer_section(workload, spec, params, &graph));
    sections
}

// ---------------------------------------------------------------- O3 ----

/// Quantize a continuous sections-per-decoder ratio to the grid SambaFlow
/// exposes (Table II(a)).
fn quantize_ratio(value: f64, grid: &[f64]) -> f64 {
    *grid
        .iter()
        .min_by(|a, b| {
            (*a - value)
                .abs()
                .partial_cmp(&(*b - value).abs())
                .expect("finite grid")
        })
        .expect("non-empty grid")
}

/// Forward and backward sections-per-decoder ratios for a model (the
/// "Ratio" columns of Table II(a)).
#[must_use]
pub fn o3_ratios(workload: &TrainingWorkload, params: &RduCompilerParams) -> (f64, f64) {
    let eb = elem_bytes(workload);
    let ws = workload.model().layer_parameter_count() as f64 * eb as f64;
    let fwd = quantize_ratio(
        (ws / params.o3_section_capacity_bytes).clamp(2.0 / 3.0, 3.0),
        &[2.0 / 3.0, 0.75, 1.0, 2.0, 3.0],
    );
    let bwd = quantize_ratio(
        (2.0 * ws / params.o3_section_capacity_bytes).clamp(11.0 / 6.0, 3.0),
        &[11.0 / 6.0, 2.0, 3.0],
    );
    (fwd, bwd)
}

/// The decoder sections of one phase: `ceil(L × ratio)` copies of one
/// section, built once and returned as a single run.
fn o3_decoder_run(
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
    g: &TemplateGraph,
    phase: Phase,
    ratio: f64,
) -> Section {
    // O3's automatic partitioner places operators at a coarser PCU grain
    // than O1's fusion templates.
    let mut params = params.clone();
    params.pcu_quantum = params.o3_pcu_quantum;
    let params = &params;
    let eb = elem_bytes(workload);
    let layers = workload.model().num_layers;
    let count = ((layers as f64 * ratio).ceil() as u64).max(1);
    let template: Vec<NodeRef<'_>> = layer_template(g)
        .into_iter()
        .filter(|o| o.phase() == phase)
        .collect();
    let layer_flops: f64 = template.iter().map(|o| o.flops()).sum();
    let layer_weights: u64 = template.iter().map(|o| o.params() * eb).sum();
    // Attention internals are tiled on chip and recomputed for backward;
    // only linear-size activations round-trip through DDR.
    let stored_acts: u64 = layer_template(g)
        .iter()
        .filter(|o| o.phase() == Phase::Forward && !is_attention_internal(o.class()))
        .map(|o| o.out_elems() * eb)
        .sum();
    let boundary = template.first().map_or(0, |o| o.in_elems() * eb);
    let decoders_per_section = layers as f64 / count as f64;
    let section_acts = (stored_acts as f64 * decoders_per_section) as u64;

    let name = if phase == Phase::Forward {
        "o3.decoders.fwd"
    } else {
        "o3.decoders.bwd"
    };
    let template_ops: Vec<(&str, f64)> = template.iter().map(|o| (o.name(), o.flops())).collect();
    // Unit sizing uses the one-decoder template even when a section holds a
    // fractional number of decoders (ratio ≠ 1): SambaFlow sizes sections
    // from the repeated decoder program, and the sqrt template's
    // sublinearity makes the correction second-order.
    // Forward sections write the stored activations, backward ones read
    // them back.
    let (acts_in, acts_out) = if phase == Phase::Forward {
        (0, section_acts)
    } else {
        (section_acts, 0)
    };
    let mut sec = assign_units(
        name,
        &template_ops,
        1,
        (layer_weights as f64 * decoders_per_section) as u64,
        boundary + acts_in,
        boundary + acts_out,
        spec,
        params,
    );
    sec.flops_per_invocation = layer_flops * decoders_per_section;
    sec.copies = count;
    sec
}

fn partition_o3(
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
) -> Vec<Section> {
    let graph = training_graph(workload);
    let (r_fwd, r_bwd) = o3_ratios(workload, params);
    let mut sections = Vec::new();

    for op in non_layer_ops(&graph) {
        if op.phase() == Phase::Forward || op.phase() == Phase::Backward {
            sections.push(op_section(op, 1, &graph, workload, spec, params));
        }
    }
    for (phase, ratio) in [(Phase::Forward, r_fwd), (Phase::Backward, r_bwd)] {
        sections.push(o3_decoder_run(workload, spec, params, &graph, phase, ratio));
    }
    sections.push(optimizer_section(workload, spec, params, &graph));
    sections
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};

    fn w(h: u64, l: u64) -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_probe(h, l), 8, 1024, Precision::Bf16)
    }

    fn parts(w: &TrainingWorkload, mode: CompilationMode) -> Vec<Section> {
        partition(w, &RduSpec::sn30(), &RduCompilerParams::default(), mode)
    }

    #[test]
    fn o0_section_count_is_layer_ops_plus_fixed() {
        let sections = parts(&w(768, 12), CompilationMode::O0);
        // 24 layer op sections (12 fwd + 12 bwd) + 8 non-layer + optimizer.
        assert_eq!(sections.len(), 24 + 8 + 1);
    }

    #[test]
    fn o0_layer_sections_invoked_per_layer() {
        let sections = parts(&w(768, 12), CompilationMode::O0);
        let qkv = sections
            .iter()
            .find(|s| s.name.contains("qkv_proj.fwd"))
            .unwrap();
        assert_eq!(qkv.invocations, 12);
    }

    #[test]
    fn o1_fuses_into_fewer_sections() {
        let o0 = parts(&w(768, 12), CompilationMode::O0).len();
        let o1 = parts(&w(768, 12), CompilationMode::O1).len();
        assert!(o1 < o0, "{o1} !< {o0}");
    }

    #[test]
    fn o1_module_sections_carry_module_weights() {
        let sections = parts(&w(768, 12), CompilationMode::O1);
        let mlp_in = sections.iter().find(|s| s.name == "o1.mlp_in.fwd").unwrap();
        // norm2 + mlp_up weights ≈ (2h + h·4h + 4h) × 2 B.
        let h = 768u64;
        let expect = (2 * h + h * 4 * h + 4 * h) * 2;
        assert_eq!(mlp_in.weight_bytes, expect);
    }

    #[test]
    fn o3_ratio_shape_matches_table2a() {
        let p = RduCompilerParams::default();
        let r = |h| o3_ratios(&w(h, 12), &p);
        assert!((r(480).0 - 2.0 / 3.0).abs() < 1e-9);
        assert!((r(768).0 - 2.0 / 3.0).abs() < 1e-9);
        assert!((r(1024).0 - 0.75).abs() < 1e-9);
        assert!((r(1280).0 - 1.0).abs() < 1e-9);
        assert!((r(480).1 - 11.0 / 6.0).abs() < 1e-9);
        assert!(r(1600).1 >= 2.0);
    }

    #[test]
    fn o3_fwd_section_count_follows_ratio() {
        let sections = parts(&w(768, 12), CompilationMode::O3);
        let fwd: u64 = sections
            .iter()
            .filter(|s| s.name.starts_with("o3.decoders.fwd"))
            .map(|s| s.copies)
            .sum();
        // 12 layers × 2/3 = 8 sections.
        assert_eq!(fwd, 8);
    }

    #[test]
    fn o3_backward_has_more_sections_than_forward() {
        let sections = parts(&w(1024, 12), CompilationMode::O3);
        let copies = |prefix: &str| -> u64 {
            sections
                .iter()
                .filter(|s| s.name.starts_with(prefix))
                .map(|s| s.copies)
                .sum()
        };
        assert!(copies("o3.decoders.bwd") > copies("o3.decoders.fwd"));
    }

    #[test]
    fn o3_builds_one_decoder_run_per_phase() {
        let sections = parts(&w(768, 48), CompilationMode::O3);
        let runs: Vec<&Section> = sections.iter().filter(|s| s.copies > 1).collect();
        let names: Vec<&str> = runs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["o3.decoders.fwd", "o3.decoders.bwd"]);
        // 48 layers × 2/3 forward, × 11/6 backward.
        assert_eq!(runs[0].copies, 32);
        assert_eq!(runs[1].copies, 88);
    }

    #[test]
    fn o1_shards_llama_head() {
        let llama =
            TrainingWorkload::new(ModelConfig::llama2_probe(4096, 4), 4, 4096, Precision::Bf16);
        let sections = parts(&llama, CompilationMode::O1);
        let shards = sections
            .iter()
            .filter(|s| s.name.contains("lm_head.fwd.shard"))
            .count();
        assert!(shards >= 2);
    }

    #[test]
    fn all_modes_conserve_flops() {
        let work = w(768, 6);
        let expect = work.training_flops_per_step();
        for mode in [
            CompilationMode::O0,
            CompilationMode::O1,
            CompilationMode::O3,
        ] {
            let total: f64 = parts(&work, mode).iter().map(Section::flops_per_step).sum();
            let err = (total - expect).abs() / expect;
            assert!(err < 0.05, "{mode}: {total} vs {expect}");
        }
    }

    #[test]
    fn o0_traffic_exceeds_o3_traffic() {
        // Per-operator sections spill every intermediate tensor; O3 only
        // spills decoder boundaries — the paper's memory-bound mechanism.
        let work = w(768, 12);
        let traffic = |mode| -> u64 {
            parts(&work, mode)
                .iter()
                .map(Section::ddr_bytes_per_step)
                .sum()
        };
        assert!(traffic(CompilationMode::O0) > traffic(CompilationMode::O3));
    }

    #[test]
    fn sections_respect_hardware_limits() {
        for mode in [
            CompilationMode::O0,
            CompilationMode::O1,
            CompilationMode::O3,
        ] {
            for s in parts(&w(1600, 24), mode) {
                assert!(s.pcus <= 640, "{}", s.name);
                assert!(s.pmus <= 640, "{}", s.name);
            }
        }
    }
}

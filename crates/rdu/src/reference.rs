//! Expanded-reference tests for section runs.
//!
//! A run of `copies` identical sections must price exactly like the
//! one-section-per-copy list it stands for: every float sum adds a copy's
//! value `copies` times in schedule order. Printed tables round to a few
//! digits and cannot see a `copies × value` shortcut, so these tests
//! compare the bits.

use crate::chip::{RduCompilerParams, RduSpec};
use crate::degrade::{degraded_spec, RECOMPILE_S_PER_SECTION};
use crate::modes::{o3_ratios, partition, CompilationMode};
use crate::platform_impl::section_profiles;
use crate::schedule::execute_sections;
use crate::section::Section;
use crate::traffic::traffic_report;
use crate::Rdu;
use dabench_core::{tier1, ChipProfile, Degradable, Fault, FaultSet};
use dabench_model::{ModelConfig, Precision, TrainingWorkload};

/// The one-section-per-copy list a schedule of runs stands for, each copy
/// of an O3 decoder run named by its index (`o3.decoders.fwd.3`).
pub(crate) fn expand(sections: &[Section]) -> Vec<Section> {
    sections
        .iter()
        .flat_map(|s| {
            (0..s.copies).map(move |i| {
                let mut copy = s.clone();
                copy.copies = 1;
                if s.name.starts_with("o3.decoders.") {
                    copy.name = format!("{}.{i}", s.name);
                }
                copy
            })
        })
        .collect()
}

pub(crate) const MODES: [CompilationMode; 3] = [
    CompilationMode::O0,
    CompilationMode::O1,
    CompilationMode::O3,
];

/// Workloads whose O3 ratios reach every Table II(a) grid value, up to
/// the `gen` cosmic tier's LLaMA h8192 with 8 KV heads at 64 and 96
/// layers. The one-token-batch pair makes O3 decoder runs DDR-limited.
pub(crate) fn workloads() -> Vec<TrainingWorkload> {
    let gqa = |layers| ModelConfig {
        num_kv_heads: 8,
        ..ModelConfig::llama2_probe(8192, layers)
    };
    vec![
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Bf16),
        TrainingWorkload::new(ModelConfig::gpt2_probe(1024, 12), 8, 1024, Precision::Fp16),
        TrainingWorkload::new(ModelConfig::gpt2_probe(1280, 24), 16, 1024, Precision::Bf16),
        TrainingWorkload::new(ModelConfig::gpt2_probe(1600, 48), 16, 1024, Precision::Fp16),
        TrainingWorkload::new(ModelConfig::llama2_7b(), 8, 4096, Precision::Bf16),
        TrainingWorkload::new(gqa(64), 64, 2048, Precision::Fp16),
        TrainingWorkload::new(gqa(96), 128, 4096, Precision::Bf16),
        TrainingWorkload::new(ModelConfig::gpt2_probe(1600, 48), 1, 128, Precision::Bf16),
        TrainingWorkload::new(gqa(64), 1, 256, Precision::Bf16),
    ]
}

/// An SN30 whose DDR holds every workload above: cosmic training state
/// outgrows one chip's DDR, and the profile comparisons need a profile.
fn roomy() -> RduSpec {
    RduSpec {
        ddr_capacity_bytes: u64::MAX,
        ..RduSpec::sn30()
    }
}

fn same_bits(got: f64, want: f64, ctx: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: {got} vs {want}");
}

#[test]
fn workloads_reach_every_ratio_grid_value() {
    let params = RduCompilerParams::default();
    let ratios: Vec<(f64, f64)> = workloads().iter().map(|w| o3_ratios(w, &params)).collect();
    for fwd in [2.0 / 3.0, 0.75, 1.0, 2.0, 3.0] {
        assert!(ratios.iter().any(|r| r.0 == fwd), "forward {fwd}");
    }
    for bwd in [11.0 / 6.0, 2.0, 3.0] {
        assert!(ratios.iter().any(|r| r.1 == bwd), "backward {bwd}");
    }
}

#[test]
fn execution_matches_the_expanded_schedule_bit_for_bit() {
    let (spec, params) = (RduSpec::sn30(), RduCompilerParams::default());
    let mut ddr_limited_runs = 0;
    for w in &workloads() {
        for mode in MODES {
            let ctx = format!("{} {mode}", w.model().name);
            let runs = partition(w, &spec, &params, mode);
            let copies = expand(&runs);
            if mode == CompilationMode::O3 {
                let layers = w.model().num_layers as usize;
                assert!(copies.len() > runs.len() + layers / 2, "{ctx}");
            }
            let got = execute_sections(&runs, w, &spec, &params);
            let want = execute_sections(&copies, w, &spec, &params);
            same_bits(got.step_time_s, want.step_time_s, &ctx);
            same_bits(got.achieved_tflops, want.achieved_tflops, &ctx);
            same_bits(
                got.throughput_tokens_per_s,
                want.throughput_tokens_per_s,
                &ctx,
            );
            assert_eq!(got.ddr_bytes_per_step, want.ddr_bytes_per_step, "{ctx}");
            same_bits(got.memory_bound_fraction, want.memory_bound_fraction, &ctx);
            // One timing per run, equal to each of its copies' timings.
            let per_copy = runs
                .iter()
                .zip(&got.timings)
                .flat_map(|(s, t)| std::iter::repeat_n(t, s.copies as usize));
            for (g, w) in per_copy.zip(&want.timings) {
                assert!(w.name.starts_with(&g.name), "{ctx}: {} {}", g.name, w.name);
                same_bits(g.runtime_s, w.runtime_s, &ctx);
            }
            ddr_limited_runs += runs
                .iter()
                .zip(&got.timings)
                .filter(|(s, t)| s.copies > 1 && t.ddr_time_s >= t.compute_time_s)
                .count();
        }
    }
    // The memory-bound share sums DDR-limited copies: some must be runs.
    assert!(ddr_limited_runs > 0);
}

#[test]
fn tier1_metrics_match_the_expanded_profile_bit_for_bit() {
    let (spec, params) = (roomy(), RduCompilerParams::default());
    for w in &workloads() {
        for mode in MODES {
            let ctx = format!("{} {mode}", w.model().name);
            let report = tier1::run(&Rdu::new(spec.clone(), params.clone(), mode), w).unwrap();
            let copies = expand(&partition(w, &spec, &params, mode));
            let exec = execute_sections(&copies, w, &spec, &params);
            let profile = ChipProfile {
                unit_usage: vec![],
                tasks: vec![],
                sections: section_profiles(&copies, &exec.timings, &spec),
                memory: vec![],
                achieved_tflops: exec.achieved_tflops,
                throughput_tokens_per_s: exec.throughput_tokens_per_s,
                step_time_s: exec.step_time_s,
            };
            let want = tier1::allocation_ratios(&profile);
            assert_eq!(report.allocation.len(), want.len(), "{ctx}");
            for ((gk, g), (wk, w)) in report.allocation.iter().zip(&want) {
                assert_eq!(gk, wk, "{ctx}");
                same_bits(*g, *w, &format!("{ctx} {gk}"));
            }
            let li = tier1::profile_load_imbalance(&profile).unwrap();
            same_bits(report.load_imbalance.unwrap(), li, &ctx);
            same_bits(report.step_time_s, exec.step_time_s, &ctx);
        }
    }
}

#[test]
fn traffic_matches_the_expanded_schedule() {
    let (spec, params) = (RduSpec::sn30(), RduCompilerParams::default());
    for w in &workloads() {
        for mode in MODES {
            let runs = partition(w, &spec, &params, mode);
            assert_eq!(
                traffic_report(&runs),
                traffic_report(&expand(&runs)),
                "{} {mode}",
                w.model().name
            );
        }
    }
}

#[test]
fn remap_cost_counts_every_copy() {
    let (spec, params) = (roomy(), RduCompilerParams::default());
    let faults = FaultSet::new(vec![Fault::DeadUnits {
        kind: "pcu".to_owned(),
        fraction: 0.2,
    }]);
    let survivor = degraded_spec(&spec, &faults).unwrap();
    let mut survivor_params = params.clone();
    survivor_params.max_pcus_per_section = params.max_pcus_per_section.min(survivor.pcu_count());
    for w in &workloads() {
        for mode in MODES {
            let rdu = Rdu::new(spec.clone(), params.clone(), mode);
            let got = rdu.degrade(w, &faults).unwrap().recovery_cost.remap_time_s;
            let copies = expand(&partition(w, &survivor, &survivor_params, mode));
            let want = copies.len() as f64 * RECOMPILE_S_PER_SECTION;
            same_bits(got, want, &format!("{} {mode}", w.model().name));
        }
    }
}

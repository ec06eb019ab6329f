//! Sequential section execution and timing.

use crate::chip::{RduCompilerParams, RduSpec};
use crate::section::Section;
use dabench_model::{Precision, TrainingWorkload};
use serde::{Deserialize, Serialize};

/// Relative PCU throughput of a precision flow.
///
/// `Bf16` models the vendor's conservative default (BF16 storage with
/// FP32-accumulating GEMMs); `Fp16`/`Cb16` model the tuned mixed-precision
/// flow at full 16-bit rate — together with the traffic factor below this
/// reproduces Table IV's 34% RDU mixed-precision gain.
fn precision_rate_factor(p: Precision) -> f64 {
    match p {
        Precision::Fp32 => 0.5,
        Precision::Bf16 => 0.72,
        // FP8 is a KV-storage format; compute still runs the 16-bit flow.
        Precision::Fp16 | Precision::Cb16 | Precision::Fp8 => 1.0,
    }
}

/// Extra DDR traffic multiplier of a precision flow.
///
/// On the RDU, [`Precision::Bf16`] models the vendor's default BF16 flow
/// that keeps FP32 master tensors in DDR (1.5× traffic on every transfer),
/// while [`Precision::Fp16`] models the tuned *mixed-precision* flow with
/// pure 16-bit DDR residency — the two columns of Table IV's RDU entry.
fn precision_traffic_factor(p: Precision) -> f64 {
    match p {
        Precision::Bf16 => 1.5,
        Precision::Fp32 | Precision::Fp16 | Precision::Cb16 | Precision::Fp8 => 1.0,
    }
}

/// Timing of one copy of a section over a whole training step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectionTiming {
    /// Section name.
    pub name: String,
    /// Runtime of one copy across all its invocations (incl. load and
    /// fill), seconds.
    pub runtime_s: f64,
    /// Pure compute time per invocation, seconds.
    pub compute_time_s: f64,
    /// Pure DDR-transfer time per invocation, seconds.
    pub ddr_time_s: f64,
}

/// Outcome of executing a section schedule on one RDU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RduExecution {
    /// Per-section timing, aligned with the input sections. Each entry
    /// times one copy, so a run spends `copies × runtime_s` of the step.
    pub timings: Vec<SectionTiming>,
    /// Wall-clock time of one optimizer step, seconds.
    pub step_time_s: f64,
    /// Achieved compute throughput, TFLOP/s.
    pub achieved_tflops: f64,
    /// Training throughput, tokens/second.
    pub throughput_tokens_per_s: f64,
    /// Total DDR traffic per step, bytes.
    pub ddr_bytes_per_step: u64,
    /// Fraction of step time limited by DDR transfers.
    pub memory_bound_fraction: f64,
}

/// Each run's value once per copy, in schedule order. A float sum over
/// this equals the sum over the one-section-per-copy schedule bit for bit;
/// `copies × value` rounds differently.
pub(crate) fn per_copy(runs: impl Iterator<Item = (u64, f64)>) -> impl Iterator<Item = f64> {
    runs.flat_map(|(copies, value)| std::iter::repeat_n(value, copies as usize))
}

/// Execute `sections` sequentially for one step of `workload`.
///
/// Per invocation a section is limited by the slower of its compute and its
/// DDR traffic; per step it additionally pays its fabric-load overhead and
/// a pipeline fill proportional to its size (big sections amortize their
/// fill over more invocations — the mechanism behind Fig. 7(a)'s falling
/// O0/O1 allocation share with depth). The copies of a run execute back to
/// back, each paying its own load and fill.
#[must_use]
pub fn execute_sections(
    sections: &[Section],
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
) -> RduExecution {
    use dabench_core::obs;
    obs::span(obs::Phase::Execute, "rdu.execute", || {
        let e = execute_sections_inner(sections, workload, spec, params);
        obs::counter("rdu.step_time_s", e.step_time_s);
        obs::counter("rdu.ddr_bytes", e.ddr_bytes_per_step as f64);
        obs::counter("rdu.memory_bound_fraction", e.memory_bound_fraction);
        e
    })
}

fn execute_sections_inner(
    sections: &[Section],
    workload: &TrainingWorkload,
    spec: &RduSpec,
    params: &RduCompilerParams,
) -> RduExecution {
    let rate = precision_rate_factor(workload.precision());
    let traffic_mult = precision_traffic_factor(workload.precision());
    let mut timings = Vec::with_capacity(sections.len());
    let mut step_time = 0.0;
    let mut ddr_bytes_total = 0.0;
    let mut ddr_limited_time = 0.0;
    for s in sections {
        let compute = s.flops_per_invocation
            / (s.pcus as f64 * spec.peak_flops_per_pcu * params.pcu_sustained_efficiency * rate);
        let ddr_bytes = s.ddr_bytes_per_invocation() as f64 * traffic_mult;
        let ddr = ddr_bytes / spec.ddr_bw_bytes_per_s;
        let service = compute.max(ddr);
        // One-off pipeline fill per load: `depth` micro-tiles deep, each
        // micro-tile being 1/microtiles of an invocation.
        let depth = params.pipeline_depth_per_pcu * s.pcus as f64;
        let fill = depth * service / params.microtiles_per_invocation;
        let loads = if s.reload_per_invocation {
            s.invocations as f64
        } else {
            1.0
        };
        let runtime = loads * params.section_load_overhead_s
            + s.invocations as f64 * service
            + fill
            + s.invocations as f64 * params.invocation_overhead_s;
        let copy_ddr_bytes = ddr_bytes * s.invocations as f64;
        for _ in 0..s.copies {
            step_time += runtime;
            ddr_bytes_total += copy_ddr_bytes;
            if ddr >= compute {
                ddr_limited_time += runtime;
            }
        }
        timings.push(SectionTiming {
            name: s.name.clone(),
            runtime_s: runtime,
            compute_time_s: compute,
            ddr_time_s: ddr,
        });
    }
    let flops: f64 = per_copy(sections.iter().map(|s| (s.copies, s.flops_per_copy()))).sum();
    RduExecution {
        timings,
        step_time_s: step_time,
        achieved_tflops: flops / step_time / 1e12,
        throughput_tokens_per_s: workload.tokens_per_step() as f64 / step_time,
        ddr_bytes_per_step: ddr_bytes_total as u64,
        memory_bound_fraction: ddr_limited_time / step_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{partition, CompilationMode};
    use dabench_model::ModelConfig;

    fn run(mode: CompilationMode, h: u64, l: u64, b: u64) -> RduExecution {
        let spec = RduSpec::sn30();
        let params = RduCompilerParams::default();
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(h, l), b, 1024, Precision::Fp16);
        let sections = partition(&w, &spec, &params, mode);
        execute_sections(&sections, &w, &spec, &params)
    }

    #[test]
    fn o0_is_much_slower_than_o3() {
        let o0 = run(CompilationMode::O0, 768, 12, 8);
        let o3 = run(CompilationMode::O3, 768, 12, 8);
        assert!(o0.achieved_tflops < 0.5 * o3.achieved_tflops);
    }

    #[test]
    fn o3_tflops_in_paper_band() {
        // Paper Fig. 9: O1/O3 around 35-50 TFLOPs at scale.
        let e = run(CompilationMode::O3, 1600, 24, 8);
        assert!(
            (25.0..60.0).contains(&e.achieved_tflops),
            "{}",
            e.achieved_tflops
        );
    }

    #[test]
    fn o3_tflops_flat_in_layers() {
        let a = run(CompilationMode::O3, 768, 12, 8).achieved_tflops;
        let b = run(CompilationMode::O3, 768, 48, 8).achieved_tflops;
        let ratio = b / a;
        assert!((0.75..1.4).contains(&ratio), "{ratio}");
    }

    #[test]
    fn o3_tflops_rise_with_hidden_size() {
        let small = run(CompilationMode::O3, 480, 12, 8).achieved_tflops;
        let big = run(CompilationMode::O3, 1600, 12, 8).achieved_tflops;
        assert!(big > small, "{big} !> {small}");
    }

    #[test]
    fn rdu_is_memory_bound() {
        // Part of the schedule is DDR-limited even at small batch; the
        // paper's memory-bound classification itself comes from the Eq. 5
        // roofline, checked in platform_impl tests.
        let e = run(CompilationMode::O3, 768, 24, 8);
        assert!(e.memory_bound_fraction > 0.1, "{}", e.memory_bound_fraction);
    }

    #[test]
    fn batch_scaling_is_near_linear() {
        let t8 = run(CompilationMode::O3, 768, 12, 8).throughput_tokens_per_s;
        let t32 = run(CompilationMode::O3, 768, 12, 32).throughput_tokens_per_s;
        let scaling = t32 / t8;
        assert!(scaling > 1.35, "{scaling}");
    }

    #[test]
    fn mixed_precision_beats_bf16_by_a_third() {
        let spec = RduSpec::sn30();
        let params = RduCompilerParams::default();
        let mk = |p| TrainingWorkload::new(ModelConfig::gpt2_probe(1024, 12), 8, 1024, p);
        let bf = mk(Precision::Bf16);
        let mixed = mk(Precision::Fp16);
        let t_bf = execute_sections(
            &partition(&bf, &spec, &params, CompilationMode::O3),
            &bf,
            &spec,
            &params,
        )
        .throughput_tokens_per_s;
        let t_mixed = execute_sections(
            &partition(&mixed, &spec, &params, CompilationMode::O3),
            &mixed,
            &spec,
            &params,
        )
        .throughput_tokens_per_s;
        let gain = t_mixed / t_bf - 1.0;
        // Paper Table IV: +34.3%.
        assert!((0.15..0.55).contains(&gain), "{gain}");
    }

    #[test]
    fn step_time_accounts_all_sections() {
        let (spec, params) = (RduSpec::sn30(), RduCompilerParams::default());
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Fp16);
        let sections = partition(&w, &spec, &params, CompilationMode::O3);
        let e = execute_sections(&sections, &w, &spec, &params);
        let sum: f64 = sections
            .iter()
            .zip(&e.timings)
            .map(|(s, t)| s.copies as f64 * t.runtime_s)
            .sum();
        assert!((sum - e.step_time_s).abs() / e.step_time_s < 1e-9);
    }
}

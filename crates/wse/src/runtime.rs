//! Pipelined execution of a compiled WSE graph.
//!
//! Once placed, the kernel chain behaves as a spatial pipeline over the
//! batch: each sequence flows through embedding → layers → head → loss (and
//! back), with steady-state throughput set by the slowest kernel. This is
//! the mechanism behind the paper's Fig. 12 batch-size saturation on the
//! WSE (throughput ∝ B / (B + depth)).

use crate::chip::{WseCompilerParams, WseSpec};
use crate::compile::WseCompilation;
use crate::kernel::KernelKind;
use dabench_core::TaskProfile;
use dabench_model::{Precision, TrainingWorkload};
use dabench_sim::steady_state_analysis;
use serde::{Deserialize, Serialize};

/// Relative per-PE throughput of a precision format versus FP16.
#[must_use]
pub(crate) fn precision_rate_factor(precision: Precision, params: &WseCompilerParams) -> f64 {
    match precision {
        Precision::Fp32 => 0.5,
        // FP8 is a KV-storage format; PE compute runs at the 16-bit rate.
        Precision::Fp16 | Precision::Bf16 | Precision::Fp8 => 1.0,
        Precision::Cb16 => params.cb16_speedup,
    }
}

/// Result of executing a compiled workload on the WSE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WseExecution {
    /// Per-kernel stage time for one pipeline item (one sequence), seconds,
    /// in the order of `task_profiles`.
    pub stage_times_s: Vec<f64>,
    /// Slowest stage time, seconds.
    pub bottleneck_s: f64,
    /// Wall-clock time of one optimizer step, seconds.
    pub step_time_s: f64,
    /// Fraction of the asymptotic pipeline rate achieved at this batch.
    pub pipeline_efficiency: f64,
    /// Achieved compute throughput, TFLOP/s.
    pub achieved_tflops: f64,
    /// Training throughput, tokens/second.
    pub throughput_tokens_per_s: f64,
    /// Fraction of allocated compute capacity kept busy (Fig. 9(a) green).
    pub compute_time_fraction: f64,
    /// Per-kernel profiles feeding the load-imbalance metric.
    pub task_profiles: Vec<TaskProfile>,
}

/// Execute `compilation` for `workload`, producing timing and throughput.
#[must_use]
pub fn execute(
    spec: &WseSpec,
    params: &WseCompilerParams,
    compilation: &WseCompilation,
    workload: &TrainingWorkload,
) -> WseExecution {
    use dabench_core::obs;
    obs::span(obs::Phase::Execute, "wse.execute", || {
        let e = execute_inner(spec, params, compilation, workload);
        obs::counter("wse.stages", e.stage_times_s.len() as f64);
        obs::counter("wse.step_time_s", e.step_time_s);
        obs::counter("wse.achieved_tflops", e.achieved_tflops);
        e
    })
}

fn execute_inner(
    spec: &WseSpec,
    params: &WseCompilerParams,
    compilation: &WseCompilation,
    workload: &TrainingWorkload,
) -> WseExecution {
    let batch = workload.batch_size();
    let rate = precision_rate_factor(workload.precision(), params);

    // GEMM kernel stage times (per pipeline item = one sequence).
    let mut stage_times: Vec<f64> = Vec::with_capacity(compilation.kernels.len());
    let mut gemm_sum = 0.0;
    let mut gemm_count = 0usize;
    for k in &compilation.kernels {
        let item_flops = k.kernel.flops / batch as f64;
        let t = item_flops
            / (k.comp_pes as f64
                * spec.peak_flops_per_pe
                * params.sustained_gemm_efficiency
                * k.memory_efficiency
                * rate);
        if !matches!(k.kernel.kind, KernelKind::Embedding | KernelKind::Loss) {
            gemm_sum += t;
            gemm_count += 1;
        }
        stage_times.push(t);
    }
    // Embedding and loss are data-movement kernels: their service time
    // tracks the token stream period rather than their (negligible) FLOPs.
    let mean_gemm = if gemm_count > 0 {
        gemm_sum / gemm_count as f64
    } else {
        0.0
    };
    for (k, t) in compilation.kernels.iter().zip(&mut stage_times) {
        if matches!(k.kernel.kind, KernelKind::Embedding | KernelKind::Loss) {
            *t = t.max(mean_gemm * params.io_kernel_rate_factor);
        }
    }

    let report = steady_state_analysis(&stage_times, batch);

    let step_time = report.total_time;
    let step_flops = dabench_core::compile::training_graph(workload)
        .summary()
        .total_flops;
    let achieved_tflops = step_flops / step_time / 1e12;
    let throughput = workload.tokens_per_step() as f64 / step_time;

    // How busy the allocated compute region is: each kernel works
    // stage_k / bottleneck of the steady-state period, scaled by how much
    // of the step is steady state.
    let busy: f64 = stage_times
        .iter()
        .map(|t| t / report.bottleneck_time)
        .sum::<f64>()
        / stage_times.len() as f64;
    let compute_time_fraction = busy * report.pipeline_efficiency;

    let task_profiles = compilation
        .kernels
        .iter()
        .zip(&stage_times)
        .map(|(k, t)| TaskProfile::new(k.kernel.name(), 1.0 / t, k.total_pes() as f64))
        .collect();

    WseExecution {
        stage_times_s: stage_times,
        bottleneck_s: report.bottleneck_time,
        step_time_s: step_time,
        pipeline_efficiency: report.pipeline_efficiency,
        achieved_tflops,
        throughput_tokens_per_s: throughput,
        compute_time_fraction,
        task_profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use dabench_core::metrics::load_imbalance;
    use dabench_model::ModelConfig;

    fn run(layers: u64, batch: u64, precision: Precision) -> WseExecution {
        let spec = WseSpec::cs2();
        let params = WseCompilerParams::default();
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, layers), batch, 1024, precision);
        let c = compile(&spec, &params, &w, None).unwrap();
        execute(&spec, &params, &c, &w)
    }

    #[test]
    fn peak_tflops_in_paper_band() {
        // 18-30 layers peak at 327-338 TFLOPs in the paper; accept ±15%.
        let e = run(24, 256, Precision::Fp16);
        assert!(
            (280.0..390.0).contains(&e.achieved_tflops),
            "{}",
            e.achieved_tflops
        );
    }

    #[test]
    fn tflops_rise_then_fall_with_depth() {
        let small = run(6, 256, Precision::Fp16).achieved_tflops;
        let mid = run(24, 256, Precision::Fp16).achieved_tflops;
        let deep = run(66, 256, Precision::Fp16).achieved_tflops;
        assert!(mid > small, "{mid} !> {small}");
        assert!(mid > deep, "{mid} !> {deep}");
    }

    #[test]
    fn load_imbalance_in_paper_band() {
        for l in [6, 24, 48] {
            let e = run(l, 256, Precision::Fp16);
            let li = load_imbalance(&e.task_profiles).unwrap();
            assert!((0.94..=1.0).contains(&li), "L={l}: {li}");
        }
    }

    #[test]
    fn throughput_saturates_with_batch() {
        let t32 = run(12, 32, Precision::Fp16).throughput_tokens_per_s;
        let t200 = run(12, 200, Precision::Fp16).throughput_tokens_per_s;
        let t400 = run(12, 400, Precision::Fp16).throughput_tokens_per_s;
        // Strong gain up to ~200, weak beyond (paper Fig. 12).
        assert!(t200 / t32 > 1.4, "{}", t200 / t32);
        assert!(t400 / t200 < 1.25, "{}", t400 / t200);
    }

    #[test]
    fn cb16_beats_fp16_modestly() {
        let fp16 = run(12, 256, Precision::Fp16).throughput_tokens_per_s;
        let cb16 = run(12, 256, Precision::Cb16).throughput_tokens_per_s;
        let gain = cb16 / fp16 - 1.0;
        // Paper Table IV: +10.7%.
        assert!((0.05..0.18).contains(&gain), "{gain}");
    }

    #[test]
    fn fp32_halves_throughput() {
        let fp16 = run(12, 256, Precision::Fp16).throughput_tokens_per_s;
        let fp32 = run(12, 256, Precision::Fp32).throughput_tokens_per_s;
        assert!(fp32 < 0.65 * fp16);
    }

    #[test]
    fn compute_fraction_is_a_fraction() {
        let e = run(24, 256, Precision::Fp16);
        assert!(e.compute_time_fraction > 0.0 && e.compute_time_fraction <= 1.0);
    }

    #[test]
    fn stage_count_matches_kernels() {
        let e = run(12, 64, Precision::Fp16);
        assert_eq!(e.stage_times_s.len(), 27);
        assert_eq!(e.task_profiles.len(), 27);
    }
}

//! Property-based tests of the RDU partitioners and schedule over random
//! workload configurations, sampled from a seeded [`SplitMix64`] stream.

use dabench_core::SplitMix64;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_rdu::{
    execute_sections, partition, traffic_report, CompilationMode, RduCompilerParams, RduSpec,
};

/// Sampled cases per property.
const CASES: usize = 48;

fn arb_mode(rng: &mut SplitMix64) -> CompilationMode {
    const MODES: [CompilationMode; 3] = [
        CompilationMode::O0,
        CompilationMode::O1,
        CompilationMode::O3,
    ];
    MODES[rng.below(3) as usize]
}

fn workload(hs_mult: u64, layers: u64, batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(
        ModelConfig::gpt2_probe(64 * hs_mult, layers),
        batch,
        512,
        Precision::Fp16,
    )
}

/// Every mode conserves the workload's FLOPs across its sections.
#[test]
fn partitioners_conserve_flops() {
    let mut rng = SplitMix64::new(0x1D_0001);
    for _ in 0..CASES {
        let hs_mult = 4 + rng.below(16);
        let layers = 1 + rng.below(23);
        let batch = 1 + rng.below(15);
        let mode = arb_mode(&mut rng);
        let w = workload(hs_mult, layers, batch);
        let sections = partition(&w, &RduSpec::sn30(), &RduCompilerParams::default(), mode);
        let total: f64 = sections.iter().map(|s| s.flops_per_step()).sum();
        let expect = w.training_flops_per_step();
        assert!(
            (total - expect).abs() / expect < 0.05,
            "{total} vs {expect}"
        );
    }
}

/// Section unit claims never exceed the hardware.
#[test]
fn sections_respect_hardware() {
    let mut rng = SplitMix64::new(0x1D_0002);
    for _ in 0..CASES {
        let hs_mult = 4 + rng.below(16);
        let layers = 1 + rng.below(23);
        let mode = arb_mode(&mut rng);
        let w = workload(hs_mult, layers, 4);
        for s in partition(&w, &RduSpec::sn30(), &RduCompilerParams::default(), mode) {
            assert!(s.pcus <= 640, "{}", s.name);
            assert!(s.pmus <= 640, "{}", s.name);
            assert!(s.invocations >= 1, "{}", s.name);
        }
    }
}

/// The executor's step time is positive, finite, and decomposes into
/// the per-section runtimes, each counted once per copy.
#[test]
fn schedule_times_decompose() {
    let spec = RduSpec::sn30();
    let params = RduCompilerParams::default();
    let mut rng = SplitMix64::new(0x1D_0003);
    for _ in 0..CASES {
        let hs_mult = 4 + rng.below(12);
        let layers = 1 + rng.below(15);
        let batch = 1 + rng.below(15);
        let mode = arb_mode(&mut rng);
        let w = workload(hs_mult, layers, batch);
        let sections = partition(&w, &spec, &params, mode);
        let e = execute_sections(&sections, &w, &spec, &params);
        assert!(e.step_time_s.is_finite() && e.step_time_s > 0.0);
        let sum: f64 = sections
            .iter()
            .zip(&e.timings)
            .map(|(s, t)| s.copies as f64 * t.runtime_s)
            .sum();
        assert!((sum - e.step_time_s).abs() / e.step_time_s < 1e-9);
        assert!((0.0..=1.0).contains(&e.memory_bound_fraction));
    }
}

/// O0 always produces at least as much DDR traffic as O1 and O3 on the
/// same workload (per-operator spill is the worst case).
#[test]
fn o0_traffic_dominates() {
    let spec = RduSpec::sn30();
    let params = RduCompilerParams::default();
    let mut rng = SplitMix64::new(0x1D_0004);
    for _ in 0..CASES {
        let hs_mult = 4 + rng.below(12);
        let layers = 2 + rng.below(14);
        let batch = 1 + rng.below(7);
        let w = workload(hs_mult, layers, batch);
        let traffic = |mode| traffic_report(&partition(&w, &spec, &params, mode)).total_bytes();
        let o0 = traffic(CompilationMode::O0);
        assert!(o0 >= traffic(CompilationMode::O1));
        assert!(o0 >= traffic(CompilationMode::O3));
    }
}

/// Throughput is monotone non-decreasing in batch size for O3.
#[test]
fn o3_throughput_monotone_in_batch() {
    let spec = RduSpec::sn30();
    let params = RduCompilerParams::default();
    let mut rng = SplitMix64::new(0x1D_0005);
    for _ in 0..CASES {
        let hs_mult = 4 + rng.below(12);
        let layers = 1 + rng.below(11);
        let batch = 1 + rng.below(15);
        let tput = |b: u64| {
            let w = workload(hs_mult, layers, b);
            let sections = partition(&w, &spec, &params, CompilationMode::O3);
            execute_sections(&sections, &w, &spec, &params).throughput_tokens_per_s
        };
        assert!(tput(2 * batch) >= tput(batch) * 0.999);
    }
}

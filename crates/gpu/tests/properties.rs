//! Property-based tests of the Megatron cost model, sampled from a seeded
//! [`SplitMix64`] stream.

use dabench_core::SplitMix64;
use dabench_gpu::{megatron_throughput, GpuRun, GpuSpec, MegatronConfig};
use dabench_model::{ModelConfig, Precision, TrainingWorkload};

/// Sampled cases per property.
const CASES: usize = 64;

fn workload(batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(ModelConfig::gpt2_xl(), batch, 1024, Precision::Fp16)
}

/// A power-of-two layout: TP and PP in 1..=8, DP in 1..=32.
fn arb_layout(rng: &mut SplitMix64) -> MegatronConfig {
    let t = rng.below(4);
    let p = rng.below(4);
    let d = rng.below(6);
    MegatronConfig::new(1 << t, 1 << p, 1 << d)
}

/// Finite positive timings with bounded fractions.
fn assert_run_invariants(run: &GpuRun, layout: MegatronConfig) {
    assert!(run.step_time_s > 0.0 && run.step_time_s.is_finite());
    assert!(run.tokens_per_s > 0.0);
    assert!(
        (run.tokens_per_s_per_gpu * f64::from(layout.gpus()) - run.tokens_per_s).abs()
            / run.tokens_per_s
            < 1e-12
    );
    assert!((0.0..1.0).contains(&run.bubble_fraction), "{layout:?}");
    assert!((0.0..1.0).contains(&run.comm_fraction), "{layout:?}");
}

/// Valid layouts always produce finite positive timings with bounded
/// fractions.
#[test]
fn run_invariants() {
    let mut rng = SplitMix64::new(0x69_0001);
    for _ in 0..CASES {
        let layout = arb_layout(&mut rng);
        let batch = 1u64 << (6 + rng.below(5));
        // Invalid layouts are rejected, that's fine.
        if let Ok(run) = megatron_throughput(&GpuSpec::a100(), &workload(batch), layout) {
            assert_run_invariants(&run, layout);
        }
    }
}

/// The counterexample once recorded against `run_invariants`: pure
/// 8-way tensor parallelism, one micro-batch, at the smallest sampled
/// batch. It must be accepted and hold every invariant.
#[test]
fn run_invariants_hold_for_tp8_at_batch_64() {
    let layout = MegatronConfig::new(8, 1, 1);
    let run = megatron_throughput(&GpuSpec::a100(), &workload(1 << 6), layout)
        .expect("tp 8 is a valid layout at batch 64");
    assert_run_invariants(&run, layout);
}

/// Aggregate throughput never decreases when data parallelism widens
/// (weak scaling with proportional batch).
#[test]
fn dp_weak_scaling_monotone() {
    let mut rng = SplitMix64::new(0x69_0002);
    for _ in 0..CASES {
        let d = 1u32 << rng.below(5);
        let base = megatron_throughput(
            &GpuSpec::a100(),
            &workload(64),
            MegatronConfig::new(8, 1, 1),
        )
        .unwrap();
        let scaled = megatron_throughput(
            &GpuSpec::a100(),
            &workload(64 * u64::from(d)),
            MegatronConfig::new(8, 1, d),
        )
        .unwrap();
        assert!(scaled.tokens_per_s >= base.tokens_per_s * 0.9 * f64::from(d).sqrt());
    }
}

/// More micro-batches never worsen the bubble fraction.
#[test]
fn bubble_shrinks_with_batch() {
    let mut rng = SplitMix64::new(0x69_0003);
    for _ in 0..CASES {
        let batch_log = 6 + rng.below(6);
        let small = megatron_throughput(
            &GpuSpec::a100(),
            &workload(1 << batch_log),
            MegatronConfig::new(1, 8, 1),
        )
        .unwrap();
        let large = megatron_throughput(
            &GpuSpec::a100(),
            &workload(1 << (batch_log + 1)),
            MegatronConfig::new(1, 8, 1),
        )
        .unwrap();
        assert!(large.bubble_fraction <= small.bubble_fraction + 1e-12);
    }
}

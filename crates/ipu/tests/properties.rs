//! Property-based tests of the IPU pipeline model, sampled from a seeded
//! [`SplitMix64`] stream.

use dabench_core::SplitMix64;
use dabench_ipu::{decoder_ipu_memory, pipeline_with_allocation, IpuCompilerParams, IpuSpec};
use dabench_model::{ModelConfig, Precision, TrainingWorkload};

/// Sampled cases per property.
const CASES: usize = 48;

fn workload(layers: u64, batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(
        ModelConfig::gpt2_probe(768, layers),
        batch,
        512,
        Precision::Fp16,
    )
}

/// Random allocation of 1..6 layers each over 1..4 decoder IPUs.
fn arb_allocation(rng: &mut SplitMix64) -> Vec<u64> {
    (0..1 + rng.below(3)).map(|_| 1 + rng.below(5)).collect()
}

/// Throughput is anti-monotone in the bottleneck load: adding a layer
/// to the most loaded IPU never helps.
#[test]
fn bottleneck_anti_monotonicity() {
    let spec = IpuSpec::bow2000();
    let params = IpuCompilerParams::default();
    let mut rng = SplitMix64::new(0x1B_0001);
    for _ in 0..CASES {
        let alloc = arb_allocation(&mut rng);
        let batch = 1 + rng.below(31);
        let layers: u64 = alloc.iter().sum();
        let w = workload(layers, batch);
        let Ok(base) = pipeline_with_allocation(&spec, &params, &w, &alloc) else {
            continue;
        };
        // Grow the heaviest stage by one layer.
        let mut worse = alloc.clone();
        let imax = (0..worse.len())
            .max_by_key(|&i| worse[i])
            .expect("non-empty");
        worse[imax] += 1;
        let w2 = workload(layers + 1, batch);
        if let Ok(plan) = pipeline_with_allocation(&spec, &params, &w2, &worse) {
            assert!(plan.throughput_tokens_per_s <= base.throughput_tokens_per_s * 1.001);
        }
    }
}

/// Pipeline plans respect accounting identities.
#[test]
fn plan_identities() {
    let spec = IpuSpec::bow2000();
    let params = IpuCompilerParams::default();
    let mut rng = SplitMix64::new(0x1B_0002);
    for _ in 0..CASES {
        let alloc = arb_allocation(&mut rng);
        let batch = 1 + rng.below(31);
        let layers: u64 = alloc.iter().sum();
        let w = workload(layers, batch);
        let Ok(plan) = pipeline_with_allocation(&spec, &params, &w, &alloc) else {
            continue;
        };
        assert_eq!(plan.stages.len(), alloc.len() + 1); // + embedding IPU
        let implied = w.tokens_per_step() as f64 / plan.step_time_s;
        assert!((implied - plan.throughput_tokens_per_s).abs() / implied < 1e-9);
        assert!((0.0..1.0).contains(&plan.overhead_fraction));
        let bottleneck = &plan.stages[plan.bottleneck_stage];
        for s in &plan.stages {
            assert!(s.stage_time_s <= bottleneck.stage_time_s + 1e-15);
            assert!(s.tiles_used <= spec.tiles);
            assert!(s.memory_utilization <= 1.0 + 1e-12);
        }
    }
}

/// Memory accounting is additive in layers and independent of batch.
#[test]
fn memory_accounting() {
    let spec = IpuSpec::bow2000();
    let params = IpuCompilerParams::default();
    let mut rng = SplitMix64::new(0x1B_0003);
    for _ in 0..CASES {
        let layers = 1 + rng.below(9);
        let batch = 1 + rng.below(63);
        let w = workload(layers, batch);
        let m = decoder_ipu_memory(&w, layers, &spec, &params);
        assert_eq!(
            m.total_bytes(),
            m.state_bytes + m.activation_bytes + m.code_bytes
        );
        let other = decoder_ipu_memory(&workload(layers, batch + 1), layers, &spec, &params);
        assert_eq!(m.total_bytes(), other.total_bytes());
    }
}

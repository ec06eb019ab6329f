//! Property-based tests of the WSE compiler over random configurations,
//! sampled from a seeded [`SplitMix64`] stream.

use dabench_core::SplitMix64;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_wse::{compile, execute, KernelKind, Wse, WseSpec};

/// Sampled cases per property.
const CASES: usize = 40;

fn workload(hs_mult: u64, layers: u64, batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(
        ModelConfig::gpt2_probe(64 * hs_mult, layers),
        batch,
        512,
        Precision::Fp16,
    )
}

/// When compilation succeeds, the allocation is within the chip and
/// every kernel respects its floor and a positive PE count.
#[test]
fn compilation_invariants() {
    let wse = Wse::default();
    let mut rng = SplitMix64::new(0x1E_0001);
    for _ in 0..CASES {
        let hs_mult = 2 + rng.below(14);
        let layers = 1 + rng.below(39);
        let batch = 1 + rng.below(63);
        let w = workload(hs_mult, layers, batch);
        let Ok(c) = compile(wse.wse_spec(), wse.compiler_params(), &w, None) else {
            continue; // OOM/placement failures are valid outcomes
        };
        assert!(c.allocated_pes() <= c.chip_pes);
        assert!(c.allocation_ratio() <= 1.0);
        for k in &c.kernels {
            assert!(k.comp_pes >= 1, "{}", k.kernel.name());
            assert!(
                k.comp_pes >= k.floor_pes.min(k.cap_pes),
                "{}",
                k.kernel.name()
            );
            assert!((0.0..=1.0).contains(&k.memory_efficiency));
            assert!(k.bytes_per_pe(wse.compiler_params()) <= 48.0 * 1024.0 + 1.0);
        }
        // Placement covers exactly the allocated PEs.
        assert_eq!(c.placement.used_pes(), c.allocated_pes());
    }
}

/// Execution identities hold for every compilable configuration.
#[test]
fn execution_identities() {
    let wse = Wse::default();
    let mut rng = SplitMix64::new(0x1E_0002);
    for _ in 0..CASES {
        let hs_mult = 2 + rng.below(10);
        let layers = 1 + rng.below(29);
        let batch = 1 + rng.below(63);
        let w = workload(hs_mult, layers, batch);
        let Ok(c) = compile(wse.wse_spec(), wse.compiler_params(), &w, None) else {
            continue;
        };
        let e = execute(wse.wse_spec(), wse.compiler_params(), &c, &w);
        assert!(e.step_time_s > 0.0 && e.step_time_s.is_finite());
        let implied = w.training_flops_per_step() / e.step_time_s / 1e12;
        assert!((implied - e.achieved_tflops).abs() / implied < 1e-9);
        assert!(e.pipeline_efficiency > 0.0 && e.pipeline_efficiency <= 1.0);
        assert!(e.bottleneck_s > 0.0);
        // Achieved throughput never exceeds the chip's peak.
        assert!(e.achieved_tflops <= wse.wse_spec().peak_tflops());
    }
}

/// A smaller PE budget never increases the allocation.
#[test]
fn budget_monotonicity() {
    let wse = Wse::default();
    let spec = WseSpec::cs2();
    let mut rng = SplitMix64::new(0x1E_0003);
    for _ in 0..CASES {
        let hs_mult = 2 + rng.below(10);
        let layers = 1 + rng.below(19);
        let denom = 2 + rng.below(6);
        let w = workload(hs_mult, layers, 16);
        let full = compile(wse.wse_spec(), wse.compiler_params(), &w, None);
        let slice = compile(
            wse.wse_spec(),
            wse.compiler_params(),
            &w,
            Some(spec.pe_count() / denom),
        );
        if let (Ok(full), Ok(slice)) = (full, slice) {
            assert!(slice.allocated_pes() <= full.allocated_pes() + denom);
        }
    }
}

/// Deeper models never allocate more PEs per attention kernel.
#[test]
fn elasticity_is_monotone() {
    let wse = Wse::default();
    let mut rng = SplitMix64::new(0x1E_0004);
    for _ in 0..CASES {
        let hs_mult = 4 + rng.below(8);
        let layers = 2 + rng.below(28);
        let attn_pes = |l: u64| -> Option<u64> {
            compile(
                wse.wse_spec(),
                wse.compiler_params(),
                &workload(hs_mult, l, 16),
                None,
            )
            .ok()
            .and_then(|c| {
                c.kernel(KernelKind::Attention { layer: 0 })
                    .map(|k| k.comp_pes)
            })
        };
        if let (Some(shallow), Some(deep)) = (attn_pes(layers), attn_pes(layers + 6)) {
            assert!(deep <= shallow);
        }
    }
}

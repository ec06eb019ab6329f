//! Cross-platform resilience invariants, checked by deterministic
//! property sampling from a seeded [`SplitMix64`] stream.

use dabench_core::{Degradable, SplitMix64};
use dabench_faults::{FaultPlan, PlanSpec, PlatformKind};
use dabench_ipu::Ipu;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_rdu::{CompilationMode, Rdu};
use dabench_wse::{compile_degraded, Wse, WseCompilerParams, WseSpec};

/// Sampled cases per plan-level property.
const CASES: usize = 16;

/// Sampled cases per degradation property: each case degrades every
/// platform, so keep the count modest.
const DEGRADE_CASES: usize = 6;

fn workload(batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(
        ModelConfig::gpt2_probe(768, 12),
        batch,
        1024,
        Precision::Fp16,
    )
}

fn platforms() -> Vec<(Box<dyn Degradable>, u64)> {
    vec![
        (Box::new(Wse::default()), 256),
        (Box::new(Rdu::with_mode(CompilationMode::O1)), 8),
        (Box::new(Rdu::with_mode(CompilationMode::O3)), 8),
        (Box::new(Ipu::default()), 64),
    ]
}

fn spec(dead: f64, link: f64, stalls: u32, drop: u32) -> PlanSpec {
    PlanSpec {
        dead_fraction: dead,
        link_retained: link,
        transient_stalls: stalls,
        dropped_devices: drop,
    }
}

#[test]
fn same_seed_yields_identical_plans() {
    let mut rng = SplitMix64::new(0x1F_0001);
    for _ in 0..CASES {
        let seed = rng.below(1_000_000);
        let dead = rng.uniform(0.0, 0.3);
        let s = spec(dead, 0.9, 2, 1);
        for kind in [PlatformKind::Wse, PlatformKind::Rdu, PlatformKind::Ipu] {
            let a = FaultPlan::generate(kind, &s, seed);
            let b = FaultPlan::generate(kind, &s, seed);
            assert_eq!(a.fault_set(), b.fault_set());
            assert_eq!(a, b);
        }
    }
}

#[test]
fn wse_remap_never_overlaps_dead_rects() {
    let wse_spec = WseSpec::cs2();
    let w = workload(256);
    let mut rng = SplitMix64::new(0x1F_0002);
    for _ in 0..CASES {
        let seed = rng.below(10_000);
        let dead = rng.uniform(0.01, 0.2);
        let plan = FaultPlan::generate(PlatformKind::Wse, &spec(dead, 1.0, 0, 0), seed);
        let faults = plan.fault_set();
        let intervals: Vec<(u64, u64)> = faults
            .dead_rects()
            .map(|r| r.column_interval(wse_spec.grid_cols))
            .collect();
        if let Ok((comp, _)) =
            compile_degraded(&wse_spec, &WseCompilerParams::default(), &w, &faults)
        {
            assert!(
                !comp.placement.overlaps_any(&intervals),
                "placement intersects a dead band (seed {seed}, dead {dead})"
            );
        }
    }
}

#[test]
fn fault_kind_agrees_with_name_inference() {
    // The platform-reported geometry must match what the (legacy) name
    // matcher would have guessed for every shipped platform.
    for (platform, _) in platforms() {
        assert_eq!(
            Some(PlatformKind::from_fault_kind(platform.fault_kind())),
            PlatformKind::infer(platform.name()),
            "{}",
            platform.name()
        );
    }
}

#[test]
fn degraded_throughput_never_exceeds_healthy() {
    let mut rng = SplitMix64::new(0x1F_0003);
    for _ in 0..DEGRADE_CASES {
        let seed = rng.below(10_000);
        let dead = rng.uniform(0.0, 0.2);
        let s = spec(dead, 0.85, 1, 1);
        for (platform, batch) in platforms() {
            let kind = PlatformKind::from_fault_kind(platform.fault_kind());
            let plan = FaultPlan::generate(kind, &s, seed);
            let w = workload(batch);
            if let Ok(d) = platform.degrade(&w, &plan.fault_set()) {
                assert!(
                    d.degraded.throughput_tokens_per_s
                        <= d.healthy.throughput_tokens_per_s * (1.0 + 1e-9),
                    "{}: retention {} > 1 (seed {seed}, dead {dead})",
                    platform.name(),
                    d.throughput_retention()
                );
                assert!(d.recovery_cost.total_s() >= 0.0);
            }
        }
    }
}

#[test]
fn same_seed_yields_identical_degraded_profiles() {
    let s = spec(0.05, 0.9, 1, 1);
    let mut rng = SplitMix64::new(0x1F_0004);
    for _ in 0..DEGRADE_CASES {
        let seed = rng.below(10_000);
        for (platform, batch) in platforms() {
            let kind = PlatformKind::from_fault_kind(platform.fault_kind());
            let w = workload(batch);
            let a = platform.degrade(&w, &FaultPlan::generate(kind, &s, seed).fault_set());
            let b = platform.degrade(&w, &FaultPlan::generate(kind, &s, seed).fault_set());
            match (a, b) {
                (Ok(pa), Ok(pb)) => {
                    assert_eq!(pa.degraded, pb.degraded);
                    assert_eq!(pa.recovery_cost, pb.recovery_cost);
                }
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                (a, b) => panic!("outcomes diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }
}

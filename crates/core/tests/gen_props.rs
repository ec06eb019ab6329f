//! Property tests for the scenario-space generator (`dabench_core::gen`).
//!
//! Properties driven by the seeded [`SplitMix64`] generator — every
//! failure reproduces from its printed seed.
//!
//! Properties covered (docs/generation.md):
//! - the sampler is a pure function: `sample(tier, seed, index)` is
//!   reproducible call-to-call and agrees with `population`;
//! - labels round-trip: `parse_label(format_label(..))` is the identity,
//!   and malformed labels are rejected, never mis-parsed;
//! - tier ordering: a strictly higher tier has ≥ mean model FLOPs and
//!   ≥ mean fault density over matching seeded populations;
//! - every sampled scenario is internally consistent (heads divide
//!   hidden, kv_heads divide heads, infer scenarios decode, train
//!   scenarios don't, fault fractions in range);
//! - the invariant checkers accept known-good observations and reject
//!   hand-built counterexamples, naming the violated invariant.

use dabench_core::gen::{
    check_batch_ladder, check_determinism, check_fault_monotone, check_fp8_kv, format_label,
    parse_label, population, sample, Invariant, LadderPoint, ScenarioKind, Tier,
};
use dabench_core::SplitMix64;

const CASES: u64 = 32;

#[test]
fn sampler_is_a_pure_function() {
    let mut rng = SplitMix64::new(0xD0_0001);
    for case in 0..CASES {
        let tier = Tier::ALL[rng.below(Tier::ALL.len() as u64) as usize];
        let seed = rng.next_u64();
        let index = rng.below(1000);
        let a = sample(tier, seed, index);
        let b = sample(tier, seed, index);
        assert_eq!(a, b, "case {case}: same coordinates, different scenario");
        assert_eq!(
            a.label(),
            format_label(tier, seed, index),
            "case {case}: label drifted from its coordinates"
        );
    }
}

#[test]
fn population_agrees_with_per_index_sampling() {
    let mut rng = SplitMix64::new(0xD0_0002);
    for case in 0..CASES {
        let tier = Tier::ALL[rng.below(Tier::ALL.len() as u64) as usize];
        let seed = rng.next_u64();
        let count = 1 + rng.below(40);
        let pop = population(tier, seed, count);
        assert_eq!(pop.len() as u64, count, "case {case}");
        for (i, s) in pop.iter().enumerate() {
            assert_eq!(*s, sample(tier, seed, i as u64), "case {case} index {i}");
        }
    }
}

#[test]
fn labels_round_trip_and_reject_malformed_input() {
    let mut rng = SplitMix64::new(0xD0_0003);
    for _ in 0..CASES {
        let tier = Tier::ALL[rng.below(Tier::ALL.len() as u64) as usize];
        let (seed, index) = (rng.next_u64(), rng.below(10_000));
        let label = format_label(tier, seed, index);
        assert_eq!(parse_label(&label), Some((tier, seed, index)), "{label}");
        // A label is comma-free by construction: shard workers join
        // point lists with commas on the command line.
        assert!(!label.contains(','), "{label}");
    }
    for bad in [
        "",
        "gen",
        "gen:baby",
        "gen:baby:s1",
        "gen:baby:s1:i2:x",
        "gen:nope:s1:i2",
        "gen:baby:1:i2",
        "gen:baby:s1:2",
        "gen:baby:sNaN:i2",
        "table1",
        "Gen:baby:s1:i2",
    ] {
        assert_eq!(parse_label(bad), None, "{bad:?} must not parse");
    }
}

/// Mean model FLOPs and mean fault density of a seeded population.
fn tier_means(tier: Tier, seed: u64, count: u64) -> (f64, f64) {
    let pop = population(tier, seed, count);
    let n = pop.len() as f64;
    let flops = pop.iter().map(|s| s.flops()).sum::<f64>() / n;
    let density = pop.iter().map(|s| s.faults.density()).sum::<f64>() / n;
    (flops, density)
}

#[test]
fn higher_tiers_mean_bigger_models_and_denser_faults() {
    // The defining property of the difficulty ladder: for every adjacent
    // tier pair, the higher tier's population has >= mean FLOPs and
    // >= mean fault density. Checked over several seeds with a population
    // large enough to wash out sampling noise.
    let mut rng = SplitMix64::new(0xD0_0004);
    for _ in 0..6 {
        let seed = rng.next_u64();
        let means: Vec<(f64, f64)> = Tier::ALL.iter().map(|t| tier_means(*t, seed, 96)).collect();
        for w in means.windows(2) {
            let ((lo_flops, lo_density), (hi_flops, hi_density)) = (w[0], w[1]);
            assert!(
                hi_flops >= lo_flops,
                "seed {seed}: mean FLOPs fell between adjacent tiers ({lo_flops:.3e} -> {hi_flops:.3e})"
            );
            assert!(
                hi_density >= lo_density,
                "seed {seed}: fault density fell between adjacent tiers ({lo_density:.4} -> {hi_density:.4})"
            );
        }
    }
}

#[test]
fn every_sampled_scenario_is_internally_consistent() {
    let mut rng = SplitMix64::new(0xD0_0005);
    for _ in 0..CASES {
        let tier = Tier::ALL[rng.below(Tier::ALL.len() as u64) as usize];
        let seed = rng.next_u64();
        for s in population(tier, seed, 48) {
            let label = s.label();
            assert!(
                s.hidden % s.heads == 0,
                "{label}: heads don't divide hidden"
            );
            assert!(
                s.heads % s.kv_heads == 0,
                "{label}: kv_heads don't divide heads"
            );
            assert!(s.batch >= 1 && s.seq >= 1 && s.layers >= 1, "{label}");
            assert!(
                (0.0..=1.0).contains(&s.faults.dead_fraction),
                "{label}: dead fraction out of range"
            );
            assert!(
                (0.0..=1.0).contains(&s.faults.link_retained),
                "{label}: link retention out of range"
            );
            match s.kind {
                ScenarioKind::Train => {
                    assert_eq!(s.decode, 0, "{label}: training scenario decodes");
                }
                ScenarioKind::Infer => {
                    assert!(s.decode > 0, "{label}: serving scenario never decodes");
                    assert_eq!(s.parallelism, 1, "{label}: serving is single-chip");
                    assert!(s.faults.is_healthy(), "{label}: serving has no fault model");
                    // The workload must construct: the sampler's output
                    // feeds InferenceWorkload::new unchecked downstream.
                    let _ = s.inference_workload();
                }
            }
            let _ = s.training_workload();
        }
    }
}

// ---------------------------------------------------------------------------
// Invariant checker self-consistency: known-good passes, hand-built
// counterexamples fail with the right invariant named.
// ---------------------------------------------------------------------------

#[test]
fn fault_monotone_checker_separates_good_from_bad() {
    assert!(check_fault_monotone("wse", "s", 100.0, 99.0).is_none());
    assert!(check_fault_monotone("wse", "s", 100.0, 100.0).is_none());
    let v = check_fault_monotone("wse", "s", 100.0, 101.0).expect("violation");
    assert_eq!(v.invariant, Invariant::FaultMonotone);
    assert!(v.to_string().contains("fault_monotone"), "{v}");
}

#[test]
fn fp8_checker_requires_strictly_smaller_kv_and_unchanged_weights() {
    assert!(check_fp8_kv("s", 1000, 500, 70, 70).is_none());
    let equal = check_fp8_kv("s", 1000, 1000, 70, 70).expect("equal KV is a violation");
    assert_eq!(equal.invariant, Invariant::Fp8KvSmaller);
    let bigger = check_fp8_kv("s", 1000, 1001, 70, 70).expect("bigger KV is a violation");
    assert_eq!(bigger.invariant, Invariant::Fp8KvSmaller);
    // KV precision must not leak into weight memory.
    let weights = check_fp8_kv("s", 1000, 500, 70, 35).expect("weight drift is a violation");
    assert_eq!(weights.invariant, Invariant::Fp8KvSmaller);
}

fn rung(batch: u64, level: &str, tps: f64) -> LadderPoint {
    LadderPoint {
        batch,
        level: Some(level.to_owned()),
        tokens_per_s: Some(tps),
    }
}

fn oom(batch: u64) -> LadderPoint {
    LadderPoint {
        batch,
        level: None,
        tokens_per_s: None,
    }
}

#[test]
fn batch_ladder_checker_accepts_monotone_ladders() {
    let ladder = [
        rung(1, "hbm", 10.0),
        rung(2, "hbm", 19.0),
        rung(4, "hbm", 30.0),
        oom(8),
    ];
    assert!(check_batch_ladder("gpu", "s", &ladder).is_empty());
}

#[test]
fn batch_ladder_checker_flags_throughput_drops_within_a_level() {
    let ladder = [rung(1, "hbm", 10.0), rung(2, "hbm", 5.0)];
    let vs = check_batch_ladder("gpu", "s", &ladder);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].invariant, Invariant::BatchMonotone);
}

#[test]
fn batch_ladder_checker_exempts_level_switches() {
    // The IPU cliff: tile-sram throughput may collapse when the next
    // batch spills to external DDR. That is a level switch, not a
    // monotonicity violation.
    let ladder = [rung(1, "tile-sram", 100.0), rung(2, "external-ddr", 3.0)];
    assert!(check_batch_ladder("ipu", "s", &ladder).is_empty());
}

#[test]
fn batch_ladder_checker_flags_fits_after_the_wall() {
    let ladder = [rung(1, "hbm", 10.0), oom(2), rung(4, "hbm", 30.0)];
    let vs = check_batch_ladder("gpu", "s", &ladder);
    assert!(
        vs.iter()
            .any(|v| v.invariant == Invariant::OomWallConsistent),
        "{vs:?}"
    );
}

#[test]
fn determinism_checker_names_the_differing_byte() {
    assert!(check_determinism("s", "same text", "same text").is_none());
    let v = check_determinism("s", "abcdef", "abcxef").expect("violation");
    assert_eq!(v.invariant, Invariant::SeedDeterminism);
    assert!(v.detail.contains("byte 3"), "{}", v.detail);
    let len = check_determinism("s", "abc", "abcd").expect("length drift");
    assert_eq!(len.invariant, Invariant::SeedDeterminism);
}

#[test]
fn random_perturbations_of_valid_records_always_trip_determinism() {
    let mut rng = SplitMix64::new(0xD0_0006);
    let original = "gen-v1 label=gen:baby:s1:i0 kind=train\n  wse batch=2 tokens_per_s=1.0e3\n";
    for case in 0..CASES {
        let mut bytes = original.as_bytes().to_vec();
        let pos = rng.below(bytes.len() as u64) as usize;
        let flip = 1 + (rng.below(255) as u8);
        bytes[pos] ^= flip;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        assert!(
            check_determinism("s", original, &mutated).is_some(),
            "case {case}: flip at byte {pos} went unnoticed"
        );
    }
}

//! Property tests for the macro-benchmark statistics (`dabench_core::bench`).
//!
//! Properties driven by the seeded [`SplitMix64`] generator — every
//! failure reproduces from its printed seed.
//!
//! Properties covered (docs/benchmarking.md):
//! - `median_ns` / `mad_ns` agree with an independent naive reference,
//!   including near-`u64::MAX` inputs (the overflow-safe midpoint);
//! - `trim` keeps at least `trim_floor(n)` samples, keeps a multiset
//!   subset of the input, returns it sorted, and never drops a sample
//!   that deviates less than one it keeps;
//! - `iter_plan` is a pure function of `(kind, quick)` — identical across
//!   calls, never derived from measured time;
//! - `BenchReport::to_json` round-trips through `BenchReport::parse`
//!   byte-exactly for randomized reports, including names that exercise
//!   every JSON escape class.

use dabench_core::bench::{
    iter_plan, mad_ns, median_ns, summarize, trim, trim_floor, BenchKind, BenchRecord, BenchReport,
    CounterRow, IterPlan, PhaseRow, TrajectoryEntry,
};
use dabench_core::SplitMix64;

/// Random sample vector; mixes three scales so trimming has real outliers
/// to chew on, plus occasional near-`u64::MAX` values to provoke naive
/// midpoint overflow.
fn gen_samples(rng: &mut SplitMix64) -> Vec<u64> {
    let n = rng.below(40) as usize;
    (0..n)
        .map(|_| match rng.below(10) {
            0 => u64::MAX - rng.below(1000),
            1..=2 => rng.below(1_000_000_000),
            _ => 1_000_000 + rng.below(10_000),
        })
        .collect()
}

/// Naive reference median: sort, take the middle (mean of the two middle
/// values for even counts), using u128 so the reference itself can't
/// overflow.
fn naive_median(samples: &[u64]) -> u64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    match s.len() {
        0 => 0,
        n if n % 2 == 1 => s[n / 2],
        n => ((u128::from(s[n / 2 - 1]) + u128::from(s[n / 2])) / 2) as u64,
    }
}

fn naive_mad(samples: &[u64]) -> u64 {
    let m = naive_median(samples);
    let devs: Vec<u64> = samples.iter().map(|&x| x.abs_diff(m)).collect();
    naive_median(&devs)
}

#[test]
fn median_and_mad_match_naive_reference() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(seed);
        let samples = gen_samples(&mut rng);
        assert_eq!(
            median_ns(&samples),
            naive_median(&samples),
            "median, seed {seed}, samples {samples:?}"
        );
        assert_eq!(
            mad_ns(&samples),
            naive_mad(&samples),
            "mad, seed {seed}, samples {samples:?}"
        );
    }
}

#[test]
fn trim_respects_floor_subset_and_order() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(seed);
        let samples = gen_samples(&mut rng);
        let kept = trim(&samples);

        // Floor: at least half survive; never more than the input.
        if !samples.is_empty() {
            assert!(
                kept.len() >= trim_floor(samples.len()),
                "floor, seed {seed}: kept {} of {}",
                kept.len(),
                samples.len()
            );
        }
        assert!(kept.len() <= samples.len(), "seed {seed}");

        // Sorted ascending.
        assert!(kept.windows(2).all(|w| w[0] <= w[1]), "order, seed {seed}");

        // Multiset subset: removing kept from a copy of the input works.
        let mut pool = samples.clone();
        for k in &kept {
            let pos = pool.iter().position(|x| x == k);
            assert!(pos.is_some(), "subset, seed {seed}: {k} not in input");
            pool.swap_remove(pos.unwrap());
        }

        // Centrality: no dropped sample deviates less than a kept one.
        let m = median_ns(&samples);
        if let Some(worst_kept) = kept.iter().map(|&x| x.abs_diff(m)).max() {
            for dropped in &pool {
                assert!(
                    dropped.abs_diff(m) >= worst_kept,
                    "centrality, seed {seed}: dropped {dropped} is more central \
                     than a kept sample (median {m})"
                );
            }
        }

        // Zero MAD means nothing is trimmed.
        if mad_ns(&samples) == 0 {
            assert_eq!(kept.len(), samples.len(), "mad=0, seed {seed}");
        }
    }
}

#[test]
fn summarize_is_consistent_with_trim() {
    for seed in 0..100u64 {
        let mut rng = SplitMix64::new(seed);
        let samples = gen_samples(&mut rng);
        let s = summarize(&samples);
        let kept = trim(&samples);
        assert_eq!(s.kept as usize, kept.len(), "seed {seed}");
        assert_eq!(s.median_ns, median_ns(&kept), "seed {seed}");
        assert_eq!(s.mad_ns, mad_ns(&kept), "seed {seed}");
        assert_eq!(s.min_ns, samples.iter().copied().min().unwrap_or(0));
        assert_eq!(s.max_ns, samples.iter().copied().max().unwrap_or(0));
    }
}

#[test]
fn iter_plan_is_pure_and_quick_is_smaller() {
    let kinds = [BenchKind::Experiment, BenchKind::Compile, BenchKind::Micro];
    for kind in kinds {
        for quick in [false, true] {
            // Purity: repeated calls agree exactly.
            let a = iter_plan(kind, quick);
            let b = iter_plan(kind, quick);
            assert_eq!((a.warmup, a.iters, a.inner), (b.warmup, b.iters, b.inner));
            assert!(a.iters >= 1 && a.inner >= 1);
        }
        // `--quick` never does more work than the full plan.
        let full = iter_plan(kind, false);
        let quick = iter_plan(kind, true);
        assert!(quick.warmup <= full.warmup, "{kind:?}");
        assert!(quick.iters < full.iters, "{kind:?}");
        assert!(quick.inner <= full.inner, "{kind:?}");
    }
}

/// Name pool for the round-trip test; the tail entries exercise the JSON
/// escape classes (quote, backslash, control characters, non-ASCII).
const NAMES: [&str; 8] = [
    "table1",
    "wse_compile_deep",
    "cache_lookup_hit",
    "quote\"inside",
    "back\\slash",
    "tab\tand\nnewline",
    "null\u{0}byte",
    "uni—code·µ",
];

fn gen_record(rng: &mut SplitMix64) -> BenchRecord {
    let kinds = [BenchKind::Experiment, BenchKind::Compile, BenchKind::Micro];
    let kind = kinds[rng.below(3) as usize];
    let plan = IterPlan {
        warmup: rng.below(10) as u32,
        iters: 1 + rng.below(50) as u32,
        inner: 1 + rng.below(2000) as u32,
    };
    let mut samples = gen_samples(rng);
    if samples.is_empty() {
        samples.push(rng.below(1_000_000));
    }
    let phases = (0..rng.below(4))
        .map(|_| PhaseRow {
            phase: NAMES[rng.below(8) as usize].to_owned(),
            spans: rng.below(10_000),
        })
        .collect();
    // Dyadic totals round-trip exactly through the `{v:?}` f64 writer.
    let counters = (0..rng.below(4))
        .map(|_| CounterRow {
            key: NAMES[rng.below(8) as usize].to_owned(),
            total: (rng.below(1 << 20) as f64 - (1 << 19) as f64) / 64.0,
        })
        .collect();
    BenchRecord {
        name: NAMES[rng.below(8) as usize].to_owned(),
        kind,
        plan,
        summary: summarize(&samples),
        phases,
        counters,
    }
}

#[test]
fn report_json_round_trips_byte_exactly() {
    for seed in 0..100u64 {
        let mut rng = SplitMix64::new(seed);
        let report = BenchReport {
            quick: rng.below(2) == 1,
            benchmarks: (0..rng.below(5)).map(|_| gen_record(&mut rng)).collect(),
            trajectory: (0..rng.below(5))
                .map(|_| TrajectoryEntry {
                    bench: NAMES[rng.below(8) as usize].to_owned(),
                    label: NAMES[rng.below(8) as usize].to_owned(),
                    median_ns: rng.next_u64(),
                })
                .collect(),
        };
        let json = report.to_json();
        let parsed = BenchReport::parse(&json)
            .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{json}"));
        assert_eq!(parsed, report, "seed {seed}: structural round-trip");
        assert_eq!(parsed.to_json(), json, "seed {seed}: byte round-trip");
    }
}

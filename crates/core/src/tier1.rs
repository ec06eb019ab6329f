//! Tier 1: intra-chip performance profiling.
//!
//! Given any [`Platform`] and a workload, [`run`] produces the full
//! [`Tier1Report`]: resource allocation ratio, load imbalance,
//! resource-utilization efficiency, and the global-memory roofline
//! classification — the paper's three key metrics in one pass.

use crate::error::PlatformError;
use crate::metrics::{
    compute_efficiency, load_imbalance, weighted_allocation_ratio, weighted_load_imbalance,
    Roofline,
};
use crate::platform::{ChipProfile, Platform};
use crate::report::Tier1Report;
use dabench_model::TrainingWorkload;
use std::collections::BTreeMap;

/// Derive per-kind allocation ratios from a profile, applying Eq. 2's
/// runtime weighting for sectioned executions.
#[must_use]
pub fn allocation_ratios(profile: &ChipProfile) -> Vec<(String, f64)> {
    if profile.is_sectioned() {
        // Gather (runtime, used, available) per kind across sections, one
        // record per copy so the weighted sums add each copy in order.
        let mut by_kind: BTreeMap<&str, Vec<(f64, u64, u64)>> = BTreeMap::new();
        for s in &profile.sections {
            for (kind, used, avail) in &s.unit_usage {
                let recs = by_kind.entry(kind.as_str()).or_default();
                recs.extend(std::iter::repeat_n(
                    (s.runtime_s, *used, *avail),
                    s.copies as usize,
                ));
            }
        }
        by_kind
            .into_iter()
            .filter_map(|(kind, recs)| {
                weighted_allocation_ratio(&recs).map(|r| (kind.to_owned(), r))
            })
            .collect()
    } else {
        profile
            .unit_usage
            .iter()
            .filter(|&&(_, _, avail)| avail > 0)
            .map(|(kind, used, avail)| (kind.clone(), *used as f64 / *avail as f64))
            .collect()
    }
}

/// Derive the load-imbalance metric from a profile, applying Eq. 4's
/// runtime weighting for sectioned executions.
#[must_use]
pub fn profile_load_imbalance(profile: &ChipProfile) -> Option<f64> {
    if profile.is_sectioned() {
        let per_section: Vec<(f64, f64)> = profile
            .sections
            .iter()
            .filter_map(|s| load_imbalance(&s.tasks).map(|li| (s, li)))
            .flat_map(|(s, li)| std::iter::repeat_n((s.runtime_s, li), s.copies as usize))
            .collect();
        if per_section.is_empty() {
            return None;
        }
        weighted_load_imbalance(&per_section)
    } else {
        load_imbalance(&profile.tasks)
    }
}

/// Run the complete Tier-1 analysis of `workload` on `platform`.
///
/// # Errors
///
/// Propagates the platform's [`PlatformError`] (e.g. out-of-memory) —
/// experiment drivers record those as the "Fail" cells of the paper's
/// tables.
///
/// # Example
///
/// ```no_run
/// use dabench_core::{tier1, Platform};
/// use dabench_model::{ModelConfig, Precision, TrainingWorkload};
///
/// fn profile_any(p: &dyn Platform) {
///     let w = TrainingWorkload::new(ModelConfig::gpt2_small(), 8, 1024, Precision::Fp16);
///     let report = tier1::run(p, &w).unwrap();
///     println!("allocation: {:?}", report.allocation);
/// }
/// ```
pub fn run(
    platform: &dyn Platform,
    workload: &TrainingWorkload,
) -> Result<Tier1Report, PlatformError> {
    let spec = platform.spec();
    let profile = platform.profile(workload)?;

    crate::obs::span(crate::obs::Phase::Collect, "tier1.collect", || {
        collect(platform, workload, &spec, profile)
    })
}

/// Metric derivation stage of [`run`], split out so the observability
/// layer can attribute it to the `collect` phase.
fn collect(
    platform: &dyn Platform,
    workload: &TrainingWorkload,
    spec: &crate::platform::HardwareSpec,
    profile: ChipProfile,
) -> Result<Tier1Report, PlatformError> {
    let allocation = allocation_ratios(&profile);
    let li = profile_load_imbalance(&profile);
    let eff =
        compute_efficiency(profile.achieved_tflops, spec.peak_tflops).map_or(0.0, |e| e.efficiency);

    let ai = workload.arithmetic_intensity();
    let (attainable, bound) = match spec.global_memory().and_then(|m| m.bandwidth_bytes_per_s) {
        Some(bw) if bw > 0.0 && spec.peak_tflops > 0.0 => {
            let roof = Roofline::new(spec.peak_tflops, bw);
            (Some(roof.attainable_tflops(ai)), Some(roof.classify(ai)))
        }
        _ => (None, None),
    };

    crate::obs::counter("tier1.reports", 1.0);
    crate::obs::counter("tier1.achieved_tflops", profile.achieved_tflops);

    Ok(Tier1Report {
        platform: platform.name().to_owned(),
        workload: workload.to_string(),
        allocation,
        load_imbalance: li,
        achieved_tflops: profile.achieved_tflops,
        peak_tflops: spec.peak_tflops,
        compute_efficiency: eff,
        arithmetic_intensity: ai,
        attainable_tflops: attainable,
        bound,
        memory: profile.memory,
        throughput_tokens_per_s: profile.throughput_tokens_per_s,
        step_time_s: profile.step_time_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{
        ComputeUnitSpec, HardwareSpec, MemoryLevelSpec, MemoryScope, SectionProfile, TaskProfile,
    };
    use dabench_model::{ModelConfig, Precision};

    struct FakeChip;

    impl Platform for FakeChip {
        fn name(&self) -> &str {
            "fake"
        }

        fn spec(&self) -> HardwareSpec {
            HardwareSpec {
                name: "fake".into(),
                compute_units: vec![ComputeUnitSpec {
                    kind: "pe".into(),
                    count: 100,
                }],
                peak_tflops: 100.0,
                memory_levels: vec![MemoryLevelSpec {
                    name: "ddr".into(),
                    scope: MemoryScope::OffChip,
                    capacity_bytes: 1 << 33,
                    bandwidth_bytes_per_s: Some(2e11),
                }],
            }
        }

        fn profile(&self, _w: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
            Ok(ChipProfile {
                unit_usage: vec![("pe".into(), 80, 100)],
                tasks: vec![
                    TaskProfile::new("k0", 10.0, 40.0),
                    TaskProfile::new("k1", 20.0, 40.0),
                ],
                sections: vec![],
                memory: vec![],
                achieved_tflops: 40.0,
                throughput_tokens_per_s: 1.0e5,
                step_time_s: 0.1,
            })
        }
    }

    fn workload() -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), 4, 512, Precision::Fp16)
    }

    #[test]
    fn tier1_assembles_all_metrics() {
        let r = run(&FakeChip, &workload()).unwrap();
        assert_eq!(r.allocation_of("pe"), Some(0.8));
        let li = r.load_imbalance.unwrap();
        assert!((li - 0.75).abs() < 1e-12); // (1*40 + 0.5*40)/80
        assert!((r.compute_efficiency - 0.4).abs() < 1e-12);
        assert!(r.bound.is_some());
    }

    #[test]
    fn sectioned_allocation_uses_eq2() {
        let profile = ChipProfile {
            unit_usage: vec![],
            tasks: vec![],
            sections: vec![
                SectionProfile {
                    name: "s0".into(),
                    copies: 1,
                    runtime_s: 3.0,
                    unit_usage: vec![("pcu".into(), 100, 200)],
                    tasks: vec![TaskProfile::new("a", 1.0, 1.0)],
                },
                SectionProfile {
                    name: "s1".into(),
                    copies: 1,
                    runtime_s: 1.0,
                    unit_usage: vec![("pcu".into(), 200, 200)],
                    tasks: vec![TaskProfile::new("b", 1.0, 1.0)],
                },
            ],
            memory: vec![],
            achieved_tflops: 1.0,
            throughput_tokens_per_s: 1.0,
            step_time_s: 1.0,
        };
        let ratios = allocation_ratios(&profile);
        assert_eq!(ratios.len(), 1);
        // (3*0.5 + 1*1.0) / 4 = 0.625
        assert!((ratios[0].1 - 0.625).abs() < 1e-12);
        let li = profile_load_imbalance(&profile).unwrap();
        assert!((li - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_run_of_copies_weighs_like_its_expansion() {
        let section = |copies, runtime_s| SectionProfile {
            name: "s".into(),
            copies,
            runtime_s,
            unit_usage: vec![("pcu".into(), 130, 640)],
            tasks: vec![
                TaskProfile::new("a", 3.0, 7.0),
                TaskProfile::new("b", 1.1, 5.0),
            ],
        };
        let profile = |sections| ChipProfile {
            unit_usage: vec![],
            tasks: vec![],
            sections,
            memory: vec![],
            achieved_tflops: 0.0,
            throughput_tokens_per_s: 0.0,
            step_time_s: 0.0,
        };
        let mut expanded = vec![section(1, 0.37)];
        expanded.extend((0..97).map(|_| section(1, 0.1)));
        let runs = profile(vec![section(1, 0.37), section(97, 0.1)]);
        let expanded = profile(expanded);
        let bits = |v: &[(String, f64)]| v.iter().map(|(_, r)| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&allocation_ratios(&runs)),
            bits(&allocation_ratios(&expanded))
        );
        assert_eq!(
            profile_load_imbalance(&runs).map(f64::to_bits),
            profile_load_imbalance(&expanded).map(f64::to_bits)
        );
    }

    #[test]
    fn unsectioned_li_from_tasks() {
        let profile = ChipProfile {
            unit_usage: vec![],
            tasks: vec![
                TaskProfile::new("a", 2.0, 1.0),
                TaskProfile::new("b", 1.0, 1.0),
            ],
            sections: vec![],
            memory: vec![],
            achieved_tflops: 0.0,
            throughput_tokens_per_s: 0.0,
            step_time_s: 0.0,
        };
        assert!((profile_load_imbalance(&profile).unwrap() - 0.75).abs() < 1e-12);
    }
}

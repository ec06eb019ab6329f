//! Closed-form pipeline steady-state analysis.
//!
//! Spatial dataflow executions are pipelines: the WSE-2 streams batches
//! through a chain of on-chip kernels, the IPU streams micro-batches
//! through layer-grouped devices. For a linear pipeline, fill plus
//! bottleneck arithmetic is exact, so this module provides that closed form.
//! Its tests check it against the chain's max-plus recurrence
//! `f[i][s] = max(f[i-1][s], f[i][s-1]) + t[s]`.

use serde::{Deserialize, Serialize};

/// Result of [`steady_state_analysis`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Index of the slowest stage.
    pub bottleneck_index: usize,
    /// Time of the slowest stage (the steady-state period), seconds.
    pub bottleneck_time: f64,
    /// Total time to push `items` through, seconds.
    pub total_time: f64,
    /// Fraction of the asymptotic throughput achieved (`0..=1`).
    pub pipeline_efficiency: f64,
}

/// Analyze a linear pipeline processing `items` items, where
/// `stage_times[s]` is the time one item spends in stage `s`, seconds.
///
/// Total time is `fill + (items - 1) · bottleneck`: the first item pays the
/// full latency, every further item emerges one bottleneck period later.
///
/// # Panics
///
/// Panics if `stage_times` is empty or `items` is zero.
///
/// # Example
///
/// ```
/// use dabench_sim::steady_state_analysis;
///
/// let r = steady_state_analysis(&[1.0, 2.0, 1.0], 100);
/// assert_eq!(r.bottleneck_index, 1);
/// // One item leaves every 2 seconds, the slowest stage's time.
/// assert!((r.bottleneck_time - 2.0).abs() < 1e-12);
/// // 100 items: 4s fill + 99 * 2s = 202s.
/// assert!((r.total_time - 202.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn steady_state_analysis(stage_times: &[f64], items: u64) -> PipelineReport {
    assert!(!stage_times.is_empty(), "pipeline needs at least one stage");
    assert!(items > 0, "need at least one item");
    let (mut bottleneck_index, mut bottleneck_time) = (0, 0.0f64);
    for (i, &t) in stage_times.iter().enumerate() {
        if t > bottleneck_time {
            (bottleneck_index, bottleneck_time) = (i, t);
        }
    }
    let fill_time: f64 = stage_times.iter().sum();
    let total_time = fill_time + (items - 1) as f64 * bottleneck_time;
    let steady_throughput = if bottleneck_time > 0.0 {
        1.0 / bottleneck_time
    } else {
        f64::INFINITY
    };
    let effective_throughput = if total_time > 0.0 {
        items as f64 / total_time
    } else {
        f64::INFINITY
    };
    let pipeline_efficiency = if steady_throughput.is_finite() && steady_throughput > 0.0 {
        effective_throughput / steady_throughput
    } else {
        1.0
    };
    PipelineReport {
        bottleneck_index,
        bottleneck_time,
        total_time,
        pipeline_efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_has_no_pipelining() {
        let r = steady_state_analysis(&[3.0], 10);
        assert!((r.total_time - 30.0).abs() < 1e-12);
        assert!((r.pipeline_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_grows_with_items() {
        let few = steady_state_analysis(&[1.0, 1.0], 2);
        let many = steady_state_analysis(&[1.0, 1.0], 200);
        assert!(many.pipeline_efficiency > few.pipeline_efficiency);
        assert!(many.pipeline_efficiency > 0.99);
    }

    /// Makespan of `items` items through a linear chain with one slot per
    /// stage, items in order: `f[i][s] = max(f[i-1][s], f[i][s-1]) + t[s]`.
    fn chain_makespan(times: &[f64], items: usize) -> f64 {
        let mut done = vec![0.0f64; times.len()];
        for _ in 0..items {
            let mut upstream = 0.0f64;
            for (f, &t) in done.iter_mut().zip(times) {
                *f = f.max(upstream) + t;
                upstream = *f;
            }
        }
        *done.last().expect("stages")
    }

    #[test]
    fn closed_form_matches_recurrence() {
        // 3-stage pipeline, 5 items, one slot per stage.
        let times = [1.0, 2.5, 0.5];
        let items = 5usize;
        let analytic = steady_state_analysis(&times, items as u64);
        let chain = chain_makespan(&times, items);
        assert!(
            (chain - analytic.total_time).abs() < 1e-9,
            "recurrence {chain} vs analytic {}",
            analytic.total_time
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = steady_state_analysis(&[], 1);
    }
}

//! Recovery-cost models: retry-with-backoff and checkpoint/restart.
//!
//! Dataflow runtimes recover from *transient* faults (a stalled fabric
//! section, a dropped link packet burst) by re-enqueueing the affected
//! task after a backoff, and from *permanent* faults by remapping the
//! workload and restarting from the last checkpoint. The platforms'
//! `Degradable` models price the first with
//! [`RetryPolicy::retry_penalty_s`] and the second with
//! [`CheckpointModel::expected_lost_work_s`].

use serde::{Deserialize, Serialize};

/// Exponential-backoff retry policy for transient faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Backoff after the first failed attempt, seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each further failure.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_backoff_s: 1e-3,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Total extra time `failures` failed attempts cost: each attempt
    /// stalls for `stall_s` and is followed by its backoff delay.
    #[must_use]
    pub fn retry_penalty_s(&self, stall_s: f64, failures: u32) -> f64 {
        let mut penalty = 0.0;
        let mut backoff = self.base_backoff_s;
        for _ in 0..failures {
            penalty += stall_s + backoff;
            backoff *= self.multiplier;
        }
        penalty
    }
}

/// Checkpoint/restart cost model for permanent-fault recovery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointModel {
    /// Time between checkpoints, seconds.
    pub interval_s: f64,
    /// Cost of restoring from a checkpoint after a fault, seconds.
    pub restore_cost_s: f64,
}

impl Default for CheckpointModel {
    fn default() -> Self {
        Self {
            interval_s: 600.0,
            restore_cost_s: 15.0,
        }
    }
}

impl CheckpointModel {
    /// Expected work lost to one permanent fault: restore cost plus half a
    /// checkpoint interval of replayed steps (faults land uniformly within
    /// the interval).
    #[must_use]
    pub fn expected_lost_work_s(&self) -> f64 {
        self.restore_cost_s + self.interval_s / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy {
            base_backoff_s: 1.0,
            multiplier: 3.0,
        };
        // Failures cost (s + 1) + (s + 3) + (s + 9) with s = 0.
        assert!((policy.retry_penalty_s(0.0, 3) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_costs_are_positive_and_bounded() {
        let cp = CheckpointModel::default();
        assert!(cp.expected_lost_work_s() > cp.restore_cost_s);
    }
}

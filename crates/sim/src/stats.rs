//! Simulation results and derived statistics.

use serde::{Deserialize, Serialize};

/// Start/finish record of one simulated task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTiming {
    /// Task name as registered.
    pub name: String,
    /// Resource index the task ran on.
    pub resource: usize,
    /// Simulation time the task started.
    pub start: f64,
    /// Simulation time the task finished.
    pub finish: f64,
}

impl TaskTiming {
    /// Task service time.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// Outcome of a [`crate::Simulation`] run.
///
/// # Example
///
/// ```
/// use dabench_sim::{Resource, Simulation, TaskSpec};
/// let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
/// sim.add_task(TaskSpec::new("t", 0, 2.0));
/// let res = sim.run().unwrap();
/// assert_eq!(res.timings().len(), 1);
/// assert!((res.resource_utilization(0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    timings: Vec<TaskTiming>,
    resource_busy: Vec<f64>,
    makespan: f64,
}

impl SimResult {
    pub(crate) fn new(timings: Vec<TaskTiming>, resource_busy: Vec<f64>, makespan: f64) -> Self {
        Self {
            timings,
            resource_busy,
            makespan,
        }
    }

    /// Total simulated time until the last completion.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Per-task timing records, in task-id order.
    #[must_use]
    pub fn timings(&self) -> &[TaskTiming] {
        &self.timings
    }

    /// Total busy time of resource `r` (sum over its slots).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn resource_busy(&self, r: usize) -> f64 {
        self.resource_busy[r]
    }

    /// Busy fraction of resource `r` over the makespan (per single slot the
    /// value may exceed 1 for multi-slot resources; divide by capacity at
    /// the call site if needed).
    ///
    /// Returns 0 for an idle simulation (zero makespan).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn resource_utilization(&self, r: usize) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            self.resource_busy[r] / self.makespan
        }
    }

    /// Timing of the task named `name`, if present.
    #[must_use]
    pub fn timing_of(&self, name: &str) -> Option<&TaskTiming> {
        self.timings.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Resource, Simulation, TaskSpec};

    #[test]
    fn timing_lookup_by_name() {
        let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
        sim.add_task(TaskSpec::new("alpha", 0, 1.0));
        let res = sim.run().unwrap();
        assert!(res.timing_of("alpha").is_some());
        assert!(res.timing_of("beta").is_none());
    }

    #[test]
    fn duration_is_finish_minus_start() {
        let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
        sim.add_task(TaskSpec::new("t", 0, 2.5));
        let res = sim.run().unwrap();
        assert!((res.timings()[0].duration() - 2.5).abs() < 1e-12);
    }
}

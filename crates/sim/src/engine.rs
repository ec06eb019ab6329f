//! The event-driven execution engine.

use crate::stats::{SimResult, TaskTiming};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::error::Error;
use std::fmt;

/// Identifier of a task within a [`Simulation`] (dense, insertion order).
pub type TaskId = usize;

/// A finite-capacity execution resource (a kernel region, a section
/// executor, an IPU, a link…). `capacity` tasks may run concurrently.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resource {
    name: String,
    capacity: u32,
}

impl Resource {
    /// Create a resource with `capacity` concurrent slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; use [`Resource::try_new`] to handle
    /// invalid capacities gracefully.
    #[must_use]
    pub fn new(name: impl Into<String>, capacity: u32) -> Self {
        match Self::try_new(name, capacity) {
            Ok(r) => r,
            Err(e) => panic!("resource capacity must be positive: {e}"),
        }
    }

    /// Create a resource with `capacity` concurrent slots, rejecting
    /// invalid capacities instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidCapacity`] if `capacity` is zero.
    pub fn try_new(name: impl Into<String>, capacity: u32) -> Result<Self, SimError> {
        let name = name.into();
        if capacity == 0 {
            return Err(SimError::InvalidCapacity { resource: name });
        }
        Ok(Self { name, capacity })
    }

    /// Resource name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Concurrent slots.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

/// A unit of work: runs for `duration` seconds on resource `resource`,
/// after all of its dependencies have completed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    name: String,
    resource: usize,
    duration: f64,
    deps: Vec<TaskId>,
}

impl TaskSpec {
    /// Create a task bound to resource index `resource` lasting `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or non-finite; use
    /// [`TaskSpec::try_new`] to handle invalid durations gracefully.
    #[must_use]
    pub fn new(name: impl Into<String>, resource: usize, duration: f64) -> Self {
        match Self::try_new(name, resource, duration) {
            Ok(t) => t,
            Err(e) => panic!("duration must be finite and non-negative: {e}"),
        }
    }

    /// Create a task bound to resource index `resource` lasting `duration`,
    /// rejecting invalid durations instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDuration`] if `duration` is negative or
    /// non-finite.
    pub fn try_new(
        name: impl Into<String>,
        resource: usize,
        duration: f64,
    ) -> Result<Self, SimError> {
        let name = name.into();
        if !(duration.is_finite() && duration >= 0.0) {
            return Err(SimError::InvalidDuration {
                task: name,
                duration,
            });
        }
        Ok(Self {
            name,
            resource,
            duration,
            deps: Vec::new(),
        })
    }

    /// Add a dependency on an earlier task.
    #[must_use]
    pub fn after(mut self, dep: TaskId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Add several dependencies.
    #[must_use]
    pub fn after_all(mut self, deps: impl IntoIterator<Item = TaskId>) -> Self {
        self.deps.extend(deps);
        self
    }
}

/// Errors reported by [`Simulation::run`] and the fallible constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A resource was declared with zero capacity.
    InvalidCapacity {
        /// Offending resource name.
        resource: String,
    },
    /// A task was declared with a negative or non-finite duration.
    InvalidDuration {
        /// Offending task name.
        task: String,
        /// The rejected duration value.
        duration: f64,
    },
    /// A task references a resource index that was never registered.
    UnknownResource {
        /// Offending task name.
        task: String,
        /// The out-of-range resource index.
        resource: usize,
    },
    /// A task depends on a task id not yet added.
    UnknownDependency {
        /// Offending task name.
        task: String,
        /// The missing dependency id.
        dep: TaskId,
    },
    /// The dependency graph contains a cycle (or a forward reference).
    Deadlock {
        /// Number of tasks that never became ready.
        stuck: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidCapacity { resource } => {
                write!(f, "resource `{resource}` declared with zero capacity")
            }
            SimError::InvalidDuration { task, duration } => {
                write!(f, "task `{task}` declared with invalid duration {duration}")
            }
            SimError::UnknownResource { task, resource } => {
                write!(f, "task `{task}` references unknown resource {resource}")
            }
            SimError::UnknownDependency { task, dep } => {
                write!(f, "task `{task}` depends on unknown task {dep}")
            }
            SimError::Deadlock { stuck } => {
                write!(f, "simulation deadlocked with {stuck} tasks never ready")
            }
        }
    }
}

impl Error for SimError {}

/// A completion event in the pending-event heap (min-heap by time).
#[derive(Debug, PartialEq)]
struct Completion {
    time: f64,
    task: TaskId,
}

impl Eq for Completion {}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        // Tie-break on task id for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A discrete-event simulation: resources plus a task DAG.
///
/// Add resources at construction, tasks with [`Simulation::add_task`], then
/// call [`Simulation::run`]. Scheduling is work-conserving FIFO per
/// resource: when a slot frees up, the longest-waiting ready task bound to
/// that resource starts.
///
/// # Example
///
/// ```
/// use dabench_sim::{Resource, Simulation, TaskSpec};
///
/// let mut sim = Simulation::new(vec![Resource::new("a", 1), Resource::new("b", 1)]);
/// let first = sim.add_task(TaskSpec::new("produce", 0, 2.0));
/// sim.add_task(TaskSpec::new("consume", 1, 1.0).after(first));
/// let res = sim.run().unwrap();
/// assert!((res.makespan() - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct Simulation {
    resources: Vec<Resource>,
    tasks: Vec<TaskSpec>,
}

impl Simulation {
    /// Create a simulation over the given resources.
    #[must_use]
    pub fn new(resources: Vec<Resource>) -> Self {
        Self {
            resources,
            tasks: Vec::new(),
        }
    }

    /// Register a task, returning its id for use in dependencies.
    pub fn add_task(&mut self, task: TaskSpec) -> TaskId {
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    /// Execute the simulation to completion.
    ///
    /// Recorded as an `execute`-phase span (`sim.run`) with `sim.tasks` /
    /// `sim.makespan_s` counters when the observability recorder is on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on invalid resource/dependency references or if
    /// the dependency graph deadlocks.
    pub fn run(&self) -> Result<SimResult, SimError> {
        use dabench_core::obs;
        obs::span(obs::Phase::Execute, "sim.run", || {
            let result = self.run_inner();
            if let Ok(res) = &result {
                obs::counter("sim.tasks", self.tasks.len() as f64);
                obs::counter("sim.makespan_s", res.makespan());
            }
            result
        })
    }

    fn run_inner(&self) -> Result<SimResult, SimError> {
        let n = self.tasks.len();
        let nr = self.resources.len();

        for t in &self.tasks {
            if t.resource >= nr {
                return Err(SimError::UnknownResource {
                    task: t.name.clone(),
                    resource: t.resource,
                });
            }
        }

        let mut remaining_deps: Vec<usize> = Vec::with_capacity(n);
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                if d >= n {
                    return Err(SimError::UnknownDependency {
                        task: t.name.clone(),
                        dep: d,
                    });
                }
                dependents[d].push(i);
            }
            remaining_deps.push(t.deps.len());
        }

        let mut ready: Vec<VecDeque<TaskId>> = vec![VecDeque::new(); nr];
        for (i, t) in self.tasks.iter().enumerate() {
            if t.deps.is_empty() {
                ready[t.resource].push_back(i);
            }
        }

        let mut free_slots: Vec<u32> = self.resources.iter().map(Resource::capacity).collect();
        let mut start = vec![f64::NAN; n];
        let mut finish = vec![f64::NAN; n];
        let mut busy = vec![0.0f64; nr];
        let mut heap: BinaryHeap<Completion> = BinaryHeap::new();
        let mut now = 0.0f64;
        let mut completed = 0usize;

        let start_ready = |now: f64,
                           ready: &mut [VecDeque<TaskId>],
                           free_slots: &mut [u32],
                           start: &mut [f64],
                           heap: &mut BinaryHeap<Completion>,
                           tasks: &[TaskSpec],
                           r: usize| {
            while free_slots[r] > 0 {
                let Some(t) = ready[r].pop_front() else { break };
                free_slots[r] -= 1;
                start[t] = now;
                heap.push(Completion {
                    time: now + tasks[t].duration,
                    task: t,
                });
            }
        };

        for r in 0..nr {
            start_ready(
                now,
                &mut ready,
                &mut free_slots,
                &mut start,
                &mut heap,
                &self.tasks,
                r,
            );
        }

        while let Some(Completion { time, task }) = heap.pop() {
            now = time;
            finish[task] = now;
            completed += 1;
            let r = self.tasks[task].resource;
            free_slots[r] += 1;
            busy[r] += self.tasks[task].duration;

            let mut touched: Vec<usize> = vec![r];
            for &dep in &dependents[task] {
                remaining_deps[dep] -= 1;
                if remaining_deps[dep] == 0 {
                    let tr = self.tasks[dep].resource;
                    ready[tr].push_back(dep);
                    touched.push(tr);
                }
            }
            touched.sort_unstable();
            touched.dedup();
            for r in touched {
                start_ready(
                    now,
                    &mut ready,
                    &mut free_slots,
                    &mut start,
                    &mut heap,
                    &self.tasks,
                    r,
                );
            }
        }

        if completed != n {
            return Err(SimError::Deadlock {
                stuck: n - completed,
            });
        }

        let timings = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskTiming {
                name: t.name.clone(),
                resource: t.resource,
                start: start[i],
                finish: finish[i],
            })
            .collect();
        Ok(SimResult::new(timings, busy, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_completes_at_zero() {
        let sim = Simulation::new(vec![Resource::new("r", 1)]);
        let res = sim.run().unwrap();
        assert_eq!(res.makespan(), 0.0);
    }

    #[test]
    fn serial_on_one_slot() {
        let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
        for i in 0..4 {
            sim.add_task(TaskSpec::new(format!("t{i}"), 0, 1.0));
        }
        assert!((sim.run().unwrap().makespan() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_on_wide_resource() {
        let mut sim = Simulation::new(vec![Resource::new("r", 4)]);
        for i in 0..4 {
            sim.add_task(TaskSpec::new(format!("t{i}"), 0, 1.0));
        }
        assert!((sim.run().unwrap().makespan() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dependency_chains_serialize() {
        let mut sim = Simulation::new(vec![Resource::new("r", 8)]);
        let a = sim.add_task(TaskSpec::new("a", 0, 1.0));
        let b = sim.add_task(TaskSpec::new("b", 0, 2.0).after(a));
        sim.add_task(TaskSpec::new("c", 0, 3.0).after(b));
        assert!((sim.run().unwrap().makespan() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_overlaps_branches() {
        let mut sim = Simulation::new(vec![Resource::new("r", 2)]);
        let a = sim.add_task(TaskSpec::new("a", 0, 1.0));
        let b = sim.add_task(TaskSpec::new("b", 0, 5.0).after(a));
        let c = sim.add_task(TaskSpec::new("c", 0, 2.0).after(a));
        sim.add_task(TaskSpec::new("d", 0, 1.0).after_all([b, c]));
        assert!((sim.run().unwrap().makespan() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
        sim.add_task(TaskSpec::new("t", 3, 1.0));
        assert!(matches!(
            sim.run(),
            Err(SimError::UnknownResource { resource: 3, .. })
        ));
    }

    #[test]
    fn forward_dependency_rejected() {
        let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
        sim.add_task(TaskSpec::new("t", 0, 1.0).after(7));
        assert!(matches!(
            sim.run(),
            Err(SimError::UnknownDependency { dep: 7, .. })
        ));
    }

    #[test]
    fn cyclic_deps_deadlock() {
        // Two tasks each depending on the other can only be expressed by a
        // forward reference; build the cycle with ids after both exist.
        let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
        sim.add_task(TaskSpec::new("a", 0, 1.0).after(1));
        sim.add_task(TaskSpec::new("b", 0, 1.0).after(0));
        assert!(matches!(sim.run(), Err(SimError::Deadlock { stuck: 2 })));
    }

    #[test]
    fn busy_time_equals_sum_of_durations() {
        let mut sim = Simulation::new(vec![Resource::new("r", 2)]);
        sim.add_task(TaskSpec::new("a", 0, 1.5));
        sim.add_task(TaskSpec::new("b", 0, 2.5));
        let res = sim.run().unwrap();
        assert!((res.resource_busy(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_bounded_by_one() {
        let mut sim = Simulation::new(vec![Resource::new("r", 2)]);
        for i in 0..8 {
            sim.add_task(TaskSpec::new(format!("t{i}"), 0, 1.0));
        }
        let res = sim.run().unwrap();
        // Multi-slot utilization is per-resource, so divide by capacity.
        let util = res.resource_utilization(0) / 2.0;
        assert!(util > 0.99 && util <= 1.0 + 1e-12, "{util}");
    }

    #[test]
    fn cross_resource_pipeline() {
        // prod -> cons on different resources; second prod overlaps first cons.
        let mut sim = Simulation::new(vec![Resource::new("p", 1), Resource::new("c", 1)]);
        let p0 = sim.add_task(TaskSpec::new("p0", 0, 1.0));
        let p1 = sim.add_task(TaskSpec::new("p1", 0, 1.0).after(p0));
        sim.add_task(TaskSpec::new("c0", 1, 1.0).after(p0));
        sim.add_task(TaskSpec::new("c1", 1, 1.0).after(p1));
        let res = sim.run().unwrap();
        assert!((res.makespan() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Resource::new("r", 0);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn negative_duration_rejected() {
        let _ = TaskSpec::new("t", 0, -1.0);
    }

    #[test]
    fn try_new_rejects_zero_capacity_without_panicking() {
        assert!(matches!(
            Resource::try_new("r", 0),
            Err(SimError::InvalidCapacity { .. })
        ));
        assert!(Resource::try_new("r", 1).is_ok());
    }

    #[test]
    fn try_new_rejects_bad_durations_without_panicking() {
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                TaskSpec::try_new("t", 0, bad),
                Err(SimError::InvalidDuration { .. })
            ));
        }
        assert!(TaskSpec::try_new("t", 0, 0.0).is_ok());
    }

    #[test]
    fn constructor_error_display_names_offender() {
        let e = Resource::try_new("wafer", 0).unwrap_err();
        assert!(e.to_string().contains("wafer"));
        let e = TaskSpec::try_new("stream3", 0, f64::NAN).unwrap_err();
        assert!(e.to_string().contains("stream3"));
    }

    #[test]
    fn equal_time_completions_pop_in_task_id_order() {
        // a and b run concurrently and finish at the same instant; their
        // dependents contend for one downstream slot. The tie must break
        // on task id — a's dependent (queued first) starts first — so the
        // schedule is a pure function of the task list.
        let mut sim = Simulation::new(vec![Resource::new("up", 2), Resource::new("down", 1)]);
        let a = sim.add_task(TaskSpec::new("a", 0, 1.0));
        let b = sim.add_task(TaskSpec::new("b", 0, 1.0));
        sim.add_task(TaskSpec::new("da", 1, 1.0).after(a));
        sim.add_task(TaskSpec::new("db", 1, 1.0).after(b));
        let res = sim.run().unwrap();
        let da = res.timing_of("da").unwrap();
        let db = res.timing_of("db").unwrap();
        assert!((da.start - 1.0).abs() < 1e-12, "{}", da.start);
        assert!((db.start - 2.0).abs() < 1e-12, "{}", db.start);
    }

    #[test]
    fn heap_order_is_time_then_task_id() {
        let mut heap = BinaryHeap::new();
        heap.push(Completion { time: 2.0, task: 0 });
        heap.push(Completion { time: 1.0, task: 2 });
        heap.push(Completion { time: 1.0, task: 1 });
        let order: Vec<TaskId> = std::iter::from_fn(|| heap.pop()).map(|c| c.task).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }
}

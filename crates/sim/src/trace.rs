//! Per-resource timelines of simulated schedules, and their bridge into
//! the observability recorder (rendered in the Chrome trace).

use crate::stats::SimResult;
use serde::{Deserialize, Serialize};

/// One busy interval on a resource's timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Task that occupied the slot.
    pub task: String,
    /// Start time, seconds.
    pub start: f64,
    /// Finish time, seconds.
    pub finish: f64,
}

/// Per-resource timeline extracted from a [`SimResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Resource name.
    pub resource: String,
    /// Intervals sorted by start time.
    pub intervals: Vec<Interval>,
}

/// Feed timelines into the observability recorder as simulated-time
/// slices (`dabench_core::obs::slice`), one track per resource.
///
/// No-op when the recorder is disabled, so simulation callers can invoke
/// it unconditionally after [`timelines`].
pub fn record_timelines(timelines: &[Timeline]) {
    if !dabench_core::obs::is_enabled() {
        return;
    }
    for tl in timelines {
        for iv in &tl.intervals {
            dabench_core::obs::slice(&tl.resource, &iv.task, iv.start, iv.finish - iv.start);
        }
    }
}

/// Extract per-resource timelines from a simulation result.
///
/// # Example
///
/// ```
/// use dabench_sim::{trace, Resource, Simulation, TaskSpec};
///
/// let mut sim = Simulation::new(vec![Resource::new("r", 1)]);
/// sim.add_task(TaskSpec::new("a", 0, 1.0));
/// sim.add_task(TaskSpec::new("b", 0, 2.0));
/// let res = sim.run().unwrap();
/// let tl = trace::timelines(&res);
/// assert_eq!(tl[0].intervals.len(), 2);
/// ```
#[must_use]
pub fn timelines(result: &SimResult) -> Vec<Timeline> {
    result
        .resource_names()
        .iter()
        .enumerate()
        .map(|(r, name)| {
            let mut intervals: Vec<Interval> = result
                .timings()
                .iter()
                .filter(|t| t.resource == r)
                .map(|t| Interval {
                    task: t.name.clone(),
                    start: t.start,
                    finish: t.finish,
                })
                .collect();
            intervals.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite times"));
            Timeline {
                resource: name.clone(),
                intervals,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Resource, Simulation, TaskSpec};

    fn pipeline_sim() -> SimResult {
        let mut sim = Simulation::new(vec![Resource::new("p", 1), Resource::new("c", 1)]);
        let a = sim.add_task(TaskSpec::new("a", 0, 1.0));
        let b = sim.add_task(TaskSpec::new("b", 0, 1.0).after(a));
        sim.add_task(TaskSpec::new("ca", 1, 1.0).after(a));
        sim.add_task(TaskSpec::new("cb", 1, 1.0).after(b));
        sim.run().unwrap()
    }

    #[test]
    fn timelines_are_sorted_and_complete() {
        let tl = timelines(&pipeline_sim());
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].intervals.len() + tl[1].intervals.len(), 4);
        for t in &tl {
            for w in t.intervals.windows(2) {
                assert!(w[0].start <= w[1].start);
            }
        }
    }

    #[test]
    fn consumer_has_initial_idle() {
        let tl = timelines(&pipeline_sim());
        let consumer = tl.iter().find(|t| t.resource == "c").unwrap();
        // Consumer starts at t=1, once the producer's first task is done.
        assert_eq!(consumer.intervals[0].start, 1.0);
    }

    #[test]
    fn record_timelines_is_inert_when_recorder_is_off() {
        // Must not panic or record anything without an enabled recorder.
        dabench_core::obs::disable();
        record_timelines(&timelines(&pipeline_sim()));
        assert!(dabench_core::obs::take().is_empty());
    }
}

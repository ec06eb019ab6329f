//! The supervised sweep loop shared by single-process `dabench all` and
//! the hidden `dabench shard-worker` mode.
//!
//! Both callers run the same code over `(global index, label)` points:
//! journaled-replay short-circuit, failure injection, panic/deadline/retry
//! supervision, durable journaling of every outcome, and metrics-digest
//! journaling so `--resume` (and the shard merge) replay byte-identical
//! traces. The only behavioral switch is [`RunnerConfig::journal_started`]:
//! shard workers durably journal a `started` record before running each
//! point — the marker that lets a respawned worker count prior process
//! lives (and lets counted `abort:N` / `exit:CODE:N` injections clear) —
//! while the single-process path writes exactly the records it always
//! has, keeping its journal bytes unchanged.

use crate::core::obs;
use crate::core::supervise::{Injection, SupervisePolicy, STATUS_STARTED};
use crate::core::{
    par_map, supervise_point, PlatformError, PointOutcome, PointTrace, Replay, RunJournal,
};
use crate::suite::render_experiment;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU32;
use std::sync::Mutex;

/// Policy and hooks for one supervised sweep.
pub struct RunnerConfig {
    /// Deadline / retry policy applied to every point.
    pub policy: SupervisePolicy,
    /// Failure injections by point label (`DABENCH_INJECT`).
    pub injections: BTreeMap<String, Injection>,
    /// Shard-worker mode: journal a durable [`STATUS_STARTED`] record
    /// before each point and honor process-level injections against the
    /// replayed start count.
    pub journal_started: bool,
}

/// Run `points` (global experiment index, label) under supervision,
/// journaling every outcome. Returns outcomes in input order —
/// byte-identical downstream output at any `--jobs`.
///
/// # Errors
///
/// The first journal append failure: a journal that cannot persist must
/// stop the run, or `--resume` would silently re-execute points it
/// believes are unrecorded.
pub fn run_supervised_points(
    points: &[(usize, String)],
    cfg: &RunnerConfig,
    journal: Option<&Mutex<RunJournal>>,
    replay: &Replay,
) -> Result<Vec<PointOutcome<String>>, String> {
    let journal_error: Mutex<Option<String>> = Mutex::new(None);
    let note_journal_error = |name: &str, e: &std::io::Error| {
        journal_error
            .lock()
            .expect("journal error lock")
            .get_or_insert_with(|| format!("journal append for `{name}`: {e}"));
    };
    let outcomes = par_map(points, |(index, name)| {
        let i = *index as u64;
        if let Some(value) = replay.completed.get(name) {
            return PointOutcome::Journaled {
                value: value.clone(),
            };
        }
        if cfg.journal_started {
            // Durable "about to start" marker *before* any injected
            // process death, so the count of lives spent on this point
            // survives the crash it is about to cause.
            let prior = replay.started.get(name).copied().unwrap_or(0);
            if let Some(journal) = journal {
                let appended = journal.lock().expect("journal lock").append(
                    name,
                    STATUS_STARTED,
                    &format!("life={prior}"),
                );
                if let Err(e) = appended {
                    note_journal_error(name, &e);
                }
            }
            if let Some(injection) = cfg.injections.get(name) {
                injection.fire_process(prior);
            }
        }
        let injection = cfg.injections.get(name).copied();
        let attempts = AtomicU32::new(0);
        let point = name.clone();
        let outcome = supervise_point(name, &cfg.policy, move || {
            // Retry hygiene: a previous failed attempt of this point may
            // have flushed partial traces; they must not leak into the
            // output of the attempt that eventually succeeds.
            let _ = obs::drain_prefix(&[i]);
            if let Some(injection) = injection {
                injection.fire_counted(&attempts)?;
            }
            obs::with_point(i, &point, || render_experiment(&point))
                .ok_or_else(|| PlatformError::Unsupported(format!("no renderer for `{point}`")))
        });
        if let Some(journal) = journal {
            let data = match &outcome {
                PointOutcome::Completed { value, .. } => Some(value.clone()),
                PointOutcome::Failed { error, .. } => Some(error.to_string()),
                PointOutcome::Panicked { message } => Some(message.clone()),
                PointOutcome::TimedOut { deadline } => {
                    Some(format!("exceeded {:.1} s deadline", deadline.as_secs_f64()))
                }
                PointOutcome::Journaled { .. } => None,
            };
            if let Some(data) = data {
                let appended =
                    journal
                        .lock()
                        .expect("journal lock")
                        .append(name, outcome.status(), &data);
                if let Err(e) = appended {
                    note_journal_error(name, &e);
                }
            }
        }
        // Harvest this point's traces. Completed points journal their
        // digest (so `--resume` replays the same metrics) and go back into
        // the sink; failed points are dropped so the trace only ever
        // reflects what printed. Journaled points keep their replayed
        // traces untouched.
        if obs::is_enabled() && !matches!(outcome, PointOutcome::Journaled { .. }) {
            let traces = obs::drain_prefix(&[i]);
            if matches!(outcome, PointOutcome::Completed { .. }) && !traces.is_empty() {
                if let Some(journal) = journal {
                    let digest = traces
                        .iter()
                        .map(PointTrace::digest)
                        .collect::<Vec<_>>()
                        .join("\n");
                    let appended = journal
                        .lock()
                        .expect("journal lock")
                        .append(name, "metrics", &digest);
                    if let Err(e) = appended {
                        note_journal_error(name, &e);
                    }
                }
                obs::inject(traces);
            }
        }
        outcome
    });
    if let Some(e) = journal_error.into_inner().expect("journal error lock") {
        return Err(e);
    }
    Ok(outcomes)
}

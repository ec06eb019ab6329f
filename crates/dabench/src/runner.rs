//! The supervised sweep loop shared by single-process `dabench all` and
//! the hidden `dabench shard-worker` mode.
//!
//! Both callers run the same code over `(global index, label)` points:
//! journaled-replay short-circuit, failure injection, panic/deadline/retry
//! supervision, journaling of every outcome, and metrics-digest
//! journaling so `--resume` (and the shard merge) replay byte-identical
//! traces. Each record is one `write(2)`; a [`GroupCommit`] fsyncs them
//! in groups behind the points, and the sweep returns only once an fsync
//! has covered every record it wrote. The only behavioral switch is
//! [`RunnerConfig::journal_started`]: shard workers journal a `started`
//! record before running each point — the marker that lets a respawned
//! worker count prior process lives (and lets counted `abort:N` /
//! `exit:CODE:N` injections clear) — while the single-process path
//! writes exactly the records it always has, keeping its journal bytes
//! unchanged.

use crate::core::obs;
use crate::core::supervise::{GroupCommit, Injection, SupervisePolicy, STATUS_STARTED};
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
    /// Shard-worker mode: journal a [`STATUS_STARTED`] record before each
    /// point and honor process-level injections against the replayed
    /// start count.
    pub journal_started: bool,
}

/// Run `points` (global experiment index, label) under supervision,
/// journaling every outcome. Returns outcomes in input order —
/// byte-identical downstream output at any `--jobs` — and only after an
/// fsync has covered every record the sweep wrote, so nothing is printed
/// or merged about a point whose records a power loss could still take.
///
/// # Errors
///
/// The first journal write failure, else a failed fsync: a journal that
/// cannot persist must stop the run, or `--resume` would silently
/// re-execute points it believes are unrecorded.
pub fn run_supervised_points(
    points: &[(usize, String)],
    cfg: &RunnerConfig,
    journal: Option<&Mutex<RunJournal>>,
    replay: &Replay,
) -> Result<Vec<PointOutcome<String>>, String> {
    let commit = journal
        .map(|j| j.lock().expect("journal lock").group_commit())
        .transpose()
        .map_err(|e| format!("journal syncer: {e}"))?;
    let journal_error: Mutex<Option<String>> = Mutex::new(None);
    let record = |name: &str, status: &str, data: &str| {
        let (Some(journal), Some(commit)) = (journal, &commit) else {
            return;
        };
        let written = journal
            .lock()
            .expect("journal lock")
            .write(name, status, data);
        match written {
            Ok(()) => commit.written(),
            Err(e) => {
                journal_error
                    .lock()
                    .expect("journal error lock")
                    .get_or_insert_with(|| format!("journal append for `{name}`: {e}"));
            }
        }
    };
    let outcomes = par_map(points, |(index, name)| {
        let i = *index as u64;
        if let Some(value) = replay.completed.get(name) {
            return PointOutcome::Journaled {
                value: value.clone(),
            };
        }
        if cfg.journal_started {
            // "About to start" marker *before* any injected process
            // death: once written, the kill cannot take it, so the count
            // of lives spent on this point survives the crash it is
            // about to cause.
            let prior = replay.started.get(name).copied().unwrap_or(0);
            record(name, STATUS_STARTED, &format!("life={prior}"));
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
        if journal.is_some() {
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
                record(name, outcome.status(), &data);
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
                if journal.is_some() {
                    let digest = traces
                        .iter()
                        .map(PointTrace::digest)
                        .collect::<Vec<_>>()
                        .join("\n");
                    record(name, "metrics", &digest);
                }
                obs::inject(traces);
            }
        }
        outcome
    });
    let synced = commit.map_or(Ok(()), GroupCommit::finish);
    if let Some(e) = journal_error.into_inner().expect("journal error lock") {
        return Err(e);
    }
    synced.map_err(|e| format!("journal sync: {e}"))?;
    Ok(outcomes)
}

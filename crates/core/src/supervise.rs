//! Supervised execution of experiment points: panic isolation, wall-clock
//! deadlines, bounded retries, and a crash-safe run journal.
//!
//! Long multi-point sweeps on real accelerator clusters die in ways the
//! points themselves cannot anticipate — a compiler panic, a hung run, a
//! flaky device — and losing an hours-long sweep to one poisoned point is
//! the dominant operational cost of benchmarking (the failure mode
//! LLM-Inference-Bench documents across heterogeneous accelerators). This
//! module wraps every experiment point in a supervisor,
//! [`supervise_point`]`(label, policy, f)`, where `f` renders the point:
//!
//! - **Panic isolation**: a panicking point becomes a structured
//!   [`PointOutcome::Panicked`] carrying the point's label, instead of
//!   unwinding through the whole sweep.
//! - **Deadlines**: [`SupervisePolicy::deadline`] runs the point under a
//!   watchdog; an overrun is recorded as [`PointOutcome::TimedOut`] and the
//!   runaway attempt is abandoned (its thread is detached, never joined).
//! - **Bounded retries**: attempts that return a *retryable*
//!   [`PlatformError`] (see [`PlatformError::is_retryable`]) are retried
//!   up to [`SupervisePolicy::max_retries`] times, after a fixed linear
//!   backoff ([`RETRY_BACKOFF`] times the retry number).
//! - **Crash-safe journal**: [`RunJournal`] holds one JSONL record per
//!   finished point, each written with one `write(2)`; a sweep's records
//!   reach the disk through a [`GroupCommit`] before the sweep reports
//!   anything. A killed run can be resumed with [`RunJournal::resume`],
//!   replaying completed points verbatim so the final output is
//!   byte-identical to an uninterrupted run.
//!
//! The caller folds outcomes into a [`RunReport`] whose rendering is
//! deterministic (input order, fixed formatting), suitable for diffing
//! across runs.

use crate::error::PlatformError;
use crate::jsonl;
use std::any::Any;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Render a caught panic payload as text (panics raise `&str` or `String`
/// payloads in practice; anything else is reported opaquely).
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Run `f` catching panics; a panic becomes `Err` carrying the point's
/// label and the panic message. The lightest supervision primitive — used
/// where a full [`SupervisePolicy`] is overkill (e.g. per-point isolation
/// inside `resilience_sweep`).
///
/// # Errors
///
/// Returns `Err` with a `point `label` panicked: …` message when `f`
/// panicked.
pub fn catch_labeled<R>(label: &str, f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|p| format!("point `{label}` panicked: {}", panic_message(p.as_ref())))
}

/// Run `f`, re-raising any panic with the point's label prefixed so the
/// failure names which sweep point died. Experiments wrap each point in
/// this so `par_map`'s propagated panic is diagnosable.
pub fn with_point_label<R>(label: &str, f: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => panic!("point `{label}`: {}", panic_message(p.as_ref())),
    }
}

/// How the supervisor treats one experiment point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SupervisePolicy {
    /// Wall-clock budget per attempt; `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Additional attempts allowed after a retryable failure.
    pub max_retries: u32,
}

/// Pause before retry `k` of a point is `RETRY_BACKOFF * k`.
pub const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Structured result of one supervised experiment point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<U> {
    /// The point produced a value (possibly after retries).
    Completed {
        /// The point's result.
        value: U,
        /// Retries consumed before success (0 = first attempt).
        retries: u32,
    },
    /// The point's value was replayed from a run journal; it was not
    /// re-executed.
    Journaled {
        /// The journaled result.
        value: U,
    },
    /// Every allowed attempt returned an error.
    Failed {
        /// The final attempt's error.
        error: PlatformError,
        /// Retries consumed (0 = the error was not retryable).
        retries: u32,
    },
    /// An attempt panicked; the message carries the point's label.
    Panicked {
        /// Labelled panic message.
        message: String,
    },
    /// An attempt exceeded the wall-clock deadline and was abandoned.
    TimedOut {
        /// The deadline that was exceeded.
        deadline: Duration,
    },
}

impl<U> PointOutcome<U> {
    /// The point's value, when it has one (completed or journaled).
    #[must_use]
    pub fn into_value(self) -> Option<U> {
        match self {
            PointOutcome::Completed { value, .. } | PointOutcome::Journaled { value } => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Stable status keyword (also the journal's `status` field).
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            PointOutcome::Completed { .. } => "completed",
            PointOutcome::Journaled { .. } => "journaled",
            PointOutcome::Failed { .. } => "failed",
            PointOutcome::Panicked { .. } => "panicked",
            PointOutcome::TimedOut { .. } => "timed-out",
        }
    }
}

/// Process-wide count of runaway point threads abandoned by the deadline
/// watchdog (see [`abandoned_threads`]).
static ABANDONED_THREADS: AtomicU64 = AtomicU64::new(0);

/// How many runaway point threads this process has abandoned so far.
///
/// [`supervise_point`] cannot join a thread that blew its deadline — it
/// detaches it and moves on — so every `TimedOut` outcome leaks one
/// thread until the point's body eventually returns (or the process
/// exits). This counter is the trace of that leak: it is also published
/// on the obs bus as `supervise.abandoned_threads` (when a point context
/// is open) and surfaced by [`RunReport::render`].
#[must_use]
pub fn abandoned_threads() -> u64 {
    ABANDONED_THREADS.load(Ordering::Relaxed)
}

enum AttemptAbort {
    Panicked(String),
    TimedOut,
}

fn run_attempt<U, F>(
    deadline: Option<Duration>,
    f: &Arc<F>,
) -> Result<Result<U, PlatformError>, AttemptAbort>
where
    U: Send + 'static,
    F: Fn() -> Result<U, PlatformError> + Send + Sync + 'static,
{
    let Some(deadline) = deadline else {
        return catch_unwind(AssertUnwindSafe(|| f()))
            .map_err(|p| AttemptAbort::Panicked(panic_message(p.as_ref())));
    };
    let (tx, rx) = mpsc::channel();
    let point = Arc::clone(f);
    // The attempt runs on behalf of this thread: if it is a `par_map`
    // worker, the point's nested sweeps must stay inline here too.
    let on_worker = crate::parallel::on_worker();
    std::thread::Builder::new()
        .name("dabench-supervised-point".to_owned())
        .spawn(move || {
            crate::parallel::mark_worker(on_worker);
            let result = catch_unwind(AssertUnwindSafe(|| point()));
            let _ = tx.send(result);
        })
        .expect("spawn supervised point thread");
    match rx.recv_timeout(deadline) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(p)) => Err(AttemptAbort::Panicked(panic_message(p.as_ref()))),
        // Timeout: the point thread keeps running detached; we abandon it.
        Err(mpsc::RecvTimeoutError::Timeout) => Err(AttemptAbort::TimedOut),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(AttemptAbort::Panicked(
            "point thread exited without reporting a result".to_owned(),
        )),
    }
}

/// Run one experiment point, labelled `label`, under full supervision.
///
/// A panicking attempt is not retried (panics indicate bugs, not flakes);
/// retryable [`PlatformError`]s are retried up to `policy.max_retries`
/// times, pausing [`RETRY_BACKOFF`] times the retry number before each.
pub fn supervise_point<U, F>(label: &str, policy: &SupervisePolicy, f: F) -> PointOutcome<U>
where
    U: Send + 'static,
    F: Fn() -> Result<U, PlatformError> + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut retries = 0u32;
    loop {
        match run_attempt(policy.deadline, &f) {
            Ok(Ok(value)) => return PointOutcome::Completed { value, retries },
            Ok(Err(error)) if error.is_retryable() && retries < policy.max_retries => {
                retries += 1;
                std::thread::sleep(RETRY_BACKOFF * retries);
            }
            Ok(Err(error)) => return PointOutcome::Failed { error, retries },
            Err(AttemptAbort::Panicked(message)) => {
                return PointOutcome::Panicked {
                    message: format!("point `{label}`: {message}"),
                }
            }
            Err(AttemptAbort::TimedOut) => {
                ABANDONED_THREADS.fetch_add(1, Ordering::Relaxed);
                crate::obs::counter("supervise.abandoned_threads", 1.0);
                return PointOutcome::TimedOut {
                    deadline: policy.deadline.unwrap_or_default(),
                };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Failure injection (test hook)
// ---------------------------------------------------------------------------

/// Environment variable carrying failure-injection clauses.
pub const INJECT_ENV: &str = "DABENCH_INJECT";

/// Which [`PlatformError`] an `err:KIND` injection raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedErrorKind {
    /// A transient device flake — retryable.
    DeviceFault,
    /// A compiler-service hiccup — retryable.
    CompileFailure,
    /// A deterministic capacity overflow — not retryable.
    OutOfMemory,
    /// A deterministic configuration rejection — not retryable.
    Unsupported,
}

impl InjectedErrorKind {
    fn parse(kind: &str) -> Option<Self> {
        Some(match kind {
            "device_fault" => InjectedErrorKind::DeviceFault,
            "compile_failure" => InjectedErrorKind::CompileFailure,
            "oom" => InjectedErrorKind::OutOfMemory,
            "unsupported" => InjectedErrorKind::Unsupported,
            _ => return None,
        })
    }

    /// The injected error, labelled so reports clearly show it came from
    /// the test hook and not from a platform model.
    #[must_use]
    pub fn to_error(self) -> PlatformError {
        match self {
            InjectedErrorKind::DeviceFault => PlatformError::DeviceFault {
                unit: "injected".into(),
                detail: "transient fault (DABENCH_INJECT)".into(),
            },
            InjectedErrorKind::CompileFailure => {
                PlatformError::CompileFailure("injected compile failure (DABENCH_INJECT)".into())
            }
            InjectedErrorKind::OutOfMemory => PlatformError::OutOfMemory {
                level: "injected".into(),
                required_bytes: 2,
                capacity_bytes: 1,
            },
            InjectedErrorKind::Unsupported => PlatformError::Unsupported(
                "injected unsupported configuration (DABENCH_INJECT)".into(),
            ),
        }
    }
}

/// Test-only failure injection, from the [`INJECT_ENV`] env var: a
/// comma-separated list of `<point>=panic`, `<point>=sleep:SECS`,
/// `<point>=err:KIND[:N]`, `<point>=abort[:N]`, or `<point>=exit:CODE[:N]`
/// clauses. Lets integration tests and the CI crash-recovery jobs exercise
/// panic isolation, deadlines, retryable error paths, and mid-run kills
/// without planting bugs in the experiments themselves.
///
/// `err:KIND` raises the corresponding [`PlatformError`] on **every**
/// attempt; `err:KIND:N` raises it on the first `N` attempts only, so
/// retry-to-success is testable end-to-end (`err:device_fault:2` with
/// `--max-retries 2` succeeds on the third attempt). Kinds:
/// `device_fault`, `compile_failure` (retryable), `oom`, `unsupported`
/// (not retryable).
///
/// `abort` and `exit:CODE` are **process-level** actions fired at point
/// *start* (see [`Injection::fire_process`]), the deterministic stand-in
/// for a SIGKILL'd or OOM-killed shard worker: `abort` raises `SIGABRT`
/// via [`std::process::abort`], `exit:CODE` calls [`std::process::exit`].
/// The counted forms (`abort:N`, `exit:CODE:N`) fire only while the
/// point's journaled start count — the number of `started` records already
/// in the shard journal — is below `N`, so a respawned worker survives
/// its second attempt and shard-death-plus-recovery is testable
/// end-to-end without external kill timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// Panic on every attempt.
    Panic,
    /// Sleep for the given seconds on every attempt (deadline / kill
    /// window testing).
    SleepSecs(f64),
    /// Raise a [`PlatformError`] on the first `failures` attempts
    /// (`u32::MAX` = every attempt).
    Err {
        /// Which error to raise.
        kind: InjectedErrorKind,
        /// How many leading attempts fail before the injection clears.
        failures: u32,
    },
    /// `std::process::abort()` at point start while the journaled start
    /// count is below `failures` (`u32::MAX` = always).
    Abort {
        /// How many leading process-level starts die before the
        /// injection clears.
        failures: u32,
    },
    /// `std::process::exit(code)` at point start while the journaled start
    /// count is below `failures` (`u32::MAX` = always).
    Exit {
        /// The exit code to die with.
        code: u8,
        /// How many leading process-level starts die before the
        /// injection clears.
        failures: u32,
    },
    /// Perturb one observation fed to the `dabench gen` metamorphic
    /// invariant checker so the named invariant is violated
    /// (`gen=violate:<invariant>`) — the seeded counterexample proving
    /// the checker fails loudly. A no-op in the supervised loop itself;
    /// the gen driver reads it from the injection map and applies the
    /// perturbation to its own derived observations.
    Violate(crate::gen::Invariant),
}

impl Injection {
    /// Act on this injection for 0-based attempt number `attempt`:
    /// panic, sleep, or return the injected error.
    ///
    /// # Errors
    ///
    /// The injected [`PlatformError`] while `attempt < failures`.
    ///
    /// # Panics
    ///
    /// [`Injection::Panic`] panics with a message naming the hook.
    pub fn fire(&self, attempt: u32) -> Result<(), PlatformError> {
        match *self {
            Injection::Panic => panic!("injected failure (DABENCH_INJECT)"),
            Injection::SleepSecs(s) => {
                std::thread::sleep(Duration::from_secs_f64(s));
                Ok(())
            }
            Injection::Err { kind, failures } => {
                if attempt < failures {
                    Err(kind.to_error())
                } else {
                    Ok(())
                }
            }
            // Process-level actions are fired by `fire_process` at point
            // start, never inside a supervised attempt (aborting under
            // catch_unwind would still kill the process, but keeping the
            // two planes separate makes counted semantics unambiguous:
            // attempts count retries, starts count process lives).
            Injection::Abort { .. } | Injection::Exit { .. } | Injection::Violate(_) => Ok(()),
        }
    }

    /// [`Injection::fire`] with the attempt number taken from (and
    /// advanced in) `attempts` — the natural shape inside a retried
    /// [`supervise_point`] closure.
    ///
    /// # Errors
    ///
    /// The injected [`PlatformError`], as for [`Injection::fire`].
    pub fn fire_counted(
        &self,
        attempts: &std::sync::atomic::AtomicU32,
    ) -> Result<(), PlatformError> {
        let attempt = attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.fire(attempt)
    }

    /// Act on a **process-level** injection (`abort`, `exit:CODE`) at
    /// point start. `prior_starts` is the number of times this point has
    /// already been started by *some* process — for shard workers, the
    /// count of `started` records in the shard journal
    /// ([`Replay::started`]), so the injection survives respawns exactly
    /// `failures` times. Single-process callers pass 0 (the injection
    /// always fires). Attempt-level injections are a no-op here.
    pub fn fire_process(&self, prior_starts: u32) {
        match *self {
            Injection::Abort { failures } if prior_starts < failures => {
                eprintln!("injected abort (DABENCH_INJECT)");
                std::process::abort();
            }
            Injection::Exit { code, failures } if prior_starts < failures => {
                eprintln!("injected exit:{code} (DABENCH_INJECT)");
                std::process::exit(i32::from(code));
            }
            _ => {}
        }
    }
}

/// Parse one `DABENCH_INJECT` clause list (see [`Injection`]).
///
/// # Errors
///
/// A human-readable message naming the offending clause.
pub fn parse_injection_clauses(raw: &str) -> Result<BTreeMap<String, Injection>, String> {
    let mut map = BTreeMap::new();
    for clause in raw.split(',').filter(|c| !c.trim().is_empty()) {
        let (name, action) = clause
            .split_once('=')
            .ok_or_else(|| format!("DABENCH_INJECT `{clause}`: expected name=action"))?;
        let injection =
            if action == "panic" {
                Injection::Panic
            } else if let Some(secs) = action.strip_prefix("sleep:") {
                Injection::SleepSecs(
                    secs.parse()
                        .map_err(|e| format!("DABENCH_INJECT `{clause}`: {e}"))?,
                )
            } else if let Some(spec) = action.strip_prefix("err:") {
                let (kind, failures) = match spec.split_once(':') {
                    Some((kind, count)) => (
                        kind,
                        count
                            .parse::<u32>()
                            .map_err(|e| format!("DABENCH_INJECT `{clause}`: {e}"))?,
                    ),
                    None => (spec, u32::MAX),
                };
                let kind = InjectedErrorKind::parse(kind).ok_or_else(|| {
                    format!(
                        "DABENCH_INJECT `{clause}`: unknown error kind `{kind}` \
                     (expected device_fault, compile_failure, oom, or unsupported)"
                    )
                })?;
                Injection::Err { kind, failures }
            } else if action == "abort" {
                Injection::Abort { failures: u32::MAX }
            } else if let Some(count) = action.strip_prefix("abort:") {
                Injection::Abort {
                    failures: count
                        .parse::<u32>()
                        .map_err(|e| format!("DABENCH_INJECT `{clause}`: {e}"))?,
                }
            } else if let Some(name) = action.strip_prefix("violate:") {
                Injection::Violate(crate::gen::Invariant::parse(name).ok_or_else(|| {
                    format!("DABENCH_INJECT `{clause}`: unknown invariant `{name}`")
                })?)
            } else if let Some(spec) = action.strip_prefix("exit:") {
                let (code, failures) = match spec.split_once(':') {
                    Some((code, count)) => (
                        code,
                        count
                            .parse::<u32>()
                            .map_err(|e| format!("DABENCH_INJECT `{clause}`: {e}"))?,
                    ),
                    None => (spec, u32::MAX),
                };
                Injection::Exit {
                    code: code
                        .parse::<u8>()
                        .map_err(|e| format!("DABENCH_INJECT `{clause}`: {e}"))?,
                    failures,
                }
            } else {
                return Err(format!(
                    "DABENCH_INJECT `{clause}`: expected panic, sleep:SECS, err:KIND[:N], \
                 abort[:N], exit:CODE[:N], or violate:INVARIANT"
                ));
            };
        map.insert(name.trim().to_owned(), injection);
    }
    Ok(map)
}

/// Read and parse the [`INJECT_ENV`] environment variable (empty map when
/// unset).
///
/// # Errors
///
/// As for [`parse_injection_clauses`].
pub fn parse_injections() -> Result<BTreeMap<String, Injection>, String> {
    match std::env::var(INJECT_ENV) {
        Ok(raw) => parse_injection_clauses(&raw),
        Err(_) => Ok(BTreeMap::new()),
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// Journal schema identifier; bump when the line format changes.
pub const JOURNAL_SCHEMA: &str = "dabench-journal-v1";
/// Journal file name inside a run directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Status of a shard-metadata control record (`label` is
/// [`SHARD_CONTROL_LABEL`], `data` describes the shard: id, pid,
/// assigned points). Control records never describe a sweep point and
/// are stripped by replay and merge.
pub const STATUS_SHARD_META: &str = "shard";
/// Status of a heartbeat control record appended periodically by a live
/// shard worker so the parent can distinguish "slow" from "hung".
pub const STATUS_HEARTBEAT: &str = "heartbeat";
/// Status journaled by a shard worker *before* running a point: an
/// "I am about to start this" marker, written before the point can kill
/// its process, so the kill cannot lose it. Counting `started` records
/// for a label gives the number of process lives spent on it — the
/// denominator for counted process-level injections
/// ([`Injection::fire_process`]) — and a `started` record with no later
/// final record marks the point a crashed worker died holding.
pub const STATUS_STARTED: &str = "started";
/// Reserved label for shard control records ([`STATUS_SHARD_META`],
/// [`STATUS_HEARTBEAT`]); never a sweep-point label.
pub const SHARD_CONTROL_LABEL: &str = "__shard__";

/// Format one journal record line exactly as [`RunJournal::append`]
/// writes it (no trailing newline). The merge step uses this to rebuild
/// the combined journal byte-identically to a single-process run.
#[must_use]
pub fn format_record(label: &str, status: &str, data: &str) -> String {
    jsonl::write_object(&record_pairs(label, status, data))
}

/// The `[label, status, data]` of `line` (no trailing newline) if it is
/// exactly [`format_record`] of them (see [`jsonl::read_written_object`]).
pub(crate) fn read_record_line(line: &str) -> Option<[Cow<'_, str>; 3]> {
    jsonl::read_written_object(line, RECORD_KEYS)
}

/// The keys of a journal record, in the order its line carries them.
const RECORD_KEYS: [&str; 3] = ["label", "status", "data"];

/// A journal record's fields, in the order its line carries them.
fn record_pairs<'a>(
    label: &'a str,
    status: &'a str,
    data: &'a str,
) -> [(&'static str, &'a str); 3] {
    let [l, s, d] = RECORD_KEYS;
    [(l, label), (s, status), (d, data)]
}

/// The journal's first line, `{"schema":"dabench-journal-v1"}` (no
/// trailing newline).
pub(crate) fn journal_header() -> String {
    jsonl::write_object(&[("schema", JOURNAL_SCHEMA)])
}

/// One journal record after the schema header. Fields the line did not
/// carry are `None` — replay treats such records as unfinished points
/// rather than rejecting them, so a forward-compatible reader never
/// drops durable work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Point label (or [`SHARD_CONTROL_LABEL`] for control records).
    pub label: String,
    /// Status keyword (`completed`, `failed`, `started`, …).
    pub status: Option<String>,
    /// Rendered result / failure description / control payload.
    pub data: Option<String>,
}

impl JournalRecord {
    /// Whether this is a shard control record (heartbeat or shard
    /// metadata) rather than a sweep-point record.
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.label == SHARD_CONTROL_LABEL
            || matches!(
                self.status.as_deref(),
                Some(STATUS_HEARTBEAT | STATUS_SHARD_META)
            )
    }

    /// Whether this records a point's final fate (`completed` or one of
    /// the failure statuses) as opposed to a `started` marker, a metrics
    /// digest, or a control record.
    #[must_use]
    pub fn is_final(&self) -> bool {
        !self.is_control()
            && !matches!(
                self.status.as_deref(),
                Some(STATUS_STARTED) | Some("metrics")
            )
    }
}

/// Outcome of [`parse_journal`]: the durable records, how many leading
/// bytes of the file they cover, and the torn trailing line (if any)
/// that was discarded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedJournal {
    /// Every durable record after the schema header, in file order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + durable records); the
    /// healing truncation point.
    pub valid_bytes: usize,
    /// A truncated or corrupt *trailing* line that was discarded.
    pub dropped_tail: Option<String>,
}

/// Why [`parse_journal`] rejected a journal outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalParseError {
    /// Line 1 was not the expected schema header.
    BadSchema {
        /// The schema string found, if any.
        found: Option<String>,
    },
    /// An invalid line followed by more records — real corruption, not a
    /// torn tail.
    Corrupt {
        /// 1-based line number of the invalid line.
        line: usize,
        /// Byte offset of the invalid line.
        offset: usize,
        /// The invalid line's text.
        text: String,
    },
}

/// Parse a journal's full contents: schema header, then one record per
/// line. A torn **trailing** line (the expected residue of a `SIGKILL`
/// mid-append) is discarded into [`ParsedJournal::dropped_tail`]; an
/// invalid line **followed by** valid lines is mid-file corruption and a
/// hard error. Shared by [`RunJournal::resume`] and the shard journal
/// merge, so both heal exactly the same way.
///
/// # Errors
///
/// [`JournalParseError`] on a schema mismatch or mid-file corruption.
pub fn parse_journal(contents: &str) -> Result<ParsedJournal, JournalParseError> {
    parse_journal_bytes(contents.as_bytes())
}

/// [`parse_journal`] over raw file bytes. A line that is not UTF-8 is an
/// invalid line like any other: a tail cut inside a multi-byte character
/// is dropped and healed, and one followed by more records is corruption.
/// Error and dropped-tail texts decode such a line lossily.
///
/// # Errors
///
/// As for [`parse_journal`].
pub fn parse_journal_bytes(contents: &[u8]) -> Result<ParsedJournal, JournalParseError> {
    let mut parsed = ParsedJournal::default();
    let mut line_no = 0usize;
    let mut invalid: Option<(usize, usize, String)> = None;
    let mut rest = contents;
    while !rest.is_empty() {
        let (line, consumed, complete) = match rest.iter().position(|&b| b == b'\n') {
            Some(pos) => (&rest[..pos], pos + 1, true),
            None => (rest, rest.len(), false),
        };
        line_no += 1;
        let fields = if complete {
            std::str::from_utf8(line).ok().and_then(jsonl::parse_object)
        } else {
            None // no trailing newline: the append was cut mid-line
        };
        match fields {
            Some(mut fields) if invalid.is_none() => {
                if line_no == 1 {
                    let schema = fields.remove("schema");
                    if schema.as_deref() != Some(JOURNAL_SCHEMA) {
                        return Err(JournalParseError::BadSchema { found: schema });
                    }
                } else {
                    parsed.records.push(JournalRecord {
                        label: fields.remove("label").unwrap_or_default(),
                        status: fields.remove("status"),
                        data: fields.remove("data"),
                    });
                }
                parsed.valid_bytes += consumed;
            }
            Some(_) | None if invalid.is_none() => {
                let text = String::from_utf8_lossy(line).into_owned();
                invalid = Some((line_no, parsed.valid_bytes, text));
            }
            _ => {
                // A second line after an invalid one: mid-file corruption.
                let (line, offset, text) = invalid.expect("recorded invalid line");
                return Err(JournalParseError::Corrupt { line, offset, text });
            }
        }
        rest = &rest[consumed..];
    }
    if let Some((_, _, tail)) = invalid {
        parsed.dropped_tail = Some(tail);
    }
    Ok(parsed)
}

/// Render a [`JournalParseError`] as the `io::Error` the journal API
/// reports, naming the offending file.
#[must_use]
pub fn journal_parse_io_error(path: &Path, err: &JournalParseError) -> io::Error {
    match err {
        JournalParseError::BadSchema { found } => io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: unsupported journal schema {:?} (expected {JOURNAL_SCHEMA:?})",
                path.display(),
                found.as_deref().unwrap_or("<missing>")
            ),
        ),
        JournalParseError::Corrupt { line, offset, text } => io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: corrupt journal record at line {line}, byte offset \
                 {offset} ({} bytes, hex {}) is followed by more records; \
                 refusing to resume past possible lost work",
                path.display(),
                text.len(),
                jsonl::hex_snippet(text, 24),
            ),
        ),
    }
}

/// What replaying a journal found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Completed points: label → journaled result, replayed verbatim.
    pub completed: BTreeMap<String, String>,
    /// Observability digests: label → digest block journaled alongside
    /// the point's `completed` record (see `obs::PointTrace::digest`).
    pub metrics: BTreeMap<String, String>,
    /// Labels journaled with a non-completed status (they will re-run).
    pub unfinished: Vec<String>,
    /// Start counts: label → number of [`STATUS_STARTED`] records. In a
    /// shard worker this is how many process lives have already been
    /// spent on the point — fed to
    /// [`Injection::fire_process`] so counted `abort:N` / `exit:CODE:N`
    /// injections clear after `N` worker deaths.
    pub started: BTreeMap<String, u32>,
    /// A truncated or corrupt *trailing* line that was discarded (the
    /// expected residue of a `SIGKILL` mid-append). The journal file is
    /// healed — truncated back to its last valid line — before reuse.
    pub dropped_tail: Option<String>,
}

impl Replay {
    /// Fold a parsed journal's point records (control records skipped)
    /// into what a resumed run replays, adopts and re-runs. Labels and
    /// data move out of `parsed`, uncopied.
    #[must_use]
    pub fn from_journal(parsed: ParsedJournal) -> Self {
        let mut replay = Replay::default();
        for record in parsed.records {
            if record.is_control() {
                continue;
            }
            let label = record.label;
            match (record.status.as_deref(), record.data) {
                (Some("completed"), Some(data)) => {
                    replay.completed.insert(label, data);
                }
                (Some("metrics"), Some(data)) => {
                    replay.metrics.insert(label, data);
                }
                (Some(STATUS_STARTED), _) => {
                    *replay.started.entry(label.clone()).or_insert(0) += 1;
                    replay.unfinished.push(label);
                }
                _ => replay.unfinished.push(label),
            }
        }
        replay.dropped_tail = parsed.dropped_tail;
        replay
    }

    /// Labels with journal records but no completed rendering — the
    /// points a resumed run re-adopts (deduplicated, sorted).
    #[must_use]
    pub fn adopted_labels(&self) -> Vec<String> {
        let mut adopted: Vec<String> = self
            .unfinished
            .iter()
            .filter(|l| !self.completed.contains_key(*l))
            .cloned()
            .collect();
        adopted.sort();
        adopted.dedup();
        adopted
    }

    /// One-line summary of what resuming this journal found, for stderr:
    /// how many points replay verbatim, how many are re-adopted and
    /// re-run, and whether a truncated record was abandoned. Partial
    /// recoveries must be visible, never silent.
    #[must_use]
    pub fn resume_summary(&self) -> String {
        resume_summary(
            self.completed.len(),
            self.adopted_labels().len(),
            self.dropped_tail.is_some(),
        )
    }
}

/// The [`Replay::resume_summary`] line of a journal that replays
/// `replayed` points, re-adopts `adopted` and abandoned a truncated tail
/// or not.
#[must_use]
pub fn resume_summary(replayed: usize, adopted: usize, abandoned: bool) -> String {
    format!(
        "resume: {replayed} replayed from journal, {adopted} adopted (re-run), {} abandoned (truncated tail)",
        usize::from(abandoned),
    )
}

/// Append-only run journal (`journal.jsonl` inside a run directory).
///
/// Line 1 is a header `{"schema":"dabench-journal-v1"}`; each subsequent
/// line records one finished point: `{"label":…,"status":…,"data":…}`.
/// `data` holds the point's rendered result for `completed` records and a
/// failure description otherwise.
///
/// Every record goes out in one `write(2)`. Once that call returns, the
/// record is in the kernel's page cache, so killing the process cannot
/// lose it: a kill can only cut the record being written, which
/// [`RunJournal::resume`] detects and discards. Surviving a power loss
/// takes an fsync. [`RunJournal::append`] fsyncs each record before
/// returning (`serve` replies only after it); a sweep writes with
/// [`RunJournal::write`] and lets a [`GroupCommit`] fsync behind it, so a
/// power loss can lose at most the records no completed fsync covers
/// yet, and the sweep prints nothing about those points before a final
/// fsync covers them.
#[derive(Debug)]
pub struct RunJournal {
    file: File,
    path: PathBuf,
}

impl RunJournal {
    /// Path of the journal inside `dir`.
    #[must_use]
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Start a fresh journal in `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Fails if `dir` already contains a journal (resume it or pick a new
    /// directory — silently overwriting a crashed run's journal would
    /// destroy the state `--resume` needs), or on any I/O error.
    pub fn create(dir: &Path) -> io::Result<Self> {
        Self::create_named(dir, JOURNAL_FILE)
    }

    /// [`RunJournal::create`] with an explicit file name inside `dir` —
    /// how shard workers get their own `journal.shard-K.jsonl` next to
    /// the combined journal.
    ///
    /// # Errors
    ///
    /// As for [`RunJournal::create`].
    pub fn create_named(dir: &Path, file_name: &str) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file_name);
        if path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already exists; pass --resume to continue it",
                    path.display()
                ),
            ));
        }
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        jsonl::write_line(&mut file, journal_header())?;
        file.sync_all()?;
        Ok(Self { file, path })
    }

    /// Reopen the journal in `dir`, replaying every durable record.
    ///
    /// A missing or empty journal resumes as a fresh run. A truncated or
    /// unparseable **trailing** line is discarded (reported via
    /// [`Replay::dropped_tail`]) and the file is truncated back to its
    /// last valid line, so subsequent appends stay well-formed. An invalid
    /// line **followed by valid lines** is real corruption and is a hard
    /// error — resuming past it could silently drop completed work.
    ///
    /// # Errors
    ///
    /// I/O errors, a schema mismatch, or mid-file corruption.
    pub fn resume(dir: &Path) -> io::Result<(Self, Replay)> {
        Self::resume_named(dir, JOURNAL_FILE)
    }

    /// [`RunJournal::resume`] with an explicit file name inside `dir` —
    /// how a respawned shard worker re-adopts its predecessor's durable
    /// records (and heals its torn tail).
    ///
    /// # Errors
    ///
    /// As for [`RunJournal::resume`].
    pub fn resume_named(dir: &Path, file_name: &str) -> io::Result<(Self, Replay)> {
        let path = dir.join(file_name);
        if !path.exists() {
            let journal = Self::create_named(dir, file_name)?;
            return Ok((journal, Replay::default()));
        }
        let contents = std::fs::read(&path)?;
        let parsed =
            parse_journal_bytes(&contents).map_err(|e| journal_parse_io_error(&path, &e))?;
        let valid_bytes = parsed.valid_bytes;
        let replay = Replay::from_journal(parsed);

        // Heal a dropped tail: truncate to the last valid record so the
        // next append starts on a fresh line.
        let file = OpenOptions::new().read(true).append(true).open(&path)?;
        if valid_bytes < contents.len() {
            file.set_len(valid_bytes as u64)?;
            file.sync_all()?;
        }
        let mut journal = Self { file, path };
        if valid_bytes == 0 {
            // Empty (or fully discarded) file: rewrite the header.
            jsonl::write_line(&mut journal.file, journal_header())?;
            journal.file.sync_all()?;
        }
        journal.file.seek(io::SeekFrom::End(0))?;
        Ok((journal, replay))
    }

    /// Durably append one point record (`data` is the rendered result for
    /// completed points, a failure description otherwise).
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures — a journal that cannot persist
    /// must fail loudly, or `--resume` would silently re-run points.
    pub fn append(&mut self, label: &str, status: &str, data: &str) -> io::Result<()> {
        self.write(label, status, data)?;
        self.file.sync_all()
    }

    /// Append one record with one `write(2)` and no fsync: a process kill
    /// cannot lose it once this returns, a power loss can until an fsync
    /// covers it (see [`RunJournal::group_commit`]).
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write(&mut self, label: &str, status: &str, data: &str) -> io::Result<()> {
        jsonl::write_line(&mut self.file, format_record(label, status, data))
    }

    /// Start a syncer thread that fsyncs this journal behind its writers,
    /// through a second handle on the file. The syncer sleeps until a
    /// record is reported with [`GroupCommit::written`], then fsyncs back
    /// to back while reported records remain unsynced; each fsync covers
    /// every record written before it began, so one fsync commits a whole
    /// group.
    ///
    /// # Errors
    ///
    /// Fails if the file handle cannot be cloned or the thread cannot be
    /// spawned.
    pub fn group_commit(&self) -> io::Result<GroupCommit> {
        let file = self.file.try_clone()?;
        let path = self.path.clone();
        let (written, unsynced) = mpsc::channel::<()>();
        let syncer = std::thread::Builder::new()
            .name("dabench-journal-sync".to_owned())
            .spawn(move || {
                while unsynced.recv().is_ok() {
                    // Every record reported so far was written before this
                    // fsync begins, so this one fsync covers them all.
                    while unsynced.try_recv().is_ok() {}
                    file.sync_all().map_err(|e| {
                        io::Error::new(e.kind(), format!("fsync {}: {e}", path.display()))
                    })?;
                }
                Ok(())
            })?;
        Ok(GroupCommit { written, syncer })
    }

    /// Where this journal lives on disk.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The syncer thread of [`RunJournal::group_commit`]: writers report each
/// record they wrote, and [`GroupCommit::finish`] returns once an fsync
/// has covered all of them.
#[derive(Debug)]
pub struct GroupCommit {
    written: mpsc::Sender<()>,
    syncer: std::thread::JoinHandle<io::Result<()>>,
}

impl GroupCommit {
    /// Report a record written to the journal; the syncer's next fsync
    /// covers it.
    pub fn written(&self) {
        // A syncer whose fsync failed has stopped listening; `finish`
        // returns that failure.
        let _ = self.written.send(());
    }

    /// Wait until an fsync that began after the last
    /// [`GroupCommit::written`] report has completed, then stop the
    /// syncer. Returns at once when nothing was reported.
    ///
    /// # Errors
    ///
    /// The first failed fsync, naming the journal's path: a journal that
    /// cannot persist must fail the run, or `--resume` would silently
    /// re-run points.
    pub fn finish(self) -> io::Result<()> {
        drop(self.written);
        self.syncer
            .join()
            .expect("the journal syncer only calls fsync, which does not panic")
    }
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

/// Deterministic summary of a supervised run: every point's label, status,
/// and failure detail, in the order recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    entries: Vec<(String, &'static str, Option<String>)>,
    retried: usize,
}

impl RunReport {
    /// Fold one point's outcome into the report.
    pub fn record<U>(&mut self, label: &str, outcome: &PointOutcome<U>) {
        let detail = match outcome {
            PointOutcome::Completed { retries, .. } => {
                if *retries > 0 {
                    self.retried += 1;
                    Some(format!("after {retries} retr{}", plural_y(*retries)))
                } else {
                    None
                }
            }
            PointOutcome::Journaled { .. } => None,
            PointOutcome::Failed { error, retries } => Some(if *retries > 0 {
                format!("{error} (after {retries} retr{})", plural_y(*retries))
            } else {
                error.to_string()
            }),
            PointOutcome::Panicked { message } => Some(message.clone()),
            PointOutcome::TimedOut { deadline } => {
                Some(format!("exceeded {:.1} s deadline", deadline.as_secs_f64()))
            }
        };
        self.entries
            .push((label.to_owned(), outcome.status(), detail));
    }

    /// Fold one point in by status keyword rather than live
    /// [`PointOutcome`] — how the shard merge rebuilds the combined
    /// report from journal records alone. Known keywords are interned to
    /// the same `&'static str` values [`PointOutcome::status`] produces
    /// (so [`RunReport::count`] and [`RunReport::render`] agree with a
    /// single-process run); anything unrecognized is recorded as
    /// `failed`, never silently dropped.
    pub fn record_status(&mut self, label: &str, status: &str, detail: Option<String>) {
        let interned = match status {
            "completed" => "completed",
            "journaled" => "journaled",
            "panicked" => "panicked",
            "timed-out" => "timed-out",
            _ => "failed",
        };
        self.entries.push((label.to_owned(), interned, detail));
    }

    /// Number of recorded points with the given status keyword.
    #[must_use]
    pub fn count(&self, status: &str) -> usize {
        self.entries.iter().filter(|(_, s, _)| *s == status).count()
    }

    /// Whether every point produced a value (completed or journaled).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.entries
            .iter()
            .all(|(_, s, _)| *s == "completed" || *s == "journaled")
    }

    /// Render the report (deterministic: recorded order, fixed format).
    /// Each timed-out point leaked one watchdog-abandoned runaway thread
    /// (see [`abandoned_threads`]); when any exist the headline says so.
    #[must_use]
    pub fn render(&self) -> String {
        let timed_out = self.count("timed-out");
        let abandoned = if timed_out > 0 {
            format!(
                " ({timed_out} runaway thread{} abandoned)",
                if timed_out == 1 { "" } else { "s" }
            )
        } else {
            String::new()
        };
        let mut out = format!(
            "run report: {} points — {} completed ({} retried), {} from journal, {} failed, {} panicked, {} timed out{abandoned}\n",
            self.entries.len(),
            self.count("completed"),
            self.retried,
            self.count("journaled"),
            self.count("failed"),
            self.count("panicked"),
            timed_out,
        );
        for (label, status, detail) in &self.entries {
            if *status == "completed" && detail.is_none() || *status == "journaled" {
                continue;
            }
            let detail = detail.as_deref().unwrap_or("");
            out.push_str(&format!("  [{status:>9}] {label}: {detail}\n"));
        }
        out
    }
}

fn plural_y(n: u32) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dabench-supervise-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn deadline_watchdog_inherits_the_worker_mark() {
        let policy = SupervisePolicy {
            deadline: Some(Duration::from_secs(60)),
            ..SupervisePolicy::default()
        };
        let on_worker = || match supervise_point("p", &policy, || Ok(crate::parallel::on_worker()))
        {
            PointOutcome::Completed { value, .. } => value,
            other => panic!("expected Completed, got {other:?}"),
        };
        assert_eq!(
            crate::par_map_with(2, &[0u64, 1], |_| on_worker()),
            vec![true, true]
        );
        assert!(!on_worker(), "a watchdog off the pool stays unmarked");
    }

    #[test]
    fn panicking_point_becomes_labelled_outcome() {
        let outcome: PointOutcome<u32> =
            supervise_point("fig9 L=72", &SupervisePolicy::default(), || {
                panic!("index out of bounds")
            });
        match outcome {
            PointOutcome::Panicked { message } => {
                assert!(message.contains("fig9 L=72"), "{message}");
                assert!(message.contains("index out of bounds"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn retryable_error_is_retried_to_success() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let policy = SupervisePolicy {
            max_retries: 3,
            ..SupervisePolicy::default()
        };
        let outcome = supervise_point("flaky", &policy, move || {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(PlatformError::DeviceFault {
                    unit: "pe".into(),
                    detail: "transient".into(),
                })
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(
            outcome,
            PointOutcome::Completed {
                value: 7,
                retries: 2
            }
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn non_retryable_error_fails_immediately() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let policy = SupervisePolicy {
            max_retries: 5,
            ..SupervisePolicy::default()
        };
        let outcome: PointOutcome<u32> = supervise_point("oom", &policy, move || {
            seen.fetch_add(1, Ordering::SeqCst);
            Err(PlatformError::Unsupported("no such strategy".into()))
        });
        assert!(matches!(outcome, PointOutcome::Failed { retries: 0, .. }));
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deadline_marks_overrun_and_abandons_the_point() {
        let policy = SupervisePolicy {
            deadline: Some(Duration::from_millis(30)),
            ..SupervisePolicy::default()
        };
        let start = std::time::Instant::now();
        let outcome: PointOutcome<u32> = supervise_point("hung", &policy, || {
            std::thread::sleep(Duration::from_secs(30));
            Ok(1)
        });
        assert!(matches!(outcome, PointOutcome::TimedOut { .. }));
        assert!(start.elapsed() < Duration::from_secs(5), "watchdog fired");

        // A fast point under the same deadline completes normally.
        let ok = supervise_point("fast", &policy, || Ok(2u32));
        assert_eq!(
            ok,
            PointOutcome::Completed {
                value: 2,
                retries: 0
            }
        );
    }

    #[test]
    fn catch_labeled_and_with_point_label_attach_the_label() {
        assert_eq!(catch_labeled("p", || 3), Ok(3));
        let err = catch_labeled("table1 L=78", || -> u32 { panic!("boom") }).unwrap_err();
        assert!(err.contains("table1 L=78") && err.contains("boom"), "{err}");

        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_point_label("fig7 o3 x=24", || -> u32 { panic!("probe died") })
        }))
        .unwrap_err();
        let msg = panic_message(caught.as_ref());
        assert!(
            msg.contains("fig7 o3 x=24") && msg.contains("probe died"),
            "{msg}"
        );
    }

    #[test]
    fn json_escaping_roundtrips_through_the_parser() {
        let nasty = "line1\nline2\t\"quoted\" \\ back\u{1}slash é";
        let line = format_record("p", "completed", nasty);
        let fields = jsonl::parse_object(&line).expect("parses");
        assert_eq!(fields.get("data").map(String::as_str), Some(nasty));
    }

    #[test]
    fn journal_roundtrip_replays_completed_points() {
        let dir = temp_dir("roundtrip");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal
            .append("table1", "completed", "Table I\nrow\n")
            .unwrap();
        journal
            .append("fig9", "panicked", "point `fig9`: boom")
            .unwrap();
        journal.append("fig6", "completed", "Fig 6 body").unwrap();
        drop(journal);

        let (_journal, replay) = RunJournal::resume(&dir).unwrap();
        assert_eq!(
            replay.completed.get("table1").map(String::as_str),
            Some("Table I\nrow\n")
        );
        assert_eq!(
            replay.completed.get("fig6").map(String::as_str),
            Some("Fig 6 body")
        );
        assert!(
            !replay.completed.contains_key("fig9"),
            "panicked points re-run"
        );
        assert_eq!(replay.unfinished, vec!["fig9".to_owned()]);
        assert_eq!(replay.dropped_tail, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_records_replay_separately_and_do_not_rerun_points() {
        let dir = temp_dir("metrics");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "Table I").unwrap();
        journal
            .append("table1", "metrics", "dabench-obs-v1|0|table1|")
            .unwrap();
        drop(journal);

        let (_journal, replay) = RunJournal::resume(&dir).unwrap();
        assert_eq!(
            replay.completed.get("table1").map(String::as_str),
            Some("Table I")
        );
        assert_eq!(
            replay.metrics.get("table1").map(String::as_str),
            Some("dabench-obs-v1|0|table1|")
        );
        assert!(
            replay.unfinished.is_empty(),
            "a metrics record must not mark its point unfinished: {:?}",
            replay.unfinished
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_reported_and_healed() {
        let dir = temp_dir("tail");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "T1").unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        // Simulate a SIGKILL mid-append: a partial record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"label\":\"fig6\",\"status\":\"comp").unwrap();
        drop(f);

        let (mut journal, replay) = RunJournal::resume(&dir).unwrap();
        assert!(replay.dropped_tail.as_deref().unwrap().contains("fig6"));
        assert_eq!(replay.completed.len(), 1);
        // The file was healed: appending and re-resuming is clean.
        journal.append("fig6", "completed", "F6").unwrap();
        drop(journal);
        let (_j, replay2) = RunJournal::resume(&dir).unwrap();
        assert_eq!(replay2.dropped_tail, None);
        assert_eq!(replay2.completed.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = temp_dir("corrupt");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "T1").unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let patched = text.replacen(
            "{\"label\":\"table1\"",
            "garbage not json oops\n{\"label\":\"table1\"",
            1,
        );
        std::fs::write(&path, patched).unwrap();
        let err = RunJournal::resume(&dir).unwrap_err();
        assert!(err.to_string().contains("corrupt journal record"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_error_names_line_offset_and_hex_snippet() {
        let dir = temp_dir("corrupt-detail");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "T1").unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let patched = text.replacen(
            "{\"label\":\"table1\"",
            "garbage not json oops\n{\"label\":\"table1\"",
            1,
        );
        let offset = patched.find("garbage").unwrap();
        std::fs::write(&path, patched).unwrap();
        let err = RunJournal::resume(&dir).unwrap_err().to_string();
        // Pin the diagnostic format: line number, byte offset, length, and
        // a hex snippet of the offending record.
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains(&format!("byte offset {offset}")), "{err}");
        assert!(err.contains("(21 bytes"), "{err}");
        assert!(
            // "garbage not json oops" as hex
            err.contains("hex 67 61 72 62 61 67 65 20 6e 6f 74 20 6a 73 6f 6e 20 6f 6f 70 73"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_hex_snippet_is_truncated_for_long_records() {
        let dir = temp_dir("corrupt-long");
        let mut journal = RunJournal::create(&dir).unwrap();
        journal.append("table1", "completed", "T1").unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let long_garbage = "X".repeat(200);
        let patched = text.replacen(
            "{\"label\":\"table1\"",
            &format!("{long_garbage}\n{{\"label\":\"table1\""),
            1,
        );
        std::fs::write(&path, patched).unwrap();
        let err = RunJournal::resume(&dir).unwrap_err().to_string();
        assert!(err.contains("(200 bytes"), "{err}");
        assert!(err.contains('…'), "snippet must mark the cut: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_to_clobber_an_existing_journal() {
        let dir = temp_dir("clobber");
        let _journal = RunJournal::create(&dir).unwrap();
        let err = RunJournal::create(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("--resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_returns_with_every_written_record_in_the_file() {
        let dir = temp_dir("group");
        let mut journal = RunJournal::create(&dir).unwrap();
        let commit = journal.group_commit().unwrap();
        for i in 0..50 {
            journal
                .write(&format!("p{i}"), "completed", &format!("row {i}"))
                .unwrap();
            commit.written();
        }
        commit.finish().unwrap();
        drop(journal);
        let (_journal, replay) = RunJournal::resume(&dir).unwrap();
        assert_eq!(replay.completed.len(), 50);
        assert_eq!(replay.dropped_tail, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `/dev/null` takes every write, but fsync on it fails (EINVAL).
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_group_commit_names_the_journal() {
        let path = PathBuf::from("/dev/null");
        let file = OpenOptions::new().append(true).open(&path).unwrap();
        let mut journal = RunJournal { file, path };
        assert!(journal.append("p", "completed", "x").is_err());

        // Nothing reported, nothing to sync.
        journal.group_commit().unwrap().finish().unwrap();

        let commit = journal.group_commit().unwrap();
        for _ in 0..3 {
            journal.write("p", "completed", "x").unwrap();
            commit.written();
        }
        let err = commit.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("fsync /dev/null"), "{err}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let dir = temp_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            RunJournal::path_in(&dir),
            "{\"schema\":\"dabench-journal-v999\"}\n",
        )
        .unwrap();
        let err = RunJournal::resume(&dir).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn err_injection_parses_and_fires_retryable_errors() {
        let map = parse_injection_clauses(
            "fig9=err:device_fault, table1=err:compile_failure:2, fig6=err:oom",
        )
        .unwrap();
        assert_eq!(
            map.get("fig9"),
            Some(&Injection::Err {
                kind: InjectedErrorKind::DeviceFault,
                failures: u32::MAX
            })
        );
        assert_eq!(
            map.get("table1"),
            Some(&Injection::Err {
                kind: InjectedErrorKind::CompileFailure,
                failures: 2
            })
        );
        // Counted firing: fails the first 2 attempts, then clears.
        let inj = map["table1"];
        let err = inj.fire(0).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert!(err.to_string().contains("DABENCH_INJECT"), "{err}");
        assert!(inj.fire(1).is_err());
        assert!(inj.fire(2).is_ok());
        // Non-retryable kinds stay non-retryable.
        assert!(!map["fig6"].fire(0).unwrap_err().is_retryable());
    }

    #[test]
    fn err_injection_rejects_unknown_kinds_and_bad_counts() {
        let err = parse_injection_clauses("fig9=err:gremlins").unwrap_err();
        assert!(err.contains("unknown error kind"), "{err}");
        assert!(parse_injection_clauses("fig9=err:oom:x").is_err());
        assert!(parse_injection_clauses("fig9=explode").is_err());
    }

    #[test]
    fn err_injection_drives_supervised_retry_to_success() {
        let policy = SupervisePolicy {
            max_retries: 2,
            ..SupervisePolicy::default()
        };
        let inj = Injection::Err {
            kind: InjectedErrorKind::DeviceFault,
            failures: 2,
        };
        let attempts = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&attempts);
        let outcome = supervise_point("flaky", &policy, move || {
            inj.fire_counted(&counter)?;
            Ok(11u32)
        });
        assert_eq!(
            outcome,
            PointOutcome::Completed {
                value: 11,
                retries: 2
            }
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_report_counts_and_renders_deterministically() {
        let mut report = RunReport::default();
        report.record(
            "table1",
            &PointOutcome::Completed {
                value: 1u32,
                retries: 0,
            },
        );
        report.record(
            "table2",
            &PointOutcome::Completed {
                value: 2u32,
                retries: 1,
            },
        );
        report.record("fig6", &PointOutcome::Journaled { value: 3u32 });
        report.record(
            "fig9",
            &PointOutcome::<u32>::Panicked {
                message: "point `fig9`: boom".into(),
            },
        );
        report.record(
            "fig11",
            &PointOutcome::<u32>::TimedOut {
                deadline: Duration::from_secs(2),
            },
        );
        assert!(!report.is_clean());
        assert_eq!(report.count("completed"), 2);
        assert_eq!(report.count("journaled"), 1);
        let rendered = report.render();
        assert_eq!(rendered, report.render(), "rendering is deterministic");
        assert!(rendered.contains("5 points"), "{rendered}");
        assert!(rendered.contains("2 completed (1 retried)"), "{rendered}");
        assert!(rendered.contains("1 panicked"), "{rendered}");
        assert!(rendered.contains("exceeded 2.0 s deadline"), "{rendered}");
        assert!(rendered.contains("fig9: point `fig9`: boom"), "{rendered}");
    }
}

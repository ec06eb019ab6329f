//! Crash-safe benchmark-as-a-service daemon: admission control,
//! backpressure, graceful degradation, drain, and resume.
//!
//! One-shot CLI sweeps do not scale to many clients asking the same
//! questions concurrently — a standardized benchmark only becomes a
//! *service* once identical requests are served cheaply, load is shed
//! explicitly instead of queueing without bound, and a killed daemon comes
//! back without losing accepted work. This module is the robustness layer
//! that ties the existing primitives together:
//!
//! - **Protocol** (`dabench-serve-v1`): JSONL over TCP — one flat JSON
//!   object per line in the shared [`jsonl`] dialect, requests in,
//!   responses out. Hand-rolled, zero dependencies.
//! - **Admission control**: a bounded job queue. A full queue returns a
//!   structured `shed` response with a `retry_after_ms` hint instead of
//!   growing; memory use is bounded by construction.
//! - **Graceful degradation**: above the high-watermark (¾ of queue
//!   capacity) *heavy* jobs are shed while cached results and light jobs
//!   are still served — under pressure the daemon degrades to its fast
//!   paths instead of collapsing on its slow ones.
//! - **Per-client deadlines**: a `deadline_ms` on a submit bounds the
//!   queue wait; jobs that expire before a worker picks them up are
//!   cancelled and journaled, never silently dropped. Execution itself
//!   runs under the [`supervise`](crate::supervise) watchdog/retry policy.
//! - **Shared result store**: completed renderings live in a size-bounded
//!   concurrency-safe [`LruStore`]; repeated identical requests are
//!   answered from memory on the sub-millisecond path without touching
//!   the queue at all.
//! - **Graceful drain**: a `drain` op (or SIGTERM, wired by the CLI)
//!   finishes in-flight points, answers queued jobs with a `drained`
//!   response (their `accepted` journal records survive), and exits
//!   clean.
//! - **Crash-safe resume**: the [`supervise`](crate::supervise) run journal is the job
//!   store. Every admitted job is journaled `accepted` before it becomes
//!   visible to workers and `completed` with its rendered bytes when done,
//!   so a SIGKILL'd daemon restarted with `--resume` re-adopts in-flight
//!   jobs and replays completed renderings byte-identically.
//!
//! The daemon is generic over a [`JobExecutor`]; the CLI plugs in the
//! experiment suite. See `docs/serve.md` for the protocol specification
//! and lifecycle.

use crate::jsonl;
use crate::lru::{LruStore, StoreStats};
use crate::supervise::{supervise_point, PointOutcome, Replay, RunJournal, SupervisePolicy};
use crate::PlatformError;
use std::collections::VecDeque;
use std::io::{self, BufRead as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wire-protocol identifier, echoed in `ping`/`stats` responses.
pub const PROTOCOL: &str = "dabench-serve-v1";

/// How the daemon executes one admitted job.
///
/// Implementations must be pure in the benchmark sense: for a given job
/// key, `execute` returns the same bytes on every call — that is
/// what makes cached and journal-replayed responses indistinguishable
/// from fresh executions.
pub trait JobExecutor: Send + Sync + 'static {
    /// Reject unknown or malformed job names before admission.
    ///
    /// # Errors
    ///
    /// A human-readable message sent back to the client verbatim.
    fn validate(&self, job: &str) -> Result<(), String>;

    /// Whether this job is expensive enough to shed first under pressure
    /// (see the high-watermark rule in the module docs).
    fn is_heavy(&self, job: &str) -> bool;

    /// Render the job's result. Runs under the supervision layer: panics
    /// are isolated, retryable [`PlatformError`]s are retried per policy.
    ///
    /// # Errors
    ///
    /// The platform error reported to the client as a `failed` response.
    fn execute(&self, job: &str) -> Result<String, PlatformError>;
}

/// Daemon configuration (CLI flags map onto this 1:1).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Concurrent job executions (worker threads).
    pub workers: usize,
    /// Bounded queue capacity; admission beyond it sheds.
    pub queue_capacity: usize,
    /// Result-store capacity, in entries.
    pub cache_capacity: usize,
    /// `retry_after_ms` hint attached to shed responses.
    pub retry_after: Duration,
    /// Per-attempt execution deadline (the supervise watchdog).
    pub deadline: Option<Duration>,
    /// Retries for retryable platform errors.
    pub max_retries: u32,
    /// Journal directory; `None` disables persistence.
    pub run_dir: Option<PathBuf>,
    /// Resume (and heal) an existing journal instead of creating one.
    pub resume: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: crate::parallel::jobs(),
            queue_capacity: 64,
            cache_capacity: 1024,
            retry_after: Duration::from_millis(250),
            deadline: None,
            max_retries: 1,
            run_dir: None,
            resume: false,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    rejected: AtomicU64,
    drained: AtomicU64,
    served_cached: AtomicU64,
    adopted: AtomicU64,
    replayed: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64) -> u64 {
        field.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// Final tallies of one daemon lifetime, rendered on clean exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs that rendered a result.
    pub completed: u64,
    /// Jobs that exhausted retries, panicked, or timed out.
    pub failed: u64,
    /// Submits refused by admission control (queue full / pressure).
    pub shed: u64,
    /// Jobs whose queue-wait deadline expired before execution.
    pub expired: u64,
    /// Malformed or unknown requests.
    pub rejected: u64,
    /// Queued jobs answered with `drained` at shutdown.
    pub drained: u64,
    /// Submits answered straight from the result store.
    pub served_cached: u64,
    /// In-flight jobs re-adopted from the journal at startup.
    pub adopted: u64,
    /// Completed renderings replayed from the journal at startup.
    pub replayed: u64,
    /// Result-store counters at exit.
    pub store: StoreStats,
}

impl ServeSummary {
    /// One-line summary for stderr on clean exit.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "serve: {} accepted, {} completed, {} from cache, {} failed, {} shed, {} expired, \
             {} rejected, {} drained; store: {} hits, {} misses, {} evictions, {} resident",
            self.accepted,
            self.completed,
            self.served_cached,
            self.failed,
            self.shed,
            self.expired,
            self.rejected,
            self.drained,
            self.store.hits,
            self.store.misses,
            self.store.evictions,
            self.store.len,
        )
    }
}

struct Job {
    key: String,
    id: String,
    deadline_at: Option<Instant>,
    /// `None` for jobs re-adopted from the journal (no client waiting).
    reply: Option<mpsc::Sender<String>>,
}

struct Shared {
    cfg: ServeConfig,
    exec: Box<dyn JobExecutor>,
    store: LruStore<String, String>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    journal: Option<Mutex<RunJournal>>,
    draining: AtomicBool,
    counters: Counters,
    /// First unrecoverable error (journal persistence failure); forces a
    /// drain and is propagated out of [`Server::run`].
    fatal: Mutex<Option<String>>,
}

impl Shared {
    fn journal_append(&self, label: &str, status: &str, data: &str) {
        let Some(journal) = &self.journal else {
            return;
        };
        let appended = journal
            .lock()
            .expect("journal lock")
            .append(label, status, data);
        if let Err(e) = appended {
            // A journal that cannot persist must stop the daemon —
            // `--resume` would otherwise silently lose accepted work.
            self.fatal
                .lock()
                .expect("fatal lock")
                .get_or_insert_with(|| format!("journal append for `{label}`: {e}"));
            self.draining.store(true, Ordering::SeqCst);
            self.queue_cv.notify_all();
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }
}

fn response(pairs: &[(&str, &str)]) -> String {
    jsonl::write_object(pairs)
}

/// A bound, resumed, worker-spawned daemon, ready to accept connections.
///
/// Splitting construction ([`Server::bind`]) from the accept loop
/// ([`Server::run`]) lets the caller announce the actual bound address
/// (port 0 resolves at bind time) before blocking.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    workers: Vec<std::thread::JoinHandle<()>>,
    resume_summary: Option<String>,
}

impl Server {
    /// Bind the listener, open or resume the journal, seed the result
    /// store from replayed renderings, re-adopt in-flight jobs, and spawn
    /// the worker pool.
    ///
    /// # Errors
    ///
    /// Bind failures, journal open/resume failures (including mid-file
    /// corruption), and invalid configuration.
    pub fn bind(cfg: ServeConfig, exec: Box<dyn JobExecutor>) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;

        let (journal, replay) = match &cfg.run_dir {
            Some(dir) if cfg.resume => {
                let (j, replay) = RunJournal::resume(dir)?;
                (Some(Mutex::new(j)), replay)
            }
            Some(dir) => (
                Some(Mutex::new(RunJournal::create(dir)?)),
                Replay::default(),
            ),
            None => (None, Replay::default()),
        };

        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            store: LruStore::new(cfg.cache_capacity),
            cfg,
            exec,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            journal,
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            fatal: Mutex::new(None),
        });

        // Replay completed renderings into the result store: a
        // resubmitted job answers byte-identically from memory, without
        // re-execution.
        for (key, data) in &replay.completed {
            shared.store.insert(key.clone(), data.clone());
            Counters::bump(&shared.counters.replayed);
        }
        // Re-adopt in-flight jobs: journaled `accepted` (or otherwise
        // unfinished) without a `completed` record. They run ahead of any
        // new submissions, with no client attached — their results land
        // in the journal and the store, ready for resubmission.
        let adopted = replay.adopted_labels();
        let resume_summary = shared.cfg.resume.then(|| replay.resume_summary());
        {
            let mut queue = shared.queue.lock().expect("queue lock");
            for key in adopted {
                if shared.exec.validate(&key).is_err() {
                    // A journal from an older suite may name jobs this
                    // executor no longer knows; surface, don't crash.
                    eprintln!("serve: ignoring unknown journaled job `{key}`");
                    continue;
                }
                Counters::bump(&shared.counters.adopted);
                queue.push_back(Job {
                    key,
                    id: "adopted".to_owned(),
                    deadline_at: None,
                    reply: None,
                });
            }
        }

        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dabench-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();

        Ok(Self {
            shared,
            listener,
            workers,
            resume_summary,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The resume one-liner (adopted / replayed / abandoned), when the
    /// daemon was started with `--resume`.
    #[must_use]
    pub fn resume_summary(&self) -> Option<&str> {
        self.resume_summary.as_deref()
    }

    /// Accept and serve connections until `shutdown` is set or a `drain`
    /// op arrives, then drain gracefully: stop accepting, finish
    /// in-flight points, answer queued jobs with `drained`, join every
    /// thread, and return the final tallies.
    ///
    /// # Errors
    ///
    /// A journal persistence failure mid-run (the daemon drains first, so
    /// clients holding connections still get answers for in-flight work).
    pub fn run(self, shutdown: &AtomicBool) -> io::Result<ServeSummary> {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if shutdown.load(Ordering::SeqCst) {
                self.shared.start_drain();
            }
            if self.shared.is_draining() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    connections.retain(|h| !h.is_finished());
                    connections.push(
                        std::thread::Builder::new()
                            .name("dabench-serve-conn".to_owned())
                            .spawn(move || connection_loop(&shared, stream))
                            .expect("spawn serve connection"),
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: workers flush the queue (answering `drained`), then exit;
        // connection threads notice the flag on their next read timeout.
        self.shared.start_drain();
        for handle in self.workers {
            let _ = handle.join();
        }
        for handle in connections {
            let _ = handle.join();
        }
        if let Some(fatal) = self.shared.fatal.lock().expect("fatal lock").take() {
            return Err(io::Error::other(fatal));
        }
        let c = &self.shared.counters;
        Ok(ServeSummary {
            accepted: c.accepted.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            failed: c.failed.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            expired: c.expired.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            drained: c.drained.load(Ordering::SeqCst),
            served_cached: c.served_cached.load(Ordering::SeqCst),
            adopted: c.adopted.load(Ordering::SeqCst),
            replayed: c.replayed.load(Ordering::SeqCst),
            store: self.shared.store.stats(),
        })
    }

    /// Publish the result-store counters to the [`crate::obs`] bus (call
    /// inside a point context, after [`Server::run`] returns — the CLI
    /// does this for `--metrics`).
    pub fn publish_store_obs(summary: &ServeSummary) {
        crate::obs::counter("serve.store.hits", summary.store.hits as f64);
        crate::obs::counter("serve.store.misses", summary.store.misses as f64);
        crate::obs::counter("serve.store.evictions", summary.store.evictions as f64);
        crate::obs::counter("serve.store.resident", summary.store.len as f64);
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (job, draining) = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                let draining = shared.is_draining();
                if let Some(job) = queue.pop_front() {
                    break (Some(job), draining);
                }
                if draining {
                    break (None, true);
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = guard;
            }
        };
        let Some(job) = job else {
            return; // queue empty and draining: worker exits
        };
        if draining {
            // Finish only in-flight points on drain; queued jobs get a
            // structured answer and keep their `accepted` journal record,
            // so a restart with --resume re-adopts them.
            Counters::bump(&shared.counters.drained);
            send_reply(
                &job,
                &response(&[
                    ("id", &job.id),
                    ("job", &job.key),
                    ("status", "drained"),
                    ("error", "daemon is draining; resubmit after restart"),
                ]),
            );
            continue;
        }
        run_job(shared, job);
    }
}

fn send_reply(job: &Job, line: &str) {
    if let Some(reply) = &job.reply {
        let _ = reply.send(line.to_owned()); // client may have gone away
    }
}

fn run_job(shared: &Arc<Shared>, job: Job) {
    if job.deadline_at.is_some_and(|t| Instant::now() > t) {
        Counters::bump(&shared.counters.expired);
        shared.journal_append(&job.key, "expired", "queue-wait deadline exceeded");
        send_reply(
            &job,
            &response(&[
                ("id", &job.id),
                ("job", &job.key),
                ("status", "expired"),
                ("error", "deadline expired before execution"),
            ]),
        );
        return;
    }

    let policy = SupervisePolicy {
        deadline: shared.cfg.deadline,
        max_retries: shared.cfg.max_retries,
    };
    let exec_shared = Arc::clone(shared);
    let exec_key = job.key.clone();
    let outcome = supervise_point(&job.key, &policy, move || {
        exec_shared.exec.execute(&exec_key)
    });

    let line = match &outcome {
        PointOutcome::Completed { value, .. } => {
            shared.store.insert(job.key.clone(), value.clone());
            shared.journal_append(&job.key, "completed", value);
            Counters::bump(&shared.counters.completed);
            response(&[
                ("id", &job.id),
                ("job", &job.key),
                ("status", "ok"),
                ("source", "executed"),
                ("data", value),
            ])
        }
        PointOutcome::Failed { error, retries } => {
            let detail = if *retries > 0 {
                format!("{error} (after {retries} retries)")
            } else {
                error.to_string()
            };
            shared.journal_append(&job.key, "failed", &detail);
            Counters::bump(&shared.counters.failed);
            response(&[
                ("id", &job.id),
                ("job", &job.key),
                ("status", "failed"),
                ("error", &detail),
            ])
        }
        PointOutcome::Panicked { message } => {
            shared.journal_append(&job.key, "panicked", message);
            Counters::bump(&shared.counters.failed);
            response(&[
                ("id", &job.id),
                ("job", &job.key),
                ("status", "failed"),
                ("error", message),
            ])
        }
        PointOutcome::TimedOut { deadline } => {
            let detail = format!("exceeded {:.1} s deadline", deadline.as_secs_f64());
            shared.journal_append(&job.key, "timed-out", &detail);
            Counters::bump(&shared.counters.failed);
            response(&[
                ("id", &job.id),
                ("job", &job.key),
                ("status", "failed"),
                ("error", &detail),
            ])
        }
        PointOutcome::Journaled { .. } => unreachable!("workers never see journaled outcomes"),
    };
    send_reply(&job, &line);
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    // Short read timeouts keep the thread responsive to drain without a
    // dedicated wakeup channel; partially read lines survive in `buf`
    // across timeouts because `read_line` appends.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = io::BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => return, // EOF: client closed
            Ok(_) => {
                let line = std::mem::take(&mut buf);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let reply = handle_request(shared, line);
                if writer.write_all(reply.as_bytes()).is_err()
                    || writer.write_all(b"\n").is_err()
                    || writer.flush().is_err()
                {
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if shared.is_draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn handle_request(shared: &Arc<Shared>, line: &str) -> String {
    let Some(fields) = jsonl::parse_object(line) else {
        Counters::bump(&shared.counters.rejected);
        return response(&[
            ("status", "error"),
            (
                "error",
                &format!(
                    "malformed request (expected one flat JSON object per line; got hex {})",
                    jsonl::hex_snippet(line, 24)
                ),
            ),
        ]);
    };
    let id = fields.get("id").map_or("", String::as_str);
    match fields.get("op").map(String::as_str) {
        Some("ping") => response(&[("id", id), ("status", "ok"), ("protocol", PROTOCOL)]),
        Some("stats") => stats_response(shared, id),
        Some("drain") => {
            shared.start_drain();
            response(&[("id", id), ("status", "ok"), ("draining", "true")])
        }
        Some("submit") => handle_submit(shared, id, &fields),
        Some(other) => {
            Counters::bump(&shared.counters.rejected);
            response(&[
                ("id", id),
                ("status", "error"),
                ("error", &format!("unknown op `{other}`")),
            ])
        }
        None => {
            Counters::bump(&shared.counters.rejected);
            response(&[("id", id), ("status", "error"), ("error", "missing op")])
        }
    }
}

/// Queue depth at which cold heavy jobs start being shed: 3/4 of capacity,
/// rounded up. Computed as `capacity - capacity / 4`, which equals
/// `ceil(3 * capacity / 4)` for every `usize` without the intermediate
/// multiplication that would wrap for capacities above `usize::MAX / 4`.
/// At capacity 1 the watermark is 1, so an idle daemon still admits both
/// light and heavy jobs.
fn pressure_watermark(capacity: usize) -> usize {
    capacity - capacity / 4
}

fn handle_submit(
    shared: &Arc<Shared>,
    id: &str,
    fields: &std::collections::BTreeMap<String, String>,
) -> String {
    let Some(job_key) = fields.get("job") else {
        Counters::bump(&shared.counters.rejected);
        return response(&[
            ("id", id),
            ("status", "error"),
            ("error", "submit needs a job"),
        ]);
    };
    if let Err(e) = shared.exec.validate(job_key) {
        Counters::bump(&shared.counters.rejected);
        return response(&[("id", id), ("status", "error"), ("error", &e)]);
    }
    let deadline_at = match fields.get("deadline_ms") {
        Some(ms) => match ms.parse::<u64>() {
            Ok(ms) => Some(Instant::now() + Duration::from_millis(ms)),
            Err(e) => {
                Counters::bump(&shared.counters.rejected);
                return response(&[
                    ("id", id),
                    ("status", "error"),
                    ("error", &format!("deadline_ms: {e}")),
                ]);
            }
        },
        None => None,
    };

    // Fast path: identical requests answered from the shared store,
    // bypassing admission entirely — cache hits survive any queue state,
    // including drain.
    if let Some(data) = shared.store.get(job_key) {
        Counters::bump(&shared.counters.served_cached);
        return response(&[
            ("id", id),
            ("job", job_key),
            ("status", "ok"),
            ("source", "cache"),
            ("data", &data),
        ]);
    }

    if shared.is_draining() {
        return response(&[
            ("id", id),
            ("job", job_key),
            ("status", "drained"),
            ("error", "daemon is draining; resubmit after restart"),
        ]);
    }

    let retry_after_ms = shared.cfg.retry_after.as_millis().to_string();
    let rx = {
        let mut queue = shared.queue.lock().expect("queue lock");
        let depth = queue.len();
        if depth >= shared.cfg.queue_capacity {
            Counters::bump(&shared.counters.shed);
            return response(&[
                ("id", id),
                ("job", job_key),
                ("status", "shed"),
                ("reason", "queue full"),
                ("retry_after_ms", &retry_after_ms),
            ]);
        }
        // Graceful degradation: above the high-watermark, cold heavy jobs
        // are shed while light jobs (and every cache hit, above) still
        // get through.
        if depth >= pressure_watermark(shared.cfg.queue_capacity) && shared.exec.is_heavy(job_key) {
            Counters::bump(&shared.counters.shed);
            return response(&[
                ("id", id),
                ("job", job_key),
                ("status", "shed"),
                ("reason", "pressure: heavy job shed near capacity"),
                ("retry_after_ms", &retry_after_ms),
            ]);
        }
        // Journal before the job becomes visible to workers: `accepted`
        // must be durable before any work (or crash) can happen on it.
        shared.journal_append(job_key, "accepted", "queued");
        if let Some(fatal) = shared.fatal.lock().expect("fatal lock").clone() {
            return response(&[("id", id), ("status", "error"), ("error", &fatal)]);
        }
        Counters::bump(&shared.counters.accepted);
        let (tx, rx) = mpsc::channel();
        queue.push_back(Job {
            key: job_key.clone(),
            id: id.to_owned(),
            deadline_at,
            reply: Some(tx),
        });
        shared.queue_cv.notify_one();
        rx
    };
    // Block this connection until its job resolves; every queued job is
    // answered exactly once (completed, failed, expired, or drained), so
    // the recv cannot hang past drain.
    rx.recv().unwrap_or_else(|_| {
        response(&[
            ("id", id),
            ("job", job_key),
            ("status", "error"),
            ("error", "daemon dropped the job (shutting down)"),
        ])
    })
}

fn stats_response(shared: &Arc<Shared>, id: &str) -> String {
    let c = &shared.counters;
    let store = shared.store.stats();
    // Admission bumps `accepted` and enqueues under the queue lock, so
    // reading the count before the depth makes every admitted job
    // counted here visible in the depth (or already dequeued).
    let accepted = c.accepted.load(Ordering::SeqCst);
    let queued = shared.queue.lock().expect("queue lock").len();
    let pairs: Vec<(String, String)> = vec![
        ("id".into(), id.to_owned()),
        ("status".into(), "ok".into()),
        ("protocol".into(), PROTOCOL.into()),
        ("draining".into(), shared.is_draining().to_string()),
        ("queued".into(), queued.to_string()),
        (
            "queue_capacity".into(),
            shared.cfg.queue_capacity.to_string(),
        ),
        ("workers".into(), shared.cfg.workers.max(1).to_string()),
        ("accepted".into(), accepted.to_string()),
        (
            "completed".into(),
            c.completed.load(Ordering::SeqCst).to_string(),
        ),
        ("failed".into(), c.failed.load(Ordering::SeqCst).to_string()),
        ("shed".into(), c.shed.load(Ordering::SeqCst).to_string()),
        (
            "expired".into(),
            c.expired.load(Ordering::SeqCst).to_string(),
        ),
        (
            "rejected".into(),
            c.rejected.load(Ordering::SeqCst).to_string(),
        ),
        (
            "drained".into(),
            c.drained.load(Ordering::SeqCst).to_string(),
        ),
        (
            "served_cached".into(),
            c.served_cached.load(Ordering::SeqCst).to_string(),
        ),
        (
            "adopted".into(),
            c.adopted.load(Ordering::SeqCst).to_string(),
        ),
        (
            "replayed".into(),
            c.replayed.load(Ordering::SeqCst).to_string(),
        ),
        ("cache_hits".into(), store.hits.to_string()),
        ("cache_misses".into(), store.misses.to_string()),
        ("cache_inserts".into(), store.inserts.to_string()),
        ("cache_evictions".into(), store.evictions.to_string()),
        ("cache_resident".into(), store.len.to_string()),
    ];
    let borrowed: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    response(&borrowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::sync::atomic::AtomicU32;

    /// Test executor: `heavy-gated` jobs block on a test-held flag,
    /// `fail-*` jobs raise a retryable error forever, `flaky` fails twice
    /// then succeeds, `heavy-*` jobs are heavy. Everything else echoes
    /// deterministically.
    struct MockExec {
        calls: AtomicU32,
        gate: Option<Arc<AtomicBool>>,
    }

    impl MockExec {
        fn boxed() -> Box<dyn JobExecutor> {
            Box::new(Self {
                calls: AtomicU32::new(0),
                gate: None,
            })
        }

        /// A mock whose `heavy-gated` jobs block until the returned flag
        /// is set: deterministic queue pressure with no dependence on
        /// host timing (a timed sleep can drain between a stats poll and
        /// the next submit on a loaded machine).
        fn gated() -> (Box<dyn JobExecutor>, Arc<AtomicBool>) {
            let flag = Arc::new(AtomicBool::new(false));
            let exec = Box::new(Self {
                calls: AtomicU32::new(0),
                gate: Some(Arc::clone(&flag)),
            });
            (exec, flag)
        }
    }

    impl JobExecutor for MockExec {
        fn validate(&self, job: &str) -> Result<(), String> {
            if job.starts_with("bogus") {
                Err(format!("unknown job `{job}`"))
            } else {
                Ok(())
            }
        }

        fn is_heavy(&self, job: &str) -> bool {
            job.starts_with("heavy-")
        }

        fn execute(&self, job: &str) -> Result<String, PlatformError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if job == "heavy-gated" {
                let gate = self.gate.as_ref().expect("gated executor");
                let deadline = Instant::now() + Duration::from_secs(120);
                while !gate.load(Ordering::SeqCst) {
                    assert!(Instant::now() < deadline, "gate never released");
                    std::thread::sleep(Duration::from_millis(5));
                }
                return Ok(format!("result for {job}\n"));
            }
            if job.starts_with("fail-") {
                return Err(PlatformError::DeviceFault {
                    unit: "mock".into(),
                    detail: "always broken".into(),
                });
            }
            if job == "flaky" && self.calls.load(Ordering::SeqCst) <= 2 {
                return Err(PlatformError::CompileFailure("mock flake".into()));
            }
            Ok(format!("result for {job}\nline 2 of {job}\n"))
        }
    }

    struct TestDaemon {
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        handle: std::thread::JoinHandle<io::Result<ServeSummary>>,
    }

    fn spawn_daemon(cfg: ServeConfig, exec: Box<dyn JobExecutor>) -> TestDaemon {
        let server = Server::bind(cfg, exec).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));
        TestDaemon {
            addr,
            shutdown,
            handle,
        }
    }

    impl TestDaemon {
        fn stop(self) -> ServeSummary {
            self.shutdown.store(true, Ordering::SeqCst);
            self.handle
                .join()
                .expect("daemon thread")
                .expect("clean exit")
        }
    }

    struct Client {
        reader: io::BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = io::BufReader::new(stream.try_clone().expect("clone"));
            Self {
                reader,
                writer: stream,
            }
        }

        fn request(&mut self, line: &str) -> std::collections::BTreeMap<String, String> {
            writeln!(self.writer, "{line}").expect("write request");
            self.writer.flush().expect("flush");
            let mut reply = String::new();
            self.reader.read_line(&mut reply).expect("read reply");
            jsonl::parse_object(&reply).unwrap_or_else(|| panic!("flat JSON reply: {reply:?}"))
        }

        fn submit(&mut self, id: &str, job: &str) -> std::collections::BTreeMap<String, String> {
            self.request(&jsonl::write_object(&[
                ("op", "submit"),
                ("id", id),
                ("job", job),
            ]))
        }
    }

    type Stats = std::collections::BTreeMap<String, String>;

    fn stat_is(stats: &Stats, key: &str, value: &str) -> bool {
        stats.get(key).map(String::as_str) == Some(value)
    }

    /// Poll `stats` until `done` holds; fail with `what` after 60 s.
    fn wait_for_stats(client: &mut Client, what: &str, done: impl Fn(&Stats) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = client.request("{\"op\":\"stats\",\"id\":\"s\"}");
            if done(&stats) {
                return;
            }
            assert!(Instant::now() < deadline, "{what}: {stats:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 64,
            ..ServeConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dabench-serve-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ping_submit_and_cache_hit_roundtrip() {
        let daemon = spawn_daemon(quick_cfg(), MockExec::boxed());
        let mut client = Client::connect(daemon.addr);

        let pong = client.request("{\"op\":\"ping\",\"id\":\"p1\"}");
        assert_eq!(pong.get("status").map(String::as_str), Some("ok"));
        assert_eq!(pong.get("protocol").map(String::as_str), Some(PROTOCOL));

        let first = client.submit("1", "table-mock");
        assert_eq!(
            first.get("status").map(String::as_str),
            Some("ok"),
            "{first:?}"
        );
        assert_eq!(first.get("source").map(String::as_str), Some("executed"));
        assert_eq!(
            first.get("data").map(String::as_str),
            Some("result for table-mock\nline 2 of table-mock\n"),
            "multi-line data round-trips through escaping"
        );

        let second = client.submit("2", "table-mock");
        assert_eq!(second.get("source").map(String::as_str), Some("cache"));
        assert_eq!(second.get("data"), first.get("data"), "byte-identical");

        let stats = client.request("{\"op\":\"stats\",\"id\":\"s\"}");
        assert_eq!(stats.get("cache_hits").map(String::as_str), Some("1"));
        assert_eq!(stats.get("served_cached").map(String::as_str), Some("1"));

        let summary = daemon.stop();
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.served_cached, 1);
        assert_eq!(summary.store.hits, 1);
    }

    #[test]
    fn unknown_jobs_and_malformed_requests_are_structured_errors() {
        let daemon = spawn_daemon(quick_cfg(), MockExec::boxed());
        let mut client = Client::connect(daemon.addr);

        let bad = client.submit("1", "bogus-zzz");
        assert_eq!(bad.get("status").map(String::as_str), Some("error"));
        assert!(bad.get("error").unwrap().contains("unknown job"), "{bad:?}");

        let garbage = client.request("this is not json");
        assert_eq!(garbage.get("status").map(String::as_str), Some("error"));
        assert!(
            garbage.get("error").unwrap().contains("hex"),
            "malformed requests carry a hex snippet: {garbage:?}"
        );

        let noop = client.request("{\"id\":\"x\"}");
        assert!(noop.get("error").unwrap().contains("missing op"));

        let summary = daemon.stop();
        assert_eq!(summary.rejected, 3);
        assert_eq!(summary.completed, 0);
    }

    #[test]
    fn full_queue_sheds_with_retry_after_instead_of_blocking() {
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..quick_cfg()
        };
        let (exec, release) = MockExec::gated();
        let daemon = spawn_daemon(cfg, exec);
        let mut stats = Client::connect(daemon.addr);

        // Connection A occupies the single worker with a gated job.
        let mut a = Client::connect(daemon.addr);
        let a_thread = std::thread::spawn(move || a.submit("a", "heavy-gated"));
        wait_for_stats(&mut stats, "a never started", |s| {
            stat_is(s, "accepted", "1") && stat_is(s, "queued", "0")
        });

        // Connection B fills the queue; connection C must be shed fast.
        let mut b = Client::connect(daemon.addr);
        let b_thread = std::thread::spawn(move || b.submit("b", "heavy-gated"));
        wait_for_stats(&mut stats, "b never queued", |s| {
            stat_is(s, "accepted", "2") && stat_is(s, "queued", "1")
        });

        let mut c = Client::connect(daemon.addr);
        let start = Instant::now();
        let shed = c.submit("c", "light-job");
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "shed responses must not wait for the queue"
        );
        assert_eq!(
            shed.get("status").map(String::as_str),
            Some("shed"),
            "{shed:?}"
        );
        assert_eq!(shed.get("reason").map(String::as_str), Some("queue full"));
        assert_eq!(shed.get("retry_after_ms").map(String::as_str), Some("250"));

        release.store(true, Ordering::SeqCst);
        let a_reply = a_thread.join().expect("a");
        let b_reply = b_thread.join().expect("b");
        assert_eq!(a_reply.get("status").map(String::as_str), Some("ok"));
        assert_eq!(b_reply.get("status").map(String::as_str), Some("ok"));

        let summary = daemon.stop();
        assert_eq!(summary.shed, 1);
        assert_eq!(summary.completed, 2);
    }

    #[test]
    fn pressure_watermark_is_three_quarters_rounded_up_without_overflow() {
        // Matches the rational definition ceil(3c/4) wherever the naive
        // `depth * 4 >= capacity * 3` comparison is computable...
        for capacity in 1usize..=1000 {
            let expected = (3 * capacity).div_ceil(4);
            assert_eq!(pressure_watermark(capacity), expected, "cap={capacity}");
        }
        // ...and stays finite where that comparison would wrap.
        assert_eq!(pressure_watermark(usize::MAX), usize::MAX - usize::MAX / 4);
        assert!(pressure_watermark(usize::MAX) > usize::MAX / 2);
    }

    #[test]
    fn capacity_one_daemon_still_admits_jobs_when_idle() {
        // Regression: at queue_capacity 1 the watermark is 1, not 0 — an
        // idle daemon must execute light AND heavy jobs rather than
        // shedding everything under permanent "pressure".
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..quick_cfg()
        };
        let daemon = spawn_daemon(cfg, MockExec::boxed());
        let mut client = Client::connect(daemon.addr);

        let light = client.submit("l", "light-job");
        assert_eq!(
            light.get("status").map(String::as_str),
            Some("ok"),
            "{light:?}"
        );
        let heavy = client.submit("h", "heavy-sweep");
        assert_eq!(
            heavy.get("status").map(String::as_str),
            Some("ok"),
            "{heavy:?}"
        );

        let summary = daemon.stop();
        assert_eq!(summary.shed, 0);
        assert_eq!(summary.completed, 2);
    }

    #[test]
    fn pressure_sheds_heavy_jobs_but_admits_light_ones() {
        // Capacity 4, watermark at 3: with 3 queued, heavy is shed,
        // light still gets in. The executing blocker is gated on a flag
        // this test holds closed, so the queue cannot drain between the
        // depth observation and the heavy submit however loaded the
        // host is.
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 4,
            ..quick_cfg()
        };
        let (exec, release) = MockExec::gated();
        let daemon = spawn_daemon(cfg, exec);

        let blocker = |i: u32| {
            let mut c = Client::connect(daemon.addr);
            let id = format!("b{i}");
            std::thread::spawn(move || c.submit(&id, "heavy-gated"))
        };
        // The first blocker must hold the only worker at the gate before
        // the others arrive: three blockers queued behind an undequeued
        // first one put the fourth at the watermark, and it is shed.
        // Every figure waited on is terminal while the gate is closed,
        // so the long deadlines only matter when the host CPU is
        // saturated (e.g. the full workspace suite running in parallel).
        let mut stats_client = Client::connect(daemon.addr);
        let mut blockers = vec![blocker(0)];
        wait_for_stats(&mut stats_client, "first blocker never started", |s| {
            stat_is(s, "accepted", "1") && stat_is(s, "queued", "0")
        });
        blockers.extend((1..4).map(blocker));
        // Then all four admitted: one executes, three sit queued.
        wait_for_stats(&mut stats_client, "blockers never queued", |s| {
            stat_is(s, "accepted", "4") && stat_is(s, "queued", "3")
        });

        let mut heavy = Client::connect(daemon.addr);
        let shed = heavy.submit("h", "heavy-sweep");
        assert_eq!(
            shed.get("status").map(String::as_str),
            Some("shed"),
            "{shed:?}"
        );
        assert!(shed.get("reason").unwrap().contains("pressure"), "{shed:?}");

        // The light submit only *responds* once the job executes, which
        // needs the gate open — so prove admission-under-pressure via
        // stats (depth 3 -> 4 while the gate is still closed), then
        // release and collect the response.
        let mut light = Client::connect(daemon.addr);
        let light_thread = std::thread::spawn(move || light.submit("l", "light-job"));
        wait_for_stats(
            &mut stats_client,
            "light job was not admitted under pressure",
            |s| stat_is(s, "queued", "4"),
        );

        release.store(true, Ordering::SeqCst);
        let ok = light_thread.join().expect("light client");
        assert_eq!(ok.get("status").map(String::as_str), Some("ok"), "{ok:?}");
        for b in blockers {
            let r = b.join().expect("blocker client");
            assert_eq!(
                r.get("status").map(String::as_str),
                Some("ok"),
                "gated blocker must complete once released: {r:?}"
            );
        }
        let summary = daemon.stop();
        assert_eq!(summary.shed, 1);
    }

    #[test]
    fn queue_wait_deadline_expires_jobs_with_a_structured_response() {
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..quick_cfg()
        };
        let (exec, release) = MockExec::gated();
        let daemon = spawn_daemon(cfg, exec);
        let mut stats = Client::connect(daemon.addr);

        let mut a = Client::connect(daemon.addr);
        let a_thread = std::thread::spawn(move || a.submit("a", "heavy-gated"));
        wait_for_stats(&mut stats, "a never started", |s| {
            stat_is(s, "accepted", "1") && stat_is(s, "queued", "0")
        });

        let mut b = Client::connect(daemon.addr);
        let b_thread = std::thread::spawn(move || {
            b.request(&jsonl::write_object(&[
                ("op", "submit"),
                ("id", "b"),
                ("job", "light-b"),
                ("deadline_ms", "1"),
            ]))
        });
        wait_for_stats(&mut stats, "b never queued", |s| {
            stat_is(s, "accepted", "2") && stat_is(s, "queued", "1")
        });
        // B's deadline started when the daemon read it, before this stats
        // reply; once 1 ms more has passed here it has expired, whatever
        // the host load, and only then may the worker dequeue B.
        let seen = Instant::now();
        while seen.elapsed() <= Duration::from_millis(1) {
            std::thread::yield_now();
        }
        release.store(true, Ordering::SeqCst);
        let reply = b_thread.join().expect("b");
        assert_eq!(
            reply.get("status").map(String::as_str),
            Some("expired"),
            "{reply:?}"
        );

        let _ = a_thread.join();
        let summary = daemon.stop();
        assert_eq!(summary.expired, 1);
    }

    #[test]
    fn failed_jobs_report_the_platform_error() {
        let cfg = ServeConfig {
            max_retries: 1,
            ..quick_cfg()
        };
        let daemon = spawn_daemon(cfg, MockExec::boxed());
        let mut client = Client::connect(daemon.addr);
        let reply = client.submit("1", "fail-device");
        assert_eq!(
            reply.get("status").map(String::as_str),
            Some("failed"),
            "{reply:?}"
        );
        let error = reply.get("error").unwrap();
        assert!(error.contains("device fault"), "{error}");
        assert!(error.contains("after 1 retries"), "{error}");
        let summary = daemon.stop();
        assert_eq!(summary.failed, 1);
    }

    #[test]
    fn drain_op_answers_queued_jobs_and_exits_clean() {
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..quick_cfg()
        };
        let (exec, release) = MockExec::gated();
        let daemon = spawn_daemon(cfg, exec);
        let mut ctl = Client::connect(daemon.addr);

        let mut a = Client::connect(daemon.addr);
        let a_thread = std::thread::spawn(move || a.submit("a", "heavy-gated"));
        wait_for_stats(&mut ctl, "a never started", |s| {
            stat_is(s, "accepted", "1") && stat_is(s, "queued", "0")
        });
        let mut b = Client::connect(daemon.addr);
        let b_thread = std::thread::spawn(move || b.submit("b", "light-queued"));
        wait_for_stats(&mut ctl, "b never queued", |s| {
            stat_is(s, "accepted", "2") && stat_is(s, "queued", "1")
        });

        let drained = ctl.request("{\"op\":\"drain\",\"id\":\"d\"}");
        assert_eq!(drained.get("draining").map(String::as_str), Some("true"));

        // In-flight job finishes; the queued one gets a drained response.
        release.store(true, Ordering::SeqCst);
        let a_reply = a_thread.join().expect("a");
        assert_eq!(
            a_reply.get("status").map(String::as_str),
            Some("ok"),
            "{a_reply:?}"
        );
        let b_reply = b_thread.join().expect("b");
        assert_eq!(
            b_reply.get("status").map(String::as_str),
            Some("drained"),
            "{b_reply:?}"
        );

        let summary = daemon.handle.join().expect("thread").expect("clean");
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.drained, 1);
    }

    #[test]
    fn journaled_daemon_resumes_with_byte_identical_replay_and_adoption() {
        let dir = temp_dir("resume");

        // First daemon: complete one job, accept (but never run) another
        // by writing its journal records the way a SIGKILL would leave
        // them: completed for job A, accepted-only for job B.
        let cfg = ServeConfig {
            run_dir: Some(dir.clone()),
            ..quick_cfg()
        };
        let daemon = spawn_daemon(cfg, MockExec::boxed());
        let mut client = Client::connect(daemon.addr);
        let original = client.submit("1", "table-mock");
        assert_eq!(original.get("status").map(String::as_str), Some("ok"));
        drop(client);
        let _ = daemon.stop();

        // Simulate the kill residue: an accepted-but-unfinished job plus
        // a truncated tail.
        {
            use std::fs::OpenOptions;
            let path = RunJournal::path_in(&dir);
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            writeln!(
                f,
                "{{\"label\":\"orphan-job\",\"status\":\"accepted\",\"data\":\"queued\"}}"
            )
            .expect("append");
            write!(f, "{{\"label\":\"cut-mid-").expect("truncated tail");
        }

        // Second daemon resumes: replays A, adopts orphan-job.
        let cfg = ServeConfig {
            run_dir: Some(dir.clone()),
            resume: true,
            ..quick_cfg()
        };
        let server = Server::bind(cfg, MockExec::boxed()).expect("bind");
        let resume_line = server.resume_summary().expect("summary").to_owned();
        assert_eq!(
            resume_line,
            "resume: 1 replayed from journal, 1 adopted (re-run), 1 abandoned (truncated tail)"
        );
        let addr = server.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));

        let mut client = Client::connect(addr);
        // Replayed rendering comes back byte-identical, from cache, with
        // no re-execution.
        let replayed = client.submit("2", "table-mock");
        assert_eq!(replayed.get("source").map(String::as_str), Some("cache"));
        assert_eq!(replayed.get("data"), original.get("data"), "byte-identical");

        // The adopted job ran at startup; give it a moment, then expect a
        // cache answer for it too.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let adopted = client.submit("3", "orphan-job");
            if adopted.get("source").map(String::as_str) == Some("cache") {
                break;
            }
            assert!(Instant::now() < deadline, "adopted job never completed");
            std::thread::sleep(Duration::from_millis(20));
        }

        shutdown.store(true, Ordering::SeqCst);
        let summary = handle.join().expect("thread").expect("clean");
        assert_eq!(summary.replayed, 1);
        assert_eq!(summary.adopted, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submissions_during_drain_get_a_drained_response() {
        let daemon = spawn_daemon(quick_cfg(), MockExec::boxed());
        let mut client = Client::connect(daemon.addr);
        // Warm the cache first: cache hits must survive drain.
        let warm = client.submit("1", "warm-job");
        assert_eq!(warm.get("status").map(String::as_str), Some("ok"));

        let _ = client.request("{\"op\":\"drain\",\"id\":\"d\"}");
        let refused = client.submit("2", "cold-job");
        assert_eq!(
            refused.get("status").map(String::as_str),
            Some("drained"),
            "{refused:?}"
        );
        let cached = client.submit("3", "warm-job");
        assert_eq!(
            cached.get("source").map(String::as_str),
            Some("cache"),
            "{cached:?}"
        );

        let summary = daemon.handle.join().expect("thread").expect("clean");
        assert_eq!(summary.completed, 1);
    }

    #[test]
    fn retryable_failures_are_retried_to_success() {
        let cfg = ServeConfig {
            max_retries: 2,
            ..quick_cfg()
        };
        let daemon = spawn_daemon(cfg, MockExec::boxed());
        let mut client = Client::connect(daemon.addr);
        let reply = client.submit("1", "flaky");
        assert_eq!(
            reply.get("status").map(String::as_str),
            Some("ok"),
            "{reply:?}"
        );
        let summary = daemon.stop();
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.failed, 0);
    }
}

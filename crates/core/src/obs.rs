//! Dependency-free instrumentation bus: phase-scoped spans, counters, and
//! Chrome-trace export.
//!
//! The platform models annotate their work with *spans* (named regions
//! attributed to a [`Phase`]: compile, place, partition, execute, collect)
//! and *counters* (key/value figures such as allocated PEs or DDR bytes).
//! Everything is recorded against **logical timestamps** — a per-point
//! event counter, not wall-clock time — so two runs of the same sweep
//! produce byte-identical traces regardless of machine speed, scheduling,
//! or `--jobs`.
//!
//! # Determinism model
//!
//! Each unit of work records into a thread-local *point context* addressed
//! by a **path**: a sequence of point indices (`[experiment, sweep-cell,
//! …]`). [`with_point`] opens a context; [`par_map`] forks child contexts
//! (one per item, tagged with the item's input index) via [`fork`], so a
//! worker thread always records into the context of the *item* it is
//! evaluating, never into a shared stream. When a context closes, its
//! events flush into a global sink; [`take`] drains the sink sorted by
//! path. Input order — not scheduling — therefore decides the final event
//! order, and the rendered trace is identical at any worker count.
//!
//! # Muted scopes
//!
//! [`muted`] turns the recorder off for one closure on the calling
//! thread, and for the `par_map` items it forks, wherever they run. Work
//! that re-derives points only to check them (the `gen` invariant
//! checker) runs muted, so it never adds tracks next to the real points.
//!
//! # Cost when disabled
//!
//! The recorder is off by default. Every entry point loads one relaxed
//! `AtomicBool` and returns; no allocation, no locking, no thread-local
//! access. Enabling is the CLI's job (`--trace-out` / `--metrics`).
//!
//! [`par_map`]: crate::parallel::par_map

use crate::jsonl;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Phases and events
// ---------------------------------------------------------------------------

/// The benchmark phase a span or counter is attributed to.
///
/// Mirrors the paper's per-phase breakdown: compilation, spatial
/// placement, section partitioning, execution, and result collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Kernel/graph compilation (e.g. the WSE compiler's budget loop).
    Compile,
    /// Spatial placement onto the fabric (e.g. WSE PE strips).
    Place,
    /// Partitioning a workload into schedulable sections (RDU).
    Partition,
    /// Executing the compiled/partitioned plan (all platforms, sim).
    Execute,
    /// Deriving report metrics from raw profiles (tier-1 collection).
    Collect,
    /// Autoregressive inference profiling (prefill/decode accounting,
    /// KV-cache placement, throughput derivation).
    Infer,
}

impl Phase {
    /// Stable lower-case name used in digests, traces, and tables.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Compile => "compile",
            Phase::Place => "place",
            Phase::Partition => "partition",
            Phase::Execute => "execute",
            Phase::Collect => "collect",
            Phase::Infer => "infer",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "compile" => Phase::Compile,
            "place" => Phase::Place,
            "partition" => Phase::Partition,
            "execute" => Phase::Execute,
            "collect" => Phase::Collect,
            "infer" => Phase::Infer,
            _ => return None,
        })
    }
}

/// One recorded instrumentation event.
///
/// Timestamps (`ts`) are logical: the per-point event sequence number at
/// recording time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened (`ph:"B"` in Chrome trace terms).
    Begin {
        /// Phase the span belongs to.
        phase: Phase,
        /// Span name, e.g. `wse.compile`.
        name: String,
        /// Logical timestamp.
        ts: u64,
    },
    /// A span closed (`ph:"E"`).
    End {
        /// Phase of the span being closed.
        phase: Phase,
        /// Name of the span being closed.
        name: String,
        /// Logical timestamp.
        ts: u64,
    },
    /// A key/value counter sample (`ph:"C"`).
    Counter {
        /// Innermost open span's phase at recording time, if any.
        phase: Option<Phase>,
        /// Counter key, e.g. `wse.allocated_pes`.
        key: String,
        /// Sampled value.
        value: f64,
        /// Logical timestamp.
        ts: u64,
    },
}

impl Event {
    fn logical_ts(&self) -> u64 {
        match self {
            Event::Begin { ts, .. } | Event::End { ts, .. } | Event::Counter { ts, .. } => *ts,
        }
    }
}

/// Every event recorded by one point context, in recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct PointTrace {
    /// Point-index path (`[experiment, sweep-cell, …]`); sink sort key.
    pub path: Vec<u64>,
    /// Human label of the point (empty for forked sweep cells).
    pub label: String,
    /// Events in recording order.
    pub events: Vec<Event>,
}

impl PointTrace {
    /// Dotted rendering of [`PointTrace::path`], e.g. `"3.12"`.
    #[must_use]
    pub fn path_string(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.path.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            let _ = write!(out, "{p}");
        }
        out
    }

    /// Sum of all samples of counter `key` in this trace, or `None` if
    /// the counter was never recorded.
    #[must_use]
    pub fn counter_total(&self, key: &str) -> Option<f64> {
        let mut total = None;
        for e in &self.events {
            if let Event::Counter { key: k, value, .. } = e {
                if k == key {
                    *total.get_or_insert(0.0) += value;
                }
            }
        }
        total
    }

    /// Structural validation: spans are well-nested (every `End` matches
    /// the innermost open `Begin`), every opened span is closed, and
    /// logical timestamps are strictly increasing.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_well_formed(&self) -> Result<(), String> {
        let mut stack: Vec<(Phase, &str)> = Vec::new();
        let mut last_ts: Option<u64> = None;
        for (i, e) in self.events.iter().enumerate() {
            let ts = e.logical_ts();
            if last_ts.is_some_and(|prev| ts <= prev) {
                return Err(format!(
                    "event {i}: non-monotone logical ts {ts} after {last_ts:?}"
                ));
            }
            last_ts = Some(ts);
            match e {
                Event::Begin { phase, name, .. } => stack.push((*phase, name)),
                Event::End { phase, name, .. } => match stack.pop() {
                    Some((p, n)) if p == *phase && n == name => {}
                    top => {
                        return Err(format!(
                            "event {i}: End({}/{name}) does not match open span {top:?}",
                            phase.as_str()
                        ))
                    }
                },
                Event::Counter { .. } => {}
            }
        }
        if let Some((p, n)) = stack.pop() {
            return Err(format!("span {}/{n} was never closed", p.as_str()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Recorder state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<PointTrace>> = Mutex::new(Vec::new());

struct Ctx {
    path: Vec<u64>,
    label: String,
    clock: u64,
    /// Count of [`fork`] calls made from this context. Each fork gets its
    /// own path segment, so two sequential `par_map` sweeps inside one
    /// point produce disjoint child paths (`[…, 1, j]` then `[…, 2, j]`)
    /// instead of colliding — path collisions would make the sink's sort
    /// order depend on flush timing, i.e. on scheduling.
    fork_seq: u64,
    stack: Vec<(Phase, String)>,
    events: Vec<Event>,
    /// Per-point compile cache (see [`crate::compile`]). Living inside the
    /// point context makes incremental-compile hit/miss counters a pure
    /// function of the point's own call sequence — never of which worker
    /// thread or sweep neighbour ran first.
    compile: crate::compile::CompileScratch,
}

impl Ctx {
    fn new(path: Vec<u64>, label: String) -> Self {
        Self {
            path,
            label,
            clock: 0,
            fork_seq: 0,
            stack: Vec::new(),
            events: Vec::new(),
            compile: crate::compile::CompileScratch::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn begin(&mut self, phase: Phase, name: &str) {
        let ts = self.tick();
        self.stack.push((phase, name.to_owned()));
        self.events.push(Event::Begin {
            phase,
            name: name.to_owned(),
            ts,
        });
    }

    fn end(&mut self) {
        if let Some((phase, name)) = self.stack.pop() {
            let ts = self.tick();
            self.events.push(Event::End { phase, name, ts });
        }
    }

    /// Close any spans left open (e.g. by a panic inside a span body) so
    /// every flushed trace is well-formed.
    fn close_all(&mut self) {
        while !self.stack.is_empty() {
            self.end();
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// Inside [`muted`]: the recorder reads as off on this thread.
    static MUTED: Cell<bool> = const { Cell::new(false) };
}

fn sink() -> std::sync::MutexGuard<'static, Vec<PointTrace>> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn flush(mut ctx: Ctx) {
    ctx.close_all();
    if ctx.events.is_empty() {
        return;
    }
    sink().push(PointTrace {
        path: ctx.path,
        label: ctx.label,
        events: ctx.events,
    });
}

/// Restores the previous thread-local context (flushing the one it
/// replaces) even when the instrumented body panics.
struct CtxGuard {
    prev: Option<Ctx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let current = CTX.with(|c| c.replace(self.prev.take()));
        if let Some(ctx) = current {
            flush(ctx);
        }
    }
}

fn enter_ctx<R>(path: Vec<u64>, label: String, f: impl FnOnce() -> R) -> R {
    let prev = CTX.with(|c| c.replace(Some(Ctx::new(path, label))));
    let _guard = CtxGuard { prev };
    f()
}

/// Run `f` against the open point context's compile scratch, or return
/// `None` when no context is open on this thread. `f` must not re-enter
/// the recorder (no [`span`]/[`counter`] calls) — the context is borrowed
/// for the duration of the call.
pub(crate) fn with_compile_scratch<R>(
    f: impl FnOnce(&mut crate::compile::CompileScratch) -> R,
) -> Option<R> {
    CTX.with(|c| c.borrow_mut().as_mut().map(|ctx| f(&mut ctx.compile)))
}

fn current_path() -> Vec<u64> {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| ctx.path.clone())
            .unwrap_or_default()
    })
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Turn recording on. Until this is called every instrumentation entry
/// point is a single relaxed atomic load.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off and drop everything in the sink. Contexts already
/// open on *other* threads keep recording until they close; their flushed
/// traces land in the (now-drained) sink.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    sink().clear();
}

/// Whether the recorder is on for this thread: enabled, and not inside
/// [`muted`].
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && !MUTED.with(Cell::get)
}

/// Run `f` with the recorder off for this thread and for every `par_map`
/// item forked inside `f`: nothing `f` does reaches the sink, and the
/// caches that bypass themselves while recording serve it as they would
/// an untraced run. Other threads keep recording.
pub fn muted<R>(f: impl FnOnce() -> R) -> R {
    if !is_enabled() {
        return f();
    }
    /// Restores the caller's state even when `f` panics.
    struct Unmute;
    impl Drop for Unmute {
        fn drop(&mut self) {
            MUTED.with(|m| m.set(false));
        }
    }
    MUTED.with(|m| m.set(true));
    let _unmute = Unmute;
    f()
}

/// Run `f` inside a fresh point context at `index` (appended to the
/// calling context's path, if any), flushing its events on exit.
///
/// Passthrough when the recorder is disabled. Contexts nest: an
/// experiment opened with `with_point(3, "fig9", …)` that `par_map`s 12
/// probes yields traces at paths `[3]`, `[3,0]` … `[3,11]`.
pub fn with_point<R>(index: u64, label: &str, f: impl FnOnce() -> R) -> R {
    if !is_enabled() {
        return f();
    }
    let mut path = current_path();
    path.push(index);
    enter_ctx(path, label.to_owned(), f)
}

/// Record `f` as a span of `phase` named `name`.
///
/// Closure-scoped, so spans are well-nested by construction; the span is
/// closed even if `f` panics. Passthrough when the recorder is disabled
/// or no point context is open on this thread.
pub fn span<R>(phase: Phase, name: &str, f: impl FnOnce() -> R) -> R {
    if !is_enabled() {
        return f();
    }
    let opened = CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            ctx.begin(phase, name);
            true
        } else {
            false
        }
    });
    if !opened {
        return f();
    }
    struct SpanGuard;
    impl Drop for SpanGuard {
        fn drop(&mut self) {
            CTX.with(|c| {
                if let Some(ctx) = c.borrow_mut().as_mut() {
                    ctx.end();
                }
            });
        }
    }
    let _guard = SpanGuard;
    f()
}

/// Record a counter sample, attributed to the innermost open span's
/// phase. No-op when disabled or outside a point context.
pub fn counter(key: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            let ts = ctx.tick();
            let phase = ctx.stack.last().map(|(p, _)| *p);
            ctx.events.push(Event::Counter {
                phase,
                key: key.to_owned(),
                value,
                ts,
            });
        }
    });
}

/// Drain the sink, sorted by path (then insertion order for ties), i.e.
/// by *input* order of the work that produced the events.
#[must_use]
pub fn take() -> Vec<PointTrace> {
    let mut traces: Vec<PointTrace> = std::mem::take(&mut *sink());
    traces.sort_by(|a, b| a.path.cmp(&b.path));
    traces
}

/// Drain only the traces whose path starts with `prefix`, sorted by path.
/// Used by the supervisor to journal one point's digest without touching
/// concurrently-recorded neighbors.
#[must_use]
pub fn drain_prefix(prefix: &[u64]) -> Vec<PointTrace> {
    let mut guard = sink();
    let mut matched = Vec::new();
    let mut kept = Vec::new();
    for t in guard.drain(..) {
        if t.path.starts_with(prefix) {
            matched.push(t);
        } else {
            kept.push(t);
        }
    }
    *guard = kept;
    drop(guard);
    matched.sort_by(|a, b| a.path.cmp(&b.path));
    matched
}

/// Push traces (e.g. parsed from a resumed journal) back into the sink.
pub fn inject(traces: Vec<PointTrace>) {
    sink().extend(traces);
}

/// Capture of the calling thread's point path, for re-entering child
/// contexts on worker threads. Created by [`fork`].
#[derive(Debug, Clone)]
pub struct Fork {
    /// `None` when the recorder was off (or muted) at fork time.
    parent: Option<Vec<u64>>,
    /// Forked inside [`muted`]: children run muted on any thread.
    muted: bool,
}

/// Capture the current point path so `par_map` workers can open child
/// contexts under it. Returns an inert handle when the recorder is off.
///
/// Inside a point context each call claims a fresh fork sequence number,
/// appended to the captured path: children of the Nth fork live at
/// `[…, N, index]`. Fork calls happen on the owning thread in program
/// order, so the numbering — and therefore every child path — is
/// deterministic.
#[must_use]
pub fn fork() -> Fork {
    if !is_enabled() {
        return Fork {
            parent: None,
            muted: ENABLED.load(Ordering::Relaxed),
        };
    }
    let parent = CTX.with(|c| {
        let mut borrow = c.borrow_mut();
        match borrow.as_mut() {
            Some(ctx) => {
                ctx.fork_seq += 1;
                let mut p = ctx.path.clone();
                p.push(ctx.fork_seq);
                p
            }
            None => Vec::new(),
        }
    });
    Fork {
        parent: Some(parent),
        muted: false,
    }
}

impl Fork {
    /// Run `f` in a child context at `index` under the forked path (on
    /// whatever thread this is called from). Passthrough when the
    /// recorder was off at [`fork`] time; muted when it was muted.
    pub fn enter<R>(&self, index: u64, f: impl FnOnce() -> R) -> R {
        match &self.parent {
            None if self.muted => muted(f),
            None => f(),
            Some(parent) => {
                let mut path = parent.clone();
                path.push(index);
                enter_ctx(path, String::new(), f)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Digest (journal) serialization
// ---------------------------------------------------------------------------

/// Digest line schema identifier; bump when the format changes.
pub const DIGEST_SCHEMA: &str = "dabench-obs-v1";

fn digest_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7c"),
            ';' => out.push_str("%3b"),
            ':' => out.push_str("%3a"),
            '\n' => out.push_str("%0a"),
            c => out.push(c),
        }
    }
    out
}

fn digest_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = (0..2).map(|_| chars.next()).collect::<Option<_>>()?;
        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
    }
    Some(out)
}

/// `{:?}` prints the shortest decimal that round-trips through
/// `f64::from_str`, so digests preserve counter values exactly.
fn digest_f64(v: f64) -> String {
    format!("{v:?}")
}

impl PointTrace {
    /// Serialize to a single digest line (`dabench-obs-v1|path|label|events`)
    /// suitable for a journal `data` field. [`PointTrace::parse_digest`]
    /// inverts it exactly.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut out = format!(
            "{DIGEST_SCHEMA}|{}|{}|",
            self.path_string(),
            digest_escape(&self.label)
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            match e {
                Event::Begin { phase, name, ts } => {
                    let _ = write!(out, "B:{}:{ts}:{}", phase.as_str(), digest_escape(name));
                }
                Event::End { phase, name, ts } => {
                    let _ = write!(out, "E:{}:{ts}:{}", phase.as_str(), digest_escape(name));
                }
                Event::Counter {
                    phase,
                    key,
                    value,
                    ts,
                } => {
                    let _ = write!(
                        out,
                        "C:{}:{ts}:{}:{}",
                        phase.map_or("-", Phase::as_str),
                        digest_f64(*value),
                        digest_escape(key)
                    );
                }
            }
        }
        out
    }

    /// Parse one digest line produced by [`PointTrace::digest`]. Returns
    /// `None` on any schema or syntax deviation.
    #[must_use]
    pub fn parse_digest(line: &str) -> Option<Self> {
        let mut parts = line.splitn(4, '|');
        if parts.next()? != DIGEST_SCHEMA {
            return None;
        }
        let path_s = parts.next()?;
        let label = digest_unescape(parts.next()?)?;
        let events_s = parts.next()?;
        let path: Vec<u64> = if path_s.is_empty() {
            Vec::new()
        } else {
            path_s
                .split('.')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?
        };
        let mut events = Vec::new();
        for item in events_s.split(';').filter(|s| !s.is_empty()) {
            let mut f = item.split(':');
            let kind = f.next()?;
            let event = match kind {
                "B" | "E" => {
                    let phase = Phase::parse(f.next()?)?;
                    let ts = f.next()?.parse().ok()?;
                    let name = digest_unescape(f.next()?)?;
                    if f.next().is_some() {
                        return None;
                    }
                    if kind == "B" {
                        Event::Begin { phase, name, ts }
                    } else {
                        Event::End { phase, name, ts }
                    }
                }
                "C" => {
                    let phase_s = f.next()?;
                    let phase = if phase_s == "-" {
                        None
                    } else {
                        Some(Phase::parse(phase_s)?)
                    };
                    let ts = f.next()?.parse().ok()?;
                    let value = f.next()?.parse().ok()?;
                    let key = digest_unescape(f.next()?)?;
                    if f.next().is_some() {
                        return None;
                    }
                    Event::Counter {
                        phase,
                        key,
                        value,
                        ts,
                    }
                }
                _ => return None,
            };
            events.push(event);
        }
        Some(PointTrace {
            path,
            label,
            events,
        })
    }
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Render traces as Chrome `trace_event` JSON (the "JSON array format"),
/// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Each point becomes one thread (`tid` = 1-based rank in path order)
/// named after its label/path via `thread_name` metadata. Span
/// begins/ends map to `ph:"B"/"E"` at logical-tick `ts`; counters to
/// `ph:"C"`. Output is a pure function of `traces` — byte-identical
/// across runs, worker counts, and resumes.
#[must_use]
pub fn chrome_trace(traces: &[PointTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (rank, trace) in traces.iter().enumerate() {
        let tid = rank + 1;
        let thread_name = if trace.label.is_empty() {
            format!("point {}", trace.path_string())
        } else {
            format!("{} [{}]", trace.label, trace.path_string())
        };
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                jsonl::escape(&thread_name)
            ),
        );
        for e in &trace.events {
            let line = match e {
                Event::Begin { phase, name, ts } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{ts}}}",
                    jsonl::escape(name),
                    phase.as_str()
                ),
                Event::End { phase, name, ts } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"E\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{ts}}}",
                    jsonl::escape(name),
                    phase.as_str()
                ),
                Event::Counter {
                    phase,
                    key,
                    value,
                    ts,
                } => format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"C\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{ts},\"args\":{{\"value\":{}}}}}",
                    jsonl::escape(key),
                    phase.map_or("-", Phase::as_str),
                    jsonl::number(*value)
                ),
            };
            push(&mut out, line);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

// ---------------------------------------------------------------------------
// Metrics summary
// ---------------------------------------------------------------------------

/// Aggregated view of one counter key (or span name) across all traces.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRow {
    /// Phase the figure is attributed to (`"-"` for phase-less counters).
    pub phase: &'static str,
    /// Counter key or span name.
    pub name: String,
    /// Number of samples (counter) or completed spans.
    pub samples: u64,
    /// Sum of counter values; span count again for span rows.
    pub total: f64,
}

/// Per-phase counter totals across `traces`, sorted by (phase, key).
#[must_use]
pub fn counter_rows(traces: &[PointTrace]) -> Vec<MetricsRow> {
    let mut acc: BTreeMap<(&'static str, String), (u64, f64)> = BTreeMap::new();
    for t in traces {
        for e in &t.events {
            if let Event::Counter {
                phase, key, value, ..
            } = e
            {
                let entry = acc
                    .entry((phase.map_or("-", Phase::as_str), key.clone()))
                    .or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += value;
            }
        }
    }
    acc.into_iter()
        .map(|((phase, name), (samples, total))| MetricsRow {
            phase,
            name,
            samples,
            total,
        })
        .collect()
}

/// Per-phase span counts across `traces`, sorted by (phase, name).
#[must_use]
pub fn span_rows(traces: &[PointTrace]) -> Vec<MetricsRow> {
    let mut acc: BTreeMap<(&'static str, String), u64> = BTreeMap::new();
    for t in traces {
        for e in &t.events {
            if let Event::Begin { phase, name, .. } = e {
                *acc.entry((phase.as_str(), name.clone())).or_insert(0) += 1;
            }
        }
    }
    acc.into_iter()
        .map(|((phase, name), samples)| MetricsRow {
            phase,
            name,
            samples,
            total: samples as f64,
        })
        .collect()
}

fn format_total(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Render the `--metrics` table: per-phase span counts and counter
/// totals, fixed-width, deterministic. Empty string when nothing was
/// recorded.
#[must_use]
pub fn render_metrics(traces: &[PointTrace]) -> String {
    let spans = span_rows(traces);
    let counters = counter_rows(traces);
    if spans.is_empty() && counters.is_empty() {
        return String::new();
    }
    let mut rows: Vec<(String, String, String, String)> = Vec::new();
    for r in &spans {
        rows.push((
            r.phase.to_owned(),
            r.name.clone(),
            "span".to_owned(),
            format!("x{}", r.samples),
        ));
    }
    for r in &counters {
        rows.push((
            r.phase.to_owned(),
            r.name.clone(),
            format!("n={}", r.samples),
            format_total(r.total),
        ));
    }
    let header = (
        "phase".to_owned(),
        "name".to_owned(),
        "kind".to_owned(),
        "total".to_owned(),
    );
    let width = |get: fn(&(String, String, String, String)) -> &String| {
        rows.iter()
            .map(|r| get(r).len())
            .chain(std::iter::once(get(&header).len()))
            .max()
            .unwrap_or(0)
    };
    let (w0, w1, w2, w3) = (
        width(|r| &r.0),
        width(|r| &r.1),
        width(|r| &r.2),
        width(|r| &r.3),
    );
    let mut out = String::from("== Observability: per-phase figures ==\n");
    let _ = writeln!(
        out,
        "{:<w0$}  {:<w1$}  {:<w2$}  {:>w3$}",
        header.0, header.1, header.2, header.3
    );
    let _ = writeln!(
        out,
        "{}  {}  {}  {}",
        "-".repeat(w0),
        "-".repeat(w1),
        "-".repeat(w2),
        "-".repeat(w3)
    );
    for (a, b, c, d) in &rows {
        let _ = writeln!(out, "{a:<w0$}  {b:<w1$}  {c:<w2$}  {d:>w3$}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorder state is process-global; tests that enable it must not
    /// interleave. (Separate test binaries are separate processes, so
    /// only intra-binary serialization is needed.)
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        disable();
        enable();
        guard
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        disable();
        let out = with_point(0, "off", || {
            span(Phase::Compile, "s", || counter("k", 1.0));
            7
        });
        assert_eq!(out, 7);
        assert!(take().is_empty());
    }

    #[test]
    fn span_and_counter_events_round_trip_through_the_sink() {
        let _guard = locked();
        with_point(2, "demo", || {
            span(Phase::Compile, "outer", || {
                counter("pes", 42.0);
                span(Phase::Place, "inner", || counter("strips", 3.0));
            });
        });
        let traces = take();
        disable();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.path, vec![2]);
        assert_eq!(t.label, "demo");
        t.check_well_formed().expect("well-formed");
        assert_eq!(t.counter_total("pes"), Some(42.0));
        assert_eq!(t.counter_total("strips"), Some(3.0));
        assert_eq!(t.counter_total("absent"), None);
        // Counter phases follow the innermost open span.
        let phases: Vec<Option<Phase>> = t
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Counter { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, vec![Some(Phase::Compile), Some(Phase::Place)]);
    }

    #[test]
    fn nested_points_extend_the_path() {
        let _guard = locked();
        with_point(1, "parent", || {
            counter("at-parent", 1.0);
            let fork = fork();
            fork.enter(4, || counter("at-child", 2.0));
        });
        let mut traces = take();
        disable();
        traces.sort_by(|a, b| a.path.cmp(&b.path));
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].path, vec![1]);
        // Child path: parent [1] + fork sequence 1 + item index 4.
        assert_eq!(traces[1].path, vec![1, 1, 4]);
        assert_eq!(traces[1].counter_total("at-child"), Some(2.0));
    }

    #[test]
    fn muted_scopes_record_nothing_on_any_thread() {
        let _guard = locked();
        with_point(1, "point", || {
            counter("before", 1.0);
            muted(|| {
                assert!(!is_enabled());
                span(Phase::Compile, "hidden", || counter("hidden", 1.0));
                with_point(9, "hidden-point", || counter("hidden", 1.0));
                // Children forked here stay muted on other threads, and so
                // do the forks they make from a thread with no context.
                let muted_fork = fork();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        muted_fork.enter(0, || {
                            counter("hidden", 1.0);
                            fork().enter(3, || counter("hidden", 1.0));
                        });
                    });
                });
            });
            assert!(is_enabled(), "the caller is unmuted on exit");
            counter("after", 1.0);
        });
        let traces = take();
        disable();
        assert_eq!(traces.len(), 1, "{traces:?}");
        assert_eq!(traces[0].path, vec![1]);
        assert_eq!(traces[0].counter_total("before"), Some(1.0));
        assert_eq!(traces[0].counter_total("after"), Some(1.0));
        assert_eq!(traces[0].counter_total("hidden"), None);
    }

    #[test]
    fn sequential_forks_get_disjoint_child_paths() {
        let _guard = locked();
        with_point(0, "two-sweeps", || {
            let first = fork();
            first.enter(0, || counter("x", 1.0));
            let second = fork();
            second.enter(0, || counter("x", 2.0));
        });
        let traces = take();
        disable();
        assert_eq!(traces.len(), 2);
        let paths: Vec<&[u64]> = traces.iter().map(|t| t.path.as_slice()).collect();
        assert_eq!(paths, vec![&[0u64, 1, 0][..], &[0u64, 2, 0][..]]);
    }

    #[test]
    fn panic_inside_span_still_closes_and_flushes() {
        let _guard = locked();
        let caught = std::panic::catch_unwind(|| {
            with_point(9, "doomed", || {
                span(Phase::Execute, "will-die", || panic!("boom"));
            })
        });
        assert!(caught.is_err());
        let traces = take();
        disable();
        assert_eq!(traces.len(), 1);
        traces[0].check_well_formed().expect("panic-closed spans");
    }

    #[test]
    fn drain_prefix_takes_only_matching_paths() {
        let _guard = locked();
        with_point(0, "a", || counter("x", 1.0));
        with_point(1, "b", || counter("x", 2.0));
        with_point(1, "b2", || {
            let f = fork();
            f.enter(0, || counter("x", 3.0));
        });
        // "b" at [1] and the forked child at [1,0]; the "b2" parent
        // context recorded no events of its own, so it never flushed.
        let drained = drain_prefix(&[1]);
        assert_eq!(drained.len(), 2);
        let rest = take();
        disable();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].path, vec![0]);
    }

    #[test]
    fn digest_round_trips_exactly() {
        let trace = PointTrace {
            path: vec![3, 11],
            label: "fig9 | tricky:label".to_owned(),
            events: vec![
                Event::Begin {
                    phase: Phase::Compile,
                    name: "wse.compile".to_owned(),
                    ts: 1,
                },
                Event::Counter {
                    phase: Some(Phase::Compile),
                    key: "pes;odd".to_owned(),
                    value: 0.1 + 0.2,
                    ts: 2,
                },
                Event::Counter {
                    phase: None,
                    key: "free".to_owned(),
                    value: -1.5e300,
                    ts: 3,
                },
                Event::End {
                    phase: Phase::Compile,
                    name: "wse.compile".to_owned(),
                    ts: 4,
                },
            ],
        };
        let digest = trace.digest();
        assert!(!digest.contains('\n'));
        let parsed = PointTrace::parse_digest(&digest).expect("parses");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn digest_rejects_malformed_lines() {
        assert!(PointTrace::parse_digest("").is_none());
        assert!(PointTrace::parse_digest("wrong-schema|0|l|").is_none());
        assert!(PointTrace::parse_digest("dabench-obs-v1|x|l|").is_none());
        assert!(PointTrace::parse_digest("dabench-obs-v1|0|l|Z:1:2:3").is_none());
        assert!(PointTrace::parse_digest("dabench-obs-v1|0|l|B:nophase:1:n").is_none());
        // `S:` items (simulated-time slices) are not part of the format.
        assert!(PointTrace::parse_digest("dabench-obs-v1|0|l|S:0:1:t:n").is_none());
        // Empty event list is fine.
        assert!(PointTrace::parse_digest("dabench-obs-v1|0|l|").is_some());
        assert!(PointTrace::parse_digest("dabench-obs-v1||l|").is_some());
    }

    #[test]
    fn chrome_trace_is_flat_json_with_expected_phases() {
        let trace = PointTrace {
            path: vec![0],
            label: "t\"1\"".to_owned(),
            events: vec![
                Event::Begin {
                    phase: Phase::Execute,
                    name: "run".to_owned(),
                    ts: 1,
                },
                Event::Counter {
                    phase: Some(Phase::Execute),
                    key: "tasks".to_owned(),
                    value: 5.0,
                    ts: 2,
                },
                Event::End {
                    phase: Phase::Execute,
                    name: "run".to_owned(),
                    ts: 3,
                },
            ],
        };
        let json = chrome_trace(&[trace]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ph\":\"E\""), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\\\"1\\\""), "label must be escaped: {json}");
        assert!(json.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn metrics_rendering_is_deterministic_and_aggregates() {
        let mk = |path: Vec<u64>, v: f64| PointTrace {
            path,
            label: String::new(),
            events: vec![
                Event::Begin {
                    phase: Phase::Compile,
                    name: "c".to_owned(),
                    ts: 1,
                },
                Event::Counter {
                    phase: Some(Phase::Compile),
                    key: "pes".to_owned(),
                    value: v,
                    ts: 2,
                },
                Event::End {
                    phase: Phase::Compile,
                    name: "c".to_owned(),
                    ts: 3,
                },
            ],
        };
        let traces = vec![mk(vec![0], 10.0), mk(vec![1], 32.0)];
        let counters = counter_rows(&traces);
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].samples, 2);
        assert!((counters[0].total - 42.0).abs() < 1e-12);
        let spans = span_rows(&traces);
        assert_eq!(spans[0].samples, 2);
        let rendered = render_metrics(&traces);
        assert_eq!(rendered, render_metrics(&traces));
        assert!(rendered.contains("pes"), "{rendered}");
        assert!(rendered.contains("42"), "{rendered}");
        assert!(render_metrics(&[]).is_empty());
    }

    #[test]
    fn check_well_formed_rejects_broken_traces() {
        let bad_nesting = PointTrace {
            path: vec![0],
            label: String::new(),
            events: vec![
                Event::Begin {
                    phase: Phase::Compile,
                    name: "a".to_owned(),
                    ts: 1,
                },
                Event::End {
                    phase: Phase::Execute,
                    name: "a".to_owned(),
                    ts: 2,
                },
            ],
        };
        assert!(bad_nesting.check_well_formed().is_err());
        let unclosed = PointTrace {
            path: vec![0],
            label: String::new(),
            events: vec![Event::Begin {
                phase: Phase::Compile,
                name: "a".to_owned(),
                ts: 1,
            }],
        };
        assert!(unclosed.check_well_formed().is_err());
        let non_monotone = PointTrace {
            path: vec![0],
            label: String::new(),
            events: vec![
                Event::Counter {
                    phase: None,
                    key: "k".to_owned(),
                    value: 1.0,
                    ts: 5,
                },
                Event::Counter {
                    phase: None,
                    key: "k".to_owned(),
                    value: 1.0,
                    ts: 5,
                },
            ],
        };
        assert!(non_monotone.check_well_formed().is_err());
    }
}

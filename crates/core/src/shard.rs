//! Multi-process sweep sharding: deterministic point partitioning, a
//! parent-side fleet supervisor, and a crash-safe merge of per-shard run
//! journals back into the canonical combined journal.
//!
//! The run journal ([`crate::supervise::RunJournal`]) is the merge
//! protocol: each shard worker appends to its own
//! `journal.shard-K.jsonl` (same `dabench-journal-v1` schema, plus
//! `started`/`heartbeat`/`shard` control records), the parent watches the
//! fleet — exit-status crash detection, journal-growth liveness, bounded
//! respawns with deterministic reassignment of a dead shard's unfinished
//! points — and [`merge_journals`] folds the shard journals into a
//! combined journal **byte-identical** to what a single-process run
//! would have written, at any shard count and any completion
//! interleaving. See `docs/sharding.md`.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

use crate::supervise::{
    format_record, journal_header, journal_parse_io_error, parse_journal_bytes, ParsedJournal,
    JOURNAL_FILE, STATUS_STARTED,
};

// ---------------------------------------------------------------------------
// Layout and planning
// ---------------------------------------------------------------------------

/// File name of shard `k`'s journal inside the run directory
/// (`journal.shard-K.jsonl`, next to the combined [`JOURNAL_FILE`]).
#[must_use]
pub fn shard_journal_name(shard: usize) -> String {
    format!("journal.shard-{shard}.jsonl")
}

/// Shard journals present in `dir`, as `(shard index, path)` sorted by
/// index. Only exact `journal.shard-K.jsonl` names match.
///
/// # Errors
///
/// Propagates directory-read failures; a missing `dir` lists as empty.
pub fn list_shard_journals(dir: &Path) -> io::Result<Vec<(usize, PathBuf)>> {
    let mut found = Vec::new();
    if !dir.is_dir() {
        return Ok(found);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("journal.shard-")
            .and_then(|rest| rest.strip_suffix(".jsonl"))
            .and_then(|k| k.parse::<usize>().ok())
        else {
            continue;
        };
        found.push((index, entry.path()));
    }
    found.sort();
    Ok(found)
}

/// Deterministically partition `labels` into at most `shards` round-robin
/// slices (label `i` goes to shard `i % shards`). Never returns an empty
/// shard: the shard count is capped at the label count (minimum one
/// slice, possibly empty, when `labels` is empty). The same inputs always
/// produce the same plan — respawns and `--resume` depend on it.
#[must_use]
pub fn plan_shards(labels: &[String], shards: usize) -> Vec<Vec<String>> {
    let slots = shards.max(1).min(labels.len().max(1));
    let mut plan = vec![Vec::new(); slots];
    for (i, label) in labels.iter().enumerate() {
        plan[i % slots].push(label.clone());
    }
    plan
}

/// Read and parse a journal file ([`parse_journal_bytes`] semantics: torn
/// tail tolerated, mid-file corruption is a hard error). A missing file
/// parses as empty — a shard killed before its first append lost nothing.
///
/// # Errors
///
/// I/O failures, schema mismatch, or mid-file corruption.
pub fn read_journal(path: &Path) -> io::Result<ParsedJournal> {
    if !path.exists() {
        return Ok(ParsedJournal::default());
    }
    let contents = std::fs::read(path)?;
    parse_journal_bytes(&contents).map_err(|e| journal_parse_io_error(path, &e))
}

/// Labels with a durable final record (completed or failed any way) in
/// `parsed` — the points a respawned worker must *not* re-run.
#[must_use]
pub fn final_labels(parsed: &ParsedJournal) -> BTreeSet<String> {
    parsed
        .records
        .iter()
        .filter(|r| r.is_final())
        .map(|r| r.label.clone())
        .collect()
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// A failure the parent synthesizes for a point no journal finalized —
/// a dead shard's dropped work after the respawn budget ran out. Merged
/// (and journaled) like a real failure record so nothing is silently
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticFailure {
    /// Status keyword to record (normally `failed`).
    pub status: String,
    /// Failure description naming the shard and why it died.
    pub data: String,
}

/// One point's merged fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedPoint {
    /// Final status keyword (`completed`, `failed`, `panicked`, …).
    pub status: String,
    /// Rendered result (completed) or failure description.
    pub data: String,
    /// Metrics digest journaled alongside a completed record, from the
    /// same source journal.
    pub metrics: Option<String>,
    /// Index into the merge's `sources` that supplied the record;
    /// `usize::MAX` for a [`SyntheticFailure`].
    pub source: usize,
}

/// Result of [`merge_journals`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeResult {
    /// The rebuilt combined journal: schema header plus one final record
    /// (and optional metrics record) per resolved point, in canonical
    /// `order` — byte-identical to a single-process run's journal.
    pub text: String,
    /// Per-label merged fate. Labels from `order` that no source and no
    /// synthetic failure resolved are absent (still pending).
    pub points: BTreeMap<String, MergedPoint>,
}

/// Fold journals into the canonical combined journal.
///
/// `order` is the sweep's canonical point order (the order a
/// single-process run journals in); `sources` are parsed journals in
/// precedence order — the existing combined journal first (so a
/// re-merge is idempotent and `--resume` keeps prior results), then the
/// shard journals ascending. For each label: the first source holding a
/// `completed` record wins (last such record within that source, with
/// the last metrics record from the *same* source); otherwise a
/// [`SyntheticFailure`] from the parent; otherwise the first source
/// holding a real failure record (last within that source). Control and
/// `started` records are stripped. The output is therefore independent
/// of shard count and completion interleaving.
#[must_use]
pub fn merge_journals(
    order: &[String],
    sources: &[ParsedJournal],
    synthetic: &BTreeMap<String, SyntheticFailure>,
) -> MergeResult {
    // One linear pass per source, folding each label's last record of
    // each kind — the merge stays O(records + labels·sources) instead of
    // re-scanning every source per label (quadratic at sweep scale; the
    // `journal_merge_1k` bench case pins this path).
    #[derive(Default)]
    struct LabelFold<'a> {
        completed: Option<&'a str>,
        metrics: Option<&'a str>,
        failure: Option<(&'a str, &'a str)>,
    }
    let folded: Vec<BTreeMap<&str, LabelFold<'_>>> = sources
        .iter()
        .map(|src| {
            let mut by_label: BTreeMap<&str, LabelFold<'_>> = BTreeMap::new();
            for rec in &src.records {
                if rec.is_control() {
                    continue;
                }
                let fold = by_label.entry(rec.label.as_str()).or_default();
                match (rec.status.as_deref(), rec.data.as_deref()) {
                    (Some("completed"), Some(d)) => fold.completed = Some(d),
                    (Some("metrics"), Some(d)) => fold.metrics = Some(d),
                    (Some("completed" | "metrics") | None, _) => {}
                    (Some(status), data) if status != STATUS_STARTED => {
                        fold.failure = Some((status, data.unwrap_or("")));
                    }
                    _ => {}
                }
            }
            by_label
        })
        .collect();

    let mut result = MergeResult {
        text: journal_header() + "\n",
        points: BTreeMap::new(),
    };
    for label in order {
        let mut chosen: Option<MergedPoint> = None;
        // Pass 1: first source with a completed record wins, with the
        // last metrics record from the *same* source.
        for (si, folds) in folded.iter().enumerate() {
            if let Some(fold) = folds.get(label.as_str()) {
                if let Some(data) = fold.completed {
                    chosen = Some(MergedPoint {
                        status: "completed".to_owned(),
                        data: data.to_owned(),
                        metrics: fold.metrics.map(str::to_owned),
                        source: si,
                    });
                    break;
                }
            }
        }
        // Pass 2: parent-synthesized failures for dropped points.
        if chosen.is_none() {
            if let Some(s) = synthetic.get(label) {
                chosen = Some(MergedPoint {
                    status: s.status.clone(),
                    data: s.data.clone(),
                    metrics: None,
                    source: usize::MAX,
                });
            }
        }
        // Pass 3: first source with a durable failure record.
        if chosen.is_none() {
            for (si, folds) in folded.iter().enumerate() {
                if let Some((status, data)) = folds.get(label.as_str()).and_then(|f| f.failure) {
                    chosen = Some(MergedPoint {
                        status: status.to_owned(),
                        data: data.to_owned(),
                        metrics: None,
                        source: si,
                    });
                    break;
                }
            }
        }
        if let Some(point) = chosen {
            result
                .text
                .push_str(&format_record(label, &point.status, &point.data));
            result.text.push('\n');
            if point.status == "completed" {
                if let Some(m) = &point.metrics {
                    result.text.push_str(&format_record(label, "metrics", m));
                    result.text.push('\n');
                }
            }
            result.points.insert(label.clone(), point);
        }
    }
    result
}

/// Atomically replace the combined journal in `dir` with merged `text`:
/// write a temp file, fsync it, rename it over [`JOURNAL_FILE`], and
/// fsync `dir` — a crash mid-merge leaves either the old journal or the
/// new one, never a torn hybrid. The rename is durable only once its
/// directory is synced, so this returns (and the caller may delete the
/// shard journals) only after that.
///
/// # Errors
///
/// Propagates write/fsync/rename failures.
pub fn write_merged(dir: &Path, text: &str) -> io::Result<PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{JOURNAL_FILE}.tmp"));
    let path = dir.join(JOURNAL_FILE);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(path)
}

/// Delete every shard journal in `dir` (after a successful merge — their
/// records now live in the combined journal).
///
/// # Errors
///
/// Propagates directory-read and unlink failures.
pub fn remove_shard_journals(dir: &Path) -> io::Result<()> {
    for (_, path) in list_shard_journals(dir)? {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fleet supervision
// ---------------------------------------------------------------------------

/// Parent-side fleet policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Respawns allowed per shard before its unfinished points become
    /// hard failures.
    pub max_respawns: u32,
    /// Worker heartbeat interval (the worker appends a heartbeat record
    /// this often; the parent flags a gap after missing two).
    pub heartbeat: Duration,
    /// Journal-growth stall after which a live worker is presumed hung,
    /// killed, and treated as a crash.
    pub stall_timeout: Duration,
}

/// How often the parent checks its workers' exits and journal growth.
/// A run ends up to one interval after its last worker exits, so a long
/// interval adds up to its length to every sharded run and makes their
/// wall times come in steps of it.
const POLL: Duration = Duration::from_millis(5);

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            max_respawns: 2,
            heartbeat: Duration::from_millis(200),
            stall_timeout: Duration::from_secs(10),
        }
    }
}

/// How a shard ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Final worker exited 0: every assigned point has a durable record.
    Clean,
    /// Final worker exited 2: finished, but some points failed.
    Partial,
    /// Respawn budget exhausted; `dropped` points never got a final
    /// record and must be synthesized as failures.
    Dead {
        /// Labels the shard died holding.
        dropped: Vec<String>,
    },
}

/// Per-shard supervision rollup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index (journal `journal.shard-K.jsonl`).
    pub shard: usize,
    /// Points originally assigned by the plan.
    pub assigned: Vec<String>,
    /// Respawns consumed.
    pub respawns: u32,
    /// Points re-assigned to respawned workers (sum over respawns).
    pub reassigned_points: u32,
    /// Distinct journal-growth stalls observed (once per episode).
    pub heartbeat_gaps: u32,
    /// One description per worker death (`killed by signal 9`, `exited
    /// with code 134`, `stalled …`), in order.
    pub deaths: Vec<String>,
    /// Final outcome.
    pub outcome: ShardOutcome,
}

struct LiveShard {
    index: usize,
    child: Child,
    assigned: Vec<String>,
    journal: PathBuf,
    last_len: u64,
    last_growth: Instant,
    in_gap: bool,
}

fn describe_exit(status: ExitStatus) -> String {
    if let Some(code) = status.code() {
        return format!("exited with code {code}");
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return format!("killed by signal {sig}");
        }
    }
    "terminated without exit code".to_owned()
}

/// Supervise a fleet of shard workers until every shard resolves.
///
/// `spawn(shard, labels)` builds the worker [`Command`] (binary, args,
/// stdio) for one shard life; the supervisor spawns it, then watches:
///
/// - **Exit status**: 0 → [`ShardOutcome::Clean`], 2 →
///   [`ShardOutcome::Partial`]; anything else (including death by
///   signal — a SIGKILLed or OOM-killed worker) is a crash.
/// - **Liveness**: a live worker's journal grows at least every
///   heartbeat interval; no growth for `stall_timeout` means the
///   process is hung — it is killed and treated as a crash.
/// - **Crash**: the shard journal is re-read; points with durable final
///   records are kept, the rest are deterministically re-assigned to a
///   respawned worker (the worker re-adopts its journal and skips
///   completed points). After `max_respawns` the shard is
///   [`ShardOutcome::Dead`] and its unfinished points are reported as
///   dropped — never silently lost.
///
/// # Errors
///
/// Propagates spawn and wait failures (fleet-level I/O problems, not
/// worker crashes — those are the normal path here).
pub fn supervise_shards(
    dir: &Path,
    plan: &[Vec<String>],
    cfg: &ShardConfig,
    spawn: &mut dyn FnMut(usize, &[String]) -> Command,
) -> io::Result<Vec<ShardStatus>> {
    let mut statuses: Vec<ShardStatus> = plan
        .iter()
        .enumerate()
        .map(|(k, labels)| ShardStatus {
            shard: k,
            assigned: labels.clone(),
            respawns: 0,
            reassigned_points: 0,
            heartbeat_gaps: 0,
            deaths: Vec::new(),
            outcome: ShardOutcome::Clean,
        })
        .collect();

    let mut live: Vec<LiveShard> = Vec::new();
    for (k, labels) in plan.iter().enumerate() {
        if labels.is_empty() {
            continue;
        }
        let child = spawn(k, labels).spawn()?;
        live.push(LiveShard {
            index: k,
            child,
            assigned: labels.clone(),
            journal: dir.join(shard_journal_name(k)),
            last_len: 0,
            last_growth: Instant::now(),
            in_gap: false,
        });
    }

    while !live.is_empty() {
        let mut still = Vec::new();
        for mut shard in live {
            let exited = shard.child.try_wait()?;
            if let Some(status) = exited {
                let code = status.code();
                if code == Some(0) || code == Some(2) {
                    statuses[shard.index].outcome = if code == Some(0) {
                        ShardOutcome::Clean
                    } else {
                        ShardOutcome::Partial
                    };
                } else {
                    handle_death(
                        &mut statuses[shard.index],
                        &shard,
                        describe_exit(status),
                        cfg,
                        spawn,
                        &mut still,
                    )?;
                }
                continue;
            }
            // Still running: journal-growth liveness.
            let len = std::fs::metadata(&shard.journal).map_or(0, |m| m.len());
            if len != shard.last_len {
                shard.last_len = len;
                shard.last_growth = Instant::now();
                shard.in_gap = false;
            } else {
                let idle = shard.last_growth.elapsed();
                if !shard.in_gap && idle > cfg.heartbeat * 2 {
                    shard.in_gap = true;
                    statuses[shard.index].heartbeat_gaps += 1;
                }
                if idle > cfg.stall_timeout {
                    let _ = shard.child.kill();
                    let _ = shard.child.wait();
                    let detail = format!(
                        "stalled (no journal growth for {:.1} s); killed",
                        idle.as_secs_f64()
                    );
                    handle_death(
                        &mut statuses[shard.index],
                        &shard,
                        detail,
                        cfg,
                        spawn,
                        &mut still,
                    )?;
                    continue;
                }
            }
            still.push(shard);
        }
        live = still;
        if !live.is_empty() {
            std::thread::sleep(POLL);
        }
    }
    Ok(statuses)
}

fn handle_death(
    status: &mut ShardStatus,
    dead: &LiveShard,
    detail: String,
    cfg: &ShardConfig,
    spawn: &mut dyn FnMut(usize, &[String]) -> Command,
    still: &mut Vec<LiveShard>,
) -> io::Result<()> {
    status.deaths.push(detail);
    // A torn tail is healed by the respawned worker; a journal the
    // parent cannot parse contributes no final records (the conservative
    // reading: re-run everything assigned).
    let parsed = read_journal(&dead.journal).unwrap_or_default();
    let done = final_labels(&parsed);
    let remaining: Vec<String> = dead
        .assigned
        .iter()
        .filter(|l| !done.contains(*l))
        .cloned()
        .collect();
    if remaining.is_empty() {
        // Died after finalizing every point: the records are all there.
        status.outcome = ShardOutcome::Clean;
        return Ok(());
    }
    if status.respawns < cfg.max_respawns {
        status.respawns += 1;
        status.reassigned_points += u32::try_from(remaining.len()).unwrap_or(u32::MAX);
        let child = spawn(dead.index, &remaining).spawn()?;
        still.push(LiveShard {
            index: dead.index,
            child,
            assigned: remaining,
            journal: dead.journal.clone(),
            last_len: 0,
            last_growth: Instant::now(),
            in_gap: false,
        });
    } else {
        status.outcome = ShardOutcome::Dead { dropped: remaining };
    }
    Ok(())
}

/// Render the fleet rollup for stderr: one headline, then a line per
/// death and per dead shard (dropped points named). Deterministic given
/// the same supervision history.
#[must_use]
pub fn render_rollups(statuses: &[ShardStatus]) -> String {
    let clean = statuses
        .iter()
        .filter(|s| s.outcome == ShardOutcome::Clean)
        .count();
    let partial = statuses
        .iter()
        .filter(|s| s.outcome == ShardOutcome::Partial)
        .count();
    let dead = statuses.len() - clean - partial;
    let respawns: u32 = statuses.iter().map(|s| s.respawns).sum();
    let reassigned: u32 = statuses.iter().map(|s| s.reassigned_points).sum();
    let gaps: u32 = statuses.iter().map(|s| s.heartbeat_gaps).sum();
    let mut out = format!(
        "shard rollup: {} shards — {clean} clean, {partial} partial, {dead} dead; {respawns} respawns, {reassigned} points reassigned, {gaps} heartbeat gaps\n",
        statuses.len(),
    );
    for s in statuses {
        for death in &s.deaths {
            out.push_str(&format!("  [shard {}] died: {death}\n", s.shard));
        }
        if let ShardOutcome::Dead { dropped } = &s.outcome {
            out.push_str(&format!(
                "  [shard {}] respawn budget exhausted after {} respawns; dropped: {}\n",
                s.shard,
                s.respawns,
                dropped.join(", ")
            ));
        }
    }
    out
}

/// Publish per-shard supervision counters on the obs bus
/// (`shard.respawns`, `shard.reassigned_points`, `shard.heartbeat_gaps`
/// under point contexts `shard-K`). A no-op unless a recorder is
/// enabled, like every obs emission.
pub fn emit_shard_counters(statuses: &[ShardStatus]) {
    for s in statuses {
        let index = 9000 + s.shard as u64;
        crate::obs::with_point(index, &format!("shard-{}", s.shard), || {
            crate::obs::counter("shard.respawns", f64::from(s.respawns));
            crate::obs::counter("shard.reassigned_points", f64::from(s.reassigned_points));
            crate::obs::counter("shard.heartbeat_gaps", f64::from(s.heartbeat_gaps));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::{
        parse_journal, JournalRecord, JOURNAL_SCHEMA, SHARD_CONTROL_LABEL, STATUS_HEARTBEAT,
        STATUS_STARTED,
    };

    fn labels(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    fn journal(records: &[(&str, &str, &str)]) -> ParsedJournal {
        ParsedJournal {
            records: records
                .iter()
                .map(|(l, s, d)| JournalRecord {
                    label: (*l).to_owned(),
                    status: Some((*s).to_owned()),
                    data: Some((*d).to_owned()),
                })
                .collect(),
            valid_bytes: 0,
            dropped_tail: None,
        }
    }

    #[test]
    fn plan_is_round_robin_and_deterministic() {
        let ls = labels(&["a", "b", "c", "d", "e"]);
        let plan = plan_shards(&ls, 2);
        assert_eq!(plan, vec![labels(&["a", "c", "e"]), labels(&["b", "d"])]);
        assert_eq!(plan, plan_shards(&ls, 2));
    }

    #[test]
    fn plan_caps_shards_at_label_count() {
        let ls = labels(&["a", "b"]);
        assert_eq!(plan_shards(&ls, 8).len(), 2);
        assert_eq!(plan_shards(&[], 4), vec![Vec::<String>::new()]);
        assert_eq!(plan_shards(&ls, 0), vec![ls.clone()]);
    }

    #[test]
    fn shard_journal_names_round_trip_through_listing() {
        let dir = std::env::temp_dir().join(format!("dabench-shard-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for k in [2usize, 0, 1] {
            std::fs::write(dir.join(shard_journal_name(k)), "x").unwrap();
        }
        std::fs::write(dir.join("journal.jsonl"), "x").unwrap();
        std::fs::write(dir.join("journal.shard-x.jsonl"), "x").unwrap();
        let found = list_shard_journals(&dir).unwrap();
        assert_eq!(
            found.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_strips_control_records_and_orders_canonically() {
        let order = labels(&["a", "b"]);
        let shard0 = journal(&[
            (SHARD_CONTROL_LABEL, "shard", "shard=0"),
            ("b", STATUS_STARTED, "attempt=0"),
            ("b", "completed", "B"),
            (SHARD_CONTROL_LABEL, STATUS_HEARTBEAT, "t=1"),
        ]);
        let shard1 = journal(&[("a", STATUS_STARTED, "attempt=0"), ("a", "completed", "A")]);
        let merged = merge_journals(&order, &[shard0, shard1], &BTreeMap::new());
        assert_eq!(
            merged.text,
            format!(
                "{{\"schema\":\"{JOURNAL_SCHEMA}\"}}\n{}\n{}\n",
                format_record("a", "completed", "A"),
                format_record("b", "completed", "B"),
            )
        );
        assert_eq!(merged.points["a"].source, 1);
        assert_eq!(merged.points["b"].source, 0);
    }

    #[test]
    fn merge_prefers_first_source_and_keeps_metrics_from_same_source() {
        let order = labels(&["a"]);
        let combined = journal(&[("a", "completed", "old"), ("a", "metrics", "m-old")]);
        let shard = journal(&[("a", "completed", "new"), ("a", "metrics", "m-new")]);
        let merged = merge_journals(&order, &[combined, shard], &BTreeMap::new());
        assert_eq!(merged.points["a"].data, "old");
        assert_eq!(merged.points["a"].metrics.as_deref(), Some("m-old"));
    }

    #[test]
    fn merge_synthetic_failure_covers_dropped_points() {
        let order = labels(&["a", "b"]);
        let shard = journal(&[("a", "completed", "A"), ("b", STATUS_STARTED, "attempt=0")]);
        let mut synthetic = BTreeMap::new();
        synthetic.insert(
            "b".to_owned(),
            SyntheticFailure {
                status: "failed".to_owned(),
                data: "shard 0 killed by signal 9; respawn budget (0) exhausted".to_owned(),
            },
        );
        let merged = merge_journals(&order, &[shard], &synthetic);
        assert_eq!(merged.points["b"].status, "failed");
        assert_eq!(merged.points["b"].source, usize::MAX);
        assert!(merged.text.contains("respawn budget (0) exhausted"));
    }

    #[test]
    fn merge_falls_back_to_failure_records() {
        let order = labels(&["a"]);
        let shard = journal(&[("a", "timed-out", "exceeded 0.1 s deadline")]);
        let merged = merge_journals(&order, &[shard], &BTreeMap::new());
        assert_eq!(merged.points["a"].status, "timed-out");
        assert!(merged.points["a"].metrics.is_none());
    }

    #[test]
    fn merge_is_idempotent() {
        let order = labels(&["a", "b"]);
        let shard0 = journal(&[("a", "completed", "A"), ("a", "metrics", "M")]);
        let shard1 = journal(&[("b", "failed", "boom")]);
        let first = merge_journals(&order, &[shard0, shard1], &BTreeMap::new());
        let reparsed = parse_journal(&first.text).unwrap();
        let second = merge_journals(&order, &[reparsed], &BTreeMap::new());
        assert_eq!(first.text, second.text);
    }

    #[test]
    fn write_merged_replaces_atomically_and_cleanup_removes_shards() {
        let dir = std::env::temp_dir().join(format!("dabench-shard-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), "old").unwrap();
        std::fs::write(dir.join(shard_journal_name(0)), "x").unwrap();
        let path = write_merged(&dir, "new\n").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "new\n");
        assert!(!dir.join(format!("{JOURNAL_FILE}.tmp")).exists());
        remove_shard_journals(&dir).unwrap();
        assert!(list_shard_journals(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollup_render_names_deaths_and_drops() {
        let statuses = vec![
            ShardStatus {
                shard: 0,
                assigned: labels(&["a"]),
                respawns: 0,
                reassigned_points: 0,
                heartbeat_gaps: 0,
                deaths: Vec::new(),
                outcome: ShardOutcome::Clean,
            },
            ShardStatus {
                shard: 1,
                assigned: labels(&["b", "c"]),
                respawns: 1,
                reassigned_points: 2,
                heartbeat_gaps: 1,
                deaths: vec!["killed by signal 9".to_owned()],
                outcome: ShardOutcome::Dead {
                    dropped: labels(&["b", "c"]),
                },
            },
        ];
        let out = render_rollups(&statuses);
        assert!(out.starts_with(
            "shard rollup: 2 shards — 1 clean, 0 partial, 1 dead; 1 respawns, 2 points reassigned, 1 heartbeat gaps\n"
        ), "{out}");
        assert!(out.contains("[shard 1] died: killed by signal 9"), "{out}");
        assert!(out.contains("dropped: b, c"), "{out}");
    }
}

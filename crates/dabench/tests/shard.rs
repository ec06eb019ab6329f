//! Integration tests of fault-tolerant multi-process sharding:
//! `dabench all --shards N`, worker crash/respawn, respawn-budget
//! exhaustion, and crash-safe merge + resume across the sharded journal
//! layout (see docs/sharding.md).
//!
//! Worker deaths are injected with the `DABENCH_INJECT` process-level
//! hooks (`<experiment>=abort[:N]` / `<experiment>=exit:CODE[:N]`), which
//! the workers inherit through the environment — the parent never has to
//! be crashed to observe the fleet supervisor working.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Run `dabench` with `DABENCH_INJECT` scrubbed (or set to `inject`).
fn run(args: &[&str], inject: Option<&str>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dabench"));
    cmd.args(args).env_remove("DABENCH_INJECT");
    if let Some(inject) = inject {
        cmd.env("DABENCH_INJECT", inject);
    }
    let out = cmd.output().expect("binary runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dabench-cli-shard-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journal(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("journal.jsonl")).expect("combined journal exists")
}

fn shard_journals(dir: &Path) -> Vec<String> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("run dir readable") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if name.starts_with("journal.shard-") {
            found.push(name);
        }
    }
    found.sort();
    found
}

/// The single-process reference: stdout and journal bytes that every
/// sharded variant must reproduce exactly.
fn reference(tag: &str) -> (Run, PathBuf) {
    let dir = temp_dir(tag);
    let r = run(
        &["all", "--jobs", "1", "--run-dir", dir.to_str().unwrap()],
        None,
    );
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    (r, dir)
}

#[test]
fn clean_sharded_run_is_byte_identical_to_single_process() {
    let (reference, ref_dir) = reference("clean-ref");
    let dir = temp_dir("clean-sharded");
    let r = run(
        &["all", "--shards", "3", "--run-dir", dir.to_str().unwrap()],
        None,
    );
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_eq!(r.stdout, reference.stdout, "sharded stdout differs");
    assert_eq!(journal(&dir), journal(&ref_dir), "merged journal differs");
    assert!(
        r.stderr
            .contains("shard rollup: 3 shards — 3 clean, 0 partial, 0 dead"),
        "{}",
        r.stderr
    );
    assert!(
        shard_journals(&dir).is_empty(),
        "shard journals not cleaned up after merge"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborted_worker_is_respawned_and_the_run_stays_byte_identical() {
    let (reference, ref_dir) = reference("abort-ref");
    let dir = temp_dir("abort-sharded");
    // The worker holding fig11 calls abort() on its first life, then the
    // respawned process (life 1) clears the counted injection and runs
    // the point normally. The first life's `started` record gets no fsync
    // of its own, and abort() may fire before the syncer reaches it; it
    // was written, so the respawn still counts it.
    let r = run(
        &["all", "--shards", "3", "--run-dir", dir.to_str().unwrap()],
        Some("fig11=abort:1"),
    );
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_eq!(r.stdout, reference.stdout, "stdout differs after respawn");
    assert_eq!(
        journal(&dir),
        journal(&ref_dir),
        "merged journal differs after respawn"
    );
    // SIGABRT is signal 6; the rollup names the death and the respawn.
    assert!(r.stderr.contains("killed by signal 6"), "{}", r.stderr);
    assert!(r.stderr.contains("1 respawns"), "{}", r.stderr);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_code_injection_is_treated_as_a_crash_and_respawned() {
    let (reference, ref_dir) = reference("exit-ref");
    let dir = temp_dir("exit-sharded");
    let r = run(
        &["all", "--shards", "2", "--run-dir", dir.to_str().unwrap()],
        Some("fig11=exit:7:1"),
    );
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_eq!(r.stdout, reference.stdout, "stdout differs after respawn");
    assert_eq!(journal(&dir), journal(&ref_dir), "journal differs");
    assert!(r.stderr.contains("exited with code 7"), "{}", r.stderr);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_respawn_budget_drops_the_points_loudly() {
    let dir = temp_dir("budget");
    // Unconditional abort: the worker dies on every life, so with a zero
    // respawn budget the shard is declared dead and its unfinished point
    // becomes a named synthetic failure — never a silent drop.
    let r = run(
        &[
            "all",
            "--shards",
            "3",
            "--max-respawns",
            "0",
            "--run-dir",
            dir.to_str().unwrap(),
        ],
        Some("fig11=abort"),
    );
    assert_eq!(r.code, Some(2), "{}", r.stderr);
    assert!(
        r.stderr
            .contains("respawn budget exhausted after 0 respawns"),
        "{}",
        r.stderr
    );
    assert!(r.stderr.contains("dropped: fig11"), "{}", r.stderr);
    assert!(r.stderr.contains("[   failed] fig11"), "{}", r.stderr);
    assert!(
        r.stderr.contains("respawn budget (0) exhausted"),
        "{}",
        r.stderr
    );
    // Every other artifact still rendered.
    assert!(r.stdout.contains("Table I"), "table1 missing");
    assert!(r.stdout.contains("Fig. 12"), "fig12 missing");
    assert!(
        !r.stdout.contains("Fig. 11"),
        "dropped point printed output"
    );

    // Resume single-process, no injection: the failed point re-runs and
    // the final output matches an uninterrupted run byte-for-byte.
    let (reference, ref_dir) = reference("budget-ref");
    let resumed = run(
        &["all", "--resume", dir.to_str().unwrap(), "--jobs", "1"],
        None,
    );
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert_eq!(
        resumed.stdout, reference.stdout,
        "resume after dropped shard differs from uninterrupted run"
    );
    assert!(
        resumed.stderr.contains("replayed from journal"),
        "{}",
        resumed.stderr
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Live processes whose command line contains every one of `needles`
/// (read from Linux `/proc`; none are found where it does not exist).
fn live_processes_with(needles: &[&str]) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| {
            let entry = entry.ok()?;
            entry.file_name().to_str()?.parse::<u32>().ok()?;
            let cmdline = std::fs::read(entry.path().join("cmdline")).ok()?;
            let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
            needles
                .iter()
                .all(|n| cmdline.contains(n))
                .then_some(cmdline)
        })
        .collect()
}

#[test]
fn stalled_worker_is_killed_respawned_and_dropped_loudly() {
    let dir = temp_dir("stall");
    let dir_s = dir.to_str().unwrap();
    // fig11 sleeps far past the 1 s stall window and no heartbeat lands
    // before it, so the watchdog kills its worker on both lives.
    let r = run(
        &[
            "all",
            "--shards",
            "2",
            "--heartbeat-ms",
            "600000",
            "--shard-stall-s",
            "1",
            "--max-respawns",
            "1",
            "--run-dir",
            dir_s,
        ],
        Some("fig11=sleep:30"),
    );
    assert_eq!(r.code, Some(2), "{}", r.stderr);
    assert_eq!(
        r.stderr.matches("died: stalled (no journal growth").count(),
        2,
        "{}",
        r.stderr
    );
    assert!(r.stderr.contains("1 respawns"), "{}", r.stderr);
    assert!(r.stderr.contains("dropped: fig11"), "{}", r.stderr);
    assert!(
        !r.stdout.contains("Fig. 11"),
        "dropped point printed output"
    );
    assert_eq!(
        live_processes_with(&["shard-worker", dir_s]),
        Vec::<String>::new(),
        "a stalled worker outlived the run"
    );

    // Resume without the injection: fig11 re-runs and the output matches
    // an uninterrupted run byte for byte.
    let (reference, ref_dir) = reference("stall-ref");
    let resumed = run(&["all", "--resume", dir_s, "--jobs", "1"], None);
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert_eq!(resumed.stdout, reference.stdout);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_folds_stale_shard_journals_into_the_combined_journal() {
    // Simulate a parent killed after its workers finished but before the
    // merge: the combined journal is missing fig11, whose records sit in
    // a leftover shard journal. `--resume` must adopt them.
    let (reference, ref_dir) = reference("fold-ref");
    let ref_journal = journal(&ref_dir);
    let dir = temp_dir("fold");
    std::fs::create_dir_all(&dir).expect("run dir");
    let mut combined = String::new();
    let mut stale = String::new();
    for (i, line) in ref_journal.lines().enumerate() {
        if i == 0 {
            combined.push_str(line);
            combined.push('\n');
            stale.push_str(line);
            stale.push('\n');
        } else if line.contains("\"label\":\"fig11\"") {
            stale.push_str(line);
            stale.push('\n');
        } else {
            combined.push_str(line);
            combined.push('\n');
        }
    }
    assert!(
        stale.lines().count() > 1,
        "reference journal has no fig11 records"
    );
    std::fs::write(dir.join("journal.jsonl"), &combined).expect("write combined");
    std::fs::write(dir.join("journal.shard-1.jsonl"), &stale).expect("write stale shard");

    let r = run(
        &["all", "--resume", dir.to_str().unwrap(), "--jobs", "1"],
        None,
    );
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_eq!(r.stdout, reference.stdout, "folded resume stdout differs");
    assert_eq!(
        journal(&dir),
        ref_journal,
        "folded journal differs from uninterrupted run"
    );
    assert!(
        shard_journals(&dir).is_empty(),
        "stale shard journal survived the fold"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ephemeral_sharded_run_needs_no_run_dir() {
    let (reference, ref_dir) = reference("ephemeral-ref");
    let r = run(&["all", "--shards", "2"], None);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_eq!(
        r.stdout, reference.stdout,
        "ephemeral sharded stdout differs"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn flag_validation_rejects_nonsense() {
    let r = run(&["all", "--shards", "0"], None);
    assert_eq!(r.code, Some(1), "{:?}", r.code);
    assert!(r.stderr.contains("--shards"), "{}", r.stderr);

    let r = run(&["all", "--shards", "2", "--heartbeat-ms", "0"], None);
    assert_eq!(r.code, Some(1), "{:?}", r.code);
    assert!(r.stderr.contains("--heartbeat-ms"), "{}", r.stderr);

    let r = run(&["all", "--shards", "2", "--shard-stall-s", "nan"], None);
    assert_eq!(r.code, Some(1), "{:?}", r.code);
    assert!(r.stderr.contains("--shard-stall-s"), "{}", r.stderr);
}

#[test]
fn shard_worker_rejects_unknown_points() {
    let dir = temp_dir("badworker");
    std::fs::create_dir_all(&dir).expect("run dir");
    let r = run(
        &[
            "shard-worker",
            "--run-dir",
            dir.to_str().unwrap(),
            "--shard",
            "0",
            "--points",
            "not-an-experiment",
        ],
        None,
    );
    assert_eq!(r.code, Some(1), "{:?}", r.code);
    assert!(r.stderr.contains("not-an-experiment"), "{}", r.stderr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dabench gen` over the hard tier's first 64 scenarios, sharded in two,
/// plus `extra`.
fn sharded_gen(extra: &[&str]) -> Run {
    let args = ["gen", "--tier", "hard", "--count", "64", "--shards", "2"];
    run(&[&args[..], extra].concat(), None)
}

fn inode(path: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).expect("journal exists").ino()
}

#[test]
fn sharded_resume_of_a_merged_journal_leaves_it_alone() {
    // The journal is already its own merge: the resume replays it,
    // spawns no worker and neither rewrites nor replaces the file. An
    // unsharded resume reads it alike and prints the same bytes.
    let dir = temp_dir("gen-fixed-point");
    let dir_s = dir.to_str().unwrap();
    let first = sharded_gen(&["--run-dir", dir_s]);
    assert_eq!(first.code, Some(0), "{}", first.stderr);
    let path = dir.join("journal.jsonl");
    let (bytes, ino) = (std::fs::read(&path).unwrap(), inode(&path));

    let resumed = sharded_gen(&["--resume", dir_s]);
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert_eq!(resumed.stdout, first.stdout, "resumed stdout differs");
    assert!(
        resumed.stderr.contains("resume: 64 replayed from journal")
            && !resumed.stderr.contains("shard rollup"),
        "{}",
        resumed.stderr
    );
    let args = ["gen", "--tier", "hard", "--count", "64", "--resume", dir_s];
    let unsharded = run(&args, None);
    assert_eq!(unsharded.code, Some(0), "{}", unsharded.stderr);
    assert_eq!(unsharded.stdout, first.stdout, "unsharded stdout differs");
    assert_eq!(unsharded.stderr, resumed.stderr);
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "journal rewritten");
    assert_eq!(inode(&path), ino, "journal replaced");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_resume_re_merges_a_journal_that_is_not_its_own_merge() {
    let dir = temp_dir("gen-remerge");
    let dir_s = dir.to_str().unwrap();
    let first = sharded_gen(&["--run-dir", dir_s]);
    assert_eq!(first.code, Some(0), "{}", first.stderr);
    let canonical = journal(&dir);
    let lines: Vec<&str> = canonical.lines().collect();
    let label = lines[1]
        .strip_prefix("{\"label\":\"")
        .and_then(|rest| rest.split('"').next())
        .expect("label first");
    let failed = format!("{{\"label\":\"{label}\",\"status\":\"failed\",\"data\":\"boom\"}}");
    let swapped = [&[lines[0], lines[2], lines[1]][..], &lines[3..]].concat();
    let superseded = [&[lines[0], &failed][..], &lines[1..]].concat();
    // Every record, each in its place, but one `\n` spelled `\u000a`: the
    // same journal to a JSON reader, not the bytes its writer writes.
    let respelled_line = lines[1].replacen("\\n", "\\u000a", 1);
    assert_ne!(respelled_line, lines[1], "a record holds a newline");
    let respelled = [&[lines[0], &respelled_line][..], &lines[2..]].concat();
    for (what, variant) in [
        ("swapped", swapped),
        ("superseded", superseded),
        ("respelled", respelled),
    ] {
        let text: String = variant.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(dir.join("journal.jsonl"), &text).unwrap();
        let resumed = sharded_gen(&["--resume", dir_s]);
        assert_eq!(resumed.code, Some(0), "{what}: {}", resumed.stderr);
        assert_eq!(resumed.stdout, first.stdout, "{what}: stdout differs");
        assert_eq!(journal(&dir), canonical, "{what}: not re-merged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--metrics` table that ends a run's stderr.
fn metrics_table(stderr: &str) -> &str {
    let at = stderr.find("== Observability").expect("a metrics table");
    &stderr[at..]
}

#[test]
fn sharded_resume_in_place_replays_the_metrics_table() {
    let dir = temp_dir("gen-metrics");
    let dir_s = dir.to_str().unwrap();
    let first = sharded_gen(&["--run-dir", dir_s, "--metrics"]);
    assert_eq!(first.code, Some(0), "{}", first.stderr);
    let path = dir.join("journal.jsonl");
    let ino = inode(&path);
    let resumed = sharded_gen(&["--resume", dir_s, "--metrics"]);
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert_eq!(inode(&path), ino, "journal replaced");
    // A resume that runs no worker has no fleet counters; every other
    // row is the original run's, and the table is the one an unsharded
    // resume of the same journal prints.
    let rows = |stderr: &str| -> Vec<String> {
        metrics_table(stderr)
            .lines()
            .filter(|l| !l.contains(" shard."))
            .skip(3)
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect()
    };
    assert!(rows(&first.stderr).len() > 1, "{}", first.stderr);
    assert_eq!(rows(&resumed.stderr), rows(&first.stderr));
    let unsharded = run(
        &[
            "gen",
            "--tier",
            "hard",
            "--count",
            "64",
            "--resume",
            dir_s,
            "--metrics",
        ],
        None,
    );
    assert_eq!(unsharded.code, Some(0), "{}", unsharded.stderr);
    assert_eq!(
        metrics_table(&resumed.stderr),
        metrics_table(&unsharded.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

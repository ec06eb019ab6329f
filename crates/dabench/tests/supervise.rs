//! Integration tests of the supervised `dabench all` run: panic isolation,
//! deadlines, and crash-safe resume (see docs/supervision.md).
//!
//! Failure injection uses the `DABENCH_INJECT` test hook
//! (`<experiment>=panic` / `<experiment>=sleep:SECS`), so no bug has to be
//! planted in an experiment to observe the supervisor working.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
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
        "dabench-cli-supervise-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn injected_panic_does_not_abort_the_sweep() {
    let r = run(&["all"], Some("fig9=panic"));
    // Partial failure: exit code 2, not a crash and not success.
    assert_eq!(r.code, Some(2), "{}", r.stderr);
    // The other artifacts still rendered.
    assert!(r.stdout.contains("Table I"), "table1 missing");
    assert!(r.stdout.contains("Fig. 12"), "fig12 missing");
    assert!(
        !r.stdout.contains("Fig. 9"),
        "panicked point printed output"
    );
    // The report names the point and the panic.
    assert!(r.stderr.contains("1 panicked"), "{}", r.stderr);
    assert!(r.stderr.contains("[ panicked] fig9"), "{}", r.stderr);
    assert!(r.stderr.contains("injected failure"), "{}", r.stderr);
}

#[test]
fn deadline_overrun_is_reported_and_abandoned() {
    let started = std::time::Instant::now();
    let r = run(&["all", "--deadline-s", "0.5"], Some("fig11=sleep:30"));
    // The watchdog abandoned the sleeping point: the whole run finishes
    // far sooner than the 30 s sleep.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "run did not abandon the sleeping point"
    );
    assert_eq!(r.code, Some(2), "{}", r.stderr);
    assert!(r.stderr.contains("1 timed out"), "{}", r.stderr);
    assert!(
        r.stderr
            .contains("[timed-out] fig11: exceeded 0.5 s deadline"),
        "{}",
        r.stderr
    );
    assert!(
        !r.stdout.contains("Fig. 11"),
        "timed-out point printed output"
    );
}

#[test]
fn resume_after_partial_run_is_byte_identical() {
    let clean = run(&["all"], None);
    assert_eq!(clean.code, Some(0), "{}", clean.stderr);

    for jobs in ["1", "4"] {
        let dir = temp_dir(&format!("resume-j{jobs}"));
        let dir_s = dir.to_str().expect("utf-8 temp path");

        // Partial run: fig9 panics, everything else lands in the journal.
        let partial = run(
            &["all", "--run-dir", dir_s, "--jobs", jobs],
            Some("fig9=panic"),
        );
        assert_eq!(partial.code, Some(2), "{}", partial.stderr);

        // Resume without the injection: only fig9 re-runs, and stdout is
        // byte-identical to an uninterrupted clean run.
        let resumed = run(&["all", "--resume", dir_s, "--jobs", jobs], None);
        assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
        assert_eq!(
            resumed.stdout, clean.stdout,
            "resumed stdout differs at --jobs {jobs}"
        );
        assert!(
            resumed.stderr.contains("10 from journal"),
            "{}",
            resumed.stderr
        );
        // The one-line resume accounting: fig9's failed record makes it
        // an adopted (re-run) point, the other ten replay verbatim.
        assert!(
            resumed
                .stderr
                .contains("resume: 10 replayed from journal, 1 adopted (re-run), 0 abandoned"),
            "{}",
            resumed.stderr
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A journal lists records in the order points complete, so at `--jobs`
/// above 1 its bytes can differ between runs of one command; its lines,
/// sorted, equal those of a `--jobs 1` journal.
#[test]
fn journals_hold_the_same_lines_at_any_jobs() {
    let sorted_journal = |jobs: &str| {
        let dir = temp_dir(&format!("lines-j{jobs}"));
        let dir_s = dir.to_str().expect("utf-8 temp path");
        let r = run(&["all", "--run-dir", dir_s, "--jobs", jobs], None);
        assert_eq!(r.code, Some(0), "{}", r.stderr);
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal written");
        let _ = std::fs::remove_dir_all(&dir);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines.sort();
        lines
    };
    let one = sorted_journal("1");
    assert_eq!(one.len(), 12, "header and 11 points");
    assert_eq!(sorted_journal("2"), one);
}

#[test]
fn truncated_trailing_journal_line_is_reported_and_healed() {
    let dir = temp_dir("truncated");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let clean = run(&["all"], None);

    let partial = run(&["all", "--run-dir", dir_s], Some("fig9=panic"));
    assert_eq!(partial.code, Some(2), "{}", partial.stderr);

    // Chop bytes off the final record, as a SIGKILL mid-append would.
    let journal = dir.join("journal.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&journal)
        .expect("journal exists");
    let mut contents = String::new();
    file.read_to_string(&mut contents).expect("read journal");
    file.set_len(contents.len() as u64 - 9).expect("truncate");

    let resumed = run(&["all", "--resume", dir_s], None);
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert!(
        resumed
            .stderr
            .contains("discarded truncated journal record"),
        "{}",
        resumed.stderr
    );
    assert!(
        resumed.stderr.contains("1 abandoned (truncated tail)"),
        "{}",
        resumed.stderr
    );
    assert_eq!(
        resumed.stdout, clean.stdout,
        "healed resume must still match"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_file_corruption_is_a_hard_error() {
    let dir = temp_dir("corrupt");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let first = run(&["all", "--run-dir", dir_s], None);
    assert_eq!(first.code, Some(0), "{}", first.stderr);

    // Flip bytes in the middle of the journal: real corruption, not the
    // benign truncated-tail case.
    let journal = dir.join("journal.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&journal)
        .expect("journal exists");
    // Stray quotes break the record's string structure outright.
    file.seek(SeekFrom::Start(80)).expect("seek");
    file.write_all(b"\"##\"").expect("corrupt");
    drop(file);

    let resumed = run(&["all", "--resume", dir_s], None);
    assert_eq!(resumed.code, Some(1), "{}", resumed.stderr);
    assert!(
        resumed.stderr.contains("corrupt journal record at line"),
        "{}",
        resumed.stderr
    );
    assert!(
        resumed.stderr.contains("byte offset") && resumed.stderr.contains("hex"),
        "corruption errors must locate the damage: {}",
        resumed.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_dir_refuses_to_clobber_an_existing_journal() {
    let dir = temp_dir("clobber");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let first = run(&["all", "--run-dir", dir_s], None);
    assert_eq!(first.code, Some(0), "{}", first.stderr);

    let second = run(&["all", "--run-dir", dir_s], None);
    assert_eq!(second.code, Some(1), "{}", second.stderr);
    assert!(second.stderr.contains("--resume"), "{}", second.stderr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_all_matches_per_command_output() {
    // The supervision layer must not perturb stdout: `all` is still the
    // concatenation of each experiment's own output, in paper order.
    let all = run(&["all"], None);
    assert_eq!(all.code, Some(0), "{}", all.stderr);
    let table1 = run(&["table1"], None);
    assert!(all.stdout.starts_with(&table1.stdout), "table1 must lead");
    assert!(
        all.stderr.contains("11 points — 11 completed"),
        "{}",
        all.stderr
    );
}

#[test]
fn trace_and_metrics_are_byte_identical_across_jobs() {
    // docs/observability.md: tracing must not perturb determinism — the
    // Chrome trace, the metrics table, and stdout are identical at any
    // worker count.
    let dir = temp_dir("trace-jobs");
    std::fs::create_dir_all(&dir).expect("trace dir");
    let p1 = dir.join("t1.json");
    let p4 = dir.join("t4.json");
    let trace = |jobs: &str, path: &std::path::Path| {
        run(
            &[
                "all",
                "--trace-out",
                path.to_str().expect("utf-8 temp path"),
                "--metrics",
                "--jobs",
                jobs,
            ],
            None,
        )
    };
    let r1 = trace("1", &p1);
    let r4 = trace("4", &p4);
    assert_eq!(r1.code, Some(0), "{}", r1.stderr);
    assert_eq!(r4.code, Some(0), "{}", r4.stderr);
    assert_eq!(r1.stdout, r4.stdout, "stdout depends on --jobs");
    assert_eq!(r1.stderr, r4.stderr, "metrics table depends on --jobs");
    let t1 = std::fs::read_to_string(&p1).expect("trace 1");
    let t4 = std::fs::read_to_string(&p4).expect("trace 4");
    assert_eq!(t1, t4, "trace depends on --jobs");
    // The trace covers all four platforms and is structurally a Chrome
    // trace_event document (CI additionally json-parses it).
    assert!(t1.starts_with("{\"traceEvents\":["), "{}", &t1[..40]);
    assert!(t1.trim_end().ends_with('}'));
    for needle in ["wse.compile", "rdu.execute", "ipu.bsp", "gpu.megatron"] {
        assert!(t1.contains(needle), "{needle} missing from trace");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_run_replays_identical_trace_and_metrics() {
    let files = temp_dir("trace-files");
    std::fs::create_dir_all(&files).expect("trace dir");
    let clean_t = files.join("clean.json");
    let clean = run(
        &[
            "all",
            "--trace-out",
            clean_t.to_str().expect("utf-8 temp path"),
            "--metrics",
        ],
        None,
    );
    assert_eq!(clean.code, Some(0), "{}", clean.stderr);

    // Partial traced run: fig9 panics, the other ten journal both their
    // output and their metrics digest.
    let dir = temp_dir("trace-resume");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let partial = run(
        &["all", "--run-dir", dir_s, "--metrics"],
        Some("fig9=panic"),
    );
    assert_eq!(partial.code, Some(2), "{}", partial.stderr);

    // Resume re-runs only fig9; replayed points contribute their journaled
    // digests, so the trace is byte-identical to the uninterrupted run's.
    let resumed_t = files.join("resumed.json");
    let resumed = run(
        &[
            "all",
            "--resume",
            dir_s,
            "--trace-out",
            resumed_t.to_str().expect("utf-8 temp path"),
            "--metrics",
        ],
        None,
    );
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert_eq!(resumed.stdout, clean.stdout, "resumed stdout differs");
    assert_eq!(
        std::fs::read_to_string(&resumed_t).expect("resumed trace"),
        std::fs::read_to_string(&clean_t).expect("clean trace"),
        "resumed trace differs from an uninterrupted traced run"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&files);
}

#[test]
fn a_corrupt_metrics_digest_fails_the_resume() {
    let dir = temp_dir("digest-flip");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let first = run(&["all", "--run-dir", dir_s, "--metrics"], None);
    assert_eq!(first.code, Some(0), "{}", first.stderr);

    // One bit turns the first metrics record's first span `B:` into a
    // counter `C:`: the line is still valid JSON, but the digest no
    // longer parses.
    let journal = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal");
    let line = text
        .lines()
        .find(|l| l.contains("\"status\":\"metrics\""))
        .expect("a metrics record");
    let label = line
        .strip_prefix("{\"label\":\"")
        .and_then(|rest| rest.split('"').next())
        .expect("label first");
    let flipped = line.replacen("|B:", "|C:", 1);
    assert_ne!(flipped, line, "no span to flip in {line}");
    std::fs::write(&journal, text.replacen(line, &flipped, 1)).expect("rewrite journal");

    // Single-process and sharded resume both refuse, naming the point.
    for extra in [&[][..], &["--shards", "2"][..]] {
        let mut args = vec!["all", "--resume", dir_s, "--metrics"];
        args.extend_from_slice(extra);
        let resumed = run(&args, None);
        assert_eq!(resumed.code, Some(1), "{extra:?}: {}", resumed.stderr);
        assert!(
            resumed
                .stderr
                .contains(&format!("corrupt metrics digest for `{label}`")),
            "{extra:?}: {}",
            resumed.stderr
        );
        assert!(resumed.stdout.is_empty(), "{extra:?}: {}", resumed.stdout);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_points_leave_no_events_in_the_trace() {
    let dir = temp_dir("trace-failed");
    std::fs::create_dir_all(&dir).expect("trace dir");
    let path = dir.join("t.json");
    let r = run(
        &[
            "all",
            "--trace-out",
            path.to_str().expect("utf-8 temp path"),
        ],
        Some("fig12=panic"),
    );
    assert_eq!(r.code, Some(2), "{}", r.stderr);
    let trace = std::fs::read_to_string(&path).expect("trace");
    // fig12 is experiment index 10, so its point contexts all start with
    // path component 10; none may survive the panic.
    assert!(
        !trace.contains("\"point 10"),
        "panicked point leaked events into the trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_supervision_flags_are_reported() {
    for (args, needle) in [
        (vec!["all", "--deadline-s", "abc"], "--deadline-s"),
        (vec!["all", "--deadline-s", "-1"], "--deadline-s"),
        (vec!["all", "--max-retries", "x"], "--max-retries"),
        (vec!["all", "--frobnicate"], "unknown flag"),
        (vec!["all", "--run-dir"], "needs a value"),
    ] {
        let r = run(&args, None);
        assert_eq!(r.code, Some(1), "{args:?}");
        assert!(r.stderr.contains(needle), "{args:?}: {}", r.stderr);
    }
    let r = run(&["all"], Some("fig9=explode"));
    assert_eq!(r.code, Some(1), "{}", r.stderr);
    assert!(r.stderr.contains("DABENCH_INJECT"), "{}", r.stderr);
}

#[test]
fn injected_error_exhausts_retries_and_is_reported() {
    let r = run(&["all"], Some("table1=err:device_fault"));
    assert_eq!(r.code, Some(2), "{}", r.stderr);
    assert!(
        !r.stdout.contains("Table I:"),
        "failed point printed output"
    );
    assert!(r.stdout.contains("Fig. 12"), "other points still rendered");
    assert!(r.stderr.contains("1 failed"), "{}", r.stderr);
    assert!(
        r.stderr.contains("device fault on `injected`"),
        "{}",
        r.stderr
    );
    assert!(r.stderr.contains("DABENCH_INJECT"), "{}", r.stderr);
}

#[test]
fn injected_error_clears_within_the_retry_budget() {
    let clean = run(&["table1"], None);
    assert_eq!(clean.code, Some(0), "{}", clean.stderr);

    // Two injected transient faults, two retries: the third attempt
    // succeeds and the output is byte-identical to an uninjected run.
    let r = run(
        &["all", "--max-retries", "2"],
        Some("table1=err:device_fault:2"),
    );
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert!(
        r.stdout.starts_with(&clean.stdout),
        "retried point must render byte-identically"
    );
    assert!(r.stderr.contains("11 completed"), "{}", r.stderr);

    // One retry is not enough for two injected faults.
    let short = run(
        &["all", "--max-retries", "1"],
        Some("table1=err:device_fault:2"),
    );
    assert_eq!(short.code, Some(2), "{}", short.stderr);
    assert!(short.stderr.contains("after 1 retry"), "{}", short.stderr);
}

#[test]
fn malformed_err_injection_clause_is_rejected() {
    let r = run(&["all"], Some("table1=err:gremlins"));
    assert_eq!(r.code, Some(1), "{}", r.stderr);
    assert!(r.stderr.contains("unknown error kind"), "{}", r.stderr);
}

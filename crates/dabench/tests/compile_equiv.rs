//! Differential equivalence harness for incremental sweep recompilation.
//!
//! Every sweep command is run twice — once with the incremental compile
//! cache active (the default) and once with `DABENCH_NO_INCREMENTAL=1`
//! forcing a from-scratch graph build at every point — and the rendered
//! bytes must be identical. The same invariant is checked across worker
//! counts, process sharding, and journal resume, so the cache can never
//! change an answer no matter how the sweep is scheduled.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Run `dabench` with the incremental compile cache on or off.
///
/// `DABENCH_INJECT` is scrubbed (fault hooks would perturb output) and
/// `DABENCH_NO_INCREMENTAL` is explicitly set or removed so the two modes
/// differ in exactly one bit. Sharded workers inherit the environment, so
/// the toggle reaches every process in a fleet.
fn run_mode(args: &[&str], incremental: bool) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dabench"));
    cmd.args(args).env_remove("DABENCH_INJECT");
    if incremental {
        cmd.env_remove("DABENCH_NO_INCREMENTAL");
    } else {
        cmd.env("DABENCH_NO_INCREMENTAL", "1");
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
        "dabench-compile-equiv-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journal(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal exists")
}

/// Assert one command renders byte-identical stdout with the cache on and
/// off, and that both invocations succeed.
fn assert_equivalent(args: &[&str]) {
    let on = run_mode(args, true);
    let off = run_mode(args, false);
    assert_eq!(on.code, Some(0), "{args:?} (incremental): {}", on.stderr);
    assert_eq!(off.code, Some(0), "{args:?} (scratch): {}", off.stderr);
    assert_eq!(
        on.stdout,
        off.stdout,
        "incremental compilation changed `dabench {}` output",
        args.join(" ")
    );
}

#[test]
fn check_and_tables_are_identical_with_and_without_incremental() {
    assert_equivalent(&["check"]);
    assert_equivalent(&["table1"]);
    assert_equivalent(&["table3"]);
}

#[test]
fn figure_sweeps_are_identical_with_and_without_incremental() {
    for fig in ["fig7", "fig8", "fig9", "fig10", "fig11"] {
        assert_equivalent(&[fig]);
    }
}

#[test]
fn inference_and_generated_sweeps_are_identical() {
    assert_equivalent(&["infer"]);
    assert_equivalent(&["gen", "--tier", "baby", "--count", "8", "--seed", "42"]);
}

#[test]
fn populations_that_revisit_topologies_are_identical_at_any_jobs() {
    // Baby's 8 scenarios never return to an earlier layer count; these
    // populations do, and every scenario after the first of its model
    // family patches across depths from one basis, in whatever order the
    // workers reach them.
    for population in [
        ["gen", "--tier", "hard", "--count", "48"],
        ["gen", "--tier", "cosmic", "--count", "32"],
    ] {
        let with_jobs = |jobs| [&population[..], &["--jobs", jobs]].concat();
        let reference = run_mode(&with_jobs("1"), false);
        assert_eq!(reference.code, Some(0), "{}", reference.stderr);
        for (jobs, incremental) in [("1", true), ("4", true), ("4", false)] {
            let r = run_mode(&with_jobs(jobs), incremental);
            assert_eq!(r.code, Some(0), "{}", r.stderr);
            assert_eq!(
                r.stdout,
                reference.stdout,
                "`dabench {}` --jobs {jobs} (incremental: {incremental}) differs \
                 from the scratch --jobs 1 run",
                population.join(" ")
            );
        }
    }
}

#[test]
fn csv_exports_are_identical() {
    assert_equivalent(&["csv", "infer"]);
    assert_equivalent(&["csv", "gen"]);
}

#[test]
fn worker_count_does_not_interact_with_the_cache() {
    // The cache is process-global and shared across sweep workers; the
    // rendered bytes must not depend on how many threads race it.
    let scratch = run_mode(&["fig7", "--jobs", "1"], false);
    assert_eq!(scratch.code, Some(0), "{}", scratch.stderr);
    for jobs in ["1", "4"] {
        let r = run_mode(&["fig7", "--jobs", jobs], true);
        assert_eq!(r.code, Some(0), "{}", r.stderr);
        assert_eq!(
            r.stdout, scratch.stdout,
            "fig7 --jobs {jobs} with incremental differs from scratch build"
        );
    }
}

#[test]
fn sharded_sweep_with_incremental_matches_scratch_single_process() {
    // Reference: single process, one worker, cache disabled.
    let ref_dir = temp_dir("shard-ref");
    let reference = run_mode(
        &["all", "--jobs", "1", "--run-dir", ref_dir.to_str().unwrap()],
        false,
    );
    assert_eq!(reference.code, Some(0), "{}", reference.stderr);

    // Candidate: three worker processes, each warming its own cache.
    let dir = temp_dir("shard-inc");
    let r = run_mode(
        &["all", "--shards", "3", "--run-dir", dir.to_str().unwrap()],
        true,
    );
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_eq!(
        r.stdout, reference.stdout,
        "sharded incremental stdout differs from scratch reference"
    );
    assert_eq!(
        journal(&dir),
        journal(&ref_dir),
        "sharded incremental journal differs from scratch reference"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_sweep_with_incremental_matches_scratch_reference() {
    // Reference run with the cache off.
    let ref_dir = temp_dir("resume-ref");
    let reference = run_mode(
        &["all", "--jobs", "1", "--run-dir", ref_dir.to_str().unwrap()],
        false,
    );
    assert_eq!(reference.code, Some(0), "{}", reference.stderr);
    let ref_journal = journal(&ref_dir);

    // Forge an interrupted run: the journal is missing every fig11
    // record, so `--resume` replays the rest and recomputes fig11 — with
    // the cache on, against journal entries written with it off.
    let dir = temp_dir("resume-inc");
    std::fs::create_dir_all(&dir).expect("run dir");
    let mut partial = String::new();
    let mut dropped = 0;
    for (i, line) in ref_journal.lines().enumerate() {
        if i > 0 && line.contains("\"label\":\"fig11\"") {
            dropped += 1;
            continue;
        }
        partial.push_str(line);
        partial.push('\n');
    }
    assert!(dropped > 0, "reference journal has no fig11 records");
    std::fs::write(dir.join("journal.jsonl"), &partial).expect("write partial journal");

    let r = run_mode(
        &["all", "--resume", dir.to_str().unwrap(), "--jobs", "1"],
        true,
    );
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_eq!(
        r.stdout, reference.stdout,
        "resumed incremental stdout differs from scratch reference"
    );
    // A re-run point appends at the journal tail instead of its canonical
    // slot, so compare records order-insensitively: every line — including
    // the recomputed fig11 payload — must still be byte-identical.
    let resumed_journal = journal(&dir);
    let mut got: Vec<&str> = resumed_journal.lines().collect();
    let mut want: Vec<&str> = ref_journal.lines().collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "resumed incremental journal records differ from scratch reference"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

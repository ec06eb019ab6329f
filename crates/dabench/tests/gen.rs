//! Integration tests for `dabench gen`: the seeded scenario generator,
//! its supervised sweep plumbing (`--jobs`/`--shards`/`--run-dir`/
//! `--resume`), the ranking report, and the metamorphic invariant layer
//! (see docs/generation.md).

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run_with(args: &[&str], inject: Option<&str>) -> Run {
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

fn run(args: &[&str]) -> Run {
    run_with(args, None)
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dabench-cli-gen-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn list_tiers_names_all_five() {
    let r = run(&["gen", "--list-tiers"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    for tier in ["baby", "easy", "medium", "hard", "cosmic"] {
        assert!(
            r.stdout.contains(tier),
            "missing tier {tier}:\n{}",
            r.stdout
        );
    }
}

#[test]
fn unknown_tier_is_a_structured_error() {
    let r = run(&["gen", "--tier", "galactic"]);
    assert_eq!(r.code, Some(1));
    assert!(r.stderr.contains("unknown tier `galactic`"), "{}", r.stderr);
    assert!(r.stderr.contains("cosmic"), "error must list the tiers");
}

#[test]
fn output_is_byte_identical_across_jobs_and_shards() {
    // The acceptance bar: same tier+seed renders the same bytes at any
    // worker-thread count and across a multi-process sharded run.
    let base = &["gen", "--tier", "easy", "--seed", "7", "--count", "6"];
    let serial = run(&[base as &[&str], &["--jobs", "1"]].concat());
    assert_eq!(serial.code, Some(0), "{}", serial.stderr);
    let parallel = run(&[base as &[&str], &["--jobs", "8"]].concat());
    assert_eq!(parallel.code, Some(0), "{}", parallel.stderr);
    assert_eq!(
        serial.stdout, parallel.stdout,
        "--jobs must not perturb gen output"
    );

    let dir = temp_dir("shards");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let sharded = run(&[base as &[&str], &["--shards", "3", "--run-dir", dir_s]].concat());
    assert_eq!(sharded.code, Some(0), "{}", sharded.stderr);
    assert_eq!(
        serial.stdout, sharded.stdout,
        "--shards must not perturb gen output"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_point_then_resume_is_byte_identical_to_a_clean_run() {
    // Fail one scenario (injected device fault), then resume: the
    // journaled scenarios replay, only the failed one re-runs, and the
    // final bytes match an uninterrupted run exactly.
    let base = &["gen", "--tier", "baby", "--seed", "42", "--count", "6"];
    let clean = run(&[base as &[&str], &["--jobs", "1"]].concat());
    assert_eq!(clean.code, Some(0), "{}", clean.stderr);

    let dir = temp_dir("resume");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let broken = run_with(
        &[base as &[&str], &["--jobs", "1", "--run-dir", dir_s]].concat(),
        Some("gen:baby:s42:i3=err:device_fault"),
    );
    assert_eq!(broken.code, Some(2), "injected failure: {}", broken.stderr);
    assert!(broken.stderr.contains("1 failed"), "{}", broken.stderr);

    let resumed = run(&[base as &[&str], &["--jobs", "1", "--resume", dir_s]].concat());
    assert_eq!(resumed.code, Some(0), "{}", resumed.stderr);
    assert_eq!(
        clean.stdout, resumed.stdout,
        "resumed population must render the clean run's bytes"
    );
    assert!(
        resumed.stderr.contains("replayed from journal"),
        "resume must account for the journaled scenarios: {}",
        resumed.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_worker_death_is_survived_by_a_respawn() {
    // A shard worker dies (injected exit) on its first attempt at one
    // generated scenario; the supervisor respawns it, the respawned
    // worker counts the spent life and completes — final bytes identical
    // to a clean single-process run. The crash-safe-journal property of
    // docs/sharding.md applied to a generated population.
    let base = &["gen", "--tier", "baby", "--seed", "42", "--count", "6"];
    let clean = run(&[base as &[&str], &["--jobs", "1"]].concat());
    assert_eq!(clean.code, Some(0), "{}", clean.stderr);

    let dir = temp_dir("respawn");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let survived = run_with(
        &[
            base as &[&str],
            &["--shards", "2", "--run-dir", dir_s, "--max-respawns", "2"],
        ]
        .concat(),
        Some("gen:baby:s42:i3=exit:7:1"),
    );
    assert_eq!(survived.code, Some(0), "{}", survived.stderr);
    assert_eq!(
        clean.stdout, survived.stdout,
        "a respawned shard fleet must render the clean run's bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_tier_passes_its_invariants() {
    for tier in ["baby", "easy", "medium", "hard", "cosmic"] {
        let r = run(&["gen", "--tier", tier, "--seed", "11", "--count", "12"]);
        assert_eq!(r.code, Some(0), "tier {tier}: {}", r.stderr);
        assert!(
            !r.stderr.contains("invariant violated"),
            "tier {tier}: {}",
            r.stderr
        );
        assert!(r.stdout.contains("Platform ranking"), "tier {tier}");
        assert!(r.stdout.contains("Metamorphic invariants"), "tier {tier}");
    }
}

#[test]
fn violate_injection_exits_4_and_names_the_invariant() {
    // `DABENCH_INJECT=gen=violate:<name>` perturbs one observation so
    // the named invariant must fail loudly — proof the checker is wired
    // to the exit code, for every invariant in the catalog.
    for invariant in [
        "fault_monotone",
        "fp8_kv_smaller",
        "batch_monotone",
        "oom_wall_consistent",
        "seed_determinism",
    ] {
        let r = run_with(
            &["gen", "--tier", "baby", "--seed", "1", "--count", "2"],
            Some(&format!("gen=violate:{invariant}")),
        );
        assert_eq!(r.code, Some(4), "{invariant}: {}", r.stderr);
        assert!(
            r.stderr
                .contains(&format!("invariant violated: {invariant}")),
            "{invariant} not named in stderr:\n{}",
            r.stderr
        );
    }
}

#[test]
fn unknown_violate_target_is_rejected_at_parse_time() {
    let r = run_with(
        &["gen", "--tier", "baby", "--count", "1"],
        Some("gen=violate:nonsense"),
    );
    assert_eq!(r.code, Some(1), "{}", r.stderr);
    assert!(r.stderr.contains("unknown invariant"), "{}", r.stderr);
}

/// `Checked` column of the invariant summary row of `invariant`.
fn checked(stdout: &str, invariant: &str) -> u64 {
    let row = stdout
        .lines()
        .find(|l| l.trim_start_matches(['|', ' ']).starts_with(invariant))
        .unwrap_or_else(|| panic!("no `{invariant}` row:\n{stdout}"));
    let cells: Vec<&str> = row.split('|').map(str::trim).collect();
    cells[cells.len() - 3]
        .parse()
        .expect("numeric Checked cell")
}

#[test]
fn hard_population_checks_are_identical_at_any_jobs_and_shards() {
    // The checker runs on the worker pool and folds in index order, so
    // every count and violation prints the same whatever the pool size.
    // Hard seed 3 exercises every invariant: faulted single-chip training
    // (fault_monotone), serving ladders and walls, and two determinism
    // re-renders (indices 0 and 8).
    let base = &["gen", "--tier", "hard", "--seed", "3", "--count", "16"];
    let serial = run(&[base as &[&str], &["--jobs", "1"]].concat());
    assert_eq!(serial.code, Some(0), "{}", serial.stderr);
    for invariant in [
        "fault_monotone",
        "fp8_kv_smaller",
        "batch_monotone",
        "oom_wall_consistent",
    ] {
        assert!(
            checked(&serial.stdout, invariant) > 0,
            "{invariant} unchecked"
        );
    }
    assert_eq!(checked(&serial.stdout, "seed_determinism"), 2);

    let parallel = run(&[base as &[&str], &["--jobs", "4"]].concat());
    assert_eq!(parallel.code, Some(0), "{}", parallel.stderr);
    assert_eq!(serial.stdout, parallel.stdout, "--jobs 4 moved the output");

    let dir = temp_dir("hard-shards");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let sharded = run(&[base as &[&str], &["--shards", "2", "--run-dir", dir_s]].concat());
    assert_eq!(sharded.code, Some(0), "{}", sharded.stderr);
    assert_eq!(serial.stdout, sharded.stdout, "--shards 2 moved the output");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_is_identical_at_any_jobs_and_holds_no_checker_track() {
    // Sweep points record under paths headed by their index, with a
    // labelled or nested track per platform. The checker's determinism
    // re-renders used to add unlabelled top-level `point N` tracks that
    // collide with those paths; it now records nothing.
    let dir = temp_dir("trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = |jobs: &str| {
        let path = dir.join(format!("trace-{jobs}.json"));
        let path_s = path.to_str().expect("utf-8 temp path");
        let r = run(&[
            "gen",
            "--tier",
            "hard",
            "--seed",
            "3",
            "--count",
            "16",
            "--jobs",
            jobs,
            "--trace-out",
            path_s,
        ]);
        assert_eq!(r.code, Some(0), "{}", r.stderr);
        std::fs::read_to_string(&path).expect("trace written")
    };
    let serial = trace("1");
    assert_eq!(serial, trace("4"), "--jobs moved the trace");
    let tracks: Vec<&str> = serial
        .split("\"thread_name\"")
        .skip(1)
        .filter_map(|rest| rest.split("\"args\":{\"name\":\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(!tracks.is_empty(), "trace has no tracks");
    for track in tracks {
        let top_level = track
            .strip_prefix("point ")
            .is_some_and(|path| !path.contains('.'));
        assert!(!top_level, "checker track `{track}` in the trace");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finished_shard_workers_exit_without_waiting_for_a_heartbeat() {
    // A worker whose points are journaled must exit at once, not at its
    // next heartbeat: with a 10-minute beat, a worker that waited would
    // stall the journal and be killed by the parent's watchdog.
    let dir = temp_dir("heartbeat");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let r = run(&[
        "gen",
        "--tier",
        "baby",
        "--count",
        "2",
        "--shards",
        "2",
        "--heartbeat-ms",
        "600000",
        "--run-dir",
        dir_s,
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert!(
        r.stderr.contains("2 clean, 0 partial, 0 dead"),
        "{}",
        r.stderr
    );
    assert!(!r.stderr.contains("died"), "{}", r.stderr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `gen` with `args` under `DABENCH_INJECT=gen=violate:batch_monotone`,
/// stdout and stderr on one file as `> file 2>&1` puts them; returns the
/// exit code and the interleaved stream.
fn run_interleaved(args: &[&str], stream: &std::path::Path) -> (Option<i32>, String) {
    let file = std::fs::File::create(stream).expect("stream file");
    let status = Command::new(env!("CARGO_BIN_EXE_dabench"))
        .arg("gen")
        .args(args)
        .env("DABENCH_INJECT", "gen=violate:batch_monotone")
        .stdout(file.try_clone().expect("second handle"))
        .stderr(file)
        .status()
        .expect("binary runs");
    let text = std::fs::read_to_string(stream).expect("stream written");
    (status.code(), text)
}

/// Assert that `stream` holds each of `markers` once, in this order, and
/// every record between `markers[records.0]` and `markers[records.1]`.
fn assert_stream_order(stream: &str, markers: &[&str], records: (usize, usize)) {
    let mut positions = Vec::new();
    for marker in markers {
        assert_eq!(stream.matches(marker).count(), 1, "`{marker}`:\n{stream}");
        positions.push(stream.find(marker).expect("counted"));
    }
    let first_record = stream.find("gen-v1 label=").expect("records printed");
    let last_record = stream.rfind("gen-v1 label=").expect("records printed");
    assert!(positions[records.0] < first_record, "{stream}");
    assert!(last_record < positions[records.1], "{stream}");
    assert!(
        positions.is_sorted(),
        "{markers:?} at {positions:?}:\n{stream}"
    );
}

#[test]
fn stdout_blocks_and_stderr_interleave_in_program_order() {
    // Stdout is written in blocks; each must be out before the stderr
    // line that follows it, so a `2>&1` stream reads in program order.
    let dir = temp_dir("stream");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run_dir = dir.join("run");
    let run_dir_s = run_dir.to_str().expect("utf-8 temp path");
    let base = ["--tier", "hard", "--count", "24", "--seed", "3"];
    let [population, results, ranking, invariants] = [
        "== Generated population",
        "== Generated results",
        "== Platform ranking",
        "== Metamorphic invariants",
    ];
    let (report, violated) = ("run report:", "invariant violated: batch_monotone");

    let (code, stream) = run_interleaved(&base, &dir.join("single.txt"));
    assert_eq!(code, Some(4), "{stream}");
    let order = [population, report, results, ranking, invariants, violated];
    assert_stream_order(&stream, &order, (0, 1));

    let sharded = [&base[..], &["--shards", "2", "--run-dir", run_dir_s]].concat();
    let (code, stream) = run_interleaved(&sharded, &dir.join("sharded.txt"));
    assert_eq!(code, Some(4), "{stream}");
    let order = [
        population,
        "shard rollup:",
        report,
        results,
        ranking,
        invariants,
        violated,
    ];
    assert_stream_order(&stream, &order, (0, 1));

    let resumed = [&base[..], &["--resume", run_dir_s, "--shards", "2"]].concat();
    let (code, stream) = run_interleaved(&resumed, &dir.join("resumed.txt"));
    assert_eq!(code, Some(4), "{stream}");
    let order = [
        population,
        "resume: 24 replayed",
        report,
        results,
        ranking,
        invariants,
        violated,
    ];
    assert_stream_order(&stream, &order, (1, 2));
    let _ = std::fs::remove_dir_all(&dir);
}

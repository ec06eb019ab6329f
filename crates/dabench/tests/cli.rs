//! Smoke tests of the `dabench` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dabench"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn table1_prints_the_table() {
    let (ok, stdout, _) = run(&["table1"]);
    assert!(ok);
    assert!(stdout.contains("Table I"));
    assert!(stdout.contains("Fail"));
}

#[test]
fn tier1_profiles_a_platform() {
    let (ok, stdout, _) = run(&["tier1", "wse", "--layers", "12", "--batch", "64"]);
    assert!(ok);
    assert!(stdout.contains("Tier1Report"));
    assert!(stdout.contains("cerebras-wse2"));
}

#[test]
fn tier1_reports_mapping_failures() {
    let (ok, _, stderr) = run(&["tier1", "ipu", "--layers", "10", "--batch", "64"]);
    assert!(!ok);
    assert!(stderr.contains("out of memory"), "{stderr}");
}

#[test]
fn summary_prints_all_platforms() {
    let (ok, stdout, _) = run(&["summary", "--layers", "6", "--batch", "16"]);
    assert!(ok);
    assert!(stdout.contains("cerebras"));
    assert!(stdout.contains("sn30"));
    assert!(stdout.contains("ipu"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn bad_flag_value_is_reported() {
    let (ok, _, stderr) = run(&["summary", "--layers", "abc"]);
    assert!(!ok);
    assert!(stderr.contains("--layers"));
}

#[test]
fn zero_valued_flags_get_clean_errors() {
    for args in [
        ["summary", "--batch", "0"],
        ["summary", "--layers", "0"],
        ["tier1", "wse", "--seq"],
    ] {
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "{args:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_succeeds() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("commands"));
    assert!(stdout.contains("--jobs"));
}

#[test]
fn summary_output_is_jobs_invariant() {
    let (ok1, seq, _) = run(&["summary", "--layers", "6", "--batch", "16", "--jobs", "1"]);
    let (ok4, par, _) = run(&["summary", "--layers", "6", "--batch", "16", "--jobs", "4"]);
    assert!(ok1 && ok4);
    assert_eq!(seq, par, "summary output must not depend on --jobs");
}

#[test]
fn fig7_output_is_jobs_invariant() {
    let (ok1, seq, _) = run(&["fig7", "--jobs", "1"]);
    let (ok4, par, _) = run(&["fig7", "--jobs", "4"]);
    assert!(ok1 && ok4);
    assert_eq!(seq, par, "fig7 output must not depend on --jobs");
}

#[test]
fn faults_output_is_jobs_invariant() {
    let base = [
        "faults", "wse", "--seed", "7", "--layers", "6", "--batch", "16",
    ];
    let mut seq_args = base.to_vec();
    seq_args.extend(["--jobs", "1"]);
    let mut par_args = base.to_vec();
    par_args.extend(["--jobs", "4"]);
    let (ok1, seq, _) = run(&seq_args);
    let (ok4, par, _) = run(&par_args);
    assert!(ok1 && ok4);
    assert_eq!(seq, par, "faults output must not depend on --jobs");
    assert!(seq.contains("Resilience"));
}

#[test]
fn infer_output_is_jobs_invariant() {
    let (ok1, seq, _) = run(&["infer", "--jobs", "1"]);
    let (ok4, par, _) = run(&["infer", "--jobs", "4"]);
    assert!(ok1 && ok4);
    assert_eq!(seq, par, "infer output must not depend on --jobs");
    assert!(seq.contains("Inference serving"));
}

#[test]
fn infer_accepts_explicit_workload_flags() {
    let (ok, out, _) = run(&[
        "infer",
        "--model",
        "llama2-7b",
        "--batch",
        "4",
        "--prompt",
        "1024",
        "--decode",
        "64",
        "--kv-precision",
        "fp8",
        "--continuous",
    ]);
    assert!(ok);
    assert!(out.contains("Workload:"), "{out}");
    assert!(out.contains("kv=fp8"), "{out}");
    for platform in ["wse", "rdu", "ipu", "gpu"] {
        assert!(out.contains(platform), "missing {platform}: {out}");
    }
}

#[test]
fn infer_rejects_invalid_workloads() {
    let (ok, _, stderr) = run(&["infer", "--batch", "0"]);
    assert!(!ok, "zero batch must be rejected");
    assert!(stderr.contains("batch"), "{stderr}");
    let (ok, _, stderr) = run(&["infer", "--model", "nonexistent"]);
    assert!(!ok);
    assert!(stderr.contains("model"), "{stderr}");
}

#[test]
fn jobs_flag_rejects_bad_values() {
    for bad in ["0", "abc"] {
        let (ok, _, stderr) = run(&["summary", "--jobs", bad]);
        assert!(!ok, "--jobs {bad} should fail");
        assert!(stderr.contains("--jobs"), "{stderr}");
    }
    let (ok, _, stderr) = run(&["summary", "--jobs"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs"), "{stderr}");
}

#[test]
fn csv_exports_every_experiment_and_ablations() {
    for name in ["table1", "fig9", "fig11", "ablations"] {
        let (ok, stdout, stderr) = run(&["csv", name]);
        assert!(ok, "csv {name}: {stderr}");
        assert!(stdout.contains(','), "csv {name} produced no rows");
    }
}

#[test]
fn csv_rejects_unknown_experiment() {
    let (ok, _, stderr) = run(&["csv", "fig99"]);
    assert!(!ok);
    assert!(stderr.contains("no CSV export"), "{stderr}");
}

#[test]
fn faults_failed_points_show_dash_not_zero() {
    // A 50%-dead plan makes the WSE remap fail; the failed row must not
    // fabricate a 0.00 s recovery time.
    let (ok, stdout, _) = run(&[
        "faults", "wse", "--seed", "7", "--plan", "dead=0.5", "--layers", "6", "--batch", "16",
    ]);
    assert!(ok);
    if let Some(line) = stdout.lines().find(|l| l.contains("FAILED")) {
        assert!(!line.contains("0.00"), "{line}");
    }
}

/// Every command's flag errors: a flag missing its value, an unparsable
/// value, a rejected zero, negative or NaN value, and an unknown flag all
/// exit 1 with a message naming the flag, and none of them panics.
#[test]
fn every_command_names_the_flag_it_rejects() {
    let cases: &[(&[&str], &str)] = &[
        (&["tier1", "wse", "--layers"], "--layers"),
        (&["tier1", "wse", "--hidden", "abc"], "--hidden"),
        (&["tier1", "wse", "--hidden", "0"], "--hidden"),
        (&["tier1", "wse", "--seq", "-1"], "--seq"),
        (&["tier1", "wse", "--precision", "fp8"], "--precision"),
        (&["tier1", "wse", "--trace-out"], "--trace-out"),
        (&["tier1", "wse", "--bogus"], "--bogus"),
        (&["summary", "--batch"], "--batch"),
        (&["summary", "--batch", "x"], "--batch"),
        (&["summary", "--batch", "0"], "--batch"),
        (&["summary", "--layers", "-2"], "--layers"),
        (&["summary", "--model", "gpt5"], "--model"),
        (&["summary", "--frob"], "--frob"),
        (&["faults", "wse", "--seed"], "--seed"),
        (&["faults", "wse", "--seed", "-1"], "--seed"),
        (&["faults", "wse", "--plan", "dead=x"], "--plan"),
        (&["faults", "wse", "--layers", "0"], "--layers"),
        (&["faults", "wse", "--bogus"], "--bogus"),
        (&["infer", "--prompt"], "--prompt"),
        (&["infer", "--decode", "x"], "--decode"),
        (&["infer", "--batch", "0"], "--batch"),
        (&["infer", "--prompt", "0"], "--prompt"),
        (&["infer", "--decode", "-4"], "--decode"),
        (&["infer", "--kv-precision", "fp9"], "--kv-precision"),
        (&["infer", "--bogus"], "--bogus"),
        (&["all", "--run-dir"], "--run-dir"),
        (&["all", "--deadline-s", "abc"], "--deadline-s"),
        (&["all", "--deadline-s", "0"], "--deadline-s"),
        (&["all", "--deadline-s", "-1"], "--deadline-s"),
        (&["all", "--deadline-s", "nan"], "--deadline-s"),
        (&["all", "--deadline-s", "1e300"], "--deadline-s"),
        (&["all", "--max-retries", "-1"], "--max-retries"),
        (&["all", "--shards", "0"], "--shards"),
        (&["all", "--max-respawns", "x"], "--max-respawns"),
        (&["all", "--heartbeat-ms", "0"], "--heartbeat-ms"),
        (&["all", "--shard-stall-s", "nan"], "--shard-stall-s"),
        (&["all", "--shard-stall-s", "1e300"], "--shard-stall-s"),
        (&["all", "--bogus"], "--bogus"),
        (&["gen", "--tier"], "--tier"),
        (&["gen", "--tier", "galactic"], "--tier"),
        (&["gen", "--seed", "-1"], "--seed"),
        (&["gen", "--count", "0"], "--count"),
        (&["gen", "--count", "nan"], "--count"),
        (&["gen", "--deadline-s", "-1"], "--deadline-s"),
        (&["gen", "--heartbeat-ms", "0"], "--heartbeat-ms"),
        (&["gen", "--bogus"], "--bogus"),
        (&["serve", "--addr"], "--addr"),
        (&["serve", "--workers", "0"], "--workers"),
        (&["serve", "--queue", "x"], "--queue"),
        (&["serve", "--queue", "0"], "--queue"),
        (&["serve", "--cache", "-1"], "--cache"),
        (&["serve", "--retry-after-ms", "nan"], "--retry-after-ms"),
        (&["serve", "--deadline-s", "nan"], "--deadline-s"),
        (&["serve", "--deadline-s", "0"], "--deadline-s"),
        (&["serve", "--max-retries", "x"], "--max-retries"),
        (&["serve", "--seed", "7"], "--seed"),
        (&["serve", "--bogus"], "--bogus"),
        (&["bench", "--out"], "--out"),
        (&["bench", "--gate", "nan"], "--gate"),
        (&["bench", "--gate", "-5"], "--gate"),
        (&["bench", "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_dabench"))
            .args(*args)
            .env_remove("DABENCH_INJECT")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Of `--run-dir` and `--resume`, the later flag wins: `--resume A
/// --run-dir B` starts a fresh journal in B, so it refuses the journal B
/// already holds instead of resuming it.
#[test]
fn the_later_of_run_dir_and_resume_wins() {
    let dir = std::env::temp_dir().join(format!("dabench-cli-run-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = (dir.join("a"), dir.join("b"));
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let all = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_dabench"))
            .arg("all")
            .args(args)
            .env_remove("DABENCH_INJECT")
            .output()
            .expect("binary runs")
    };
    assert!(all(&["--run-dir", b]).status.success());

    let out = all(&["--resume", a, "--run-dir", b]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("already exists; pass --resume"), "{stderr}");
    assert!(out.stdout.is_empty());

    let out = all(&["--run-dir", a, "--resume", b]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("11 replayed from journal"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that goes away is a write error, not a panic, for every
/// command: the run ends with the `error:` line and exit code 1 of any
/// failed command. Each child's stdout is a pipe whose read end is closed
/// before the spawn, so its first write fails even when the output would
/// fit in the pipe's 64 KiB buffer.
#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    let commands: [&[&str]; 11] = [
        &["gen", "--tier", "hard", "--count", "400", "--seed", "1"],
        &["gen", "--list-tiers"],
        &["table3"],
        &["csv", "fig12"],
        &["infer"],
        &["check"],
        &["help"],
        &["summary"],
        &["tier1", "wse"],
        &["faults", "wse"],
        &["bench", "--list"],
    ];
    for args in commands {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_dabench"))
            .args(args)
            .env_remove("DABENCH_INJECT")
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: stdout:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A sharded run without `--run-dir` journals in a temporary directory
/// that only its own exit path removes. A reader that takes the
/// population table and then goes away fails the write of the records,
/// and that error must not leave the directory behind.
#[test]
fn a_reader_gone_mid_run_leaves_no_temporary_shard_directory() {
    use std::io::BufRead as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dabench"))
        .args(["gen", "--tier", "hard", "--count", "400", "--seed", "1"])
        .args(["--shards", "2"])
        .env_remove("DABENCH_INJECT")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let dir = std::env::temp_dir().join(format!("dabench-shards-{}", child.id()));
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped"));
    // The population table ends with a blank line; the records follow
    // only after the sweep.
    let mut line = String::new();
    while stdout.read_line(&mut line).expect("stdout readable") > 1 {
        line.clear();
    }
    drop(stdout);
    let out = child.wait_with_output().expect("binary exits");
    let left = dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: stdout:"), "{stderr}");
    assert!(!left, "{} left behind", dir.display());
}

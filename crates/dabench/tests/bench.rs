//! Integration tests for `dabench bench`: report determinism across
//! `--jobs`, the `--baseline`/`--gate` regression gate (exit code 3), the
//! `DABENCH_INJECT` slowdown hook, and `--record` trajectory accumulation.
//!
//! Everything here runs the real binary, like `cli.rs` and `golden.rs`.

use std::path::PathBuf;
use std::process::Command;

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run_env(args: &[&str], env: &[(&str, &str)]) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dabench"));
    cmd.args(args).env_remove("DABENCH_INJECT");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn run(args: &[&str]) -> Run {
    run_env(args, &[])
}

/// Unique scratch path per test so the harness's parallel test threads
/// never share a report file (the bench runner carries trajectory state
/// over from an existing `--out` file).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dabench_bench_test_{}_{name}", std::process::id()))
}

/// Zero out timing-derived fields; same normalization as the golden shape
/// test, duplicated here because test binaries cannot share helpers.
fn normalize(json: &str) -> String {
    const KEYS: [&str; 5] = ["kept", "median_ns", "mad_ns", "min_ns", "max_ns"];
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    'outer: while !rest.is_empty() {
        for key in KEYS {
            let tag = format!("\"{key}\":");
            if let Some(tail) = rest.strip_prefix(&tag) {
                out.push_str(&tag);
                out.push('0');
                rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
                continue 'outer;
            }
        }
        let c = rest.chars().next().unwrap();
        out.push(c);
        rest = &rest[c.len_utf8()..];
    }
    out
}

#[test]
fn report_structure_is_jobs_invariant() {
    // The full quick suite at --jobs 1 and --jobs 4 must agree on every
    // non-timing byte of the report: same benchmarks, plans, phase span
    // counts and counter totals. par_map collects in input order, so the
    // profile pass sees identical traces at any worker count.
    let out1 = scratch("jobs1.json");
    let out4 = scratch("jobs4.json");
    let _ = std::fs::remove_file(&out1);
    let _ = std::fs::remove_file(&out4);

    let r1 = run(&[
        "bench",
        "--quick",
        "--jobs",
        "1",
        "--out",
        out1.to_str().unwrap(),
    ]);
    assert_eq!(r1.code, Some(0), "{}", r1.stderr);
    let r4 = run(&[
        "bench",
        "--quick",
        "--jobs",
        "4",
        "--out",
        out4.to_str().unwrap(),
    ]);
    assert_eq!(r4.code, Some(0), "{}", r4.stderr);

    let j1 = std::fs::read_to_string(&out1).expect("jobs=1 report");
    let j4 = std::fs::read_to_string(&out4).expect("jobs=4 report");
    let _ = std::fs::remove_file(&out1);
    let _ = std::fs::remove_file(&out4);
    assert_eq!(
        normalize(&j1),
        normalize(&j4),
        "non-timing report fields must be byte-identical across --jobs"
    );
}

#[test]
fn self_baseline_passes_the_gate() {
    let base = scratch("selfbase.json");
    let cur = scratch("selfcur.json");
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);

    let r = run(&[
        "bench",
        "--quick",
        "--filter",
        "fig7",
        "--out",
        base.to_str().unwrap(),
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    // A re-run of the same workload must sit within a 200% gate of itself
    // even on a noisy host.
    let r = run(&[
        "bench",
        "--quick",
        "--filter",
        "fig7",
        "--out",
        cur.to_str().unwrap(),
        "--baseline",
        base.to_str().unwrap(),
        "--gate",
        "200",
    ]);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
    assert_eq!(r.code, Some(0), "self-compare must pass: {}", r.stderr);
    assert!(!r.stderr.contains("regression:"), "{}", r.stderr);
}

#[test]
fn injected_slowdown_trips_the_gate() {
    let base = scratch("injbase.json");
    let cur = scratch("injcur.json");
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);

    let r = run(&[
        "bench",
        "--quick",
        "--filter",
        "fig7",
        "--out",
        base.to_str().unwrap(),
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    // A 50 ms sleep injected into every timed sample dwarfs fig7's
    // millisecond-scale median; the gate must fail with exit code 3.
    let r = run_env(
        &[
            "bench",
            "--quick",
            "--filter",
            "fig7",
            "--out",
            cur.to_str().unwrap(),
            "--baseline",
            base.to_str().unwrap(),
            "--gate",
            "50",
        ],
        &[("DABENCH_INJECT", "fig7=sleep:0.05")],
    );
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
    assert_eq!(
        r.code,
        Some(3),
        "stdout: {}\nstderr: {}",
        r.stdout,
        r.stderr
    );
    assert!(r.stderr.contains("regression: fig7"), "{}", r.stderr);
}

#[test]
fn non_sleep_injection_is_rejected() {
    let out = scratch("injpanic.json");
    let _ = std::fs::remove_file(&out);
    let r = run_env(
        &[
            "bench",
            "--quick",
            "--filter",
            "fig7",
            "--out",
            out.to_str().unwrap(),
        ],
        &[("DABENCH_INJECT", "fig7=panic")],
    );
    assert_eq!(r.code, Some(1), "stderr: {}", r.stderr);
    assert!(
        r.stderr.contains("bench supports sleep:SECS only"),
        "{}",
        r.stderr
    );
    assert!(!out.exists(), "no report should be written");
}

#[test]
fn record_accumulates_trajectory_across_runs() {
    let out = scratch("traj.json");
    let _ = std::fs::remove_file(&out);

    let r = run(&[
        "bench",
        "--quick",
        "--filter",
        "fig7",
        "--out",
        out.to_str().unwrap(),
        "--record",
        "first-pass",
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    let r = run(&[
        "bench",
        "--quick",
        "--filter",
        "fig7",
        "--out",
        out.to_str().unwrap(),
        "--record",
        "second-pass",
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);

    let json = std::fs::read_to_string(&out).expect("report written");
    let _ = std::fs::remove_file(&out);
    assert!(json.contains("\"label\":\"first-pass\""), "{json}");
    assert!(json.contains("\"label\":\"second-pass\""), "{json}");
}

#[test]
fn unknown_filter_is_an_error() {
    let out = scratch("nomatch.json");
    let _ = std::fs::remove_file(&out);
    let r = run(&[
        "bench",
        "--quick",
        "--filter",
        "nosuchbench",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(r.code, Some(1), "stderr: {}", r.stderr);
    assert!(!out.exists(), "no report should be written");
}

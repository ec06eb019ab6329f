//! Golden snapshot tests: exact-byte pins of user-facing renderings.
//!
//! Each test runs the real `dabench` binary and diffs its output against a
//! checked-in snapshot under `tests/golden/`. Any change to a rendering —
//! down to a single character — fails the suite, so formatting and numeric
//! regressions cannot slip through a review unnoticed.
//!
//! To accept an intentional change, regenerate the snapshots:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p dabench --test golden
//! ```
//!
//! then review the diff like any other code change (see tests/README.md).

use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_dabench"))
        .args(args)
        .env_remove("DABENCH_INJECT")
        .output()
        .expect("binary runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Diff `actual` against `tests/golden/<name>`, or rewrite the snapshot
/// when `UPDATE_GOLDEN` is set. Failure messages point at the first
/// differing line so a one-character drift is easy to locate.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test -p dabench --test golden",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .map(|i| {
            format!(
                "first difference at line {}:\n  golden: {:?}\n  actual: {:?}",
                i + 1,
                expected.lines().nth(i).unwrap_or(""),
                actual.lines().nth(i).unwrap_or(""),
            )
        })
        .unwrap_or_else(|| {
            format!(
                "line counts differ: golden {} vs actual {}",
                expected.lines().count(),
                actual.lines().count()
            )
        });
    panic!(
        "output differs from golden snapshot {name}\n{mismatch}\n\
         if the change is intentional: UPDATE_GOLDEN=1 cargo test -p dabench --test golden"
    );
}

/// Zero out every timing-derived field (`kept`, `median_ns`, `mad_ns`,
/// `min_ns`, `max_ns`) so a BENCH report can be pinned as a golden
/// snapshot: what remains — schema, benchmark set and order, plans,
/// phases, counters, trajectory labels — is fully deterministic.
fn normalize_bench_timings(json: &str) -> String {
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
fn check_scorecard_matches_golden() {
    let r = run(&["check"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("check.stdout.golden", &r.stdout);
}

#[test]
fn table1_rendering_matches_golden() {
    let r = run(&["table1"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("table1.stdout.golden", &r.stdout);
}

#[test]
fn table3_rendering_matches_golden() {
    let r = run(&["table3"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("table3.stdout.golden", &r.stdout);
}

#[test]
fn bench_list_matches_golden() {
    let r = run(&["bench", "--list"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("bench_list.stdout.golden", &r.stdout);
}

#[test]
fn bench_report_shape_matches_golden() {
    // Pins the BENCH_sweeps.json structure end to end — schema string, the
    // benchmark roster in suite order, iteration plans, per-phase span
    // counts and obs counter totals from the profile pass — with the
    // machine-dependent timings normalized to zero.
    let out =
        std::env::temp_dir().join(format!("dabench_golden_bench_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let r = run(&["bench", "--quick", "--out", out.to_str().unwrap()]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    let json = std::fs::read_to_string(&out).expect("report written");
    let _ = std::fs::remove_file(&out);
    assert_golden("bench_report.shape.golden", &normalize_bench_timings(&json));
}

#[test]
fn infer_rendering_matches_golden() {
    // Pins both serving tables — the batch × prompt × KV-precision sweep
    // (including the OOM cells at the WSE/GPU capacity walls) and the
    // static-vs-continuous batching comparison.
    let r = run(&["infer"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("infer.stdout.golden", &r.stdout);
}

#[test]
fn infer_csv_matches_golden() {
    let r = run(&["csv", "infer"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("infer.csv.golden", &r.stdout);
}

#[test]
fn gen_tier_list_matches_golden() {
    let r = run(&["gen", "--list-tiers"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("gen_tiers.stdout.golden", &r.stdout);
}

#[test]
fn gen_baby_population_matches_golden() {
    // Pins the whole `dabench gen` rendering end to end: the sampled
    // population table (the seed-42 baby scenarios), every gen-v1 record,
    // the results matrix, the Elo/Pareto ranking report, and the
    // invariant summary. Any drift in the sampler, the platform models,
    // or the report shapes fails here first.
    let r = run(&["gen", "--tier", "baby", "--count", "8", "--seed", "42"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("gen_baby.stdout.golden", &r.stdout);
}

#[test]
fn gen_cosmic_population_matches_golden() {
    // Population scale on the deepest models: 70B-shaped LLaMA-2 with 8 KV
    // heads at 64-96 layers. Its 12 training scenarios reach ratio-3 O3
    // decoder runs, RDU tensor parallelism at 4/8/16, three faulted
    // single-chip degrade runs (at the RDU's DDR wall) and the WSE
    // weight-floor failure. The results print 4 significant digits, so
    // this pins structure (a wrong run length), not summation order.
    let r = run(&["gen", "--tier", "cosmic", "--count", "24", "--seed", "6"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("gen_cosmic.stdout.golden", &r.stdout);
}

#[test]
fn gen_hard_population_matches_golden() {
    let r = run(&["gen", "--tier", "hard", "--count", "24", "--seed", "3"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("gen_hard.stdout.golden", &r.stdout);
}

#[test]
fn gen_csv_matches_golden() {
    let r = run(&["csv", "gen"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("gen.csv.golden", &r.stdout);
}

#[test]
fn check_metrics_table_matches_golden() {
    // Pins the observability layer end to end: phase attribution, counter
    // totals, span counts, and the table format itself. The model is
    // analytic, so these figures are bit-stable across runs and hosts.
    let r = run(&["check", "--metrics"]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("check.metrics.golden", &r.stderr);
}

#[test]
fn faults_wse_resilience_matches_golden() {
    // The resilience report is the only output that prints recovery cost
    // (`recover_s`, the mean time-to-recover). This plan and the two below
    // pin it on every fault shape: transient stalls on all three, dead
    // column bands here, dead PCU/PMU populations on the RDU, and a
    // dropped IPU that re-splits 10 layers from [4, 4, 2] to [5, 5].
    let r = run(&[
        "faults",
        "wse",
        "--seed",
        "42",
        "--plan",
        "dead=0.05,link=0.9,stalls=2,drop=0",
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("faults_wse.stdout.golden", &r.stdout);
}

#[test]
fn faults_rdu_resilience_matches_golden() {
    let r = run(&[
        "faults",
        "rdu-o1",
        "--seed",
        "3",
        "--plan",
        "dead=0.2,link=0.5,stalls=3,drop=0",
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("faults_rdu_o1.stdout.golden", &r.stdout);
}

#[test]
fn faults_ipu_resilience_matches_golden() {
    let r = run(&[
        "faults",
        "ipu",
        "--seed",
        "7",
        "--plan",
        "dead=0.1,link=0.8,stalls=2,drop=1",
        "--layers",
        "10",
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    assert_golden("faults_ipu.stdout.golden", &r.stdout);
}

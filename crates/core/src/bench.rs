//! Deterministic macro-benchmark harness (`dabench bench`).
//!
//! The paper is a measurement study, and this module lets the repository
//! measure *itself*: a dependency-free runner that times named benchmark
//! bodies (whole experiments, or hot-path micro loops), summarizes the
//! samples with robust statistics (median / median absolute deviation,
//! outlier trimming), and emits a machine-readable report
//! ([`BENCH_SCHEMA`]) that can be compared against a committed baseline to
//! gate performance regressions.
//!
//! # Determinism model
//!
//! Only the *timings* in a report vary between runs. Everything structural
//! is a pure function of the inputs:
//!
//! - the iteration plan is a pure function of `(benchmark kind, --quick)`
//!   ([`iter_plan`]) — no adaptive sampling, no wall-clock-budget loops;
//! - JSON key order is fixed by the writer ([`BenchReport::to_json`]) and
//!   inverted exactly by [`BenchReport::parse`];
//! - the per-phase breakdown bridged from the [`crate::obs`]
//!   spans/counters is byte-identical at any `--jobs` (the recorder sorts
//!   by point path, not schedule).
//!
//! Timing sources are wall-clock ([`std::time::Instant`]), so the numbers
//! themselves are machine-dependent; the gate ([`regressions`]) therefore
//! takes a percentage tolerance and ignores sub-[`GATE_FLOOR_NS`] deltas.

use crate::jsonl::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Report schema identifier; bump when the JSON layout changes.
pub const BENCH_SCHEMA: &str = "dabench-bench-v1";

/// Absolute slack of the regression gate: a benchmark is never flagged
/// unless its median grew by at least this many nanoseconds. Keeps the
/// gate from firing on scheduler noise around micro-benchmarks whose
/// whole sample is a few microseconds.
pub const GATE_FLOOR_NS: u64 = 10_000;

// ---------------------------------------------------------------------------
// Benchmark kinds and iteration plans
// ---------------------------------------------------------------------------

/// What a benchmark body does, which decides its iteration plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BenchKind {
    /// A whole experiment rendering (`table1` … `sensitivity`): one body
    /// call per timed sample.
    Experiment,
    /// A sub-millisecond operation (one WSE compilation): a small inner
    /// loop per timed sample.
    Compile,
    /// A microsecond-scale operation (one memo-cache lookup): a large
    /// inner loop per timed sample.
    Micro,
}

impl BenchKind {
    /// Stable lower-case name used in reports and listings.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BenchKind::Experiment => "experiment",
            BenchKind::Compile => "compile",
            BenchKind::Micro => "micro",
        }
    }
}

/// A fixed iteration plan: `warmup` untimed body batches, then `iters`
/// timed samples of `inner` body executions each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterPlan {
    /// Untimed warmup batches (each runs `inner` body executions). Warmup
    /// also primes caches, so timed samples measure the steady state.
    pub warmup: u32,
    /// Timed samples.
    pub iters: u32,
    /// Body executions per timed sample; the reported nanoseconds are for
    /// the whole inner batch, not one execution.
    pub inner: u32,
}

/// The iteration plan for a benchmark — a *pure function* of the
/// benchmark's kind and the `--quick` flag, never of measured time.
#[must_use]
pub fn iter_plan(kind: BenchKind, quick: bool) -> IterPlan {
    match (kind, quick) {
        (BenchKind::Experiment, false) => IterPlan {
            warmup: 3,
            iters: 30,
            inner: 1,
        },
        (BenchKind::Experiment, true) => IterPlan {
            warmup: 1,
            iters: 5,
            inner: 1,
        },
        (BenchKind::Compile, false) => IterPlan {
            warmup: 3,
            iters: 30,
            inner: 8,
        },
        (BenchKind::Compile, true) => IterPlan {
            warmup: 1,
            iters: 7,
            inner: 4,
        },
        (BenchKind::Micro, false) => IterPlan {
            warmup: 5,
            iters: 40,
            inner: 1024,
        },
        (BenchKind::Micro, true) => IterPlan {
            warmup: 2,
            iters: 9,
            inner: 256,
        },
    }
}

/// Time `body` under `plan`: warmup batches first, then one duration
/// sample per timed batch, in nanoseconds.
///
/// `pre` runs once *inside* each timed sample, before the inner loop —
/// it exists for the `DABENCH_INJECT` sleep hook, so an injected slowdown
/// lands in the measured window exactly once per sample regardless of
/// `inner`. Pass `|| {}` for a clean run.
pub fn run_samples(plan: IterPlan, mut pre: impl FnMut(), mut body: impl FnMut()) -> Vec<u64> {
    for _ in 0..plan.warmup {
        for _ in 0..plan.inner {
            body();
        }
    }
    let mut samples = Vec::with_capacity(plan.iters as usize);
    for _ in 0..plan.iters {
        let start = std::time::Instant::now();
        pre();
        for _ in 0..plan.inner {
            body();
        }
        let ns = start.elapsed().as_nanos();
        samples.push(u64::try_from(ns).unwrap_or(u64::MAX));
    }
    samples
}

// ---------------------------------------------------------------------------
// Robust statistics
// ---------------------------------------------------------------------------

/// Median of `samples` (mean of the two middle values for even counts,
/// rounded down). Returns 0 for an empty slice.
#[must_use]
pub fn median_ns(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    match sorted.len() {
        0 => 0,
        n if n % 2 == 1 => sorted[n / 2],
        n => midpoint(sorted[n / 2 - 1], sorted[n / 2]),
    }
}

/// Mean of two u64s without overflow, rounded down.
fn midpoint(a: u64, b: u64) -> u64 {
    (a / 2) + (b / 2) + (a % 2 + b % 2) / 2
}

/// Median absolute deviation: the median of `|x - median(samples)|`.
/// Returns 0 for an empty slice.
#[must_use]
pub fn mad_ns(samples: &[u64]) -> u64 {
    let m = median_ns(samples);
    let devs: Vec<u64> = samples.iter().map(|&x| x.abs_diff(m)).collect();
    median_ns(&devs)
}

/// The minimum number of samples [`trim`] must keep from `n` samples:
/// at least half (rounded up), and never more than `n` itself.
#[must_use]
pub fn trim_floor(n: usize) -> usize {
    n.div_ceil(2)
}

/// Outlier trimming: drop samples deviating from the median by more than
/// `4 × MAD`, but never drop below [`trim_floor`] kept samples.
///
/// Rules, in order (all deterministic):
///
/// 1. the median and MAD are computed over the *full* sample set;
/// 2. if the MAD is zero, nothing is trimmed;
/// 3. samples with `|x - median| > 4 × MAD` are outliers;
/// 4. if trimming all outliers would leave fewer than `trim_floor(n)`
///    samples, the least-deviant outliers (ties broken by value, then by
///    input order) are re-admitted until the floor holds.
///
/// Returns the kept samples, sorted ascending.
#[must_use]
pub fn trim(samples: &[u64]) -> Vec<u64> {
    let n = samples.len();
    if n == 0 {
        return Vec::new();
    }
    let m = median_ns(samples);
    let d = mad_ns(samples);
    if d == 0 {
        let mut kept = samples.to_vec();
        kept.sort_unstable();
        return kept;
    }
    let bound = d.saturating_mul(4);
    // Sort by (deviation, value): the prefix of this order is always the
    // most-central subset, so taking max(kept-by-rule, floor) elements is
    // exactly "re-admit the least-deviant outliers".
    let mut by_dev: Vec<u64> = samples.to_vec();
    by_dev.sort_unstable_by_key(|&x| (x.abs_diff(m), x));
    let within = by_dev.iter().filter(|&&x| x.abs_diff(m) <= bound).count();
    let keep = within.max(trim_floor(n));
    let mut kept = by_dev[..keep].to_vec();
    kept.sort_unstable();
    kept
}

/// Robust summary of one benchmark's samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Samples surviving [`trim`].
    pub kept: u32,
    /// Median of the kept samples, nanoseconds.
    pub median_ns: u64,
    /// MAD of the kept samples, nanoseconds.
    pub mad_ns: u64,
    /// Minimum over *all* samples (pre-trim), nanoseconds.
    pub min_ns: u64,
    /// Maximum over *all* samples (pre-trim), nanoseconds.
    pub max_ns: u64,
}

/// Trim `samples` and summarize: median/MAD over the kept set, min/max
/// over the full set.
#[must_use]
pub fn summarize(samples: &[u64]) -> Summary {
    let kept = trim(samples);
    Summary {
        kept: kept.len() as u32,
        median_ns: median_ns(&kept),
        mad_ns: mad_ns(&kept),
        min_ns: samples.iter().copied().min().unwrap_or(0),
        max_ns: samples.iter().copied().max().unwrap_or(0),
    }
}

// ---------------------------------------------------------------------------
// Report structure
// ---------------------------------------------------------------------------

/// Span count of one phase, bridged from the [`crate::obs`] profile pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase name (`compile`, `place`, `partition`, `execute`, `collect`).
    pub phase: String,
    /// Completed spans attributed to the phase during one body execution.
    pub spans: u64,
}

/// Total of one obs counter key during one body execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRow {
    /// Counter key, e.g. `wse.allocated_pes`.
    pub key: String,
    /// Sum of all samples of the key (across phases).
    pub total: f64,
}

/// One benchmark's record in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (`table1`, `cache_lookup_hit`, …).
    pub name: String,
    /// Kind, which fixed the iteration plan.
    pub kind: BenchKind,
    /// The plan that produced the samples.
    pub plan: IterPlan,
    /// Robust timing summary.
    pub summary: Summary,
    /// Per-phase span counts from the deterministic profile pass.
    pub phases: Vec<PhaseRow>,
    /// Obs counter totals from the deterministic profile pass.
    pub counters: Vec<CounterRow>,
}

/// One entry of the perf trajectory: a median measured at a named moment
/// (e.g. `pr5-pre-optimization`), kept across report rewrites so
/// `BENCH_sweeps.json` records before/after pairs for optimizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryEntry {
    /// Benchmark the median belongs to.
    pub bench: String,
    /// Free-form label of the moment (`--record LABEL`).
    pub label: String,
    /// Median at that moment, nanoseconds.
    pub median_ns: u64,
}

/// A complete bench report (`BENCH_sweeps.json`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Whether the CI-sized `--quick` plans were used.
    pub quick: bool,
    /// One record per benchmark run, in suite order.
    pub benchmarks: Vec<BenchRecord>,
    /// Accumulated before/after medians (see [`TrajectoryEntry`]).
    pub trajectory: Vec<TrajectoryEntry>,
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// One gated regression: a benchmark whose median exceeded the baseline
/// by more than the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
    /// Current median, nanoseconds.
    pub current_ns: u64,
    /// Slowdown in percent over the baseline.
    pub slowdown_pct: f64,
}

/// Compare `current` against `baseline` with a `gate_pct` tolerance.
///
/// A benchmark regresses when its median exceeds the baseline median by
/// more than `gate_pct` percent *and* by at least [`GATE_FLOOR_NS`].
/// Benchmarks present in only one report are ignored (the shape gate is
/// the golden test's job, not the timing gate's).
#[must_use]
pub fn regressions(
    current: &BenchReport,
    baseline: &BenchReport,
    gate_pct: f64,
) -> Vec<Regression> {
    let base: BTreeMap<&str, u64> = baseline
        .benchmarks
        .iter()
        .map(|b| (b.name.as_str(), b.summary.median_ns))
        .collect();
    let mut out = Vec::new();
    for b in &current.benchmarks {
        let Some(&base_ns) = base.get(b.name.as_str()) else {
            continue;
        };
        let cur_ns = b.summary.median_ns;
        let allowed = base_ns as f64 * (1.0 + gate_pct / 100.0);
        if cur_ns as f64 > allowed && cur_ns.saturating_sub(base_ns) >= GATE_FLOOR_NS {
            let slowdown_pct = if base_ns == 0 {
                f64::INFINITY
            } else {
                (cur_ns as f64 / base_ns as f64 - 1.0) * 100.0
            };
            out.push(Regression {
                name: b.name.clone(),
                baseline_ns: base_ns,
                current_ns: cur_ns,
                slowdown_pct,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

impl BenchReport {
    /// Serialize with fixed key order: one benchmark (or trajectory
    /// entry) per line, flat hand-rolled JSON like the run journal.
    /// [`BenchReport::parse`] inverts the output exactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "\"schema\":\"{BENCH_SCHEMA}\",");
        let _ = writeln!(out, "\"quick\":{},", self.quick);
        out.push_str("\"benchmarks\":[");
        for (i, b) in self.benchmarks.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"warmup\":{},\"iters\":{},\"inner\":{},\
                 \"kept\":{},\"median_ns\":{},\"mad_ns\":{},\"min_ns\":{},\"max_ns\":{},\
                 \"phases\":[",
                jsonl::escape(&b.name),
                b.kind.as_str(),
                b.plan.warmup,
                b.plan.iters,
                b.plan.inner,
                b.summary.kept,
                b.summary.median_ns,
                b.summary.mad_ns,
                b.summary.min_ns,
                b.summary.max_ns,
            );
            for (j, p) in b.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"phase\":\"{}\",\"spans\":{}}}",
                    jsonl::escape(&p.phase),
                    p.spans
                );
            }
            out.push_str("],\"counters\":[");
            for (j, c) in b.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"key\":\"{}\",\"total\":{}}}",
                    jsonl::escape(&c.key),
                    jsonl::number(c.total)
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n],\n\"trajectory\":[");
        for (i, t) in self.trajectory.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"bench\":\"{}\",\"label\":\"{}\",\"median_ns\":{}}}",
                jsonl::escape(&t.bench),
                jsonl::escape(&t.label),
                t.median_ns
            );
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Parse a report [`BenchReport::to_json`] wrote, keys in any order.
    ///
    /// # Errors
    ///
    /// The first deviation: a JSON error naming its byte offset, a
    /// missing, unknown, repeated or mistyped key, a number its field
    /// cannot hold, or a foreign schema.
    pub fn parse(text: &str) -> Result<Self, String> {
        Fields::read(jsonl::parse(text)?, |report| {
            let schema = report.string("schema")?;
            if schema != BENCH_SCHEMA {
                return Err(format!(
                    "unsupported bench schema {schema:?} (expected {BENCH_SCHEMA:?})"
                ));
            }
            let Value::Bool(quick) = report.take("quick")? else {
                return Err("quick: expected true or false".to_owned());
            };
            Ok(BenchReport {
                quick,
                benchmarks: report.list("benchmarks", |b| {
                    let kind = b.string("kind")?;
                    Ok(BenchRecord {
                        name: b.string("name")?,
                        kind: [BenchKind::Experiment, BenchKind::Compile, BenchKind::Micro]
                            .into_iter()
                            .find(|k| k.as_str() == kind)
                            .ok_or_else(|| format!("unknown bench kind {kind:?}"))?,
                        plan: IterPlan {
                            warmup: b.number("warmup")?,
                            iters: b.number("iters")?,
                            inner: b.number("inner")?,
                        },
                        summary: Summary {
                            kept: b.number("kept")?,
                            median_ns: b.number("median_ns")?,
                            mad_ns: b.number("mad_ns")?,
                            min_ns: b.number("min_ns")?,
                            max_ns: b.number("max_ns")?,
                        },
                        phases: b.list("phases", |p| {
                            Ok(PhaseRow {
                                phase: p.string("phase")?,
                                spans: p.number("spans")?,
                            })
                        })?,
                        counters: b.list("counters", |c| {
                            Ok(CounterRow {
                                key: c.string("key")?,
                                total: c.number("total")?,
                            })
                        })?,
                    })
                })?,
                trajectory: report.list("trajectory", |t| {
                    Ok(TrajectoryEntry {
                        bench: t.string("bench")?,
                        label: t.string("label")?,
                        median_ns: t.number("median_ns")?,
                    })
                })?,
            })
        })
    }
}

/// The pairs of one report object, taken out by key as it is read.
struct Fields(Vec<(String, Value)>);

type Parsed<T> = Result<T, String>;

impl Fields {
    /// Read the object `value` with `item`; a key `item` did not take is
    /// unknown or repeated, and an error.
    fn read<T>(value: Value, item: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        let Value::Object(pairs) = value else {
            return Err("expected an object".to_owned());
        };
        let mut fields = Fields(pairs);
        let parsed = item(&mut fields)?;
        match fields.0.first() {
            Some((key, _)) => Err(format!("unknown or repeated key {key:?}")),
            None => Ok(parsed),
        }
    }

    fn take(&mut self, key: &str) -> Parsed<Value> {
        let found = self.0.iter().position(|(k, _)| k == key);
        let i = found.ok_or_else(|| format!("missing key {key:?}"))?;
        Ok(self.0.remove(i).1)
    }

    fn string(&mut self, key: &str) -> Parsed<String> {
        match self.take(key)? {
            Value::String(s) => Ok(s),
            _ => Err(format!("{key}: expected a string")),
        }
    }

    /// The number at `key` as a `T`: one `T` cannot hold (a plan field
    /// wider than `u32`, say) is an error naming the key, never truncated.
    fn number<T: std::str::FromStr>(&mut self, key: &str) -> Parsed<T> {
        match self.take(key)? {
            Value::Number(n) => n
                .parse()
                .map_err(|_| format!("{key}: {n} is not a {}", std::any::type_name::<T>())),
            _ => Err(format!("{key}: expected a number")),
        }
    }

    /// The array at `key`, each of its objects read with `f`.
    fn list<T>(&mut self, key: &str, mut f: impl FnMut(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        let Value::Array(values) = self.take(key)? else {
            return Err(format!("{key}: expected an array"));
        };
        let read = |(i, v)| Self::read(v, &mut f).map_err(|e| format!("{key}[{i}]: {e}"));
        values.into_iter().enumerate().map(read).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median_ns(&[]), 0);
        assert_eq!(median_ns(&[7]), 7);
        assert_eq!(median_ns(&[3, 1, 2]), 2);
        assert_eq!(median_ns(&[1, 2, 3, 10]), 2);
        // Overflow-safe midpoint.
        assert_eq!(median_ns(&[u64::MAX, u64::MAX - 1]), u64::MAX - 1);
    }

    #[test]
    fn mad_is_zero_for_constant_samples() {
        assert_eq!(mad_ns(&[5, 5, 5, 5]), 0);
        assert_eq!(mad_ns(&[1, 1, 1, 100]), 0);
        assert_eq!(mad_ns(&[10, 20, 30]), 10);
    }

    #[test]
    fn trim_drops_far_outliers_but_respects_floor() {
        // Median 10, MAD 1: 1000 deviates by 990 > 4.
        let kept = trim(&[9, 10, 10, 11, 1000]);
        assert_eq!(kept, vec![9, 10, 10, 11]);
        // All-equal MAD=0: nothing trimmed.
        assert_eq!(trim(&[4, 4, 4]), vec![4, 4, 4]);
        // Floor: n=2, floor=1, extreme spread keeps at least 1.
        let kept = trim(&[1, 1_000_000]);
        assert!(kept.len() >= trim_floor(2));
    }

    #[test]
    fn summarize_reports_pre_trim_extremes() {
        let s = summarize(&[9, 10, 10, 11, 1000]);
        assert_eq!(s.kept, 4);
        assert_eq!(s.median_ns, 10);
        assert_eq!(s.min_ns, 9);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn iter_plan_is_stable_and_quick_shrinks_work() {
        for kind in [BenchKind::Experiment, BenchKind::Compile, BenchKind::Micro] {
            assert_eq!(iter_plan(kind, false), iter_plan(kind, false));
            assert_eq!(iter_plan(kind, true), iter_plan(kind, true));
            let full = iter_plan(kind, false);
            let quick = iter_plan(kind, true);
            let work = |p: IterPlan| (p.warmup + p.iters) as u64 * p.inner as u64;
            assert!(work(quick) < work(full), "{kind:?}");
        }
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            quick: true,
            benchmarks: vec![BenchRecord {
                name: "table\"1".to_owned(),
                kind: BenchKind::Experiment,
                plan: iter_plan(BenchKind::Experiment, true),
                summary: Summary {
                    kept: 5,
                    median_ns: 123,
                    mad_ns: 4,
                    min_ns: 100,
                    max_ns: 999,
                },
                phases: vec![PhaseRow {
                    phase: "compile".to_owned(),
                    spans: 12,
                }],
                counters: vec![CounterRow {
                    key: "wse.allocated_pes".to_owned(),
                    total: 0.1 + 0.2,
                }],
            }],
            trajectory: vec![TrajectoryEntry {
                bench: "cache_lookup_hit".to_owned(),
                label: "pre\nopt".to_owned(),
                median_ns: 42,
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = report.to_json();
        let parsed = BenchReport::parse(&json).expect("parses");
        assert_eq!(parsed, report);
        // Canonical: re-serializing the parse reproduces the bytes.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = BenchReport::default();
        let parsed = BenchReport::parse(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(BenchReport::parse("").is_err());
        assert!(BenchReport::parse("{}").is_err());
        let wrong = sample_report().to_json().replace(BENCH_SCHEMA, "v0");
        assert!(BenchReport::parse(&wrong).is_err());
        let trailing = format!("{}x", sample_report().to_json());
        assert!(BenchReport::parse(&trailing).is_err());
    }

    #[test]
    fn parse_rejects_plan_fields_wider_than_u32() {
        let report = sample_report();
        let b = &report.benchmarks[0];
        let json = report.to_json();
        for (key, value) in [
            ("warmup", b.plan.warmup),
            ("iters", b.plan.iters),
            ("inner", b.plan.inner),
            ("kept", b.summary.kept),
        ] {
            // 2^32 + 1 would read back as 1 through an `as u32` cast.
            let wide = json.replace(
                &format!("\"{key}\":{value},"),
                &format!("\"{key}\":4294967297,"),
            );
            assert_ne!(wide, json, "{key} not found");
            let err = BenchReport::parse(&wide).expect_err(key);
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn parse_rejects_missing_unknown_repeated_and_mistyped_keys() {
        let json = sample_report().to_json();
        let mad = "\"mad_ns\":4,";
        for (from, to, needle) in [
            (mad, "", "benchmarks[0]: missing key \"mad_ns\""),
            (
                mad,
                "\"mad_ns\":4,\"extra\":1,",
                "unknown or repeated key \"extra\"",
            ),
            (
                mad,
                "\"mad_ns\":4,\"mad_ns\":4,",
                "unknown or repeated key \"mad_ns\"",
            ),
            (mad, "\"mad_ns\":\"4\",", "mad_ns: expected a number"),
            (mad, "\"mad_ns\":-4,", "mad_ns: -4 is not a u64"),
            (
                "\"quick\":true",
                "\"quick\":1",
                "quick: expected true or false",
            ),
            (
                "\"experiment\"",
                "\"macro\"",
                "unknown bench kind \"macro\"",
            ),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "{from} not found");
            let err = BenchReport::parse(&bad).expect_err(needle);
            assert!(err.contains(needle), "{needle}: {err}");
        }
        // Key order is free.
        let reordered = json
            .replacen(mad, "", 1)
            .replacen("\"kept\"", "\"mad_ns\":4,\"kept\"", 1);
        assert_eq!(BenchReport::parse(&reordered), Ok(sample_report()));
    }

    #[test]
    fn regression_gate_flags_only_real_slowdowns() {
        let mut base = sample_report();
        base.benchmarks[0].name = "b".to_owned();
        base.benchmarks[0].summary.median_ns = 1_000_000;
        let mut cur = base.clone();

        // Within tolerance: no regression.
        cur.benchmarks[0].summary.median_ns = 1_200_000;
        assert!(regressions(&cur, &base, 50.0).is_empty());

        // Past tolerance and past the absolute floor: flagged.
        cur.benchmarks[0].summary.median_ns = 3_000_000;
        let r = regressions(&cur, &base, 50.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].name, "b");
        assert!((r[0].slowdown_pct - 200.0).abs() < 1e-9);

        // Past tolerance but under the absolute floor: ignored.
        base.benchmarks[0].summary.median_ns = 100;
        cur.benchmarks[0].summary.median_ns = 1_000;
        assert!(regressions(&cur, &base, 50.0).is_empty());

        // Unknown benchmark names are ignored.
        cur.benchmarks[0].name = "other".to_owned();
        cur.benchmarks[0].summary.median_ns = u64::MAX;
        assert!(regressions(&cur, &base, 50.0).is_empty());
    }

    #[test]
    fn run_samples_honors_the_plan() {
        let mut calls = 0u32;
        let plan = IterPlan {
            warmup: 2,
            iters: 3,
            inner: 5,
        };
        let samples = run_samples(plan, || {}, || calls += 1);
        assert_eq!(samples.len(), 3);
        assert_eq!(calls, (2 + 3) * 5);
    }
}

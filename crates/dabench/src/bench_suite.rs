//! The `dabench bench` macro-benchmark suite: named benchmark bodies over
//! the real experiment suite plus hot-path micro/compile benchmarks, run
//! under the deterministic harness of [`crate::core::bench`].
//!
//! Design notes (see `docs/benchmarking.md`):
//!
//! - every *experiment* benchmark times [`crate::suite::render_experiment`]
//!   — the exact text path the CLI prints, so the harness and the CLI can
//!   never drift apart;
//! - the Tier-1 memo cache and the incremental compile cache are cleared
//!   before each benchmark and repopulated by the warmup batches, so timed
//!   samples measure the deterministic steady state;
//! - cases run sequentially (timing under contention is noise), but the
//!   bodies themselves use `par_map` internally, and the obs-bridged
//!   per-phase breakdown is byte-identical at any `--jobs`.

use crate::core::bench::{
    iter_plan, regressions, run_samples, summarize, BenchKind, BenchRecord, BenchReport,
    CounterRow, PhaseRow,
};
use crate::core::cache::clear_tier1_cache;
use crate::core::shard::{merge_journals, plan_shards};
use crate::core::supervise::{
    parse_injections, Injection, JournalRecord, ParsedJournal, SHARD_CONTROL_LABEL,
    STATUS_HEARTBEAT, STATUS_SHARD_META, STATUS_STARTED,
};
use crate::core::{obs, tier1_cached};
use crate::experiments::validation;
use crate::flags::Flags;
use crate::model::{InferenceWorkload, ModelConfig, Precision, TrainingWorkload};
use crate::suite::render_experiment;
use crate::wse::{compile, Wse, WseCompilerParams, WseSpec};
use std::collections::BTreeMap;
use std::hint::black_box;

/// One named benchmark in the suite.
#[derive(Debug, Clone, Copy)]
pub struct BenchCase {
    /// Stable benchmark name (also the `DABENCH_INJECT` / `--filter` key).
    pub name: &'static str,
    /// Kind, which fixes the iteration plan.
    pub kind: BenchKind,
}

/// The full suite, in report order: every paper artifact, the scorecard,
/// then the hot-path compile and micro benchmarks.
pub const CASES: [BenchCase; 22] = [
    BenchCase {
        name: "table1",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "table2",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "table3",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "table4",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "fig6",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "fig7",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "fig8",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "fig9",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "fig10",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "fig11",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "fig12",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "check",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "ablations",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "sensitivity",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "infer",
        kind: BenchKind::Experiment,
    },
    BenchCase {
        name: "wse_compile_deep",
        kind: BenchKind::Compile,
    },
    BenchCase {
        name: "graph_build_interned",
        kind: BenchKind::Compile,
    },
    BenchCase {
        name: "sweep_incremental_compile",
        kind: BenchKind::Compile,
    },
    BenchCase {
        name: "journal_merge_1k",
        kind: BenchKind::Compile,
    },
    BenchCase {
        name: "cache_lookup_hit",
        kind: BenchKind::Micro,
    },
    BenchCase {
        name: "infer_decode_step",
        kind: BenchKind::Micro,
    },
    BenchCase {
        name: "shard_partition_plan",
        kind: BenchKind::Micro,
    },
];

/// The probe workloads cycled through by the cache-lookup benchmarks.
fn cache_probe_workloads() -> Vec<TrainingWorkload> {
    [2u64, 3, 4, 6]
        .iter()
        .map(|&l| TrainingWorkload::new(ModelConfig::gpt2_probe(768, l), 8, 512, Precision::Fp16))
        .collect()
}

/// The deep-model workload of `wse_compile_deep` — 72 decoder layers, the
/// deepest passing point of Table I, where the elastic compiler's
/// budget-shrink retry loop fires 3 times before placement fits.
fn deep_compile_workload() -> TrainingWorkload {
    TrainingWorkload::new(ModelConfig::gpt2_probe(768, 72), 256, 1024, Precision::Fp16)
}

/// Build the body closure of one benchmark. Setup (platform construction,
/// cache warming) happens here, outside the timed region; the caller is
/// expected to have cleared the Tier-1 memo cache first so every run sees
/// the same cache state.
///
/// # Panics
///
/// Panics on an unknown name — [`CASES`] is the authoritative list.
#[must_use]
fn make_body(name: &str) -> Box<dyn FnMut()> {
    match name {
        "check" => Box::new(|| {
            let checks = validation::run();
            black_box(validation::render(&checks));
        }),
        "wse_compile_deep" => {
            let spec = WseSpec::default();
            let params = WseCompilerParams::default();
            let w = deep_compile_workload();
            Box::new(move || {
                black_box(compile(&spec, &params, &w, None)).expect("deep compile succeeds");
            })
        }
        "graph_build_interned" => {
            // Cold construction of the interned arena graph for the deep
            // 72-layer workload: one interner, contiguous node/edge
            // storage, CSR adjacency — no memoization in the loop (the
            // compile cache is bypassed by calling the builder directly).
            let w = deep_compile_workload();
            Box::new(move || {
                black_box(crate::graph::GraphBuilder::for_workload(&w));
            })
        }
        "sweep_incremental_compile" => {
            // A 16-point batch-size sweep compiled through the incremental
            // cache: the body clears the compile cache, pays one full
            // build, then 15 diff-and-patch recompilations (same topology,
            // costs patched in place). This is the sweep-side win of the
            // interned-graph rework; compare against `graph_build_interned`
            // × 16 for the non-incremental cost.
            let points: Vec<TrainingWorkload> = (1..=16)
                .map(|i| {
                    TrainingWorkload::new(
                        ModelConfig::gpt2_probe(768, 72),
                        16 * i,
                        1024,
                        Precision::Fp16,
                    )
                })
                .collect();
            Box::new(move || {
                crate::core::clear_compile_cache();
                for w in &points {
                    black_box(crate::core::training_graph(w));
                }
            })
        }
        "journal_merge_1k" => {
            // The shard merge hot path: 1000 points spread across 4 shard
            // journals (with started/heartbeat control noise and a sprinkle
            // of failure records), folded back into the canonical combined
            // journal. All sources are built here, outside the timed region.
            let order: Vec<String> = (0..1000).map(|i| format!("point-{i:04}")).collect();
            let sources: Vec<ParsedJournal> = plan_shards(&order, 4)
                .iter()
                .enumerate()
                .map(|(k, labels)| {
                    let mut records = vec![JournalRecord {
                        label: SHARD_CONTROL_LABEL.to_owned(),
                        status: Some(STATUS_SHARD_META.to_owned()),
                        data: Some(format!("shard={k}")),
                    }];
                    for (j, label) in labels.iter().enumerate() {
                        records.push(JournalRecord {
                            label: label.clone(),
                            status: Some(STATUS_STARTED.to_owned()),
                            data: Some("life=0".to_owned()),
                        });
                        if j % 97 == 5 {
                            records.push(JournalRecord {
                                label: label.clone(),
                                status: Some("failed".to_owned()),
                                data: Some("injected failure".to_owned()),
                            });
                        } else {
                            records.push(JournalRecord {
                                label: label.clone(),
                                status: Some("completed".to_owned()),
                                data: Some(format!("rendered output for {label}\n")),
                            });
                            records.push(JournalRecord {
                                label: label.clone(),
                                status: Some("metrics".to_owned()),
                                data: Some(format!("point/{label} spans=3 counters=2")),
                            });
                        }
                        if j % 13 == 0 {
                            records.push(JournalRecord {
                                label: SHARD_CONTROL_LABEL.to_owned(),
                                status: Some(STATUS_HEARTBEAT.to_owned()),
                                data: Some(format!("beat={j}")),
                            });
                        }
                    }
                    ParsedJournal {
                        records,
                        valid_bytes: 0,
                        dropped_tail: None,
                    }
                })
                .collect();
            let synthetic = BTreeMap::new();
            Box::new(move || {
                black_box(merge_journals(&order, &sources, &synthetic));
            })
        }
        "cache_lookup_hit" => {
            let wse = Wse::default();
            let workloads = cache_probe_workloads();
            for w in &workloads {
                tier1_cached(&wse, w).expect("probe workload profiles");
            }
            let mut i = 0usize;
            Box::new(move || {
                let w = &workloads[i % workloads.len()];
                i += 1;
                black_box(tier1_cached(&wse, w)).expect("warm lookup");
            })
        }
        "infer_decode_step" => {
            // Hot inner loop of the inference profiler: summing per-step
            // decode costs over a growing KV cache, priced at the storage
            // precision. No platform in the loop — this pins the model-side
            // accounting alone.
            let w =
                InferenceWorkload::new(ModelConfig::llama2_7b(), 32, 2048, 128, Precision::Fp16)
                    .expect("decode bench workload is valid")
                    .with_kv_precision(Precision::Fp8);
            Box::new(move || {
                black_box(w.decode_cost());
            })
        }
        "shard_partition_plan" => {
            // Deterministic round-robin partition of a large sweep into 7
            // worker shards — the parent-side planning step of
            // `dabench all --shards N`. Label construction stays outside
            // the timed region; the body pays only the plan (and its
            // per-shard label clones, which the real parent pays too).
            let labels: Vec<String> = (0..256).map(|i| format!("sweep-point-{i:03}")).collect();
            Box::new(move || {
                black_box(plan_shards(&labels, 7));
            })
        }
        experiment => {
            let name = experiment.to_owned();
            assert!(
                render_experiment(&name).is_some(),
                "unknown benchmark `{name}`"
            );
            Box::new(move || {
                black_box(render_experiment(&name));
            })
        }
    }
}

/// Run one extra, untimed execution of `body` with the obs recorder on and
/// bridge the trace into the report's per-phase breakdown: completed spans
/// per phase and counter totals per key. Deterministic and `--jobs`-
/// invariant because the recorder merges traces by point path.
pub fn profile_case(
    index: u64,
    name: &str,
    body: &mut dyn FnMut(),
) -> (Vec<PhaseRow>, Vec<CounterRow>) {
    obs::enable();
    obs::with_point(index, name, body);
    let traces = obs::take();
    obs::disable();

    let mut phase_acc: BTreeMap<&'static str, u64> = BTreeMap::new();
    for row in obs::span_rows(&traces) {
        *phase_acc.entry(row.phase).or_insert(0) += row.samples;
    }
    let mut counter_acc: BTreeMap<String, f64> = BTreeMap::new();
    for row in obs::counter_rows(&traces) {
        *counter_acc.entry(row.name).or_insert(0.0) += row.total;
    }
    (
        phase_acc
            .into_iter()
            .map(|(phase, spans)| PhaseRow {
                phase: phase.to_owned(),
                spans,
            })
            .collect(),
        counter_acc
            .into_iter()
            .map(|(key, total)| CounterRow { key, total })
            .collect(),
    )
}

/// Options of the `bench` subcommand.
#[derive(Debug)]
pub struct BenchOpts {
    /// Use the CI-sized iteration plans.
    pub quick: bool,
    /// Print the suite (names, kinds, full-mode plans) and exit.
    pub list: bool,
    /// Report destination (default `BENCH_sweeps.json`).
    pub out: std::path::PathBuf,
    /// Baseline report to gate against.
    pub baseline: Option<std::path::PathBuf>,
    /// Regression tolerance in percent (with `--baseline`).
    pub gate_pct: f64,
    /// Only run benchmarks whose name contains this substring.
    pub filter: Option<String>,
    /// Append `(bench, label, median)` trajectory entries for this run.
    pub record: Option<String>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            quick: false,
            list: false,
            out: "BENCH_sweeps.json".into(),
            baseline: None,
            gate_pct: 25.0,
            filter: None,
            record: None,
        }
    }
}

/// Parse `bench` flags.
///
/// # Errors
///
/// Unknown flags, missing values, or a non-positive/non-finite `--gate`.
pub fn parse_bench_opts(args: &[String]) -> Result<BenchOpts, String> {
    let mut opts = BenchOpts::default();
    let mut flags = Flags::new("bench", args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--quick" => opts.quick = true,
            "--list" => opts.list = true,
            "--out" => opts.out = flags.value()?.into(),
            "--baseline" => opts.baseline = Some(flags.value()?.into()),
            "--gate" => {
                let pct: f64 = flags.parse()?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(flags.error(format_args!("{pct} is not a non-negative percentage")));
                }
                opts.gate_pct = pct;
            }
            "--filter" => opts.filter = Some(flags.value()?.to_owned()),
            "--record" => opts.record = Some(flags.value()?.to_owned()),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

/// The `DABENCH_INJECT` sleeps for the bench runner: `name=sleep:SECS`
/// clauses slow the named benchmark down inside its timed window (one
/// sleep per timed sample) — the hook the regression-gate integration
/// tests use. Any other action is rejected: the bench runner has no
/// isolation layer to catch a panic or an injected error.
fn parse_sleep_injections() -> Result<BTreeMap<String, f64>, String> {
    let mut sleeps = BTreeMap::new();
    for (name, injection) in parse_injections()? {
        let Injection::SleepSecs(secs) = injection else {
            return Err(format!(
                "DABENCH_INJECT `{name}`: bench supports sleep:SECS only"
            ));
        };
        sleeps.insert(name, secs);
    }
    Ok(sleeps)
}

/// The `--list` text: one line per benchmark with its kind and full-mode
/// iteration plan (quick plans shown alongside). Pure function of the
/// suite — this is what the golden snapshot pins.
#[must_use]
pub fn render_list() -> String {
    let mut out = String::new();
    out.push_str("benchmark            kind        full (warmup/iters/inner)  quick\n");
    for case in CASES {
        let full = iter_plan(case.kind, false);
        let quick = iter_plan(case.kind, true);
        out.push_str(&format!(
            "{:<20} {:<11} {:>3}/{}/{:<18} {}/{}/{}\n",
            case.name,
            case.kind.as_str(),
            full.warmup,
            full.iters,
            full.inner,
            quick.warmup,
            quick.iters,
            quick.inner,
        ));
    }
    out
}

/// Run the `bench` subcommand. Returns the process exit code: 0 on
/// success, 3 when `--baseline` gating found regressions.
///
/// # Errors
///
/// Flag errors, unreadable/malformed baseline or output files, and bad
/// `DABENCH_INJECT` clauses.
pub fn run_bench(args: &[String]) -> Result<u8, String> {
    let opts = parse_bench_opts(args)?;
    if opts.list {
        print!("{}", render_list());
        return Ok(0);
    }
    let injections = parse_sleep_injections()?;
    // The bench runner owns the recorder: timing runs with it off (the
    // memo cache stays active, as in production), profile passes toggle
    // it per case.
    obs::disable();

    let selected: Vec<BenchCase> = CASES
        .iter()
        .copied()
        .filter(|c| opts.filter.as_deref().is_none_or(|f| c.name.contains(f)))
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "--filter {:?} matches no benchmark (see `dabench bench --list`)",
            opts.filter.unwrap_or_default()
        ));
    }

    let mut benchmarks = Vec::with_capacity(selected.len());
    for (i, case) in selected.iter().enumerate() {
        let plan = iter_plan(case.kind, opts.quick);
        // Identical cache state for every run: cleared here, repopulated
        // by setup + warmup, hit during timed samples.
        clear_tier1_cache();
        crate::core::clear_compile_cache();
        let mut body = make_body(case.name);
        let sleep = injections.get(case.name).copied();
        let pre = move || {
            if let Some(secs) = sleep {
                std::thread::sleep(std::time::Duration::from_secs_f64(secs));
            }
        };
        let samples = run_samples(plan, pre, &mut *body);
        let summary = summarize(&samples);
        // Micro benchmarks skip the profile pass: with the recorder on the
        // memo cache is bypassed, so the trace would describe a cold
        // profile, not the lookup the timed samples measured.
        let (phases, counters) = if case.kind == BenchKind::Micro {
            (Vec::new(), Vec::new())
        } else {
            profile_case(i as u64, case.name, &mut *body)
        };
        eprintln!(
            "bench {:<20} median {} ns (mad {}, kept {}/{})",
            case.name, summary.median_ns, summary.mad_ns, summary.kept, plan.iters
        );
        benchmarks.push(BenchRecord {
            name: case.name.to_owned(),
            kind: case.kind,
            plan,
            summary,
            phases,
            counters,
        });
    }

    // Carry the perf trajectory forward from the previous report at the
    // same path, then append this run's medians under `--record LABEL`.
    let mut trajectory = match std::fs::read_to_string(&opts.out) {
        Ok(text) => {
            BenchReport::parse(&text)
                .map_err(|e| format!("existing {} is not a bench report: {e}", opts.out.display()))?
                .trajectory
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", opts.out.display())),
    };
    if let Some(label) = &opts.record {
        for b in &benchmarks {
            trajectory.push(crate::core::bench::TrajectoryEntry {
                bench: b.name.clone(),
                label: label.clone(),
                median_ns: b.summary.median_ns,
            });
        }
    }

    let report = BenchReport {
        quick: opts.quick,
        benchmarks,
        trajectory,
    };
    std::fs::write(&opts.out, report.to_json())
        .map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!(
        "wrote {} ({} benchmarks)",
        opts.out.display(),
        report.benchmarks.len()
    );

    if let Some(baseline_path) = &opts.baseline {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("--baseline {}: {e}", baseline_path.display()))?;
        let baseline = BenchReport::parse(&text)
            .map_err(|e| format!("--baseline {}: {e}", baseline_path.display()))?;
        let found = regressions(&report, &baseline, opts.gate_pct);
        if found.is_empty() {
            println!(
                "gate: no regressions beyond {}% against {}",
                opts.gate_pct,
                baseline_path.display()
            );
        } else {
            for r in &found {
                eprintln!(
                    "regression: {} {} ns -> {} ns (+{:.1}%, gate {}%)",
                    r.name, r.baseline_ns, r.current_ns, r.slowdown_pct, opts.gate_pct
                );
            }
            return Ok(3);
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_has_a_body() {
        // Bodies for micro/compile cases do real setup work; just check
        // the experiment names resolve (cheap) and the special names are
        // distinct from the experiment namespace.
        for case in CASES {
            if case.kind == BenchKind::Experiment && case.name != "check" {
                assert!(render_experiment(case.name).is_some(), "{}", case.name);
            }
        }
        let mut names: Vec<&str> = CASES.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CASES.len(), "duplicate benchmark names");
    }

    #[test]
    fn list_is_stable_and_covers_all_cases() {
        let listing = render_list();
        assert_eq!(listing, render_list());
        for case in CASES {
            assert!(listing.contains(case.name), "{}", case.name);
        }
    }

    #[test]
    fn parse_bench_opts_round_trip() {
        let args: Vec<String> = [
            "--quick",
            "--out",
            "x.json",
            "--baseline",
            "b.json",
            "--gate",
            "50",
            "--filter",
            "cache",
            "--record",
            "pre",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let opts = parse_bench_opts(&args).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.out, std::path::PathBuf::from("x.json"));
        assert_eq!(opts.baseline, Some("b.json".into()));
        assert!((opts.gate_pct - 50.0).abs() < f64::EPSILON);
        assert_eq!(opts.filter.as_deref(), Some("cache"));
        assert_eq!(opts.record.as_deref(), Some("pre"));
        assert!(parse_bench_opts(&["--gate".to_owned(), "nan".to_owned()]).is_err());
        assert!(parse_bench_opts(&["--bogus".to_owned()]).is_err());
    }
}

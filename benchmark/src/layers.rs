//! The traced run: per-layer metrics from spans the benchmark records
//! around its calls into each layer's public functions, and counts read
//! from the layers' own APIs (the tier-1 cache, a recorder-on `obs` pass,
//! the daemon's `stats` op). End-to-end numbers never come from here.
//!
//! Each group of probes decomposes one workload's operation and writes
//! its spans to `benchmark/out/trace-<workload>.jsonl`. The same
//! operation, re-timed with the recorder off and on, gives that
//! workload's `trace_overhead_pct`.

use crate::metrics::{per_layer, PER_LAYER};
use crate::proc;
use crate::serve::{Conn, Daemon, JobMix};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{completed, paper_reference, reply_ok};
use crate::Env;
use dabench::core::cache::clear_tier1_cache;
use dabench::core::gen::{format_label, sample, ScenarioKind, Tier};
use dabench::core::shard::{merge_journals, plan_shards};
use dabench::core::supervise::{format_record, parse_journal, RunJournal, JOURNAL_SCHEMA};
use dabench::core::{
    cache_stats, clear_compile_cache, obs, profile_inference, training_graph, Platform,
};
use dabench::experiments::gen::{check_population, evaluate, parse_record, ranking, render_record};
use dabench::experiments::infer::platform_model;
use dabench::experiments::workloads::{gpt2_xl, ipu_probe, llama7b};
use dabench::gpu::GpuCluster;
use dabench::graph::GraphBuilder;
use dabench::ipu::Ipu;
use dabench::model::{InferenceWorkload, ModelConfig, Precision, TrainingWorkload};
use dabench::rdu::{CompilationMode, Rdu};
use dabench::suite::{experiment_tables, render_experiment, EXPERIMENTS};
use dabench::wse::{compile, Wse};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Scenarios in the gen slice that is evaluated, journaled and replayed.
const SLICE: u64 = 2000;
/// Scenarios each overhead pair re-times.
const OVERHEAD_SLICE: u64 = 200;
/// Untraced/traced pairs behind each in-process `trace_overhead_pct`:
/// with three, host drift moved it by ±15%.
const OVERHEAD_PAIRS: usize = 9;
/// Cold-cache paper sweeps traced.
const SWEEPS: usize = 3;
/// Repetitions of a process spawn or a millisecond-scale call.
const REPS: usize = 15;
/// Repetitions of a microsecond-scale call.
const MICRO_REPS: usize = 200;
/// Fsync'd journal appends timed.
const APPENDS: usize = 200;
/// Shard merges timed.
const MERGES: usize = 5;
/// Sharded/unsharded `gen --count 64` pairs behind the fixed shard cost.
const SHARD_PAIRS: usize = 3;
/// Population of each fixed-shard-cost run.
const SHARD_PROBE_COUNT: u64 = 64;
/// Requests of each serve probe.
const PINGS: usize = 20;
const CONNECTS: usize = 10;
const SUBMITS: usize = 40;

/// What the traced run measured.
pub struct LayerRun {
    /// Per-layer metrics in catalog order, `trace_overhead_pct` excluded.
    pub metrics: Vec<(&'static str, f64)>,
    /// `trace_overhead_pct` of each workload asked for.
    pub overhead_pct: Vec<(&'static str, f64)>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
}

struct Probe<'a> {
    env: &'a Env,
    seed: u64,
    overhead_for: &'a [&'a str],
    run: LayerRun,
}

/// Run every probe, writing one span file per workload; re-time the
/// operations of the workloads in `overhead_for` with the recorder off
/// and on.
///
/// # Errors
///
/// A process that cannot start, a daemon that fails, or an I/O error.
pub fn run(env: &Env, seed: u64, overhead_for: &[&str]) -> Result<LayerRun, String> {
    let mut p = Probe {
        env,
        seed,
        overhead_for,
        run: LayerRun {
            metrics: Vec::new(),
            overhead_pct: Vec::new(),
            attempted: 0,
            failed: 0,
        },
    };
    let (cosmic, resume) = (Tracer::new(true), Tracer::new(true));
    let records = p.gen(&cosmic, &resume)?;
    let sharded = Tracer::new(true);
    p.journal(&sharded, &records)?;
    let paper = Tracer::new(true);
    p.paper(&paper)?;
    p.platforms(&paper);
    let serve = Tracer::new(true);
    p.serve(&serve)?;
    for (workload, t) in [
        ("paper-all", &paper),
        ("gen-cosmic", &cosmic),
        ("gen-sharded-journal", &sharded),
        ("gen-resume", &resume),
        ("serve-mixed", &serve),
    ] {
        t.write_jsonl(&env.out.join(format!("trace-{workload}.jsonl")))?;
    }
    p.run
        .metrics
        .sort_by_key(|(name, _)| PER_LAYER.iter().position(|m| m.name == *name));
    Ok(p.run)
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Counter totals of one recorder-on `obs` pass over `f`.
fn recorded_counters(f: impl FnOnce()) -> impl Fn(&str) -> f64 {
    obs::enable();
    f();
    let traces = obs::take();
    obs::disable();
    let rows = obs::counter_rows(&traces);
    move |key| rows.iter().filter(|r| r.name == key).map(|r| r.total).sum()
}

/// Time `op` with the recorder off and on, `pairs` times, alternating
/// which runs first; returns the median slowdown of a pair's traced run
/// over its untraced one, in percent. Pairing adjacent runs keeps host
/// drift out of the ratio, and alternating keeps out a drift within pairs.
fn overhead_pct(
    pairs: usize,
    mut op: impl FnMut(&Tracer) -> Result<(), String>,
) -> Result<f64, String> {
    let mut timed = |traced: bool| -> Result<f64, String> {
        let t = Tracer::new(traced);
        let start = Instant::now();
        op(&t)?;
        Ok(start.elapsed().as_secs_f64())
    };
    let mut ratios = Vec::with_capacity(pairs);
    for k in 0..pairs {
        let (off, on) = if k % 2 == 0 {
            let off = timed(false)?;
            (off, timed(true)?)
        } else {
            let on = timed(true)?;
            (timed(false)?, on)
        };
        ratios.push(on / off);
    }
    Ok((median(&ratios) - 1.0) * 100.0)
}

impl Probe<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(per_layer(name).is_some(), "{name} is not catalogued");
        self.run.metrics.push((name, value));
    }

    /// Put a time measured in nanoseconds, in the metric's own unit.
    fn put_ns(&mut self, name: &'static str, ns: f64) {
        let per_unit = match per_layer(name).map(|m| m.unit) {
            Some("ms") => 1e6,
            Some("us") => 1e3,
            other => unreachable!("{name} is not a time but {other:?}"),
        };
        self.put(name, ns / per_unit);
    }

    /// Put the median duration of `t`'s spans named `span`.
    fn put_median(&mut self, name: &'static str, t: &Tracer, span: &str) {
        self.put_ns(name, median(&t.durations_ns(span)));
    }

    fn check(&mut self, ok: bool) {
        self.run.attempted += 1;
        self.run.failed += u64::from(!ok);
    }

    fn overhead(
        &mut self,
        workload: &'static str,
        pairs: usize,
        op: impl FnMut(&Tracer) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.overhead_for.contains(&workload) {
            let pct = overhead_pct(pairs, op)?;
            self.run.overhead_pct.push((workload, pct));
        }
        Ok(())
    }

    /// gen-cosmic's operation (sample, evaluate, render every scenario)
    /// and gen-resume's (resume the journal, parse, rank, check), on one
    /// cosmic slice. Returns the slice's records.
    fn gen(&mut self, cosmic: &Tracer, resume: &Tracer) -> Result<Vec<(u64, String)>, String> {
        let seed = self.seed;
        let peak_before = proc::own_peak_rss_kb();
        let records = cosmic.span("gen.population", || evaluate_slice(cosmic, seed, SLICE));
        let peak_after = proc::own_peak_rss_kb();
        self.put(
            "gen.retained_kb_per_scenario",
            peak_after.saturating_sub(peak_before) as f64 / SLICE as f64,
        );
        self.put_median("gen.sample_us", cosmic, "gen.sample");
        let train = cosmic.durations_ns("gen.evaluate_train");
        let infer = cosmic.durations_ns("gen.evaluate_infer");
        self.put_median("gen.evaluate_train_ms", cosmic, "gen.evaluate_train");
        self.put_median("gen.evaluate_infer_ms", cosmic, "gen.evaluate_infer");
        self.put_median("gen.render_record_us", cosmic, "gen.render_record");

        let dir = self.env.fresh_dir("trace-resume")?;
        write_journal(&dir, seed, &records)?;
        let ok = resume.span("gen.replay", || replay(resume, &dir, seed, SLICE))?;
        self.check(ok);
        self.put_median("journal.resume_ms", resume, "journal.resume");
        self.put_median("gen.parse_record_us", resume, "gen.parse_record");
        self.put_median("gen.ranking_ms", resume, "gen.ranking");
        let check = sum(&resume.durations_ns("gen.check_population"));
        self.put_ns("gen.check_population_ms", check);
        self.put(
            "gen.check_share",
            check / (sum(&train) + sum(&infer) + check),
        );

        self.overhead("gen-cosmic", OVERHEAD_PAIRS, |t| {
            evaluate_slice(t, seed, OVERHEAD_SLICE);
            Ok(())
        })?;
        let small = self.env.fresh_dir("trace-resume-small")?;
        write_journal(&small, seed, &records[..OVERHEAD_SLICE as usize])?;
        self.overhead("gen-resume", OVERHEAD_PAIRS, |t| {
            replay(t, &small, seed, OVERHEAD_SLICE).map(drop)
        })?;
        Ok(records)
    }

    /// gen-sharded-journal's write path: fsync'd appends, the shard merge,
    /// and the fixed cost of running sharded at all.
    fn journal(&mut self, t: &Tracer, records: &[(u64, String)]) -> Result<(), String> {
        let labels: Vec<String> = records
            .iter()
            .map(|(i, _)| format_label(Tier::Cosmic, self.seed, *i))
            .collect();
        let bytes = append(
            t,
            &self.env.fresh_dir("trace-append")?,
            &labels,
            records,
            APPENDS,
        )?;
        self.put_median("journal.append_us", t, "journal.append");
        self.put("journal.bytes_per_op", bytes as f64 / APPENDS as f64);

        let combined = journal_text(labels.iter().zip(records.iter().map(|(_, r)| r)));
        let by_label: BTreeMap<&str, &str> = labels
            .iter()
            .zip(records)
            .map(|(l, (_, r))| (l.as_str(), r.as_str()))
            .collect();
        let shards = plan_shards(&labels, 2)
            .iter()
            .map(|part| {
                let text = journal_text(part.iter().map(|l| (l, by_label[l.as_str()])));
                parse_journal(&text).map_err(|e| format!("shard journal: {e:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let no_failures = BTreeMap::new();
        for _ in 0..MERGES {
            let merged = t.span("shard.merge", || {
                merge_journals(&labels, &shards, &no_failures)
            });
            self.check(merged.text == combined);
        }
        self.put_median("shard.merge_ms", t, "shard.merge");

        let seed = self.seed.to_string();
        let count = SHARD_PROBE_COUNT.to_string();
        for k in 0..SHARD_PAIRS {
            for (name, shards) in [("gen.sharded_64", "2"), ("gen.single_64", "1")] {
                let dir = self.env.fresh_dir(&format!("trace-shard-{k}-{shards}"))?;
                let dir = dir.to_string_lossy();
                let mut cmd = self.env.dabench(&[
                    "gen",
                    "--tier",
                    "hard",
                    "--count",
                    &count,
                    "--seed",
                    &seed,
                    "--shards",
                    shards,
                    "--run-dir",
                    &dir,
                ]);
                let f = t.span(name, || proc::run(&mut cmd))?;
                self.check(f.code == Some(0) && completed(&f.stderr, SHARD_PROBE_COUNT));
            }
        }
        let fixed =
            median(&t.durations_ns("gen.sharded_64")) - median(&t.durations_ns("gen.single_64"));
        self.put_ns("shard.fixed_overhead_ms", fixed);

        let env = self.env;
        let mut pass = 0;
        self.overhead("gen-sharded-journal", OVERHEAD_PAIRS, |t| {
            pass += 1;
            let dir = env.fresh_dir(&format!("trace-append-{pass}"))?;
            append(t, &dir, &labels, records, APPENDS / 2)?;
            t.span("shard.merge", || {
                merge_journals(&labels, &shards, &no_failures)
            });
            Ok(())
        })
    }

    /// paper-all's operation: the paper sweep with cold caches, split into
    /// each experiment's run and render; plus the cost of a bare process.
    fn paper(&mut self, t: &Tracer) -> Result<(), String> {
        for _ in 0..REPS {
            let f = t.span("process.spawn_exit", || {
                proc::run(&mut self.env.dabench(&["gen", "--list-tiers"]))
            })?;
            self.check(f.code == Some(0));
        }
        self.put_median("process.spawn_exit_ms", t, "process.spawn_exit");

        let reference = paper_reference()?;
        let before = cache_stats();
        for _ in 0..SWEEPS {
            cold_caches();
            let out = t.span("paper.sweep", || paper_sweep(t))?;
            self.check(out == reference);
        }
        let after = cache_stats();
        let hits = (after.hits - before.hits) as f64 / SWEEPS as f64;
        let misses = (after.misses - before.misses) as f64 / SWEEPS as f64;
        self.put_ns("paper.run_ms", median(&t.self_ns_per_op("paper.run")));
        self.put_ns("paper.render_ms", median(&t.self_ns_per_op("paper.render")));
        self.put("tier1.hits", hits);
        self.put("tier1.misses", misses);
        self.put("tier1.hit_ratio", hits / (hits + misses));

        cold_caches();
        let counter = recorded_counters(|| {
            for (i, e) in (0u64..).zip(EXPERIMENTS) {
                obs::with_point(i, e, || render_experiment(e));
            }
        });
        for key in [
            "compile.incremental_hits",
            "compile.incremental_misses",
            "compile.patched_nodes",
        ] {
            self.put(key, counter(key));
        }
        self.overhead("paper-all", OVERHEAD_PAIRS, |t| {
            cold_caches();
            paper_sweep(t).map(drop)
        })
    }

    /// The graph, compile and platform layers on Table I's deepest passing
    /// workload and the Table III configurations, graph memo warm.
    fn platforms(&mut self, t: &Tracer) {
        let deep =
            TrainingWorkload::new(ModelConfig::gpt2_probe(768, 72), 256, 1024, Precision::Fp16);
        for _ in 0..REPS {
            t.span("graph.build", || {
                black_box(GraphBuilder::for_workload(&deep))
            });
        }
        self.put_median("graph.build_us", t, "graph.build");
        black_box(training_graph(&deep));
        for _ in 0..MICRO_REPS {
            t.span("compile.graph_hit", || black_box(training_graph(&deep)));
        }
        self.put_median("compile.graph_hit_us", t, "compile.graph_hit");

        let wse = Wse::default();
        let wse_compile = || compile(wse.wse_spec(), wse.compiler_params(), &deep, None);
        for _ in 0..REPS {
            let ok = t.span("wse.compile", || wse_compile().is_ok());
            self.check(ok);
        }
        self.put_median("wse.compile_ms", t, "wse.compile");
        let counter = recorded_counters(|| {
            let _ = obs::with_point(0, "wse.compile", wse_compile);
        });
        self.put("wse.budget_retries", counter("wse.budget_retries"));

        let rdu = Rdu::with_mode(CompilationMode::O1);
        let seven_b = llama7b();
        let mut sections = f64::NAN;
        for _ in 0..REPS {
            let profile = t.span("rdu.profile", || rdu.profile(&seven_b));
            self.check(profile.is_ok());
            if let Ok(p) = profile {
                sections = p.sections.len() as f64;
            }
        }
        self.put_median("rdu.profile_ms", t, "rdu.profile");
        self.put("rdu.sections", sections);

        let (ipu, ipu_w) = (Ipu::default(), ipu_probe(6));
        let (gpu, gpu_w) = (GpuCluster::default(), gpt2_xl(8));
        for _ in 0..REPS {
            let ok = t.span("ipu.profile", || ipu.profile(&ipu_w).is_ok());
            self.check(ok);
            let ok = t.span("gpu.profile", || gpu.profile(&gpu_w).is_ok());
            self.check(ok);
        }
        self.put_median("ipu.profile_ms", t, "ipu.profile");
        self.put_median("gpu.profile_ms", t, "gpu.profile");

        let serving =
            InferenceWorkload::new(ModelConfig::llama2_7b(), 8, 2048, 128, Precision::Fp16)
                .expect("the serving workload is valid");
        let model = platform_model("gpu", &serving);
        for _ in 0..MICRO_REPS {
            let ok = t.span("infer.profile", || {
                profile_inference(&model, &serving).is_ok()
            });
            self.check(ok);
        }
        self.put_median("infer.profile_us", t, "infer.profile");
    }

    /// serve-mixed's round trips on one daemon: pings on a persistent
    /// connection, fresh connections, and Zipf-mixed submits split by the
    /// reply's source; then the daemon's own store counters.
    fn serve(&mut self, t: &Tracer) -> Result<(), String> {
        let reference = crate::serve::reference()?;
        let (daemon, _) = Daemon::start(self.env, &self.env.fresh_dir("trace-serve")?)?;
        let mut conn = Conn::open(&daemon.addr)?;
        for _ in 0..PINGS {
            let reply = t.span("serve.ping", || conn.call("ping", &[]))?;
            self.check(reply.get("status").is_some_and(|s| s == "ok"));
        }
        for _ in 0..CONNECTS {
            let reply = t.span("serve.connect", || {
                Conn::open(&daemon.addr)?.call("ping", &[])
            })?;
            self.check(reply.get("status").is_some_and(|s| s == "ok"));
        }
        self.put_median("serve.ping_rtt_ms", t, "serve.ping");
        self.put_median("serve.connect_ms", t, "serve.connect");

        let mut mix = JobMix::new(self.seed, 0);
        let (sent, wrong) = submit_burst(t, &mut conn, &mut mix, SUBMITS, &reference)?;
        self.run.attempted += sent;
        self.run.failed += wrong;
        self.put_median("serve.cached_rtt_ms", t, "serve.submit.cache");
        self.put_median("serve.executed_rtt_ms", t, "serve.submit.executed");

        let stats = conn.call("stats", &[])?;
        let count = |key: &str| -> Result<f64, String> {
            stats
                .get(key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("stats reply lacks `{key}`"))
        };
        let (hits, misses) = (count("cache_hits")?, count("cache_misses")?);
        self.put("serve.store_hit_ratio", hits / (hits + misses));
        self.put("serve.evictions", count("cache_evictions")?);
        self.put("serve.shed", count("shed")?);
        self.put("serve.expired", count("expired")?);

        self.overhead("serve-mixed", 3, |t| {
            submit_burst(t, &mut conn, &mut mix, 15, &reference).map(drop)
        })?;
        drop(conn);
        daemon.drain().map(drop)
    }
}

fn cold_caches() {
    clear_tier1_cache();
    clear_compile_cache();
}

/// Evaluate cosmic scenarios `0..n` of `seed`, each split into sampling,
/// evaluation (by scenario kind) and rendering of its record.
fn evaluate_slice(t: &Tracer, seed: u64, n: u64) -> Vec<(u64, String)> {
    (0..n)
        .map(|i| {
            let s = t.span("gen.sample", || sample(Tier::Cosmic, seed, i));
            let layer = match s.kind {
                ScenarioKind::Train => "gen.evaluate_train",
                ScenarioKind::Infer => "gen.evaluate_infer",
            };
            let observations = t.span(layer, || evaluate(&s));
            (
                i,
                t.span("gen.render_record", || render_record(&s, &observations)),
            )
        })
        .collect()
}

/// A journal with a `completed` record per `(label, record)`, in order:
/// what a run that finished those points leaves behind.
fn journal_text<L: AsRef<str>, R: AsRef<str>>(entries: impl IntoIterator<Item = (L, R)>) -> String {
    let mut text = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"}}\n");
    for (label, record) in entries {
        text.push_str(&format_record(label.as_ref(), "completed", record.as_ref()));
        text.push('\n');
    }
    text
}

fn write_journal(dir: &Path, seed: u64, records: &[(u64, String)]) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .and_then(|()| {
            let labelled = records
                .iter()
                .map(|(i, record)| (format_label(Tier::Cosmic, seed, *i), record));
            std::fs::write(RunJournal::path_in(dir), journal_text(labelled))
        })
        .map_err(|e| format!("{}: {e}", dir.display()))
}

/// What `gen --resume` does after the journal: resume it, re-parse every
/// record, rank and check. Returns whether every record came back and
/// the checker found no violation.
fn replay(t: &Tracer, dir: &Path, seed: u64, n: u64) -> Result<bool, String> {
    let (_journal, journaled) = t
        .span("journal.resume", || RunJournal::resume(dir))
        .map_err(|e| format!("resume {}: {e}", dir.display()))?;
    let records: Vec<(u64, String)> = (0..n)
        .filter_map(|i| {
            let label = format_label(Tier::Cosmic, seed, i);
            journaled.completed.get(&label).map(|r| (i, r.clone()))
        })
        .collect();
    let parsed: Vec<_> = records
        .iter()
        .filter_map(|(i, record)| {
            let (_, observations) = t.span("gen.parse_record", || parse_record(record))?;
            Some((sample(Tier::Cosmic, seed, *i), observations))
        })
        .collect();
    let rows = t.span("gen.ranking", || ranking(&parsed));
    let outcome = t.span("gen.check_population", || {
        check_population(Tier::Cosmic, seed, &records, None)
    });
    Ok(records.len() as u64 == n
        && parsed.len() == records.len()
        && !rows.is_empty()
        && outcome.violations.is_empty())
}

/// Append the first `n` records to a fresh journal in `dir`, each append
/// fsync'd; returns the bytes they added.
fn append(
    t: &Tracer,
    dir: &Path,
    labels: &[String],
    records: &[(u64, String)],
    n: usize,
) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut journal = RunJournal::create(dir).map_err(io)?;
    let size = |j: &RunJournal| std::fs::metadata(j.path()).map(|m| m.len());
    let header = size(&journal).map_err(io)?;
    for (label, (_, record)) in labels.iter().zip(records).take(n) {
        t.span("journal.append", || {
            journal.append(label, "completed", record)
        })
        .map_err(io)?;
    }
    Ok(size(&journal).map_err(io)? - header)
}

/// Submit `n` jobs from `mix`, one span per submit named after the
/// reply's source. Returns (submitted, wrong replies).
fn submit_burst(
    t: &Tracer,
    conn: &mut Conn,
    mix: &mut JobMix,
    n: usize,
    reference: &BTreeMap<&str, String>,
) -> Result<(u64, u64), String> {
    let mut wrong = 0;
    for _ in 0..n {
        let job = mix.next_job();
        let start = Instant::now();
        let reply = conn.call("submit", &[("job", job)])?;
        let source = reply.get("source").map_or("none", String::as_str);
        t.record(&format!("serve.submit.{source}"), start, Instant::now());
        wrong += u64::from(!reply_ok(&reply, &reference[job]));
    }
    Ok((n as u64, wrong))
}

/// The paper sweep, each experiment split into building its tables and
/// formatting them; prints exactly what `dabench all` prints.
fn paper_sweep(t: &Tracer) -> Result<String, String> {
    EXPERIMENTS
        .iter()
        .map(|e| {
            t.span(e, || {
                let tables = t
                    .span("paper.run", || experiment_tables(e))
                    .ok_or_else(|| format!("`{e}` has no tables"))?;
                Ok(t.span("paper.render", || {
                    tables
                        .iter()
                        .map(|table| format!("{table}\n"))
                        .collect::<String>()
                }))
            })
        })
        .collect()
}

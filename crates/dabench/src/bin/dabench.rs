//! `dabench` — command-line front end for the DABench-LLM reproduction.
//!
//! ```text
//! dabench table1|table2|table3|table4        reproduce a paper table
//! dabench fig6|fig7|fig8|fig9|fig10|fig11|fig12   reproduce a paper figure
//! dabench all                                everything above, supervised
//! dabench serve                              benchmark-as-a-service daemon
//! dabench ablations                          design-choice ablations
//! dabench tier1 <platform> [opts]            profile one workload
//! dabench summary [opts]                     all platforms, one workload
//!
//! platforms: wse | rdu-o0 | rdu-o1 | rdu-o3 | ipu | gpu
//! opts: --hidden N  --layers N  --batch N  --seq N
//!       --precision fp16|bf16|cb16|fp32  --model gpt2-small|gpt2-xl|llama2-7b
//!       --jobs N   (worker threads; DABENCH_JOBS env var also honored)
//!       --trace-out FILE  (Chrome trace_event JSON)  --metrics (stderr table)
//! all opts: --run-dir D  --resume D  --deadline-s S  --max-retries N
//! ```
//!
//! All commands produce byte-identical output regardless of `--jobs`:
//! parallel work is collected back in input order before printing.
//!
//! `all` runs under the supervision layer (`dabench_core::supervise`, see
//! docs/supervision.md): each paper artifact is one supervised point with
//! panic isolation, an optional wall-clock deadline, bounded retries,
//! and — with `--run-dir` — a crash-safe journal that `--resume`
//! replays to produce byte-identical output after a mid-run kill. Exit
//! code 2 flags a run that completed with failed/panicked/timed-out
//! points.
//!
//! `serve` turns the same supervised machinery into a long-running daemon
//! speaking JSONL over TCP, with admission control, load shedding, a
//! shared result cache, graceful drain on SIGTERM/SIGINT, and crash-safe
//! `--resume` (see docs/serve.md).

use dabench::bench_suite::run_bench;
use dabench::core::jsonl::hex_snippet;
use dabench::core::obs;
use dabench::core::shard::{
    emit_shard_counters, is_merged, list_shard_journals, merge_journals, plan_shards, read_journal,
    read_journal_bytes, remove_shard_journals, render_rollups, shard_journal_name, shard_log_name,
    supervise_shards, write_merged, MergedPoint, ShardConfig, ShardOutcome, SyntheticFailure,
};
use dabench::core::supervise::{
    parse_injections, Injection, Replay, RunJournal, RunReport, SupervisePolicy,
    SHARD_CONTROL_LABEL, STATUS_SHARD_META,
};
use dabench::core::{jobs, set_jobs, tier1, Degradable, Platform, PointTrace};
use dabench::experiments::{gen as genx, infer, summary, validation};
use dabench::faults::{render_report, resilience_sweep, PlanSpec};
use dabench::flags::{Flags, RunOpts};
use dabench::gpu::GpuCluster;
use dabench::ipu::Ipu;
use dabench::model::{BatchingMode, InferenceWorkload, ModelConfig, Precision, TrainingWorkload};
use dabench::rdu::{CompilationMode, Rdu};
use dabench::runner::{run_supervised_points, RunnerConfig};
use dabench::serve::run_serve;
use dabench::suite::{experiment_tables, point_index, render_experiment, EXPERIMENTS};
use dabench::wse::Wse;
use std::io::{self, BufWriter, Read as _, Write as _};
use std::process::ExitCode;
use std::time::Duration;

/// Bytes of the buffer each stdout block is written through.
const STDOUT_BUFFER: usize = 64 * 1024;

/// Write one block of stdout through one buffer and flush it, so the
/// block is out before whatever the caller writes to stderr next. Stdout
/// is locked only while the block is written. A failed write or flush is
/// an error (`stdout: …`), not a panic; the explicit flush is what
/// reports it, since dropping a `BufWriter` discards its error.
fn write_stdout(
    block: impl FnOnce(&mut BufWriter<io::StdoutLock<'static>>) -> io::Result<()>,
) -> Result<(), String> {
    let mut out = BufWriter::with_capacity(STDOUT_BUFFER, io::stdout().lock());
    block(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// Write `texts`' completed point texts as one stdout block.
fn write_texts(texts: &[Option<String>]) -> Result<(), String> {
    write_stdout(|out| {
        texts
            .iter()
            .flatten()
            .try_for_each(|text| out.write_all(text.as_bytes()))
    })
}

/// The training-workload flags of `tier1`, `summary` and `faults`.
struct Opts {
    hidden: u64,
    layers: u64,
    batch: u64,
    seq: u64,
    precision: Precision,
    model: Option<ModelConfig>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            hidden: 768,
            layers: 12,
            batch: 32,
            seq: 1024,
            precision: Precision::Fp16,
            model: None,
        }
    }
}

impl Opts {
    /// Read the current flag of `flags` into the workload.
    fn read(&mut self, flags: &mut Flags<'_>) -> Result<(), String> {
        match flags.flag() {
            "--hidden" => self.hidden = flags.at_least_one()?,
            "--layers" => self.layers = flags.at_least_one()?,
            "--batch" => self.batch = flags.at_least_one()?,
            "--seq" => self.seq = flags.at_least_one()?,
            "--precision" => self.precision = parse_precision(flags, true)?,
            "--model" => self.model = Some(parse_model(flags)?),
            _ => return Err(flags.unknown()),
        }
        Ok(())
    }

    fn workload(self) -> TrainingWorkload {
        let model = self
            .model
            .unwrap_or_else(|| ModelConfig::gpt2_probe(self.hidden, self.layers));
        TrainingWorkload::new(model, self.batch, self.seq, self.precision)
    }
}

/// The training workload that `command`'s flags `args` describe.
fn parse_workload(command: &str, args: &[String]) -> Result<TrainingWorkload, String> {
    let mut opts = Opts::default();
    let mut flags = Flags::new(command, args);
    while flags.next_flag().is_some() {
        opts.read(&mut flags)?;
    }
    Ok(opts.workload())
}

/// The precisions a flag can name, by [`Precision::as_str`]. Training
/// takes all but the last: no modelled platform computes in FP8, so it is
/// a storage format for inference KV caches only.
const PRECISIONS: [Precision; 5] = [
    Precision::Fp16,
    Precision::Bf16,
    Precision::Cb16,
    Precision::Fp32,
    Precision::Fp8,
];

fn parse_precision(flags: &mut Flags<'_>, training: bool) -> Result<Precision, String> {
    let accepted = if training {
        &PRECISIONS[..4]
    } else {
        &PRECISIONS[..]
    };
    let name = flags.value()?;
    accepted
        .iter()
        .copied()
        .find(|p| p.as_str() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = accepted.iter().map(|p| p.as_str()).collect();
            flags.error(format_args!(
                "unknown precision `{name}` (expected one of: {})",
                names.join(", ")
            ))
        })
}

fn parse_model(flags: &mut Flags<'_>) -> Result<ModelConfig, String> {
    Ok(match flags.value()? {
        "gpt2-mini" => ModelConfig::gpt2_mini(),
        "gpt2-tiny" => ModelConfig::gpt2_tiny(),
        "gpt2-small" => ModelConfig::gpt2_small(),
        "gpt2-medium" => ModelConfig::gpt2_medium(),
        "gpt2-large" => ModelConfig::gpt2_large(),
        "gpt2-xl" => ModelConfig::gpt2_xl(),
        "llama2-7b" => ModelConfig::llama2_7b(),
        "llama2-13b" => ModelConfig::llama2_13b(),
        "llama2-70b" => ModelConfig::llama2_70b(),
        other => return Err(flags.error(format_args!("unknown model `{other}`"))),
    })
}

/// `dabench infer`: no flags prints the default sweep (byte-identical to
/// `csv infer`'s tables); flags profile one explicit serving workload on
/// all four platforms.
fn run_infer(rest: &[String]) -> Result<(), String> {
    if rest.is_empty() {
        print!(
            "{}",
            render_experiment("infer").expect("infer is a registered experiment")
        );
        return Ok(());
    }
    let mut model = ModelConfig::llama2_7b();
    let mut batch = 8u64;
    let mut prompt = 512u64;
    let mut decode = 128u64;
    let mut precision = Precision::Fp16;
    let mut kv_precision = None;
    let mut batching = BatchingMode::Static;
    let mut flags = Flags::new("infer", rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--model" => model = parse_model(&mut flags)?,
            "--batch" => batch = flags.at_least_one()?,
            "--prompt" => prompt = flags.at_least_one()?,
            "--decode" => decode = flags.at_least_one()?,
            "--precision" => precision = parse_precision(&mut flags, false)?,
            "--kv-precision" => kv_precision = Some(parse_precision(&mut flags, false)?),
            "--continuous" => batching = BatchingMode::Continuous,
            _ => return Err(flags.unknown()),
        }
    }
    let mut w = InferenceWorkload::new(model, batch, prompt, decode, precision)
        .map_err(|e| e.to_string())?
        .with_batching(batching);
    if let Some(kv) = kv_precision {
        w = w.with_kv_precision(kv);
    }
    println!("Workload: {w}\n");
    println!("{}", infer::render_single(&infer::run_single(&w)));
    Ok(())
}

/// Every platform by its CLI name: the dataflow chips of [`degradable`]
/// and the GPU reference.
fn platform(name: &str) -> Result<Box<dyn Platform>, String> {
    match name {
        "gpu" => Ok(Box::new(GpuCluster::default())),
        other => degradable(other).map(|p| p as Box<dyn Platform>),
    }
}

/// The one table of dataflow platform names; the GPU reference has no
/// fault model.
fn degradable(name: &str) -> Result<Box<dyn Degradable + Sync>, String> {
    Ok(match name {
        "wse" => Box::new(Wse::default()),
        "rdu-o0" => Box::new(Rdu::with_mode(CompilationMode::O0)),
        "rdu-o1" => Box::new(Rdu::with_mode(CompilationMode::O1)),
        "rdu" | "rdu-o3" => Box::new(Rdu::with_mode(CompilationMode::O3)),
        "ipu" => Box::new(Ipu::default()),
        "gpu" => return Err("the GPU reference has no dataflow fault model".to_owned()),
        other => return Err(format!("unknown platform `{other}`")),
    })
}

/// Run a resilience sweep: `dabench faults <platform> [--seed N] [--plan
/// SPEC] [workload opts]`.
fn run_faults(rest: &[String]) -> Result<(), String> {
    let (name, args) = rest
        .split_first()
        .ok_or_else(|| "faults needs a platform (wse|rdu-o0|rdu-o1|rdu-o3|ipu)".to_owned())?;
    let mut seed = 42u64;
    let mut plan = PlanSpec::default();
    let mut opts = Opts::default();
    let mut flags = Flags::new("faults", args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => seed = flags.parse()?,
            "--plan" => plan = flags.parse()?,
            _ => opts.read(&mut flags)?,
        }
    }
    let platform = degradable(name)?;
    let w = opts.workload();
    let report = resilience_sweep(platform.as_ref(), &w, &plan, seed);
    println!("Workload: {w}\n");
    print!("{}", render_report(&report));
    Ok(())
}

/// Options of a supervised sweep. `all`, `gen` and the hidden
/// `shard-worker` all read them through [`SweepOpts::read`].
struct SweepOpts {
    run: RunOpts,
    /// `--shards N`: worker processes; 1 runs the sweep in this process.
    shards: usize,
    /// `--max-respawns N`, `--heartbeat-ms N` and `--shard-stall-s S`.
    fleet: ShardConfig,
}

impl Default for SweepOpts {
    fn default() -> Self {
        Self {
            run: RunOpts::default(),
            shards: 1,
            fleet: ShardConfig::default(),
        }
    }
}

impl SweepOpts {
    /// Read the current flag of `flags` into these options.
    fn read(&mut self, flags: &mut Flags<'_>) -> Result<(), String> {
        match flags.flag() {
            "--shards" => self.shards = flags.at_least_one()?,
            "--max-respawns" => self.fleet.max_respawns = flags.parse()?,
            "--heartbeat-ms" => self.fleet.heartbeat = Duration::from_millis(flags.at_least_one()?),
            "--shard-stall-s" => self.fleet.stall_timeout = flags.seconds()?,
            _ => self.run.read(flags)?,
        }
        Ok(())
    }

    fn policy(&self) -> SupervisePolicy {
        SupervisePolicy {
            deadline: self.run.deadline,
            max_retries: self.run.max_retries,
        }
    }
}

/// Supervised `dabench all`: every artifact is one supervised point.
/// Successful texts print to stdout in paper order (byte-identical to the
/// unsupervised per-command output); the run report goes to stderr so it
/// never perturbs diffable output. Exit code 2 means some points failed
/// but the sweep itself survived.
fn run_all(rest: &[String]) -> Result<ExitCode, String> {
    let mut opts = SweepOpts::default();
    let mut flags = Flags::new("all", rest);
    while flags.next_flag().is_some() {
        opts.read(&mut flags)?;
    }
    let order: Vec<String> = EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect();
    let (report, _texts) = run_sweep(&order, &opts)?;
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Run an arbitrary ordered list of supervised point labels through the
/// journal/resume/shard machinery (`dabench all` and `dabench gen` both
/// funnel through here). Each label must resolve via
/// [`render_experiment`]; point indices come from [`point_index`].
/// Prints every completed point's text to stdout in `order` as one block,
/// the run report to stderr, and returns the report plus the per-label
/// texts (`None` for failed points) so callers can post-process results.
fn run_sweep(
    order: &[String],
    opts: &SweepOpts,
) -> Result<(RunReport, Vec<Option<String>>), String> {
    if opts.shards > 1 {
        return run_sweep_sharded(order, opts);
    }
    let injections = parse_injections()?;
    let (journal, replay) = match &opts.run.run_dir {
        Some(dir) if opts.run.resume => {
            // A killed sharded parent leaves per-shard journals behind;
            // fold them into the combined journal first so `--resume`
            // works identically across the sharded layout.
            fold_stale_shards(dir, order)?;
            let (j, replay) =
                RunJournal::resume(dir).map_err(|e| format!("--resume {}: {e}", dir.display()))?;
            (Some(std::sync::Mutex::new(j)), replay)
        }
        Some(dir) => {
            let j =
                RunJournal::create(dir).map_err(|e| format!("--run-dir {}: {e}", dir.display()))?;
            (Some(std::sync::Mutex::new(j)), Replay::default())
        }
        None => (None, Replay::default()),
    };
    if let Some(tail) = &replay.dropped_tail {
        eprintln!("warning: discarded truncated journal record {tail:?}; its point will re-run");
    }
    if opts.run.resume {
        // One-line accounting of what the journal bought us: replayed
        // points print verbatim, adopted ones re-run, an abandoned tail
        // was cut mid-append. Partial recovery must never be silent.
        eprintln!("{}", replay.resume_summary());
    }

    // Re-seed the recorder from journaled digests so a resumed run's
    // `--trace-out`/`--metrics` output is byte-identical to the original
    // run's. Only points whose output also replays count — a digest for a
    // point that will re-run would otherwise appear twice.
    if obs::is_enabled() {
        let replayed = replay.metrics.iter();
        inject_journaled_digests(
            replayed.filter(|(name, _)| replay.completed.contains_key(*name)),
        )?;
    }

    let points: Vec<(usize, String)> = order
        .iter()
        .map(|label| {
            point_index(label)
                .map(|i| (i, label.clone()))
                .ok_or_else(|| format!("unknown point `{label}`"))
        })
        .collect::<Result<_, String>>()?;
    let cfg = RunnerConfig {
        policy: opts.policy(),
        injections,
        journal_started: false,
    };
    let outcomes = run_supervised_points(&points, &cfg, journal.as_ref(), &replay)?;

    let mut report = RunReport::default();
    let texts: Vec<Option<String>> = points
        .iter()
        .zip(outcomes)
        .map(|((_, name), outcome)| {
            report.record(name, &outcome);
            outcome.into_value()
        })
        .collect();
    write_texts(&texts)?;
    eprint!("{}", report.render());
    Ok((report, texts))
}

/// Re-seed the recorder from journaled `(label, metrics digest)` pairs.
/// Every digest line must parse: a dropped one would silently change the
/// figures of a resumed `--metrics` or `--trace-out` run, so a corrupt
/// digest fails the resume, naming its point, before anything prints.
fn inject_journaled_digests<'a>(
    digests: impl Iterator<Item = (&'a String, &'a String)>,
) -> Result<(), String> {
    let mut traces = Vec::new();
    for (label, digest) in digests {
        for line in digest.split('\n') {
            traces.push(PointTrace::parse_digest(line).ok_or_else(|| {
                format!(
                    "journal: corrupt metrics digest for `{label}` ({} bytes, hex {}); \
                     refusing to replay a partial trace",
                    line.len(),
                    hex_snippet(line, 24)
                )
            })?);
        }
    }
    obs::inject(traces);
    Ok(())
}

/// Fold stale shard journals (left behind by a killed sharded parent)
/// into the combined journal, then delete them. A no-op when none exist.
/// After this, the run directory looks exactly like a single-process
/// run's, so every resume path works unchanged.
fn fold_stale_shards(dir: &std::path::Path, order: &[String]) -> Result<(), String> {
    let stale = list_shard_journals(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if stale.is_empty() {
        return Ok(());
    }
    let mut sources = vec![read_journal(&RunJournal::path_in(dir)).map_err(|e| e.to_string())?];
    for (k, path) in stale {
        match read_journal(&path) {
            Ok(parsed) => sources.push(parsed),
            Err(e) => eprintln!(
                "warning: shard {k} journal unreadable ({e}); its records are not adopted"
            ),
        }
    }
    let merged = merge_journals(order, &sources, &std::collections::BTreeMap::new());
    write_merged(dir, &merged.text).map_err(|e| format!("journal merge: {e}"))?;
    remove_shard_journals(dir).map_err(|e| format!("shard journal cleanup: {e}"))?;
    Ok(())
}

/// `--shards N`: partition the sweep across worker OS processes,
/// supervise the fleet (heartbeat liveness, crash detection, bounded
/// respawns), then merge the per-shard journals into the combined
/// journal — stdout and journal byte-identical to a single-process run.
/// A `--resume` whose combined journal is already its own merge
/// ([`is_merged`]) runs no worker, finds no shard journal and leaves the
/// journal alone: it prints and reports from its replay, as a
/// single-process resume does. See docs/sharding.md.
fn run_sweep_sharded(
    order: &[String],
    opts: &SweepOpts,
) -> Result<(RunReport, Vec<Option<String>>), String> {
    // Fail on malformed DABENCH_INJECT here, with the same message a
    // single-process run gives, rather than once per worker log.
    parse_injections()?;
    let (dir, ephemeral) = match &opts.run.run_dir {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!("dabench-shards-{}", std::process::id())),
            true,
        ),
    };
    if opts.run.resume {
        fold_stale_shards(&dir, order)?;
    } else {
        // Same refuse-to-clobber semantics as a single-process --run-dir;
        // the handle is dropped — in sharded mode only the merge step
        // writes the combined journal.
        let journal =
            RunJournal::create(&dir).map_err(|e| format!("--run-dir {}: {e}", dir.display()))?;
        drop(journal);
    }
    let (journal_bytes, combined) =
        read_journal_bytes(&RunJournal::path_in(&dir)).map_err(|e| e.to_string())?;
    // A merged journal holds a completed record for every point, so such
    // a resume has nothing pending and spawns no worker.
    let merged_already = opts.run.resume && is_merged(order, &journal_bytes, &combined);
    drop(journal_bytes);
    let mut replay = Replay::from_journal(&combined);
    if let Some(tail) = &replay.dropped_tail {
        eprintln!("warning: discarded truncated journal record {tail:?}; its point will re-run");
    }
    if opts.run.resume {
        eprintln!("{}", replay.resume_summary());
    }

    let pending: Vec<String> = order
        .iter()
        .filter(|l| !replay.completed.contains_key(*l))
        .cloned()
        .collect();
    let capture_metrics = obs::is_enabled();
    let statuses = if pending.is_empty() {
        Vec::new()
    } else {
        let plan = plan_shards(&pending, opts.shards);
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        // Split this process's thread budget across the fleet so
        // `--shards N --jobs J` uses ~J threads total, not N*J.
        let worker_jobs = (jobs() / plan.len().max(1)).max(1);
        let worker_dir = dir.clone();
        let deadline = opts.run.deadline;
        let max_retries = opts.run.max_retries;
        let heartbeat_ms = opts.fleet.heartbeat.as_millis();
        let mut spawn = move |k: usize, labels: &[String]| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("shard-worker")
                .arg("--run-dir")
                .arg(&worker_dir)
                .arg("--shard")
                .arg(k.to_string())
                .arg("--points")
                .arg(labels.join(","))
                .arg("--jobs")
                .arg(worker_jobs.to_string())
                .arg("--heartbeat-ms")
                .arg(heartbeat_ms.to_string());
            if let Some(d) = deadline {
                cmd.arg("--deadline-s").arg(format!("{}", d.as_secs_f64()));
            }
            if max_retries > 0 {
                cmd.arg("--max-retries").arg(max_retries.to_string());
            }
            if capture_metrics {
                cmd.arg("--capture-metrics");
            }
            cmd.stdout(std::process::Stdio::null());
            let log = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(worker_dir.join(shard_log_name(k)));
            match log {
                Ok(f) => cmd.stderr(std::process::Stdio::from(f)),
                Err(_) => cmd.stderr(std::process::Stdio::null()),
            };
            cmd
        };
        supervise_shards(&dir, &plan, &opts.fleet, &mut spawn)
            .map_err(|e| format!("shard supervision: {e}"))?
    };

    let shard_journals =
        list_shard_journals(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut points = if merged_already && shard_journals.is_empty() {
        // Re-merging would rewrite the same bytes: take every point from
        // the replay instead.
        drop(combined);
        let mut metrics = std::mem::take(&mut replay.metrics);
        std::mem::take(&mut replay.completed)
            .into_iter()
            .map(|(label, data)| {
                let metrics = metrics.remove(&label);
                let point = MergedPoint {
                    status: "completed".to_owned(),
                    data,
                    metrics,
                    source: 0,
                };
                (label, point)
            })
            .collect()
    } else {
        // Merge: the prior combined journal first (idempotent re-merge,
        // keeps resumed results), then the shard journals ascending.
        let mut sources = vec![combined];
        for (k, path) in shard_journals {
            match read_journal(&path) {
                Ok(parsed) => sources.push(parsed),
                Err(e) => eprintln!(
                    "warning: shard {k} journal unreadable ({e}); its unfinished points count as dropped"
                ),
            }
        }
        let mut synthetic = std::collections::BTreeMap::new();
        for s in &statuses {
            if let ShardOutcome::Dead { dropped } = &s.outcome {
                let detail = s
                    .deaths
                    .last()
                    .cloned()
                    .unwrap_or_else(|| "died".to_owned());
                for label in dropped {
                    synthetic.insert(
                        label.clone(),
                        SyntheticFailure {
                            status: "failed".to_owned(),
                            data: format!(
                                "shard {} {detail}; respawn budget ({}) exhausted",
                                s.shard, opts.fleet.max_respawns
                            ),
                        },
                    );
                }
            }
        }
        let merged = merge_journals(order, &sources, &synthetic);
        write_merged(&dir, &merged.text).map_err(|e| format!("journal merge: {e}"))?;
        remove_shard_journals(&dir).map_err(|e| format!("shard journal cleanup: {e}"))?;
        merged.points
    };
    if capture_metrics {
        inject_journaled_digests(order.iter().filter_map(|label| {
            let p = points.get(label)?;
            (p.status == "completed").then_some((label, p.metrics.as_ref()?))
        }))?;
    }

    let mut report = RunReport::default();
    let mut texts = Vec::with_capacity(order.len());
    for label in order {
        match points.remove(label) {
            Some(p) if p.status == "completed" => {
                if p.source == 0 && opts.run.resume {
                    report.record_status(label, "journaled", None);
                } else {
                    report.record_status(label, "completed", None);
                }
                texts.push(Some(p.data));
            }
            Some(p) => {
                report.record_status(label, &p.status, Some(p.data));
                texts.push(None);
            }
            None => {
                report.record_status(
                    label,
                    "failed",
                    Some("no journal record produced".to_owned()),
                );
                texts.push(None);
            }
        }
    }
    if let Err(e) = write_texts(&texts) {
        // The error ends the run before anything could name the
        // temporary directory for a `--resume`.
        if ephemeral {
            let _ = std::fs::remove_dir_all(&dir);
        }
        return Err(e);
    }
    emit_shard_counters(&statuses);
    if !statuses.is_empty() {
        eprint!("{}", render_rollups(&statuses));
    }
    eprint!("{}", report.render());
    let clean = report.is_clean();
    if ephemeral {
        if clean {
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            eprintln!(
                "run directory kept at {} (pass --resume {0} --shards {1} to retry)",
                dir.display(),
                opts.shards
            );
        }
    }
    Ok((report, texts))
}

/// `dabench gen`: sample a seeded scenario population at a difficulty
/// tier, evaluate every scenario on all four platforms through the
/// supervised sweep (full `--run-dir`/`--resume`/`--shards` support),
/// then print the ranking report and run the metamorphic invariant
/// catalog over the journaled records.
///
/// Exit codes: 0 clean, 2 some points failed, 4 invariant violated.
fn run_gen(rest: &[String]) -> Result<ExitCode, String> {
    use dabench::core::gen::{population, Tier};
    let mut tier = genx::DEFAULT_TIER;
    let mut seed = genx::DEFAULT_SEED;
    let mut count = genx::DEFAULT_COUNT;
    let mut opts = SweepOpts::default();
    let mut flags = Flags::new("gen", rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--list-tiers" => {
                print!("{}", genx::render_tiers());
                return Ok(ExitCode::SUCCESS);
            }
            "--tier" => {
                let name = flags.value()?;
                tier = Tier::parse(name).ok_or_else(|| {
                    let names: Vec<&str> = Tier::ALL.iter().map(|t| t.as_str()).collect();
                    flags.error(format_args!(
                        "unknown tier `{name}` (expected one of: {})",
                        names.join(", ")
                    ))
                })?;
            }
            "--seed" => seed = flags.parse()?,
            "--count" => count = flags.at_least_one()?,
            _ => opts.read(&mut flags)?,
        }
    }
    // `gen=violate:<invariant>` seeds a counterexample into the checker —
    // the run must then fail loudly with exit code 4.
    let inject = parse_injections()?.get("gen").and_then(|i| match i {
        Injection::Violate(inv) => Some(*inv),
        _ => None,
    });

    // Stdout is four blocks, each flushed before the stderr that follows
    // it: the population, the record texts (`run_sweep`), the results and
    // ranking, and the invariants.
    let scenarios = population(tier, seed, count);
    write_stdout(|out| writeln!(out, "{}", genx::render_population(tier, seed, &scenarios)))?;
    let order: Vec<String> = scenarios.iter().map(|s| s.label()).collect();
    let (report, texts) = run_sweep(&order, &opts)?;

    // Everything downstream reads the journaled record texts, each parsed
    // once, so a resumed or sharded run ranks exactly what a fresh run
    // would.
    let journaled = genx::Journaled::parse(
        scenarios
            .into_iter()
            .zip(&texts)
            .filter_map(|(s, text)| Some((s, text.as_deref()?))),
    );
    write_stdout(|out| {
        writeln!(out)?;
        writeln!(out, "{}", genx::render_results(&journaled.observed))?;
        let ranking = genx::ranking(&journaled.observed);
        writeln!(out, "{}", genx::render_ranking(tier, &ranking))
    })?;
    let outcome = journaled.check(tier, seed, inject);
    write_stdout(|out| write!(out, "{}", genx::render_invariants(&outcome)))?;
    for v in &outcome.violations {
        eprintln!("{v}");
    }
    Ok(if !outcome.violations.is_empty() {
        ExitCode::from(4)
    } else if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Hidden `dabench shard-worker` mode, spawned by `run_sweep_sharded`: run
/// the assigned points through the shared supervised loop against this
/// shard's own journal (`journal.shard-K.jsonl`, resumed so a respawn
/// re-adopts its predecessor's records), with a heartbeat thread
/// writing liveness records for the parent's watchdog. Exits only after
/// the loop's final fsync has covered every point record it wrote.
/// Writes nothing to stdout; exit 0 = clean, 2 = some points failed,
/// 1 = hard error.
fn run_shard_worker(rest: &[String]) -> Result<ExitCode, String> {
    use std::sync::mpsc::{self, RecvTimeoutError};
    let mut shard: Option<usize> = None;
    let mut points_arg: Option<&str> = None;
    let mut capture_metrics = false;
    let mut opts = SweepOpts::default();
    let mut flags = Flags::new("shard-worker", rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--shard" => shard = Some(flags.parse()?),
            "--points" => points_arg = Some(flags.value()?),
            "--capture-metrics" => capture_metrics = true,
            _ => opts.read(&mut flags)?,
        }
    }
    let dir = opts
        .run
        .run_dir
        .as_deref()
        .ok_or("shard-worker needs --run-dir")?;
    let shard = shard.ok_or("shard-worker needs --shard")?;
    let points_arg = points_arg.ok_or("shard-worker needs --points")?;
    let mut points: Vec<(usize, String)> = Vec::new();
    for label in points_arg.split(',').filter(|s| !s.is_empty()) {
        // Points keep their *global* index (experiment position, or the
        // generated scenario's population index): obs point paths must
        // match a single-process run's exactly.
        let index =
            point_index(label).ok_or_else(|| format!("shard-worker: unknown point `{label}`"))?;
        points.push((index, label.to_owned()));
    }
    if points.is_empty() {
        return Err("shard-worker: --points is empty".to_owned());
    }
    if capture_metrics {
        obs::enable();
    }
    let injections = parse_injections()?;
    let (journal, replay) = RunJournal::resume_named(dir, &shard_journal_name(shard))
        .map_err(|e| format!("shard {shard} journal: {e}"))?;
    let journal = std::sync::Mutex::new(journal);
    // Control records are advisory (replay and merge strip them), so they
    // are written without an fsync of their own.
    journal
        .lock()
        .expect("journal lock")
        .write(
            SHARD_CONTROL_LABEL,
            STATUS_SHARD_META,
            &format!("shard={shard} points={points_arg}"),
        )
        .map_err(|e| format!("shard {shard} journal: {e}"))?;

    let cfg = RunnerConfig {
        policy: opts.policy(),
        injections,
        journal_started: true,
    };
    let outcomes = std::thread::scope(|scope| {
        // Heartbeat: the parent's liveness watchdog keys on journal
        // growth, so a live worker must write even while every point is
        // busy. The file grows at `write(2)`, so a beat needs no fsync,
        // and write errors are ignored — heartbeats are advisory; point
        // records fail loudly in the runner. Dropping `stop` (also on
        // unwind) wakes the thread at once, so a worker exits as soon as
        // its last point is journaled, not at the next beat.
        let beat_every = opts.fleet.heartbeat;
        let (stop, stopped) = mpsc::channel::<()>();
        let journal = &journal;
        let heartbeat = scope.spawn(move || {
            let mut beat = 0u64;
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(beat_every) {
                beat += 1;
                let _ = journal.lock().expect("journal lock").write(
                    SHARD_CONTROL_LABEL,
                    dabench::core::supervise::STATUS_HEARTBEAT,
                    &format!("beat={beat}"),
                );
            }
        });
        let outcomes = run_supervised_points(&points, &cfg, Some(journal), &replay);
        drop(stop);
        let _ = heartbeat.join();
        outcomes
    })?;

    let mut report = RunReport::default();
    for ((_, name), outcome) in points.iter().zip(&outcomes) {
        report.record(name, outcome);
    }
    eprint!("{}", report.render());
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn usage() -> &'static str {
    "usage: dabench <command> [options]\n\
     commands:\n\
       table1 table2 table3 table4       reproduce a paper table\n\
       fig6 fig7 fig8 fig9 fig10 fig11 fig12   reproduce a paper figure\n\
       all                               every table and figure, supervised\n\
       serve                             benchmark-as-a-service daemon (JSONL/TCP)\n\
       ablations                         design-choice ablations\n\
       sensitivity                       hardware-parameter elasticities\n\
       infer [opts]                      inference serving: TTFT + tokens/s, 4 platforms\n\
       gen [opts]                        seeded scenario generator + ranking + invariants\n\
       csv <experiment>                  emit an experiment as CSV\n\
       check                             reproduction scorecard (all claims)\n\
       tier1 <wse|rdu-o0|rdu-o1|rdu-o3|ipu|gpu>  profile one workload\n\
       summary                           all platforms, one workload\n\
       faults <wse|rdu-o0|rdu-o1|rdu-o3|ipu>     resilience sweep\n\
       bench                             deterministic perf harness (BENCH_sweeps.json)\n\
     options: --hidden N --layers N --batch N --seq N\n\
              --precision fp16|bf16|cb16|fp32 --model <preset>\n\
              --jobs N   worker threads (default: all cores; also DABENCH_JOBS)\n\
              --trace-out FILE  write a Chrome trace_event JSON trace\n\
              --metrics         per-phase span/counter table on stderr\n\
     all options: --run-dir D   journal each finished point to D (crash-safe)\n\
     \x20            --resume D    replay D's journal, re-run only missing points\n\
     \x20                          (of --run-dir and --resume, the later wins)\n\
     \x20            --deadline-s S  wall-clock budget per point (watchdog)\n\
     \x20            --max-retries N retry transient platform errors N times\n\
     \x20            --shards N    fan points out across N worker processes\n\
     \x20            --max-respawns N  worker respawn budget per shard (default 2)\n\
     \x20            --heartbeat-ms N  shard heartbeat interval (default 200)\n\
     \x20            --shard-stall-s S kill a shard with no journal growth for S s\n\
     \x20            exit codes: 0 clean, 2 some points failed (see stderr report)\n\
     serve options: --addr A:P (default 127.0.0.1:0) --workers N --queue N\n\
     \x20              --cache N --retry-after-ms N --deadline-s S --max-retries N\n\
     \x20              --run-dir D --resume D   (the later of the two wins)\n\
     \x20              drains gracefully on SIGTERM/SIGINT or the `drain` op\n\
     infer options: --model <preset> --batch N --prompt N --decode N\n\
     \x20             --precision fp16|bf16|cb16|fp32 --kv-precision ...|fp8 --continuous\n\
     \x20             (no flags: the default batch x prompt x KV-precision sweep)\n\
     gen options: --tier baby|easy|medium|hard|cosmic --seed N --count N\n\
     \x20          --list-tiers   plus every `all` option (journal, resume, shards)\n\
     \x20          exit codes: 0 clean, 2 point failures, 4 invariant violated\n\
     faults options: --seed N --plan dead=F,link=F,stalls=N,drop=N\n\
     bench options: --quick --list --out FILE --baseline FILE --gate PCT\n\
     \x20              --filter SUBSTR --record LABEL\n\
     \x20              exit codes: 0 clean, 3 regression past the gate\n\
     csv targets: table1-4 fig6-12 ablations sensitivity infer gen"
}

/// Observability flags, accepted by every command: `--trace-out FILE`
/// writes a Chrome `trace_event` JSON trace, `--metrics` prints a
/// per-phase counter table to stderr. Either flag enables the recorder.
#[derive(Debug, Default)]
struct TraceOpts {
    trace_out: Option<std::path::PathBuf>,
    metrics: bool,
}

impl TraceOpts {
    fn enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics
    }
}

/// Read and strip the flags valid anywhere on any command: `--jobs N`
/// (the last one sets this process's worker count), `--trace-out FILE`
/// and `--metrics` (either enables the recorder). Returns the remaining
/// arguments, command first.
fn read_global_flags(args: &[String]) -> Result<(Vec<String>, TraceOpts), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut trace = TraceOpts::default();
    let mut flags = Flags::new("dabench", args);
    while let Some(arg) = flags.next_flag() {
        match arg {
            "--jobs" => set_jobs(flags.at_least_one()?),
            "--trace-out" => trace.trace_out = Some(flags.value()?.into()),
            "--metrics" => trace.metrics = true,
            _ => rest.push(arg.to_owned()),
        }
    }
    if trace.enabled() {
        obs::enable();
    }
    Ok((rest, trace))
}

/// Flush the recorder: write the Chrome trace (if `--trace-out`) and
/// print the `--metrics` table to stderr. Called once, after the command
/// body has finished and every point context has closed.
fn write_observability(opts: &TraceOpts) -> Result<(), String> {
    if !opts.enabled() {
        return Ok(());
    }
    let traces = obs::take();
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, obs::chrome_trace(&traces))
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
    }
    if opts.metrics {
        eprint!("{}", obs::render_metrics(&traces));
    }
    Ok(())
}

/// SIGTERM and SIGINT for `serve`, delivered as bytes on a pipe.
///
/// `std` cannot install signal handlers and the workspace is
/// dependency-free, so the binary registers a handler through the libc
/// `signal` symbol directly — the one place in the workspace that needs
/// `unsafe` (both library crates `forbid` it). The handler writes one
/// byte into a pipe with `write(2)`, which is async-signal-safe, and a
/// thread blocked reading the pipe drains the daemon: nothing polls.
mod shutdown {
    use std::io::{self, PipeReader};

    /// Route SIGTERM and SIGINT into a pipe and return its read end: one
    /// byte per signal. Without Unix signals the write end closes at
    /// once, so the reader sees end of file and the daemon drains only
    /// through the `drain` op.
    pub fn install() -> io::Result<PipeReader> {
        let (reader, writer) = io::pipe()?;
        #[cfg(unix)]
        handler::install(std::os::fd::IntoRawFd::into_raw_fd(writer));
        #[cfg(not(unix))]
        drop(writer);
        Ok(reader)
    }

    #[cfg(unix)]
    mod handler {
        use std::sync::atomic::{AtomicI32, Ordering};

        /// The descriptor [`on_signal`] writes to.
        static FD: AtomicI32 = AtomicI32::new(-1);

        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        }

        extern "C" fn on_signal(_signum: i32) {
            let byte = 1u8;
            // SAFETY: `write(2)` is async-signal-safe. `FD` holds the
            // pipe's write end, which nothing owns or closes, so it stays
            // open for the life of the process, and `byte` is a live
            // one-byte buffer.
            unsafe {
                write(FD.load(Ordering::SeqCst), &byte, 1);
            }
        }

        /// Install the handler, writing to `fd` for the life of the
        /// process.
        pub fn install(fd: i32) {
            FD.store(fd, Ordering::SeqCst);
            let handler = on_signal as extern "C" fn(i32) as usize;
            // SAFETY: `on_signal` has the C handler signature and makes
            // only an async-signal-safe call; `FD` is set before either
            // signal can reach it.
            unsafe {
                signal(SIGTERM, handler);
                signal(SIGINT, handler);
            }
        }
    }
}

/// `serve`, drained on the first SIGTERM/SIGINT: a detached thread
/// blocked on the signal pipe calls the daemon's drain handle, and the
/// process exit ends it.
fn run_serve_until_signal(rest: &[String]) -> Result<(), String> {
    let mut signals = shutdown::install().map_err(|e| format!("serve: signal pipe: {e}"))?;
    run_serve(rest, |drain| {
        std::thread::spawn(move || {
            if signals.read_exact(&mut [0]).is_ok() {
                drain.drain();
            }
        });
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Read the global flags, run the command, then flush the recorder —
/// also after a failed command, whose error takes precedence.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let (args, trace) = read_global_flags(args)?;
    let Some((cmd, rest)) = args.split_first() else {
        return Err(format!("no command given\n{}", usage()));
    };
    let code = run_command(cmd, rest);
    let flushed = write_observability(&trace);
    let code = code?;
    flushed?;
    Ok(code)
}

/// Run one command and return its exit code.
fn run_command(cmd: &str, rest: &[String]) -> Result<ExitCode, String> {
    match cmd {
        // `all` and `gen` open one point context per supervised point.
        "all" => run_all(rest),
        "gen" => run_gen(rest),
        // Hidden: one shard of a `--shards N` fleet.
        "shard-worker" => run_shard_worker(rest),
        "serve" => {
            // One point context for the daemon's lifetime, so the store
            // counters it publishes at drain land in `--metrics`.
            obs::with_point(0, "serve", || run_serve_until_signal(rest))?;
            Ok(ExitCode::SUCCESS)
        }
        // `bench` owns the recorder (per-case profile passes) and the
        // exit code (3 = perf regression past the gate).
        "bench" => run_bench(rest).map(ExitCode::from),
        _ => {
            obs::with_point(0, cmd, || run_report(cmd, rest))?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Run a command that prints one report: a paper artifact or a profile.
fn run_report(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "check" => {
            let checks = validation::run();
            println!("{}", validation::render(&checks));
            let failed = checks.iter().filter(|c| !c.passed).count();
            if failed == 0 {
                println!("all {} claims reproduced", checks.len());
                Ok(())
            } else {
                Err(format!("{failed} claim(s) failed"))
            }
        }
        "csv" => rest
            .first()
            .ok_or_else(|| "csv needs an experiment name".to_owned())
            .and_then(|name| {
                let tables =
                    experiment_tables(name).ok_or_else(|| format!("no CSV export for `{name}`"))?;
                for t in tables {
                    print!("{}", t.to_csv());
                }
                Ok(())
            }),
        "tier1" => rest
            .split_first()
            .ok_or_else(|| "tier1 needs a platform".to_owned())
            .and_then(|(name, flags)| {
                let p = platform(name)?;
                let w = parse_workload("tier1", flags)?;
                match tier1::run(p.as_ref(), &w) {
                    Ok(r) => {
                        println!("{r:#?}");
                        Ok(())
                    }
                    Err(e) => Err(format!("{name} cannot run {w}: {e}")),
                }
            }),
        "faults" => run_faults(rest),
        "infer" => run_infer(rest),
        "summary" => parse_workload("summary", rest).map(|w| {
            println!("Workload: {w}\n");
            println!("{}", summary::render(&summary::run(&w)));
        }),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => match render_experiment(other) {
            Some(text) => {
                print!("{text}");
                Ok(())
            }
            None => Err(format!("unknown command `{other}`\n{}", usage())),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_accepts_every_name_degradable_accepts() {
        let names = [
            "wse", "rdu-o0", "rdu-o1", "rdu", "rdu-o3", "ipu", "gpu", "tpu", "",
        ];
        for name in names {
            if let Ok(chip) = degradable(name) {
                let p = platform(name).unwrap_or_else(|e| panic!("`{name}`: {e}"));
                assert_eq!(p.name(), chip.name(), "`{name}` names two platforms");
            }
        }
        assert!(platform("gpu").is_ok());
        assert_eq!(
            degradable("gpu").err().as_deref(),
            Some("the GPU reference has no dataflow fault model")
        );
        for name in ["tpu", ""] {
            let unknown = format!("unknown platform `{name}`");
            assert_eq!(platform(name).err(), Some(unknown.clone()));
            assert_eq!(degradable(name).err(), Some(unknown));
        }
    }
}

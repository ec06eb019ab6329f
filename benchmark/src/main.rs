//! `dabench-benchmark`: the end-to-end and per-layer benchmark of the
//! DABench-LLM reproduction. Run it from the repository root; README.md
//! describes the workloads and metrics.
//!
//! ```text
//! dabench-benchmark run --seed S [--repeat N] [--out FILE]
//! dabench-benchmark trace --seed S [--out FILE]
//! dabench-benchmark compare BASE.json NEW.json
//! dabench-benchmark measure --workload W --seed S --seconds T --trace 0|1
//! ```
//!
//! `run` and `trace` measure the release binary already built; `measure`
//! builds it first and prints one JSON result line last. A fifth mode,
//! `render JOB...`, is the child process that renders reference outputs.

mod calib;
mod json;
mod layers;
mod metrics;
mod proc;
mod results;
mod serve;
mod stats;
mod trace;
mod workloads;

use json::Json;
use results::{Provenance, ResultSet, Run};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};
use workloads::{Outcome, WORKLOADS};

/// Seconds each workload of `run` measures: the `run_seconds` of
/// `BENCHMARK.json`, so result sets and `measure` runs agree.
const RUN_SECONDS: f64 = 15.0;

/// What every workload and probe needs: the binary, the thread budget and
/// a scratch area under `benchmark/out`, removed when the run ends.
pub struct Env {
    /// The release `dabench` binary.
    pub bin: PathBuf,
    /// `nproc`, passed to every `dabench` as `--jobs`.
    pub jobs: usize,
    /// Where span files and result files go.
    pub out: PathBuf,
    work: PathBuf,
}

impl Env {
    fn new(bin: PathBuf) -> Result<Self, String> {
        let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let out = PathBuf::from("benchmark/out");
        let work = out.join("work").join(std::process::id().to_string());
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Self {
            bin,
            jobs,
            out,
            work,
        })
    }

    /// `dabench <args> --jobs <nproc>`.
    #[must_use]
    pub fn dabench(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).arg("--jobs").arg(self.jobs.to_string());
        cmd
    }

    /// A path for a fresh run directory `name`, emptied if it exists.
    ///
    /// # Errors
    ///
    /// The I/O error of emptying it.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("{}: {e}", dir.display()))
            }
            _ => Ok(dir),
        }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("measure") => cmd_measure(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        _ => Err("usage: dabench-benchmark run|trace|compare|measure (see README.md)".to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Flags of the form `--name value`; [`Flags::get`] refuses a flag given
/// twice.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| format!("unknown argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let values: Vec<&str> = self
            .0
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect();
        match values.as_slice() {
            [] => Ok(None),
            [v] => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read `{v}`")),
            _ => Err(format!("--{name} given twice")),
        }
    }

    fn need<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }
}

fn seconds_flag(flags: &Flags) -> Result<f64, String> {
    let seconds: f64 = flags.need("seconds")?;
    if seconds.is_finite() && seconds > 0.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be positive, not {seconds}"))
    }
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.name)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (one of {})", names.join(", "))
        })
}

/// Where cargo puts the release `dabench` binary.
fn dabench_binary() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("release")
        .join("dabench")
}

fn build_dabench() -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "dabench",
            "--bin",
            "dabench",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build of dabench failed ({status})"))
    }
}

/// The first source file under `dir` modified after `than`, if any.
fn newer_source(dir: &Path, than: SystemTime) -> std::io::Result<Option<PathBuf>> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if let Some(found) = newer_source(&path, than)? {
                return Ok(Some(found));
            }
        } else if path.extension().is_some_and(|x| x == "rs")
            && std::fs::metadata(&path)?.modified()? > than
        {
            return Ok(Some(path));
        }
    }
    Ok(None)
}

/// Refuse a binary older than any `crates/**/*.rs`: its numbers would
/// belong to other code. Returns the binary's modification time.
fn check_fresh(bin: &Path) -> Result<SystemTime, String> {
    let rebuild = "build it with `cargo build --release -p dabench`";
    let built = std::fs::metadata(bin)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}; {rebuild}", bin.display()))?;
    match newer_source(Path::new("crates"), built) {
        Ok(None) => Ok(built),
        Ok(Some(src)) => Err(format!(
            "{} is older than {}; {rebuild}",
            bin.display(),
            src.display()
        )),
        Err(e) => Err(format!("crates/: {e} (run from the repository root)")),
    }
}

/// The checked-out commit, read from `.git` without running git.
fn git_head() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|h| h.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| Some(l.strip_suffix(reference)?.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn provenance(env: &Env, built: SystemTime, seed: u64, seconds: f64) -> Provenance {
    Provenance {
        git_head: git_head(),
        nproc: env.jobs as u64,
        binary_mtime_s: built
            .duration_since(UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64()),
        seed,
        seconds,
    }
}

fn unit_of(name: &str) -> &'static str {
    metrics::end_to_end(name)
        .or_else(|| metrics::per_layer(name))
        .map_or("", |m| m.unit)
}

fn print_outcome(workload: &str, seed: u64, o: &Outcome) {
    println!(
        "{workload}  seed {seed}: {} ops attempted, {} failed",
        o.attempted, o.failed
    );
    let n = o.latency_samples;
    for (name, value) in &o.metrics {
        let note = match *name {
            "setup_s" => "median of the warm-ups".to_owned(),
            "latency_p50_ms" => format!("n={n}"),
            "latency_p90_ms" => format!("n={n}, {} beyond", n - (n * 9).div_ceil(10)),
            "host_kernel_ms" => "this host's calibration kernel; times above are scaled".to_owned(),
            _ => String::new(),
        };
        println!("  {name:<22} {value:>14.4} {:<6} {note}", unit_of(name));
    }
}

fn print_layers(run: &layers::LayerRun) {
    for (name, value) in &run.metrics {
        println!("  {name:<30} {value:>14.4} {}", unit_of(name));
    }
    for (workload, pct) in &run.overhead_pct {
        println!("  trace_overhead_pct[{workload}] {pct:>+10.2} %");
    }
}

fn owned(metrics: &[(&'static str, f64)]) -> Vec<(String, f64)> {
    metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
}

/// `run`: every workload for [`RUN_SECONDS`], `--repeat` times with seeds
/// `S, S+1, …`, interleaved; prints every metric and writes a result file.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "repeat", "out"])?;
    let seed: u64 = flags.need("seed")?;
    let repeat: u64 = flags.get("repeat")?.unwrap_or(1);
    let out = flags
        .get::<PathBuf>("out")?
        .unwrap_or_else(|| PathBuf::from(format!("benchmark/out/run-s{seed}.json")));
    let env = Env::new(dabench_binary())?;
    let built = check_fresh(&env.bin)?;
    let mut set = ResultSet {
        provenance: provenance(&env, built, seed, RUN_SECONDS),
        runs: Vec::new(),
    };
    for w in &WORKLOADS {
        println!("{}: {}", w.name, w.why);
    }
    for k in 0..repeat {
        for w in &WORKLOADS {
            let s = seed + k;
            let o = workloads::run(&env, w.name, s, RUN_SECONDS)?;
            print_outcome(w.name, s, &o);
            set.runs.push(Run {
                workload: w.name.to_owned(),
                seed: s,
                attempted: o.attempted,
                failed: o.failed,
                metrics: owned(&o.metrics),
            });
        }
    }
    set.write(&out)?;
    println!("wrote {}", out.display());
    let failed: u64 = set.runs.iter().map(|r| r.failed).sum();
    Ok(ExitCode::from(u8::from(failed > 0)))
}

/// `trace`: every probe once, with the tracing overhead of every workload.
fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "out"])?;
    let seed: u64 = flags.need("seed")?;
    let out = flags
        .get::<PathBuf>("out")?
        .unwrap_or_else(|| PathBuf::from(format!("benchmark/out/trace-s{seed}.json")));
    let env = Env::new(dabench_binary())?;
    let built = check_fresh(&env.bin)?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let run = layers::run(&env, seed, &names)?;
    println!(
        "per-layer metrics, seed {seed} ({} checks, {} failed)",
        run.attempted, run.failed
    );
    print_layers(&run);
    let mut runs = vec![Run {
        workload: "layers".to_owned(),
        seed,
        attempted: run.attempted,
        failed: run.failed,
        metrics: owned(&run.metrics),
    }];
    runs.extend(run.overhead_pct.iter().map(|(w, pct)| Run {
        workload: (*w).to_owned(),
        seed,
        attempted: 0,
        failed: 0,
        metrics: vec![("trace_overhead_pct".to_owned(), *pct)],
    }));
    let set = ResultSet {
        provenance: provenance(&env, built, seed, 0.0),
        runs,
    };
    set.write(&out)?;
    println!(
        "wrote {} and benchmark/out/trace-<workload>.jsonl",
        out.display()
    );
    Ok(ExitCode::from(u8::from(run.failed > 0)))
}

/// `compare BASE NEW`: exits 1 when any metric got worse or went missing.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("usage: dabench-benchmark compare BASE.json NEW.json".to_owned());
    };
    let rows = results::compare(
        &ResultSet::read(Path::new(base))?,
        &ResultSet::read(Path::new(new))?,
    )?;
    print!("{}", results::render(&rows));
    let failed = rows.iter().any(|r| r.verdict.fails());
    Ok(ExitCode::from(u8::from(failed)))
}

/// `render JOB...`: the library's renderings of the named jobs as one
/// JSON object, for [`workloads::rendered`].
fn cmd_render(jobs: &[String]) -> Result<ExitCode, String> {
    let mut fields = Vec::with_capacity(jobs.len());
    for job in jobs {
        let text =
            dabench::suite::render_experiment(job).ok_or_else(|| format!("unknown job `{job}`"))?;
        fields.push((job.clone(), Json::Str(text)));
    }
    println!("{}", Json::Obj(fields));
    Ok(ExitCode::SUCCESS)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric's value and unit.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, value) in metrics {
        if !value.is_finite() {
            return Err(format!("{name} measured {value}"));
        }
        let entry = Json::Obj(vec![
            ("value".into(), Json::Num(*value)),
            ("unit".into(), Json::Str(unit_of(name).into())),
        ]);
        fields.push(((*name).to_owned(), entry));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(fields)),
    ])
    .to_string())
}

/// `measure`: build the binary, then one workload run (`--trace 0`, the
/// `BENCHMARK.json` end-to-end metrics) or one traced run (`--trace 1`,
/// the per-layer metrics with that workload's tracing overhead).
fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let workload = workload_name(&flags.need::<String>("workload")?)?;
    let seed: u64 = flags.need("seed")?;
    let seconds = seconds_flag(&flags)?;
    let traced = match flags.need::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    build_dabench()?;
    let env = Env::new(dabench_binary())?;
    check_fresh(&env.bin)?;
    let line = if traced {
        let run = layers::run(&env, seed, &[workload])?;
        print_layers(&run);
        let mut metrics = run.metrics.clone();
        metrics.extend(
            run.overhead_pct
                .iter()
                .map(|(_, pct)| ("trace_overhead_pct", *pct)),
        );
        result_line(run.attempted, run.failed, &metrics)?
    } else {
        let o = workloads::run(&env, workload, seed, seconds)?;
        print_outcome(workload, seed, &o);
        let gated: Vec<(&str, f64)> = metrics::END_TO_END
            .iter()
            .map(|m| {
                o.metrics
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|(_, v)| (m.name, *v))
                    .ok_or_else(|| format!("{workload} did not measure {}", m.name))
            })
            .collect::<Result<_, _>>()?;
        result_line(o.attempted, o.failed, &gated)?
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

//! The end-to-end workloads. Each drives the release `dabench` binary the
//! way users run it, checks every output, and measures with tracing off
//! until its operations have taken the given number of seconds (finishing
//! the operation in flight). Untimed warm-ups run first; `setup_s` is
//! their median. Each operation's time is scaled to the reference host by
//! the calibration kernel timed right after it (see [`crate::calib`]),
//! except in `serve-mixed`, whose times are the transport's.

use crate::calib::Calibration;
use crate::json::{self, Json};
use crate::proc::{self, Finished};
use crate::serve::{Conn, Daemon, JobMix};
use crate::stats::{median, percentile};
use crate::Env;
use dabench::suite::EXPERIMENTS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// One workload: its name and why the benchmark runs it.
pub struct Workload {
    /// Name used on the command line and in result files.
    pub name: &'static str,
    /// The behaviour it exercises that no other workload does.
    pub why: &'static str,
}

/// Every workload, in the order `run` and `BENCHMARK.json` list them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-all",
        why: "Back-to-back `dabench all` runs, each with cold memo caches: the compute-bound paper \
              sweep (graph, compile, place, partition, execute, render); no journal, gen or serve code.",
    },
    Workload {
        name: "gen-cosmic",
        why: "`gen --tier cosmic` populations of 1000 distinct scenarios: caches mostly miss and \
              memory grows with the population; sampling, evaluation, ranking and checking dominate.",
    },
    Workload {
        name: "gen-sharded-journal",
        why: "`gen --tier hard --shards 2 --run-dir`: the journal write path, with fsync'd appends, \
              shard spawn and heartbeats, and the shard merge.",
    },
    Workload {
        name: "gen-resume",
        why: "`gen --resume` of a sharded hard-tier journal: the journal read path (parse, replay, \
              merge) plus ranking and checking; output must match the original run byte for byte.",
    },
    Workload {
        name: "serve-mixed",
        why: "`dabench serve` with 2 closed-loop clients on persistent connections, Zipf(1) over 15 \
              jobs against an 8-entry store: transport, admission, hits, evictions and executions.",
    },
];

/// Warm-ups before the timed part: at least this many, and more until
/// [`SETUP_SECONDS`] have passed; `setup_s` is their median.
const SETUP_RUNS: u64 = 5;
/// Seconds of warm-ups, so a cheap warm-up is sampled often enough for
/// its median to hold still.
const SETUP_SECONDS: f64 = 3.0;
/// Scenarios per `gen` process in the timed part: few enough for a run to
/// time a dozen processes or more, so the median holds still.
const POPULATION: u64 = 1000;
/// Scenarios per `gen` process in a warm-up.
const WARMUP_POPULATION: u64 = 200;
/// Scenarios in the journal `gen-resume` replays: enough that the replay
/// cost and memory of one seed's scenarios vary little between seeds.
const REPLAY_POPULATION: u64 = 4000;
/// Shard processes of the sharded workloads.
const SHARDS: &str = "2";
/// Closed-loop clients of `serve-mixed` (never more than `nproc`).
const CLIENTS: usize = 2;
/// Calibration time as a share of the time measured: the kernel runs
/// after each operation for this share of the operation's wall time.
const CALIBRATION_SHARE: f64 = 0.05;

/// What one workload run measured.
pub struct Outcome {
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// End-to-end metrics by catalog name.
    pub metrics: Vec<(&'static str, f64)>,
    /// How many latency samples the percentiles rest on.
    pub latency_samples: usize,
}

/// One timed operation: `ops` units of work, whether every output was
/// right, its wall time and, for a process, its peak resident set.
struct Sample {
    ops: u64,
    ok: bool,
    latency_s: f64,
    rss_kb: Option<u64>,
}

impl Sample {
    fn of(f: &Finished, ops: u64, ok: bool) -> Self {
        Self {
            ops,
            ok,
            latency_s: f.wall_s,
            rss_kb: Some(f.peak_rss_kb),
        }
    }
}

/// Operations measured, each time scaled to the reference host.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    latency_ms: Vec<f64>,
    busy_s: f64,
    rss_kb: Vec<f64>,
}

impl Tally {
    /// Add `s`, whose time `scale` turns into reference-host time.
    fn add(&mut self, s: Sample, scale: f64) {
        self.ops += s.ops;
        if !s.ok {
            self.failed += s.ops;
        }
        self.latency_ms.push(s.latency_s * scale * 1e3);
        self.busy_s += s.latency_s * scale;
        self.rss_kb.extend(s.rss_kb.map(|kb| kb as f64));
    }

    /// The metrics of a run whose operations took `elapsed_s` of
    /// reference-host time while the kernel, if timed, took `kernel_s` on
    /// this host. `tail` adds the p90 latency (request workloads, with
    /// enough samples for it).
    fn finish(
        self,
        setup_s: f64,
        elapsed_s: f64,
        kernel_s: Option<f64>,
        tail: bool,
    ) -> Result<Outcome, String> {
        let mut metrics = vec![
            ("setup_s", setup_s),
            ("throughput_ops_per_s", self.ops as f64 / elapsed_s),
            ("latency_p50_ms", median(&self.latency_ms)),
            ("peak_rss_mb", median(&self.rss_kb) / 1024.0),
        ];
        if tail {
            metrics.push(("latency_p90_ms", percentile(&self.latency_ms, 0.9)?));
        }
        metrics.push(("failed_ratio", self.failed as f64 / self.ops.max(1) as f64));
        metrics.extend(kernel_s.map(|k| ("host_kernel_ms", k * 1e3)));
        Ok(Outcome {
            attempted: self.ops,
            failed: self.failed,
            metrics,
            latency_samples: self.latency_ms.len(),
        })
    }
}

/// Untimed warm-ups, each followed by calibration; `setup_s` (the median
/// of their scaled wall times), or an error if any output is wrong.
fn warm_up(env: &Env, mut op: impl FnMut(u64) -> Result<Sample, String>) -> Result<f64, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cal = Calibration::default();
    for k in 0.. {
        if k >= SETUP_RUNS && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            break;
        }
        let s = op(k)?;
        if !s.ok {
            return Err(format!("warm-up {k} produced wrong output"));
        }
        walls.push(s.latency_s * cal.sample(env.jobs, CALIBRATION_SHARE * s.latency_s));
    }
    Ok(median(&walls))
}

/// Run `op` back to back, each operation followed by calibration that
/// scales its time, until the operations have taken `seconds` on this
/// host; then the run's metrics.
fn timed(
    env: &Env,
    setup_s: f64,
    seconds: f64,
    tail: bool,
    mut op: impl FnMut(u64) -> Result<Sample, String>,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut cal = Calibration::default();
    let mut wall = 0.0;
    let mut k = 0;
    while wall < seconds {
        let s = op(k)?;
        wall += s.latency_s;
        let scale = cal.sample(env.jobs, CALIBRATION_SHARE * s.latency_s);
        tally.add(s, scale);
        k += 1;
    }
    let busy = tally.busy_s;
    tally.finish(setup_s, busy, Some(cal.kernel_s()), tail)
}

/// The `gen` seed of operation `k` of a run with workload seed `seed`.
fn derive(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

/// Whether a `gen` run report says all `n` points completed fresh.
pub fn completed(stderr: &str, n: u64) -> bool {
    stderr.contains(&format!("run report: {n} points — {n} completed"))
}

fn replayed(stderr: &str, n: u64) -> bool {
    stderr.contains(&format!(
        "run report: {n} points — 0 completed (0 retried), {n} from journal"
    ))
}

/// The library's renderings of `jobs`, made by this binary's `render`
/// mode in a child process. Rendering here would raise this process's
/// peak resident set, and exec hands the spawning process's peak to the
/// child, so `wait4` would report it for every program measured after.
///
/// # Errors
///
/// A helper that cannot start, fails, or prints something unreadable.
pub fn rendered(jobs: &[&str]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let f = proc::run(Command::new(exe).arg("render").args(jobs))?;
    if f.code != Some(0) {
        return Err(format!("rendering the references failed: {}", f.stderr));
    }
    let doc = json::parse(&f.stdout)?;
    jobs.iter()
        .map(|job| {
            doc.get(job)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("no reference rendering of `{job}`"))
        })
        .collect()
}

/// What `dabench all` must print: every paper artifact, in order.
///
/// # Errors
///
/// As for [`rendered`].
pub fn paper_reference() -> Result<String, String> {
    Ok(rendered(&EXPERIMENTS)?.concat())
}

/// Run workload `name` with inputs drawn from `seed` for `seconds`.
///
/// # Errors
///
/// An unknown workload, a process that cannot start, or a warm-up whose
/// output is wrong.
pub fn run(env: &Env, name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    match name {
        "paper-all" => paper_all(env, seconds),
        "gen-cosmic" => gen_cosmic(env, seed, seconds),
        "gen-sharded-journal" => gen_sharded(env, seed, seconds),
        "gen-resume" => gen_resume(env, seed, seconds),
        "serve-mixed" => serve_mixed(env, seed, seconds),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The paper sweep has no inputs, so the seed does not enter.
fn paper_all(env: &Env, seconds: f64) -> Result<Outcome, String> {
    let reference = paper_reference()?;
    let mut op = |_| {
        let f = proc::run(&mut env.dabench(&["all"]))?;
        let ok = f.code == Some(0) && f.stdout == reference;
        Ok(Sample::of(&f, 1, ok))
    };
    let setup = warm_up(env, &mut op)?;
    timed(env, setup, seconds, true, &mut op)
}

fn gen_cosmic(env: &Env, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let gen = |count: u64, gen_seed: u64| {
        let (count_s, seed_s) = (count.to_string(), gen_seed.to_string());
        let f = proc::run(&mut env.dabench(&[
            "gen", "--tier", "cosmic", "--count", &count_s, "--seed", &seed_s,
        ]))?;
        let ok = f.code == Some(0) && completed(&f.stderr, count);
        Ok(Sample::of(&f, count, ok))
    };
    let setup = warm_up(env, |k| gen(WARMUP_POPULATION, derive(seed, 1000 + k)))?;
    timed(env, setup, seconds, false, |k| {
        gen(POPULATION, derive(seed, k))
    })
}

/// `gen --tier hard --count N --seed S --shards 2` plus `flag dir`.
fn sharded_gen(
    env: &Env,
    count: u64,
    gen_seed: u64,
    flag: &str,
    dir: &Path,
) -> Result<Finished, String> {
    let (count_s, seed_s) = (count.to_string(), gen_seed.to_string());
    let dir = dir.to_string_lossy();
    proc::run(&mut env.dabench(&[
        "gen", "--tier", "hard", "--count", &count_s, "--seed", &seed_s, "--shards", SHARDS, flag,
        &dir,
    ]))
}

fn gen_sharded(env: &Env, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let op = |count: u64, gen_seed: u64, dir: String| {
        let f = sharded_gen(env, count, gen_seed, "--run-dir", &env.fresh_dir(&dir)?)?;
        let ok = f.code == Some(0) && completed(&f.stderr, count);
        Ok(Sample::of(&f, count, ok))
    };
    let setup = warm_up(env, |k| {
        op(
            WARMUP_POPULATION,
            derive(seed, 1000 + k),
            format!("sharded-warm-{k}"),
        )
    })?;
    timed(env, setup, seconds, false, |k| {
        op(POPULATION, derive(seed, k), format!("sharded-{k}"))
    })
}

/// Replays one journal, written untimed by a sharded run of the same
/// population; every replay must print that run's stdout byte for byte.
fn gen_resume(env: &Env, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let dir = env.fresh_dir("resume")?;
    let original = sharded_gen(env, REPLAY_POPULATION, seed, "--run-dir", &dir)?;
    if original.code != Some(0) || !completed(&original.stderr, REPLAY_POPULATION) {
        return Err(format!("the journal to replay failed: {}", original.stderr));
    }
    let mut op = |_| {
        let f = sharded_gen(env, REPLAY_POPULATION, seed, "--resume", &dir)?;
        let ok = f.code == Some(0)
            && f.stdout == original.stdout
            && replayed(&f.stderr, REPLAY_POPULATION);
        Ok(Sample::of(&f, REPLAY_POPULATION, ok))
    };
    let setup = warm_up(env, &mut op)?;
    timed(env, setup, seconds, false, &mut op)
}

/// Whether a submit reply carries the expected rendering.
pub fn reply_ok(reply: &BTreeMap<String, String>, expected: &str) -> bool {
    reply.get("status").map(String::as_str) == Some("ok")
        && reply.get("data").map(String::as_str) == Some(expected)
}

/// Warm-ups each start a daemon and submit every job once; the last
/// warmed daemon serves the timed part, so the store starts full.
///
/// Times here are wall times, not scaled: a round trip is bound by the
/// transport's timers (see README.md), which do not run faster on a
/// faster host, so scaling would only add the kernel's noise.
fn serve_mixed(env: &Env, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let reference = crate::serve::reference()?;
    let mut setup = Vec::new();
    let mut warmed = None;
    for k in 0..SETUP_RUNS {
        let (daemon, listening_s) = Daemon::start(env, &env.fresh_dir(&format!("serve-{k}"))?)?;
        let start = Instant::now();
        let mut conn = Conn::open(&daemon.addr)?;
        for (job, expected) in &reference {
            if !reply_ok(&conn.call("submit", &[("job", *job)])?, expected) {
                return Err(format!("warm-up submit of `{job}` failed"));
            }
        }
        let wall = listening_s + start.elapsed().as_secs_f64();
        drop(conn);
        if let Some(previous) = warmed.replace(daemon) {
            previous.drain()?;
        }
        setup.push(wall);
    }
    let daemon = warmed.expect("at least one warm-up");

    let conns = (0..CLIENTS)
        .map(|_| Conn::open(&daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let client = |c: usize, mut conn: Conn| -> Result<Vec<Sample>, String> {
        let mut mix = JobMix::new(seed, c as u64);
        let mut samples = Vec::new();
        while start.elapsed().as_secs_f64() < seconds {
            let job = mix.next_job();
            let sent = Instant::now();
            let reply = conn.call("submit", &[("job", job)])?;
            samples.push(Sample {
                ops: 1,
                ok: reply_ok(&reply, &reference[job]),
                latency_s: sent.elapsed().as_secs_f64(),
                rss_kb: None,
            });
        }
        Ok(samples)
    };
    let clients: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let mut conns = conns.into_iter().enumerate();
        let (first, first_conn) = conns.next().expect("one client at least");
        let others: Vec<_> = conns
            .map(|(c, conn)| s.spawn(move || client(c, conn)))
            .collect();
        let mut all = vec![client(first, first_conn)];
        all.extend(others.into_iter().map(|h| h.join().expect("client thread")));
        all
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for samples in clients {
        for s in samples? {
            tally.add(s, 1.0);
        }
    }
    tally.rss_kb.push(daemon.drain()? as f64);
    tally.finish(median(&setup), elapsed, None, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whys_fit_on_one_short_line() {
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn run_reports_are_recognized() {
        let fresh = "run report: 64 points — 64 completed (0 retried), 0 from journal, 0 failed";
        assert!(completed(fresh, 64));
        assert!(!completed(fresh, 65));
        let replay = "run report: 64 points — 0 completed (0 retried), 64 from journal, 0 failed";
        assert!(replayed(replay, 64));
        assert!(!completed(replay, 64));
    }
}

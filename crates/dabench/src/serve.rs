//! `dabench serve` — the experiment suite behind the benchmark daemon.
//!
//! The daemon engine lives in [`dabench_core::serve`] and is generic over
//! a [`JobExecutor`]; this module supplies the concrete executor (every
//! paper artifact the CLI can render, plus the ablation and sensitivity
//! suites) and the flag parsing that maps `dabench serve` options onto a
//! [`ServeConfig`]. See `docs/serve.md` for the wire protocol and
//! lifecycle.

use crate::flags::{Flags, RunOpts};
use crate::suite::{render_experiment, EXPERIMENTS};
use dabench_core::serve::{DrainHandle, JobExecutor, ServeConfig, Server, PROTOCOL};
use dabench_core::supervise::{parse_injections, Injection};
use dabench_core::PlatformError;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Duration;

/// Experiments cheap enough to keep admitting under pressure; everything
/// else (the multi-series sweeps) is *heavy* and shed first when the
/// queue passes its high watermark.
const LIGHT_JOBS: [&str; 6] = ["table1", "table3", "table4", "fig6", "fig10", "fig12"];

/// Every job name the daemon accepts: the paper suite plus the ablation
/// and sensitivity studies.
#[must_use]
pub fn job_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = EXPERIMENTS.to_vec();
    names.push("ablations");
    names.push("sensitivity");
    names.push("infer");
    names.push("gen");
    names
}

/// The suite-backed [`JobExecutor`]: validates job names against
/// [`job_names`], classifies the long sweeps as heavy, and renders each
/// job with [`render_experiment`] — deterministically, so cached and
/// journal-replayed responses are byte-identical to fresh executions.
///
/// Honors `DABENCH_INJECT` (see [`dabench_core::supervise::Injection`]):
/// an `err:KIND:N` clause for a job fails its first `N` executions with
/// the injected [`PlatformError`], counting attempts across retries, so
/// retry-to-success is testable over the wire.
pub struct SuiteExecutor {
    injections: BTreeMap<String, Injection>,
    attempts: Mutex<BTreeMap<String, u32>>,
}

impl SuiteExecutor {
    /// An executor firing the given injections (pass an empty map for
    /// production behavior).
    #[must_use]
    pub fn new(injections: BTreeMap<String, Injection>) -> Self {
        Self {
            injections,
            attempts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl JobExecutor for SuiteExecutor {
    fn validate(&self, job: &str) -> Result<(), String> {
        if job_names().contains(&job) {
            Ok(())
        } else {
            Err(format!(
                "unknown job `{job}` (expected one of: {})",
                job_names().join(", ")
            ))
        }
    }

    fn is_heavy(&self, job: &str) -> bool {
        !LIGHT_JOBS.contains(&job)
    }

    fn execute(&self, job: &str) -> Result<String, PlatformError> {
        if let Some(injection) = self.injections.get(job) {
            let attempt = {
                let mut attempts = self.attempts.lock().expect("attempts lock");
                let n = attempts.entry(job.to_owned()).or_insert(0);
                let attempt = *n;
                *n += 1;
                attempt
            };
            injection.fire(attempt)?;
        }
        render_experiment(job)
            .ok_or_else(|| PlatformError::Unsupported(format!("no renderer for `{job}`")))
    }
}

fn parse_serve_config(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    let mut run = RunOpts {
        max_retries: cfg.max_retries,
        ..RunOpts::default()
    };
    let mut flags = Flags::new("serve", args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--addr" => cfg.addr = flags.value()?.to_owned(),
            "--workers" => cfg.workers = flags.at_least_one()?,
            "--queue" => cfg.queue_capacity = flags.at_least_one()?,
            "--cache" => cfg.cache_capacity = flags.parse()?,
            "--retry-after-ms" => cfg.retry_after = Duration::from_millis(flags.parse()?),
            _ => run.read(&mut flags)?,
        }
    }
    Ok(ServeConfig {
        deadline: run.deadline,
        max_retries: run.max_retries,
        run_dir: run.run_dir,
        resume: run.resume,
        ..cfg
    })
}

/// Run the daemon until a client sends the `drain` op or the handle
/// given to `on_listen` is called (the binary calls it on SIGTERM/SIGINT).
/// `on_listen` runs once the daemon is bound, before it accepts.
///
/// Prints one `listening on <addr>` line to stdout (and flushes it, so
/// callers scripting the daemon can read the resolved port), the resume
/// summary (under `--resume`) and the final tallies to stderr.
///
/// # Errors
///
/// Flag-parsing errors, bind/journal failures, and journal persistence
/// failures mid-run (the daemon drains before reporting those).
pub fn run_serve(rest: &[String], on_listen: impl FnOnce(DrainHandle)) -> Result<(), String> {
    let cfg = parse_serve_config(rest)?;
    let injections = parse_injections()?;
    let server =
        Server::bind(cfg, Box::new(SuiteExecutor::new(injections))).map_err(|e| format!("{e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    crate::write_stdout(|out| {
        writeln!(
            out,
            "dabench serve listening on {addr} (protocol {PROTOCOL})"
        )
    })?;
    if let Some(line) = server.resume_summary() {
        eprintln!("{line}");
    }
    on_listen(server.drain_handle());
    let summary = server.run().map_err(|e| format!("{e}"))?;
    Server::publish_store_obs(&summary);
    eprintln!("{}", summary.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_job_validates_and_renders() {
        let exec = SuiteExecutor::new(BTreeMap::new());
        for job in job_names() {
            exec.validate(job).expect("known job");
            let out = exec.execute(job).expect("renders");
            assert!(!out.is_empty(), "{job} rendered empty");
        }
        assert!(exec.validate("nope").is_err());
    }

    #[test]
    fn heavy_classification_covers_the_sweeps() {
        let exec = SuiteExecutor::new(BTreeMap::new());
        assert!(!exec.is_heavy("table1"));
        assert!(exec.is_heavy("table2"), "table2 is a multi-platform sweep");
        assert!(exec.is_heavy("ablations"));
        assert!(exec.is_heavy("sensitivity"));
        assert!(
            exec.is_heavy("infer"),
            "the serving sweep crosses 4 platforms x 12 workloads"
        );
        assert!(
            exec.is_heavy("gen"),
            "the generated population evaluates, ranks and invariant-checks"
        );
    }

    #[test]
    fn executor_is_deterministic_per_job() {
        let exec = SuiteExecutor::new(BTreeMap::new());
        let a = exec.execute("table1").unwrap();
        let b = exec.execute("table1").unwrap();
        assert_eq!(a, b, "a job must render the same bytes every time");
    }

    #[test]
    fn err_injection_counts_attempts_across_executions() {
        use dabench_core::supervise::parse_injection_clauses;
        let inj = parse_injection_clauses("table1=err:device_fault:2").unwrap();
        let exec = SuiteExecutor::new(inj);
        assert!(exec.execute("table1").is_err(), "first attempt fails");
        assert!(exec.execute("table1").is_err(), "second attempt fails");
        assert!(exec.execute("table1").is_ok(), "third attempt clears");
        assert!(exec.execute("fig6").is_ok(), "other jobs untouched");
    }

    #[test]
    fn serve_flags_map_onto_the_config() {
        let args: Vec<String> = [
            "--addr",
            "127.0.0.1:7777",
            "--workers",
            "3",
            "--queue",
            "5",
            "--cache",
            "9",
            "--retry-after-ms",
            "123",
            "--deadline-s",
            "1.5",
            "--max-retries",
            "2",
            "--resume",
            "/tmp/x",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let cfg = parse_serve_config(&args).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7777");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_capacity, 5);
        assert_eq!(cfg.cache_capacity, 9);
        assert_eq!(cfg.retry_after, Duration::from_millis(123));
        assert_eq!(cfg.deadline, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(cfg.max_retries, 2);
        assert!(cfg.resume);
        assert_eq!(cfg.run_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));

        assert!(parse_serve_config(&["--workers".to_owned(), "0".to_owned()]).is_err());
        assert!(parse_serve_config(&["--bogus".to_owned()]).is_err());
        assert_eq!(
            parse_serve_config(&[]).unwrap().max_retries,
            ServeConfig::default().max_retries,
            "serve keeps its own retry default"
        );
    }
}

//! The client side of `dabench serve`: the daemon process, persistent
//! JSONL connections and the seeded Zipf job mix.

use crate::proc::Handle;
use crate::Env;
use dabench::core::jsonl;
use dabench::core::SplitMix64;
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{ChildStdout, Stdio};
use std::time::{Duration, Instant};

/// Result-store entries of the daemon: fewer than the 15 jobs, so the mix
/// produces hits, evictions and executions.
const CACHE_ENTRIES: &str = "8";

/// A running `dabench serve --workers <nproc> --cache 8 --run-dir D`.
pub struct Daemon {
    handle: Handle,
    // Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Spawn the daemon journaling into `run_dir` and wait for its
    /// `listening` line. Returns the daemon and the seconds that took.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits before listening.
    pub fn start(env: &Env, run_dir: &Path) -> Result<(Self, f64), String> {
        let log = std::fs::File::create(run_dir.with_extension("log"))
            .map_err(|e| format!("{}: {e}", run_dir.display()))?;
        let workers = env.jobs.to_string();
        let dir = run_dir.to_string_lossy();
        let mut cmd = env.dabench(&[
            "serve",
            "--workers",
            &workers,
            "--cache",
            CACHE_ENTRIES,
            "--run-dir",
            &dir,
        ]);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));
        let start = Instant::now();
        let mut handle = Handle::spawn(&mut cmd)?;
        let mut stdout = BufReader::new(handle.child().stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("serve stdout: {e}"))?;
        let listening = start.elapsed().as_secs_f64();
        // `dabench serve listening on HOST:PORT (protocol dabench-serve-v1)`
        let addr = line
            .split_whitespace()
            .nth(4)
            .filter(|_| line.starts_with("dabench serve listening on "))
            .ok_or_else(|| format!("serve did not start: {line:?}"))?
            .to_owned();
        let daemon = Self {
            handle,
            _stdout: stdout,
            addr,
        };
        Ok((daemon, listening))
    }

    /// Drain the daemon and reap it; returns its peak resident set in KiB.
    /// Close every other connection first.
    ///
    /// # Errors
    ///
    /// A failed drain request or a nonzero exit.
    pub fn drain(mut self) -> Result<u64, String> {
        Conn::open(&self.addr)?.call("drain", &[])?;
        match self.handle.wait()? {
            (Some(0), rss_kb) => Ok(rss_kb),
            (code, _) => Err(format!("serve exited with {code:?} after drain")),
        }
    }
}

/// What each job must reply with: its rendering by the library.
///
/// # Errors
///
/// As for [`crate::workloads::rendered`].
pub fn reference() -> Result<BTreeMap<&'static str, String>, String> {
    let jobs = dabench::serve::job_names();
    let texts = crate::workloads::rendered(&jobs)?;
    Ok(jobs.into_iter().zip(texts).collect())
}

/// One persistent connection; requests are answered in order.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    /// Connect to `addr`.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("{e}"))?);
        Ok(Self {
            reader,
            writer: stream,
            next_id: 0,
        })
    }

    /// Send `op` with `fields` and return the parsed reply.
    ///
    /// # Errors
    ///
    /// I/O errors, a closed connection or an unparsable reply.
    pub fn call(
        &mut self,
        op: &str,
        fields: &[(&str, &str)],
    ) -> Result<BTreeMap<String, String>, String> {
        self.next_id += 1;
        let id = self.next_id.to_string();
        let mut pairs = vec![("op", op), ("id", id.as_str())];
        pairs.extend_from_slice(fields);
        let mut line = jsonl::write_object(&pairs);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send {op}: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err(format!("daemon closed the connection during {op}")),
            Ok(_) => jsonl::parse_object(&reply).ok_or_else(|| format!("bad reply: {reply:?}")),
            Err(e) => Err(format!("reply to {op}: {e}")),
        }
    }
}

/// Zipf (s = 1) draws over the daemon's jobs: the job at rank `r` (from 1)
/// is drawn with weight `1/r`, and the workload seed shuffles which job
/// holds which rank. Each client draws from its own stream of that seed.
pub struct JobMix {
    ranked: Vec<&'static str>,
    cumulative: Vec<f64>,
    rng: SplitMix64,
}

impl JobMix {
    /// The mix of workload `seed` as drawn by client `client`.
    #[must_use]
    pub fn new(seed: u64, client: u64) -> Self {
        let mut ranked = dabench::serve::job_names();
        let mut shuffle = SplitMix64::new(seed);
        for i in (1..ranked.len()).rev() {
            let j = usize::try_from(shuffle.below(i as u64 + 1)).expect("index fits");
            ranked.swap(i, j);
        }
        let mut total = 0.0;
        let cumulative = (1..=ranked.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Self {
            ranked,
            cumulative,
            rng: SplitMix64::fork(seed, client),
        }
    }

    /// The next job to submit.
    pub fn next_job(&mut self) -> &'static str {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let u = self.rng.next_f64() * total;
        let i = self.cumulative.partition_point(|&c| c <= u);
        self.ranked[i.min(self.ranked.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, client: u64) -> Vec<&'static str> {
        let mut mix = JobMix::new(seed, client);
        (0..300).map(|_| mix.next_job()).collect()
    }

    #[test]
    fn the_mix_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(draws(1, 0), draws(1, 0));
        assert_ne!(draws(1, 0), draws(2, 0));
        assert_ne!(draws(1, 0), draws(1, 1), "clients draw their own streams");
    }

    #[test]
    fn the_top_ranked_job_is_drawn_most_and_every_draw_is_a_job() {
        let mix = JobMix::new(7, 0);
        let top = mix.ranked[0];
        let d = draws(7, 0);
        let count = |job: &str| d.iter().filter(|j| **j == job).count();
        assert!(mix.ranked.iter().all(|j| count(j) <= count(top)));
        // 1 / H(15) of 300 draws is about 90.
        assert!((60..=120).contains(&count(top)), "{}", count(top));
        assert!(d.iter().all(|j| dabench::serve::job_names().contains(j)));
    }
}

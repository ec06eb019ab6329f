//! Integration tests of the `dabench serve` daemon over real TCP: smoke,
//! shared-cache hits, structured load shedding, graceful drain, error
//! injection over the wire, and the headline robustness property —
//! SIGKILL mid-run, restart with `--resume`, byte-identical responses
//! (see docs/serve.md).

use dabench::core::jsonl;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    stderr: Option<ChildStderr>,
    addr: String,
}

/// Spawn `dabench serve` with the given extra flags, wait for the
/// `listening on` line, and return a handle holding the resolved address.
fn spawn_daemon(args: &[&str], inject: Option<&str>) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dabench"));
    cmd.arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("DABENCH_INJECT");
    if let Some(inject) = inject {
        cmd.env("DABENCH_INJECT", inject);
    }
    let mut child = cmd.spawn().expect("daemon spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("listening line");
    // "dabench serve listening on 127.0.0.1:PORT (protocol dabench-serve-v1)"
    let addr = line
        .split_whitespace()
        .nth(4)
        .unwrap_or_else(|| panic!("unexpected listening line: {line:?}"))
        .to_owned();
    assert!(
        line.contains("dabench-serve-v1"),
        "listening line must name the protocol: {line:?}"
    );
    let stderr = child.stderr.take();
    Daemon {
        child,
        stderr,
        addr,
    }
}

impl Daemon {
    fn connect(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// Graceful stop via the `drain` op; returns (exit code, stderr).
    fn drain_and_wait(self) -> (Option<i32>, String) {
        let mut client = self.connect();
        let reply = client.request("{\"op\":\"drain\",\"id\":\"shutdown\"}");
        assert!(reply.contains("\"draining\":\"true\""), "{reply}");
        drop(client);
        self.wait_for_exit("the daemon did not exit within 60 s of the drain op")
    }

    /// Wait for the daemon to exit; returns (exit code, stderr). Fails
    /// with `what` after 60 s, killing the daemon instead of hanging.
    fn wait_for_exit(self, what: &str) -> (Option<i32>, String) {
        let Self {
            mut child, stderr, ..
        } = self;
        let pid = child.id().to_string();
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            // Stderr reaches EOF when the daemon exits; read it first so a
            // full pipe cannot block the daemon.
            let mut text = String::new();
            if let Some(mut pipe) = stderr {
                pipe.read_to_string(&mut text).expect("stderr");
            }
            let status = child.wait().expect("daemon exits");
            let _ = tx.send((status.code(), text));
        });
        let exited = rx.recv_timeout(Duration::from_secs(60));
        if exited.is_err() {
            let _ = Command::new("kill").args(["-KILL", &pid]).status();
        }
        waiter.join().expect("waiter thread");
        exited.unwrap_or_else(|_| panic!("{what}"))
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone().expect("clone"));
                    return Self {
                        reader,
                        writer: stream,
                    };
                }
                Err(e) => {
                    assert!(Instant::now() < deadline, "connect {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        assert!(reply.ends_with('\n'), "unterminated reply: {reply:?}");
        reply.trim_end().to_owned()
    }

    fn submit(&mut self, id: &str, job: &str) -> String {
        self.request(&format!(
            "{{\"op\":\"submit\",\"id\":\"{id}\",\"job\":\"{job}\"}}"
        ))
    }
}

/// Poll the daemon's `stats` op until `accepted`, `queued` and
/// `completed` read as given: tests order events by daemon state, never by
/// sleeping. Fails with `what` after 60 s.
fn wait_for_stats(client: &mut Client, what: &str, accepted: u64, queued: u64, completed: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = client.request("{\"op\":\"stats\",\"id\":\"s\"}");
        let stats = jsonl::parse_object(&reply).unwrap_or_else(|| panic!("stats reply: {reply}"));
        let count = |key: &str| stats.get(key).and_then(|v| v.parse::<u64>().ok());
        if count("accepted") == Some(accepted)
            && count("queued") == Some(queued)
            && count("completed") == Some(completed)
        {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: {reply}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Extract the escaped `data` payload from an `ok` response line. Escaped
/// payloads compare byte-identically iff the unescaped renderings do.
fn data_field(reply: &str) -> &str {
    let start = reply
        .find("\"data\":\"")
        .unwrap_or_else(|| panic!("no data field in {reply}"));
    let payload = &reply[start + "\"data\":\"".len()..];
    payload.strip_suffix("\"}").expect("data is the last field")
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dabench-cli-serve-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reference rendering of an experiment via the one-shot CLI; the daemon
/// must serve exactly these bytes.
fn reference_output(experiment: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dabench"))
        .arg(experiment)
        .env_remove("DABENCH_INJECT")
        .output()
        .expect("reference run");
    assert!(out.status.success(), "reference {experiment} failed");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn smoke_ping_submit_cache_stats_drain() {
    let daemon = spawn_daemon(&["--workers", "2"], None);
    let mut client = daemon.connect();

    let pong = client.request("{\"op\":\"ping\",\"id\":\"p\"}");
    assert!(pong.contains("\"protocol\":\"dabench-serve-v1\""), "{pong}");

    // First submission executes; the rendered bytes match the one-shot CLI.
    let first = client.submit("1", "table1");
    assert!(first.contains("\"status\":\"ok\""), "{first}");
    assert!(first.contains("\"source\":\"executed\""), "{first}");
    assert_eq!(
        data_field(&first),
        jsonl::escape(&reference_output("table1")),
        "served bytes must match the CLI rendering"
    );

    // Second identical submission is a shared-cache hit, byte-identical.
    let second = client.submit("2", "table1");
    assert!(second.contains("\"source\":\"cache\""), "{second}");
    assert_eq!(data_field(&first), data_field(&second));

    // The hit is observable in the stats op.
    let stats = client.request("{\"op\":\"stats\",\"id\":\"s\"}");
    assert!(stats.contains("\"cache_hits\":\"1\""), "{stats}");
    assert!(stats.contains("\"served_cached\":\"1\""), "{stats}");

    // Unknown jobs are rejected with a structured error.
    let bad = client.submit("3", "fig99");
    assert!(bad.contains("\"status\":\"error\""), "{bad}");
    assert!(bad.contains("unknown job"), "{bad}");

    drop(client);
    let (code, stderr) = daemon.drain_and_wait();
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("serve: 1 accepted"), "{stderr}");
    assert!(stderr.contains("1 from cache"), "{stderr}");
}

#[test]
fn metrics_flag_surfaces_store_hit_counters() {
    let daemon = spawn_daemon(&["--workers", "1", "--metrics"], None);
    let mut client = daemon.connect();
    let first = client.submit("1", "table3");
    assert!(first.contains("\"status\":\"ok\""), "{first}");
    let second = client.submit("2", "table3");
    assert!(second.contains("\"source\":\"cache\""), "{second}");
    drop(client);
    let (code, stderr) = daemon.drain_and_wait();
    assert_eq!(code, Some(0), "{stderr}");
    // The store counters land on the obs bus and in the --metrics table.
    assert!(stderr.contains("serve.store.hits"), "{stderr}");
}

#[test]
fn saturated_queue_sheds_instead_of_blocking() {
    // One worker, queue of one: the third concurrent submission must be
    // shed immediately with a structured response and a retry hint.
    let daemon = spawn_daemon(
        &["--workers", "1", "--queue", "1"],
        Some("fig6=sleep:2,fig10=sleep:2"),
    );

    let mut stats = daemon.connect();
    let addr = daemon.addr.clone();
    let a = std::thread::spawn({
        let addr = addr.clone();
        move || Client::connect(&addr).submit("a", "fig6")
    });
    wait_for_stats(&mut stats, "a never started", 1, 0, 0);
    let b = std::thread::spawn({
        let addr = addr.clone();
        move || Client::connect(&addr).submit("b", "fig10")
    });
    wait_for_stats(&mut stats, "b never queued behind a", 2, 1, 0);

    let mut c = daemon.connect();
    let started = Instant::now();
    let shed = c.submit("c", "table3");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "shed response must not wait for the queue"
    );
    assert!(shed.contains("\"status\":\"shed\""), "{shed}");
    assert!(shed.contains("\"reason\":\"queue full\""), "{shed}");
    assert!(shed.contains("\"retry_after_ms\":\"250\""), "{shed}");

    // The blocked submissions still complete normally.
    let a_reply = a.join().expect("a");
    let b_reply = b.join().expect("b");
    assert!(a_reply.contains("\"status\":\"ok\""), "{a_reply}");
    assert!(b_reply.contains("\"status\":\"ok\""), "{b_reply}");

    drop(stats);
    let (code, stderr) = daemon.drain_and_wait();
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("1 shed"), "{stderr}");
}

#[test]
fn injected_errors_surface_and_retry_over_the_wire() {
    let daemon = spawn_daemon(
        &["--workers", "1", "--max-retries", "1"],
        Some("table1=err:device_fault,table4=err:compile_failure:1"),
    );
    let mut client = daemon.connect();

    // Permanent injection: retried once, then reported as failed.
    let failed = client.submit("1", "table1");
    assert!(failed.contains("\"status\":\"failed\""), "{failed}");
    assert!(failed.contains("device fault on `injected`"), "{failed}");
    assert!(failed.contains("after 1 retries"), "{failed}");

    // One-shot injection: the retry succeeds and serves real bytes.
    let ok = client.submit("2", "table4");
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    assert_eq!(data_field(&ok), jsonl::escape(&reference_output("table4")));

    drop(client);
    let (code, stderr) = daemon.drain_and_wait();
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("1 failed"), "{stderr}");
}

#[test]
fn sigkill_then_resume_serves_byte_identical_results() {
    let dir = temp_dir("resume");
    let dir_s = dir.to_str().expect("utf-8 temp path");

    // First daemon: table1 completes and is journaled; fig10 is accepted
    // but stuck executing (injected sleep) when the SIGKILL lands.
    let daemon = spawn_daemon(
        &["--workers", "2", "--run-dir", dir_s],
        Some("fig10=sleep:30"),
    );
    let mut client = daemon.connect();
    let original = client.submit("1", "table1");
    assert!(original.contains("\"status\":\"ok\""), "{original}");
    let addr = daemon.addr.clone();
    let _stuck = std::thread::spawn(move || {
        // This submission never gets an answer: the daemon dies mid-job.
        let _ = Client::connect(&addr).submit("2", "fig10");
    });
    // `accepted` counts a job only after its journal record is durable.
    wait_for_stats(&mut client, "fig10 never started", 2, 0, 1);
    daemon.kill();

    // Second daemon resumes the journal: the completed rendering replays
    // from cache byte-identically, the in-flight job is re-adopted and
    // re-run (no injection this time).
    let resumed = spawn_daemon(&["--workers", "2", "--resume", dir_s], None);
    let mut client = resumed.connect();

    let replayed = client.submit("3", "table1");
    assert!(replayed.contains("\"source\":\"cache\""), "{replayed}");
    assert_eq!(
        data_field(&original),
        data_field(&replayed),
        "replayed rendering must be byte-identical"
    );

    // The adopted job runs at startup with no client; once it has
    // completed, its resubmission serves the one-shot CLI's bytes from
    // cache.
    wait_for_stats(&mut client, "adopted job never completed", 0, 0, 1);
    let adopted = client.submit("4", "fig10");
    assert!(adopted.contains("\"source\":\"cache\""), "{adopted}");
    let expected = jsonl::escape(&reference_output("fig10"));
    assert_eq!(data_field(&adopted), expected, "adopted job re-rendered");

    drop(client);
    let (code, stderr) = resumed.drain_and_wait();
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("resume: 1 replayed from journal, 1 adopted (re-run)"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gen_job_sheds_under_pressure_and_resumes_byte_identically() {
    // The generated-population job is classified heavy: with the queue
    // saturated it must shed instead of blocking. After a SIGKILL the
    // journaled result replays from cache byte-identically.
    let dir = temp_dir("gen-resume");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let daemon = spawn_daemon(
        &["--workers", "1", "--queue", "1", "--run-dir", dir_s],
        Some("fig6=sleep:2,fig10=sleep:2"),
    );

    let mut c = daemon.connect();
    let addr = daemon.addr.clone();
    let a = std::thread::spawn({
        let addr = addr.clone();
        move || Client::connect(&addr).submit("a", "fig6")
    });
    wait_for_stats(&mut c, "a never started", 1, 0, 0);
    let b = std::thread::spawn({
        let addr = addr.clone();
        move || Client::connect(&addr).submit("b", "fig10")
    });
    wait_for_stats(&mut c, "b never queued behind a", 2, 1, 0);

    // Queue full: the generated-population job is shed, not queued.
    let shed = c.submit("c", "gen");
    assert!(shed.contains("\"status\":\"shed\""), "{shed}");

    let a_reply = a.join().expect("a");
    let b_reply = b.join().expect("b");
    assert!(a_reply.contains("\"status\":\"ok\""), "{a_reply}");
    assert!(b_reply.contains("\"status\":\"ok\""), "{b_reply}");

    // With the queue drained the same job executes and is journaled.
    let original = c.submit("d", "gen");
    assert!(original.contains("\"status\":\"ok\""), "{original}");
    assert!(original.contains("\"source\":\"executed\""), "{original}");
    drop(c);
    daemon.kill();

    // Restart from the journal: the generated population replays from
    // cache, byte-identical to the pre-kill rendering.
    let resumed = spawn_daemon(&["--workers", "1", "--resume", dir_s], None);
    let mut client = resumed.connect();
    let replayed = client.submit("e", "gen");
    assert!(replayed.contains("\"source\":\"cache\""), "{replayed}");
    assert_eq!(
        data_field(&original),
        data_field(&replayed),
        "replayed generated population must be byte-identical"
    );
    drop(client);
    let (code, stderr) = resumed.drain_and_wait();
    assert_eq!(code, Some(0), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully() {
    let daemon = spawn_daemon(&["--workers", "1"], None);
    let mut client = daemon.connect();
    let ok = client.submit("1", "table4");
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");

    // The client stays connected and idle: it must not hold up the exit.
    let term = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let (code, stderr) = daemon.wait_for_exit("the daemon did not exit within 60 s of SIGTERM");
    drop(client);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("serve: 1 accepted"), "{stderr}");
}

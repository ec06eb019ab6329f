//! Child processes timed from spawn to reap, with the peak resident set
//! `wait4(2)` reports for the child and every descendant it reaped (shard
//! workers included).

use std::io::{self, Read as _};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is that of 64-bit Linux");

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    _utime: [i64; 2],
    _stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

/// Peak resident set of this process so far, KiB.
#[must_use]
pub fn own_peak_rss_kb() -> u64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable local with the Linux
    // `struct rusage` layout `getrusage` fills in.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        u64::try_from(usage.maxrss).unwrap_or(0)
    } else {
        0
    }
}

/// A spawned child that is killed and reaped if dropped before [`wait`].
///
/// [`wait`]: Handle::wait
pub struct Handle {
    child: Child,
    reaped: bool,
}

impl Handle {
    /// Spawn `cmd`.
    ///
    /// # Errors
    ///
    /// The spawn error, naming the program.
    pub fn spawn(cmd: &mut Command) -> Result<Self, String> {
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
        Ok(Self {
            child,
            reaped: false,
        })
    }

    /// The child, for its pipes.
    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Reap the child: its exit code (`None` when a signal ended it) and
    /// its peak resident set in KiB.
    ///
    /// # Errors
    ///
    /// The `wait4` error.
    pub fn wait(&mut self) -> Result<(Option<i32>, u64), String> {
        let pid = i32::try_from(self.child.id()).map_err(|e| format!("pid: {e}"))?;
        let mut status = 0;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable locals of the
            // types `wait4` expects (`int` and the Linux `struct rusage`
            // layout above), and `pid` is our own child, not yet reaped.
            let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if got == pid {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(format!("wait4({pid}): {err}"));
            }
        }
        self.reaped = true;
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok((code, u64::try_from(usage.maxrss).unwrap_or(0)))
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.wait();
        }
    }
}

/// A finished child process.
pub struct Finished {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// Everything it wrote to stderr.
    pub stderr: String,
    /// Wall time from spawn to reap, in seconds.
    pub wall_s: f64,
    /// Peak resident set of the process and its reaped descendants, KiB.
    pub peak_rss_kb: u64,
}

/// Run `cmd` to completion with captured output.
///
/// # Errors
///
/// Spawn, pipe or `wait4` failures; a nonzero exit is not an error here.
pub fn run(cmd: &mut Command) -> Result<Finished, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut handle = Handle::spawn(cmd)?;
    let mut out_pipe = handle.child().stdout.take().expect("stdout is piped");
    let mut err_pipe = handle.child().stderr.take().expect("stderr is piped");
    let (stdout, stderr) = std::thread::scope(|s| {
        let err_reader = s.spawn(move || {
            let mut text = String::new();
            err_pipe.read_to_string(&mut text).map(|_| text)
        });
        let mut text = String::new();
        let stdout = out_pipe.read_to_string(&mut text).map(|_| text);
        (stdout, err_reader.join().expect("stderr reader"))
    });
    let (code, peak_rss_kb) = handle.wait()?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Finished {
        code,
        stdout: stdout.map_err(|e| format!("stdout: {e}"))?,
        stderr: stderr.map_err(|e| format!("stderr: {e}"))?,
        wall_s,
        peak_rss_kb,
    })
}

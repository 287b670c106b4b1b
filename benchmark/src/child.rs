//! Child processes of the benchmark: spawn, reap, and peak memory.
//!
//! Every child is held by a [`Guard`] that kills and reaps it when
//! dropped, so an error or a panic anywhere in a workload leaves no
//! process behind. Peak RSS comes from the kernel: the `ru_maxrss` that
//! `wait4` returns when it reaps the child.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// A running child that is killed and reaped on drop.
pub struct Guard {
    child: Child,
    reaped: bool,
}

impl Guard {
    /// Spawn `cmd` with piped stdin and stdout and inherited stderr.
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Guard> {
        let child =
            cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn()?;
        Ok(Guard { child, reaped: false })
    }

    /// The child, to take its pipes.
    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Wait for the child to exit, at most `timeout`; kill it if it does
    /// not. Blocks in the kernel until the child exits, so the exit is
    /// seen as soon as it happens; a watchdog thread kills the child when
    /// the timeout passes first.
    pub fn wait(mut self, timeout: Duration) -> Exit {
        let pid = i32::try_from(self.child.id()).expect("pids fit in i32");
        let (exited, watch) = mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = watch.recv_timeout(timeout) {
                // SAFETY: plain syscall. The child has not been reaped
                // (the waiter below leaves it a zombie until this thread
                // has ended), so `pid` still names it.
                unsafe { kill(pid, SIGKILL) };
            }
        });
        wait_exited(pid);
        let at = Instant::now();
        let _ = exited.send(());
        let _ = watchdog.join();
        let (code, peak_rss_mb) = reap(pid).unwrap_or((None, 0.0));
        self.reaped = true;
        Exit { code, peak_rss_mb, at }
    }
}

/// How a child ended.
pub struct Exit {
    /// Exit code; `None` when a signal (or the timeout) ended it.
    pub code: Option<i32>,
    /// Peak resident set, in MB.
    pub peak_rss_mb: f64,
    /// When the wait saw the exit.
    pub at: Instant,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Run `cmd` to completion, feeding it nothing and collecting stdout.
/// Returns the wall time from spawn to exit, the exit code, stdout, and
/// the child's peak RSS in MB.
pub fn run_timed(cmd: &mut Command, timeout: Duration) -> std::io::Result<Timed> {
    let start = Instant::now();
    let mut guard = Guard::spawn(cmd)?;
    drop(guard.child().stdin.take());
    let mut stdout = guard.child().stdout.take().expect("stdout is piped");
    // Read in a scoped thread so a child that floods its pipe cannot
    // block on a full buffer while we wait.
    let (out, exit) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut buf = Vec::new();
            let _ = stdout.read_to_end(&mut buf);
            buf
        });
        let status = guard.wait(timeout);
        (reader.join().expect("stdout reader does not panic"), status)
    });
    Ok(Timed { wall: exit.at - start, code: exit.code, stdout: out, peak_rss_mb: exit.peak_rss_mb })
}

/// What [`run_timed`] observed.
pub struct Timed {
    /// Spawn to exit.
    pub wall: Duration,
    /// Exit code; `None` if killed.
    pub code: Option<i32>,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Peak resident set, in MB.
    pub peak_rss_mb: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` in kilobytes.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    longs: [i64; 14],
}

/// `siginfo_t` on Linux: 128 bytes, filled by `waitid` and not read.
#[repr(C)]
struct SigInfo {
    bytes: [u64; 16],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn waitid(idtype: i32, id: u32, info: *mut SigInfo, options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const P_PID: i32 = 1;
const SIGKILL: i32 = 9;

/// Block until `pid` has exited, leaving it unreaped.
fn wait_exited(pid: i32) {
    let mut info = SigInfo { bytes: [0; 16] };
    loop {
        // SAFETY: `info` is live, writable and as large as the kernel's
        // `siginfo_t`; `WNOWAIT` leaves the child for `reap`.
        let got = unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) };
        if got == 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return;
        }
    }
}

/// Reap `pid`, which has exited. Returns its exit code (`None` if a
/// signal ended it) and peak RSS in MB.
fn reap(pid: i32) -> Option<(Option<i32>, f64)> {
    let mut status = 0i32;
    let mut usage = RUsage { times: [0; 4], longs: [0; 14] };
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // kernel's `int` and 64-bit `struct rusage`; `pid` is our own child,
    // which no other code reaps (the guard never calls `Child::wait`
    // after this succeeds).
    let got = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
    if got != pid {
        return None;
    }
    let code = if status & 0x7f == 0 { Some((status >> 8) & 0xff) } else { None };
    Some((code, usage.longs[0] as f64 / 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_returns_the_exit_code() {
        let exit = Guard::spawn(Command::new("sh").args(["-c", "exit 3"]))
            .expect("spawn sh")
            .wait(Duration::from_secs(30));
        assert_eq!(exit.code, Some(3));
        assert!(exit.peak_rss_mb > 0.0);
    }

    #[test]
    fn wait_kills_a_child_past_the_timeout() {
        let start = Instant::now();
        let exit = Guard::spawn(Command::new("sleep").arg("30"))
            .expect("spawn sleep")
            .wait(Duration::from_millis(200));
        assert_eq!(exit.code, None);
        assert!(exit.at - start < Duration::from_secs(10));
    }
}

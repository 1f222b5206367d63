//! The `mdesc serve` child process: start-up, readiness, `/proc`
//! sampling, and a shutdown that collects the child's resource usage.
//! Dropping a [`Daemon`] that was not stopped kills and reaps it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mdes_serve::proto::{parse_reply, Reply};

/// The shards `--machine all` boots, in boot order.
pub const SHARDS: [&str; 4] = ["PA7100", "Pentium", "SuperSPARC", "K5"];

/// How long start-up and shutdown may take before the run is invalid.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and `struct rusage` as laid out on 64-bit Linux");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// (`ru_maxrss` .. `ru_nivcsw`).
#[repr(C)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

const _: () = assert!(std::mem::size_of::<RawRusage>() == 144);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
}

const WNOHANG: i32 = 1;

/// Whole-lifetime resource usage of a reaped child, every thread it ever
/// ran included (which `/proc` no longer shows once a thread exits).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Whether the child exited with status 0.
    pub exit_ok: bool,
}

/// Reaps child `pid` if it has exited (or waits for it with `block`).
fn reap(pid: i32, block: bool) -> Option<Usage> {
    let mut status = 0i32;
    let mut raw = RawRusage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `status` and `raw` are live, exclusively borrowed locals
    // with the layouts wait4 writes (`int`, and `struct rusage` as
    // asserted above), and `pid` is a child of this process that only
    // this module ever waits for.
    let got = unsafe { wait4(pid, &mut status, if block { 0 } else { WNOHANG }, &mut raw) };
    (got == pid).then(|| Usage {
        ctx_switches: (raw.counters[12] + raw.counters[13]) as u64,
        exit_ok: status == 0,
    })
}

/// Memory figures from `/proc/<pid>/status`, in kB.
#[derive(Clone, Copy, Debug, Default)]
pub struct Memory {
    /// Peak resident set (`VmHWM`).
    pub hwm_kb: u64,
    /// Current resident set (`VmRSS`).
    pub rss_kb: u64,
}

/// Reads `VmHWM` and `VmRSS` of `pid` (`"self"` for this process).
pub fn memory(pid: &str) -> Result<Memory, String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let field = |key: &str| -> Result<u64, String> {
        text.lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
            .ok_or_else(|| format!("/proc/{pid}/status has no {key}"))
    };
    Ok(Memory {
        hwm_kb: field("VmHWM:")?,
        rss_kb: field("VmRSS:")?,
    })
}

/// User plus system CPU time of process `pid` so far, microseconds:
/// fields 14 and 15 of `/proc/<pid>/stat`, in which the kernel keeps
/// the time of threads that have already exited.
pub fn cpu_us(pid: &str) -> Result<u64, String> {
    /// `USER_HZ`: `/proc` counts CPU time in hundredths of a second.
    const TICK_US: u64 = 10_000;
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // The command name may hold spaces; the fields after it do not.
    let fields: Vec<&str> = text
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat is malformed"))
    };
    // After the name, field 3 (state) is index 0, so utime (14) is 11.
    Ok((tick(11)? + tick(12)?) * TICK_US)
}

/// A line-framed blocking connection for the control verbs.
pub struct LineConn {
    reader: BufReader<UnixStream>,
}

impl LineConn {
    /// Connects to the daemon's socket.
    pub fn connect(socket: &Path) -> std::io::Result<LineConn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(PROCESS_TIMEOUT))?;
        Ok(LineConn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one frame and reads its reply.
    pub fn round_trip(&mut self, frame: &str) -> Result<Reply, String> {
        let stream = self.reader.get_mut();
        stream
            .write_all(frame.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("daemon write: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => parse_reply(line.trim_end()),
            Err(e) => Err(format!("daemon read: {e}")),
        }
    }
}

/// A running `mdesc serve --machine all` child.
pub struct Daemon {
    child: Child,
    pid: i32,
    socket: PathBuf,
    reaped: bool,
}

impl Daemon {
    /// Spawns the daemon on `socket` and waits until every shard answers
    /// `query`.  Returns the daemon and that set-up time.
    pub fn start(mdesc: &Path, socket: &Path) -> Result<(Daemon, Duration), String> {
        let started = Instant::now();
        let child = Command::new(mdesc)
            .args(["serve", "--machine", "all", "--workers", "2", "--socket"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mdesc.display()))?;
        let mut daemon = Daemon {
            pid: child.id() as i32,
            child,
            socket: socket.to_path_buf(),
            reaped: false,
        };
        let mut conn = loop {
            match LineConn::connect(socket) {
                Ok(conn) => break conn,
                Err(_) if started.elapsed() < PROCESS_TIMEOUT => {
                    daemon.check_alive()?;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("daemon never listened: {e}")),
            }
        };
        for shard in SHARDS {
            let reply = conn.round_trip(&format!(
                "{{\"verb\": \"query\", \"machine\": \"{shard}\"}}"
            ))?;
            if !reply.ok {
                return Err(format!(
                    "shard {shard} refused `query`: {}",
                    reply.body.render()
                ));
            }
        }
        let elapsed = started.elapsed();
        Ok((daemon, elapsed))
    }

    /// The daemon's socket.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's process id, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.pid.to_string()
    }

    /// Fails when the daemon has exited: a run whose daemon dies is
    /// invalid.
    pub fn check_alive(&mut self) -> Result<(), String> {
        if self.reaped {
            return Err("daemon already stopped".to_string());
        }
        match reap(self.pid, false) {
            Some(usage) => {
                self.reaped = true;
                Err(format!(
                    "daemon exited early ({})",
                    if usage.exit_ok { "status 0" } else { "failure" }
                ))
            }
            None => Ok(()),
        }
    }

    /// Sends `shutdown`, waits for the drain, and returns the daemon's
    /// lifetime resource usage.  A daemon that does not exit with status
    /// 0 (it does not when a request was left unanswered) fails the run.
    pub fn stop(mut self) -> Result<Usage, String> {
        let mut conn =
            LineConn::connect(&self.socket).map_err(|e| format!("daemon unreachable: {e}"))?;
        let reply = conn.round_trip("{\"verb\": \"shutdown\"}")?;
        if !reply.ok {
            return Err("daemon refused `shutdown`".to_string());
        }
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            if let Some(usage) = reap(self.pid, false) {
                self.reaped = true;
                return if usage.exit_ok {
                    Ok(usage)
                } else {
                    Err("daemon exited with a failure status".to_string())
                };
            }
            if Instant::now() > deadline {
                return Err("daemon did not exit after `shutdown`".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = reap(self.pid, true);
        }
    }
}

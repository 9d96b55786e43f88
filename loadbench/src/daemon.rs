//! The daemon under test as a child process: `ucfg serve --port 0
//! --shards 2` with `UCFG_THREADS=2`, its address read from stderr, its
//! CPU time and peak RSS read from `/proc`.

use crate::config::{SHARDS, THREADS};
use crate::gen::Req;
use crate::wire::Conn;
use std::io::{self, Read};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, ...) -> i32;
}
const SC_CLK_TCK: i32 = 2;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running `ucfg serve`. Dropping it kills the process and waits.
pub struct Daemon {
    child: Child,
    stderr: ChildStderr,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Daemon {
    /// Spawn the daemon and read its listening address.
    pub fn spawn(bin: &Path, scratch: &Path) -> io::Result<Daemon> {
        std::fs::create_dir_all(scratch)?;
        let mut cmd = Command::new(bin);
        // SAFETY: the closure runs in the forked child before exec and
        // calls only prctl, which is async-signal-safe; it makes the
        // kernel kill the daemon if this process dies without reaping it.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = cmd
            .args(["serve", "--port", "0", "--shards", &SHARDS.to_string()])
            .env("UCFG_THREADS", THREADS.to_string())
            .env("UCFG_OUT_DIR", scratch)
            .env_remove("UCFG_TRACE")
            .env_remove("UCFG_NO_SIMD")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = child.stderr.take().expect("stderr is piped");
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            if stderr.read(&mut byte)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "daemon exited before listening: {}",
                        String::from_utf8_lossy(&line)
                    ),
                ));
            }
            line.push(byte[0]);
        }
        let line = String::from_utf8_lossy(&line).into_owned();
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("no address in {line:?}"),
                )
            })?
            .to_string();
        Ok(Daemon {
            child,
            stderr,
            addr,
        })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Has the process exited?
    pub fn exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }

    /// User + system CPU time so far, ms (`/proc/<pid>/stat`, including
    /// exited threads).
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        // Fields after the command: state is field 3, utime 14, stime 15.
        let f: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| {
            f.get(i - 3)
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        // SAFETY: sysconf only reads a constant.
        let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        Ok((ticks(14) + ticks(15)) * 1e3 / hz)
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn rss_peak_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))?;
        Ok(kib / 1024.0)
    }

    /// Kill the process, drain its stderr, and wait for it.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let mut sink = Vec::new();
        let _ = self.stderr.read_to_end(&mut sink);
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Poll `/healthz` until it answers 200 (at most `within`).
pub fn wait_healthy(addr: &str, within: Duration) -> io::Result<()> {
    let deadline = Instant::now() + within;
    let probe = Req::healthz();
    loop {
        let answered =
            Conn::connect(addr).and_then(|mut c| c.roundtrip(&probe.wire, Duration::from_secs(1)));
        match answered {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if Instant::now() >= deadline => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon never became healthy",
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

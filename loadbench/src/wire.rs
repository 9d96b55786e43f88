//! A minimal HTTP/1.1 client connection for load generation: each
//! request leaves in a single `write`, responses are parsed straight
//! from a receive buffer, and waits use `ppoll` with nanosecond timeouts
//! so an open-loop sender wakes on time (Linux only).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Ask the kernel for 1 ns timer slack on the calling thread (the default
/// 50 µs would make every open-loop send up to 50 µs late).
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Wait until `fd` is ready for `events` or `timeout` passes. Returns
/// whether it became ready.
fn wait_fd(fd: i32, events: i16, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `pfd` and `ts` are valid for the call; nfds is 1; a null
    // sigmask leaves the signal mask unchanged.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// When the bytes completing it were read.
    pub at: Instant,
}

/// A keep-alive connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Time of the last read that added bytes to `buf`.
    read_at: Instant,
    /// The daemon closed its end (responses already buffered still count).
    closed: bool,
}

impl Conn {
    /// Connect (nonblocking, `TCP_NODELAY`).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            read_at: Instant::now(),
            closed: false,
        })
    }

    /// Send `bytes`: one `write` unless the socket buffer is full.
    pub fn send(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => bytes = &bytes[k..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_fd(self.stream.as_raw_fd(), POLLOUT, Duration::from_millis(100))?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Wait up to `timeout` for bytes and read what is there. Returns
    /// `Ok(false)` when nothing arrived, and an error once the daemon has
    /// closed the connection (after the read that saw the close, so the
    /// responses before it can still be taken).
    pub fn fill(&mut self, timeout: Duration) -> io::Result<bool> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "daemon closed the connection",
            ));
        }
        if !wait_fd(self.stream.as_raw_fd(), POLLIN, timeout)? {
            return Ok(false);
        }
        let mut got = false;
        let mut chunk = [0u8; 65536];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(true);
                }
                Ok(k) => {
                    self.buf.extend_from_slice(&chunk[..k]);
                    self.read_at = Instant::now();
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Take the next complete response out of the buffer, if any.
    pub fn take(&mut self) -> io::Result<Option<Response>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut len = 0usize;
        for l in lines {
            if let Some((k, v)) = l.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            body,
            at: self.read_at,
        }))
    }

    /// Send one request and wait for its response (at most `timeout`).
    pub fn roundtrip(&mut self, wire: &[u8], timeout: Duration) -> io::Result<Response> {
        self.send(wire)?;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(r) = self.take()? {
                return Ok(r);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.fill(deadline - now)?;
        }
    }
}

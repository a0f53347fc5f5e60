//! The load generator: one thread per connection, open loop or closed.
//!
//! An open-loop connection interleaves scheduled sends with reads on a
//! single thread and never waits for a response before sending, so a slow
//! response never delays the schedule. While the next send is far off the
//! thread blocks in a read with a timeout (a response wakes it at once);
//! close to the send it polls without blocking, because socket timeouts
//! only expire on kernel ticks and would make sends late.
//!
//! A closed-loop connection keeps a fixed number of requests pipelined
//! and sends the next one as each response arrives.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Below this much time to the next send, poll instead of blocking: a
/// read timeout may expire up to one kernel tick late.
const TICK_SLACK: Duration = Duration::from_millis(5);

/// Sleep between polls in the last [`TICK_SLACK`] before a send.
const POLL_SLEEP: Duration = Duration::from_micros(100);

/// How long a finished sender waits for outstanding responses.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When the request was due (open loop) or written (closed loop).
    pub due: Option<Instant>,
    /// When its write started.
    pub sent: Option<Instant>,
    /// The response line and when it was read; `None` after a reset or a
    /// timeout.
    pub response: Option<(Instant, String)>,
}

/// Splits a byte stream into newline-terminated lines.
struct LineReader {
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl LineReader {
    fn new() -> Self {
        LineReader {
            buf: Vec::new(),
            chunk: vec![0; 64 * 1024],
        }
    }

    /// One read; returns the lines it completed. `Ok(None)` is a read
    /// timeout or an empty non-blocking read.
    fn read_lines(&mut self, stream: &mut TcpStream) -> io::Result<Option<Vec<String>>> {
        let n = match stream.read(&mut self.chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ))
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(None),
            Err(e) => return Err(e),
        };
        self.buf.extend_from_slice(&self.chunk[..n]);
        let mut lines = Vec::new();
        while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]);
            lines.push(text.trim_end_matches('\r').to_owned());
        }
        Ok(Some(lines))
    }
}

/// A connection whose blocking mode is switched only when it changes.
struct Conn {
    stream: TcpStream,
    nonblocking: bool,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            nonblocking: false,
        })
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.set_nonblocking(false)?;
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// Reads whatever arrives within `wait` (blocking) or right now
    /// (`wait` of zero: non-blocking).
    fn read(&mut self, reader: &mut LineReader, wait: Duration) -> io::Result<Option<Vec<String>>> {
        if wait.is_zero() {
            self.set_nonblocking(true)?;
        } else {
            self.set_nonblocking(false)?;
            self.stream.set_read_timeout(Some(wait))?;
        }
        reader.read_lines(&mut self.stream)
    }
}

/// Drives one open-loop connection: `jobs[i]` is `(due offset from t0,
/// line)`, in due order. Returns one outcome per job.
pub fn open_loop(addr: SocketAddr, t0: Instant, jobs: &[(Duration, &str)]) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = jobs
        .iter()
        .map(|(due, _)| Outcome {
            due: Some(t0 + *due),
            ..Outcome::default()
        })
        .collect();
    let Ok(mut conn) = Conn::connect(addr) else {
        return out;
    };
    let mut reader = LineReader::new();
    let (mut next, mut received) = (0, 0);
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if next < jobs.len() && now >= t0 + jobs[next].0 {
            out[next].sent = Some(now);
            if conn.send(jobs[next].1).is_err() {
                break;
            }
            next += 1;
            continue;
        }
        if received == jobs.len() {
            break;
        }
        let wait = if next < jobs.len() {
            let left = (t0 + jobs[next].0).saturating_duration_since(now);
            if left > TICK_SLACK {
                left - TICK_SLACK
            } else {
                Duration::ZERO
            }
        } else {
            let deadline = *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT);
            if now >= deadline {
                break;
            }
            (deadline - now).min(Duration::from_millis(100))
        };
        match conn.read(&mut reader, wait) {
            Ok(Some(lines)) => {
                let at = Instant::now();
                for line in lines {
                    if received < next {
                        out[received].response = Some((at, line));
                        received += 1;
                    }
                }
            }
            Ok(None) => {
                if wait.is_zero() {
                    let left = (t0 + jobs[next].0).saturating_duration_since(Instant::now());
                    std::thread::sleep(left.min(POLL_SLEEP));
                }
            }
            Err(_) => break,
        }
    }
    out
}

/// Drives one closed-loop connection: keeps `depth` requests in flight,
/// taking lines from `lines` in order, until `end`; then drains. Returns
/// one outcome per line sent.
pub fn closed_loop(addr: SocketAddr, lines: &[String], depth: usize, end: Instant) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = Vec::new();
    let Ok(mut conn) = Conn::connect(addr) else {
        return out;
    };
    let mut reader = LineReader::new();
    let mut received = 0;
    let send = |conn: &mut Conn, out: &mut Vec<Outcome>| -> bool {
        let i = out.len();
        if i >= lines.len() || Instant::now() >= end {
            return false;
        }
        let now = Instant::now();
        out.push(Outcome {
            due: Some(now),
            sent: Some(now),
            response: None,
        });
        conn.send(&lines[i]).is_ok()
    };
    for _ in 0..depth {
        if !send(&mut conn, &mut out) {
            break;
        }
    }
    let deadline = end + DRAIN_TIMEOUT;
    while received < out.len() && Instant::now() < deadline {
        match conn.read(&mut reader, Duration::from_millis(100)) {
            Ok(Some(batch)) => {
                let at = Instant::now();
                for line in batch {
                    if received < out.len() {
                        out[received].response = Some((at, line));
                        received += 1;
                    }
                    send(&mut conn, &mut out);
                }
            }
            Ok(None) => {}
            Err(_) => break,
        }
    }
    out
}

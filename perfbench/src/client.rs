//! The load generator's side of the wire: one blocking TCP connection, a
//! RESP reply parser, and the two ways the benchmark drives it — a
//! pipelined saturation window and a single waiting caller.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One parsed reply. Simple strings and errors keep their text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+text`.
    Simple(String),
    /// `-ERR text` (the text after `-`).
    Error(String),
    /// `:n`.
    Int(i64),
    /// `*n` nested replies.
    Array(Vec<Reply>),
    /// `$n` bulk bytes.
    Bulk(Vec<u8>),
}

/// A reply that breaks RESP framing, or a connection that ended with
/// replies still owed: the request/reply pairing is lost, so the run
/// cannot continue.
#[derive(Debug)]
pub struct Desync(pub String);

impl std::fmt::Display for Desync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol desync: {}", self.0)
    }
}

impl From<std::io::Error> for Desync {
    fn from(e: std::io::Error) -> Self {
        Desync(format!("i/o: {e}"))
    }
}

/// A blocking connection with its own read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Wall time of the last `read` that returned bytes.
    last_read: Option<Instant>,
    /// Longest gap between two consecutive byte-returning reads while
    /// [`Self::track_gaps`] is on (ns).
    pub max_gap_ns: u64,
    track_gaps: bool,
}

impl Conn {
    /// Connects with Nagle off (requests are written in whole chunks).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 18],
            start: 0,
            end: 0,
            last_read: None,
            max_gap_ns: 0,
            track_gaps: false,
        })
    }

    /// Starts (or stops) recording the longest silence between reads.
    pub fn track_gaps(&mut self, on: bool) {
        self.track_gaps = on;
        self.last_read = None;
        self.max_gap_ns = 0;
    }

    /// Writes every byte (blocking).
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads more bytes into the buffer (blocking unless the socket is
    /// in non-blocking mode); `Ok(0)` means the peer closed.
    fn read_more(&mut self) -> std::io::Result<usize> {
        if self.start > 0 && self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let n = self.buf.len();
                self.buf.resize(n * 2, 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n > 0 && self.track_gaps {
            let now = Instant::now();
            if let Some(prev) = self.last_read {
                self.max_gap_ns = self.max_gap_ns.max((now - prev).as_nanos() as u64);
            }
            self.last_read = Some(now);
        }
        self.end += n;
        Ok(n)
    }

    /// Blocks until more bytes arrive.
    fn fill(&mut self) -> Result<(), Desync> {
        match self.read_more()? {
            0 => Err(Desync("connection closed with replies outstanding".into())),
            _ => Ok(()),
        }
    }

    /// Reads one complete reply, blocking as needed.
    pub fn reply(&mut self) -> Result<Reply, Desync> {
        loop {
            if let Some((reply, used)) = parse_reply(&self.buf[self.start..self.end])? {
                self.start += used;
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// The next reply if one is complete after at most one read that
    /// does not block (the stream must be in non-blocking mode).
    pub fn try_reply(&mut self) -> Result<Option<Reply>, Desync> {
        if let Some((reply, used)) = parse_reply(&self.buf[self.start..self.end])? {
            self.start += used;
            return Ok(Some(reply));
        }
        match self.read_more() {
            Ok(0) => return Err(Desync("connection closed with replies outstanding".into())),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        match parse_reply(&self.buf[self.start..self.end])? {
            Some((reply, used)) => {
                self.start += used;
                Ok(Some(reply))
            }
            None => Ok(None),
        }
    }

    /// Switches the socket between blocking and non-blocking mode.
    pub fn set_nonblocking(&mut self, on: bool) -> std::io::Result<()> {
        self.stream.set_nonblocking(on)
    }

    /// Writes what the socket takes without blocking; returns the bytes
    /// written (non-blocking mode).
    pub fn send_some(&mut self, bytes: &[u8]) -> Result<usize, Desync> {
        match self.stream.write(bytes) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    /// One request, one reply (for set-up and admin verbs).
    pub fn call(&mut self, line: &str) -> Result<Reply, Desync> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.send(&bytes)?;
        self.reply()
    }

    /// `STATS subject` as a field map.
    pub fn stats(&mut self, subject: &str) -> Result<Vec<(String, String)>, Desync> {
        match self.call(&format!("STATS {subject}"))? {
            Reply::Array(items) => Ok(items
                .into_iter()
                .filter_map(|r| match r {
                    Reply::Simple(s) => s.split_once('=').map(|(k, v)| (k.into(), v.into())),
                    _ => None,
                })
                .collect()),
            other => Err(Desync(format!("STATS {subject}: unexpected {other:?}"))),
        }
    }
}

/// Parses one reply from the front of `buf`: the reply and the bytes it
/// took, or `None` when `buf` ends before the reply does.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, Desync> {
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let end = if nl > 0 && buf[nl - 1] == b'\r' {
        nl - 1
    } else {
        nl
    };
    if end == 0 {
        return Err(Desync("empty reply line".into()));
    }
    let body = &buf[1..end];
    let next = nl + 1;
    let text = || String::from_utf8_lossy(body).into_owned();
    let reply = match buf[0] {
        b':' => Reply::Int(
            parse_i64(body).ok_or_else(|| Desync(format!("bad integer reply `{}`", text())))?,
        ),
        b'+' => Reply::Simple(text()),
        b'-' => Reply::Error(text()),
        b'*' => {
            let n = parse_i64(body)
                .filter(|&n| n >= 0)
                .ok_or_else(|| Desync(format!("bad array header `{}`", text())))?;
            let mut items = Vec::with_capacity(n as usize);
            let mut at = next;
            for _ in 0..n {
                match parse_reply(&buf[at..])? {
                    Some((item, used)) => {
                        items.push(item);
                        at += used;
                    }
                    None => return Ok(None),
                }
            }
            return Ok(Some((Reply::Array(items), at)));
        }
        b'$' => {
            let n = parse_i64(body)
                .filter(|&n| n >= 0)
                .ok_or_else(|| Desync(format!("bad bulk header `{}`", text())))?
                as usize;
            if buf.len() < next + n + 2 {
                return Ok(None);
            }
            return Ok(Some((
                Reply::Bulk(buf[next..next + n].to_vec()),
                next + n + 2,
            )));
        }
        other => return Err(Desync(format!("unknown reply type byte {other:#04x}"))),
    };
    Ok(Some((reply, next)))
}

fn parse_i64(b: &[u8]) -> Option<i64> {
    std::str::from_utf8(b).ok()?.parse().ok()
}

/// Looks a numeric field up in a `STATS` map.
pub fn stat_u64(fields: &[(String, String)], name: &str) -> u64 {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// A source of requests with known-correct answers.
pub trait Traffic {
    /// What the reply to one request must satisfy.
    type Expect;
    /// Appends the next request line (with its `\n`) to `out`; returns
    /// its expectation and whether it is a mutation.
    fn next(&mut self, out: &mut Vec<u8>) -> (Self::Expect, bool);
    /// Checks one reply: `Ok(true)` passes, `Ok(false)` is a failure
    /// (error reply or broken filter contract), `Err` is a desync.
    fn check(&mut self, expect: Self::Expect, reply: &Reply) -> Result<bool, Desync>;
}

/// Request and failure counts of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Replies that failed their check.
    pub failed: u64,
}

impl Tally {
    /// Adds another phase's counts.
    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.failed += other.failed;
    }
}

/// Sends `n` requests keeping at most `window` unanswered, written
/// `chunk` lines at a time, and blocks in `read` for replies whenever the
/// window is full — so the generator never spins against the server for
/// a CPU.
pub fn pipeline<T: Traffic>(
    conn: &mut Conn,
    traffic: &mut T,
    n: u64,
    window: usize,
    chunk: usize,
) -> Result<Tally, Desync> {
    let mut pending = std::collections::VecDeque::with_capacity(window + chunk);
    let mut out = Vec::with_capacity(chunk * 64);
    let mut tally = Tally::default();
    let mut done = 0u64;
    while done < n {
        if tally.sent < n && pending.len() + chunk <= window {
            out.clear();
            let take = chunk.min((n - tally.sent) as usize);
            for _ in 0..take {
                let (expect, _) = traffic.next(&mut out);
                pending.push_back(expect);
            }
            tally.sent += take as u64;
            conn.send(&out)?;
            continue;
        }
        let reply = conn.reply()?;
        let expect = pending
            .pop_front()
            .ok_or_else(|| Desync("reply without a request".into()))?;
        if !traffic.check(expect, &reply)? {
            tally.failed += 1;
        }
        done += 1;
    }
    Ok(tally)
}

/// Round-trip samples of a waiting caller, split by request class.
#[derive(Debug, Default)]
pub struct CallerSamples {
    /// Read round trips (ns).
    pub reads: Vec<u64>,
    /// Mutation round trips (ns).
    pub writes: Vec<u64>,
}

/// One caller sends a request, waits for its reply, and only then sends
/// the next: `n` round trips, each timed from just before the write to
/// just after the reply is parsed.
pub fn caller<T: Traffic>(
    conn: &mut Conn,
    traffic: &mut T,
    n: u64,
) -> Result<(Tally, CallerSamples), Desync> {
    let mut out = Vec::with_capacity(256);
    let mut tally = Tally::default();
    let mut samples = CallerSamples::default();
    for _ in 0..n {
        out.clear();
        let (expect, is_write) = traffic.next(&mut out);
        let t0 = Instant::now();
        conn.send(&out)?;
        let reply = conn.reply()?;
        let ns = t0.elapsed().as_nanos() as u64;
        tally.sent += 1;
        if !traffic.check(expect, &reply)? {
            tally.failed += 1;
        }
        if is_write {
            samples.writes.push(ns);
        } else {
            samples.reads.push(ns);
        }
    }
    Ok((tally, samples))
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Per-request latency from the moment it was due (ns).
    pub latencies: Vec<u64>,
    /// Latest any request was generated after it was due (ns).
    pub max_lag_ns: u64,
    /// Requests sent and failed.
    pub tally: Tally,
}

/// Offers `n` requests at `rate` per second on a fixed schedule, whatever
/// the replies do, and times each from when it was due — so a stall is
/// charged to every request queued behind it. One thread writes and reads
/// without blocking (it spins, which is why this phase is reported only).
pub fn open_loop<T: Traffic>(
    conn: &mut Conn,
    traffic: &mut T,
    n: u64,
    rate: f64,
) -> Result<OpenLoop, Desync> {
    conn.set_nonblocking(true)?;
    let result = open_loop_inner(conn, traffic, n, rate);
    conn.set_nonblocking(false)?;
    result
}

fn open_loop_inner<T: Traffic>(
    conn: &mut Conn,
    traffic: &mut T,
    n: u64,
    rate: f64,
) -> Result<OpenLoop, Desync> {
    let interval = 1e9 / rate;
    let mut pending = std::collections::VecDeque::new();
    let mut out = Vec::with_capacity(1 << 16);
    let mut written = 0;
    let mut phase = OpenLoop {
        rate,
        latencies: Vec::with_capacity(n as usize),
        ..OpenLoop::default()
    };
    let start = Instant::now();
    let mut done = 0u64;
    while done < n {
        let now = start.elapsed().as_nanos() as u64;
        let due_now = ((now as f64 / interval) as u64 + 1).min(n);
        while phase.tally.sent < due_now {
            let due = (phase.tally.sent as f64 * interval) as u64;
            let (expect, _) = traffic.next(&mut out);
            pending.push_back((expect, due));
            phase.max_lag_ns = phase.max_lag_ns.max(now.saturating_sub(due));
            phase.tally.sent += 1;
        }
        if written < out.len() {
            written += conn.send_some(&out[written..])?;
            if written == out.len() {
                out.clear();
                written = 0;
            }
        }
        while let Some(reply) = conn.try_reply()? {
            let (expect, due) = pending
                .pop_front()
                .ok_or_else(|| Desync("reply without a request".into()))?;
            let at = start.elapsed().as_nanos() as u64;
            phase.latencies.push(at.saturating_sub(due));
            if !traffic.check(expect, &reply)? {
                phase.tally.failed += 1;
            }
            done += 1;
        }
    }
    Ok(phase)
}

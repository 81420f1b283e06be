//! # shbf-reactor — a std-only epoll event loop for line-protocol servers
//!
//! A thread-per-connection server spends one `write`+`flush` syscall pair
//! per reply and one scheduler slot per client; at ShBF query speeds (~1
//! memory access per hash pair) the transport, not the filter, becomes
//! the bottleneck. This crate is `shbf-server`'s only transport: a
//! single-threaded (or N-threaded, one loop per thread) **epoll** reactor
//! with
//!
//! * nonblocking accept off a shared [`Listener`] — TCP or UNIX-domain,
//! * one live-connection cap shared by every loop on the listener
//!   ([`ConnectionCap`]),
//! * per-connection growable read buffers and a per-connection
//!   [write queue of reply buffers](Handler::on_data),
//! * **edge-triggered readiness** (`EPOLLET`): interest is registered
//!   once per connection and never modified again — no `epoll_ctl`
//!   traffic on the hot path; leftover readiness is remembered in
//!   userspace and re-driven fairly under a per-turn read budget,
//! * an **eventfd wakeup channel** ([`Waker`]): loops block in
//!   `epoll_wait` with *no timeout* and are nudged explicitly for
//!   shutdown, so stopping a reactor costs microseconds instead of a
//!   poll interval,
//! * **pipelined parsing** — each readable event hands the application
//!   *all* buffered bytes at once, so batches form naturally from
//!   pipelined clients,
//! * **vectored writes** — each event-loop turn's replies land in their
//!   own buffer and the queue is flushed with `writev`
//!   (`Write::write_vectored`), so a backlogged connection never pays a
//!   coalescing copy or a drain memmove; partial writes just re-slice
//!   the iovec,
//! * **backpressure** — a connection whose write queue exceeds
//!   [`ReactorConfig::high_water`] stops being read until the peer
//!   drains it below half the mark (entries/exits are counted in
//!   [`TransportMetrics`]).
//!
//! Following the `shbf-bits::prefetch` precedent, the build stays offline
//! and dependency-free: the epoll/eventfd interface is declared directly
//! with `extern "C"` in [`sys`], the crate's **single unsafe module**.
//! Sockets themselves are plain `std::net` / `std::os::unix::net` types,
//! so the unsafe surface is exactly the epoll/eventfd/close calls.
//!
//! epoll is Linux-only; on other targets [`run`] returns
//! `ErrorKind::Unsupported` (check [`SUPPORTED`] first). The socket
//! types, [`Waker`] and [`TransportMetrics`] stay portable.
//!
//! ## Driving a protocol
//!
//! The application implements [`Handler`]. On every readable event the
//! reactor appends fresh bytes to the connection's read buffer and calls
//! [`Handler::on_data`] with the *entire* unconsumed buffer; the handler
//! consumes as many complete requests as it finds, appends encoded
//! replies to `out`, and reports the consumed byte count — unconsumed
//! bytes (a partial line) stay buffered for the next event. On EOF the
//! handler is called once more with `eof = true` so trailing unterminated
//! input can be served the way a blocking `read_line` loop would.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

#[cfg(target_os = "linux")]
pub mod sys;

#[cfg(target_os = "linux")]
mod evloop;

/// Whether the evented reactor is available on this target.
pub const SUPPORTED: bool = cfg!(target_os = "linux");

/// A bound listening socket the reactor can serve: loopback/remote TCP
/// or a UNIX-domain socket path. UNIX sockets skip TCP/IP framing
/// entirely — for same-host clients they cut both syscall cost and
/// latency.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listening socket.
    Tcp(TcpListener),
    /// A UNIX-domain listening socket.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl From<TcpListener> for Listener {
    fn from(l: TcpListener) -> Listener {
        Listener::Tcp(l)
    }
}

#[cfg(unix)]
impl From<std::os::unix::net::UnixListener> for Listener {
    fn from(l: std::os::unix::net::UnixListener) -> Listener {
        Listener::Unix(l)
    }
}

impl Listener {
    /// Accepts one connection (blocking or not per `set_nonblocking`).
    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    /// Switches accept (and accepted sockets' initial mode) blocking/not.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Clones the handle (both clones accept from the same queue), so one
    /// bound socket can feed several reactor loops.
    pub fn try_clone(&self) -> std::io::Result<Listener> {
        match self {
            Listener::Tcp(l) => l.try_clone().map(Listener::Tcp),
            #[cfg(unix)]
            Listener::Unix(l) => l.try_clone().map(Listener::Unix),
        }
    }

    #[cfg(target_os = "linux")]
    pub(crate) fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// One accepted connection, TCP or UNIX-domain. Implements `Read`/`Write`
/// (vectored writes included) so protocol code is transport-agnostic.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A UNIX-domain connection.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Stream {
    /// Clones the handle (shared file description, independent handle).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Switches blocking mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Bounds blocking reads (client side; reactor sockets never block).
    pub fn set_read_timeout(&self, dur: Option<std::time::Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Disables Nagle on TCP; a no-op on UNIX sockets (no such batching).
    pub fn set_nodelay(&self, nodelay: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nodelay(nodelay),
            #[cfg(unix)]
            Stream::Unix(_) => Ok(()),
        }
    }

    /// Shuts down one or both directions.
    pub fn shutdown(&self, how: std::net::Shutdown) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
        }
    }

    #[cfg(target_os = "linux")]
    pub(crate) fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A cloneable handle that wakes reactor loops blocked in `epoll_wait`.
///
/// One waker (its eventfd) may be registered with *several* loops: a
/// single [`wake`](Waker::wake) delivers a readable edge to every epoll
/// instance watching it, so "set the shutdown flag, wake once" stops a
/// whole fleet of sibling loops with no poll-timeout stall. Loops never
/// read the counter back, so a wake stays visible to a sibling that
/// harvests its edge late. On non-Linux targets the type exists but
/// wakes nothing (the reactor is unsupported there anyway).
#[derive(Debug, Clone)]
pub struct Waker {
    #[cfg(target_os = "linux")]
    fd: Arc<sys::EventFd>,
}

impl Waker {
    /// Creates a waker with a fresh eventfd.
    #[cfg(target_os = "linux")]
    pub fn new() -> std::io::Result<Waker> {
        Ok(Waker {
            fd: Arc::new(sys::EventFd::new()?),
        })
    }

    /// Non-Linux stub: a waker that wakes nothing.
    #[cfg(not(target_os = "linux"))]
    pub fn new() -> std::io::Result<Waker> {
        Ok(Waker {})
    }

    /// Nudges every loop whose epoll watches this waker.
    pub fn wake(&self) -> std::io::Result<()> {
        #[cfg(target_os = "linux")]
        return self.fd.notify();
        #[cfg(not(target_os = "linux"))]
        Ok(())
    }

    #[cfg(target_os = "linux")]
    pub(crate) fn eventfd(&self) -> &sys::EventFd {
        &self.fd
    }
}

/// Shared, lock-free connection-level counters, updated by reactor loops
/// and read by whatever surfaces them — `shbf-server` reports them as the
/// `STATS transport` section.
#[derive(Debug, Default)]
pub struct TransportMetrics {
    accepted: AtomicU64,
    closed: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    backpressure_enter: AtomicU64,
    backpressure_exit: AtomicU64,
    queue_high_water: AtomicU64,
    wakeups: AtomicU64,
    shed: AtomicU64,
    idle_reaped: AtomicU64,
}

/// A point-in-time copy of [`TransportMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections closed since start (any cause).
    pub closed: u64,
    /// Request bytes read off sockets.
    pub bytes_in: u64,
    /// Reply bytes written to sockets.
    pub bytes_out: u64,
    /// Times a connection's write queue crossed the high-water mark and
    /// paused reading.
    pub backpressure_enter: u64,
    /// Times a paused connection drained below the half-mark and resumed.
    pub backpressure_exit: u64,
    /// Largest write-queue depth (bytes) any connection ever reached.
    pub queue_high_water: u64,
    /// Eventfd wakeups observed by reactor loops.
    pub wakeups: u64,
    /// Connections shed at the capacity limit with a busy reply instead
    /// of being served.
    pub shed: u64,
    /// Connections closed by the idle-deadline reaper.
    pub idle_reaped: u64,
}

impl TransportMetrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        TransportMetrics::default()
    }

    /// Records an accepted connection.
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a closed connection.
    pub fn on_close(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds request bytes read.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds reply bytes written.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a connection entering backpressure (reading paused).
    pub fn on_backpressure_enter(&self) {
        self.backpressure_enter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection leaving backpressure (reading resumed).
    pub fn on_backpressure_exit(&self) {
        self.backpressure_exit.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the write-queue high-water mark to `depth` if larger.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records one eventfd wakeup.
    pub fn on_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection shed at the capacity limit (busy-replied and
    /// closed instead of served).
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closed by the idle-deadline reaper.
    pub fn on_idle_reap(&self) {
        self.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies all counters out.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            backpressure_enter: self.backpressure_enter.load(Ordering::Relaxed),
            backpressure_exit: self.backpressure_exit.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
        }
    }
}

/// The live-connection cap shared by every reactor loop serving one
/// listener.
///
/// A loop reserves a place (a compare-exchange on one counter) before it
/// admits a connection and releases it when the connection closes, so the
/// total holds across loops however accepts happen to land on them. A
/// loop parked at the cap keeps its pending listener edge; so does every
/// sibling that saw the same edge, which means the loop that frees a
/// place re-checks the backlog itself — no cross-loop wakeup is needed.
#[derive(Debug)]
pub struct ConnectionCap {
    max: usize,
    /// Places taken. The count publishes no other data, so every access
    /// is `Relaxed`; the compare-exchange alone keeps `live <= max`.
    live: AtomicUsize,
}

impl ConnectionCap {
    /// A cap of `max` live connections (at least one).
    pub fn new(max: usize) -> ConnectionCap {
        ConnectionCap {
            max: max.max(1),
            live: AtomicUsize::new(0),
        }
    }

    #[cfg(target_os = "linux")]
    pub(crate) fn is_full(&self) -> bool {
        self.live.load(Ordering::Relaxed) >= self.max
    }

    /// Takes one place unless the cap is reached.
    #[cfg(target_os = "linux")]
    pub(crate) fn try_reserve(self: &Arc<Self>) -> Option<Reservation> {
        self.live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.max).then_some(n + 1)
            })
            .ok()
            .map(|_| Reservation(Arc::clone(self)))
    }
}

/// One reserved place under a [`ConnectionCap`], returned when dropped —
/// so every path that discards a connection releases its place.
#[cfg(target_os = "linux")]
pub(crate) struct Reservation(Arc<ConnectionCap>);

#[cfg(target_os = "linux")]
impl Drop for Reservation {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Tunables for [`run`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Backpressure mark in bytes: a connection whose write queue exceeds
    /// this stops being read (its socket stays readable in the kernel, so
    /// TCP flow control eventually pushes back on the peer). Reading
    /// resumes once the queue drains below `high_water / 2`.
    pub high_water: usize,
    /// Live-connection cap. Clones of one config share it, so sibling
    /// loops on one listener enforce a single total. Beyond it: with
    /// [`Self::shed_reply`] set, excess connections are accepted, sent
    /// that reply, and closed (overload shedding); without it, pending
    /// connections wait in the listen backlog until a slot frees.
    pub connections: Arc<ConnectionCap>,
    /// Overload-shed farewell bytes (e.g. `-ERR busy\r\n`) written
    /// best-effort to connections accepted past the cap. `None` parks
    /// the listener instead of shedding.
    pub shed_reply: Option<Arc<[u8]>>,
    /// Close connections with no inbound bytes for this long. `None`
    /// disables reaping (and the loop blocks in `epoll_wait` with no
    /// timeout when idle).
    pub idle_timeout: Option<std::time::Duration>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            high_water: 1 << 20,
            connections: Arc::new(ConnectionCap::new(1024)),
            shed_reply: None,
            idle_timeout: None,
        }
    }
}

/// What the reactor should do with a connection after [`Handler::on_data`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving.
    Continue,
    /// Flush the write queue, then close this connection.
    Close,
    /// Flush this connection's write queue, then stop the whole reactor
    /// (sets the shared shutdown flag and wakes sibling loops through the
    /// waker, so they stop too).
    Shutdown,
}

/// Result of one [`Handler::on_data`] call.
#[derive(Debug, Clone, Copy)]
pub struct Drained {
    /// How many leading bytes of `input` were consumed. The rest (at most
    /// a partial request) stays buffered. Clamped to `input.len()`.
    pub consumed: usize,
    /// What to do with the connection next.
    pub action: Action,
}

impl Drained {
    /// Consumed `n` bytes, keep serving.
    pub fn consumed(n: usize) -> Drained {
        Drained {
            consumed: n,
            action: Action::Continue,
        }
    }
}

/// The application side of the reactor: a protocol parser + dispatcher.
///
/// Tokens identify live connections; they are reused after a connection
/// closes ([`Handler::on_close`] marks the boundary), never across two
/// *simultaneously* live connections.
pub trait Handler {
    /// Called with every byte buffered on `token` (not just the newest
    /// read): consume complete requests, append encoded replies to `out`,
    /// report the consumed prefix length. `eof` means the peer half-closed
    /// — no more input will ever arrive, so an unterminated trailing
    /// request should be handled now or never.
    ///
    /// `out` is this turn's reply buffer: it joins the connection's write
    /// queue as its own iovec slice, so replies are never copied into a
    /// coalesced buffer — `writev` stitches queued turns together at the
    /// syscall.
    fn on_data(&mut self, token: u64, input: &[u8], eof: bool, out: &mut Vec<u8>) -> Drained;

    /// The connection is gone (peer closed, error, or [`Action::Close`]);
    /// drop any per-connection state held for `token`.
    fn on_close(&mut self, _token: u64) {}
}

/// Runs the event loop on the calling thread until `shutdown` is observed
/// true or a handler returns [`Action::Shutdown`] (which also sets the
/// flag). The loop blocks in `epoll_wait` with **no timeout**; after
/// setting `shutdown`, call [`Waker::wake`] on the waker passed here (it
/// may be shared by several loops — one wake stops them all). The
/// listener may also be shared (`try_clone`) across several `run` calls
/// on different threads: accepts are nonblocking, so whichever loop wakes
/// first wins and the rest see `WouldBlock`.
#[cfg(target_os = "linux")]
pub fn run<H: Handler>(
    listener: Listener,
    handler: &mut H,
    shutdown: &AtomicBool,
    config: &ReactorConfig,
    waker: &Waker,
    metrics: &TransportMetrics,
) -> std::io::Result<()> {
    evloop::run(listener, handler, shutdown, config, waker, metrics)
}

/// Non-Linux stub: always `ErrorKind::Unsupported`.
#[cfg(not(target_os = "linux"))]
pub fn run<H: Handler>(
    _listener: Listener,
    _handler: &mut H,
    _shutdown: &AtomicBool,
    _config: &ReactorConfig,
    _waker: &Waker,
    _metrics: &TransportMetrics,
) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "shbf-reactor requires epoll (Linux)",
    ))
}

//! The event loop proper: slab of buffered connections driven by
//! **edge-triggered** epoll readiness, flushed with vectored writes, and
//! woken through an eventfd. All code here is safe; syscalls are behind
//! [`crate::sys`].
//!
//! Edge-triggered discipline: every fd (listener, waker, connections) is
//! registered exactly once with `EPOLLET` and never `epoll_ctl`-modified
//! again. Readiness the kernel reports is remembered in userspace
//! (`accept_pending`, per-conn `read_ready`) and re-driven through a run
//! queue until the fd is drained to `WouldBlock` — so a budget-limited
//! read or a paused (backpressured) connection never loses an edge, and
//! the hot path pays zero `epoll_ctl` syscalls.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::{
    Action, Handler, Listener, ReactorConfig, Reservation, Stream, TransportMetrics, Waker,
};

/// Token of the listening socket (connection tokens encode slot + gen).
const LISTENER_TOKEN: u64 = u64::MAX;

/// Token of the eventfd wakeup channel.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Stack read chunk; also the granularity of the per-turn read budget.
const READ_CHUNK: usize = 64 * 1024;

/// Per-turn read budget per connection: after this many fresh bytes the
/// loop re-queues the connection and serves the others first — a single
/// fast writer cannot starve the rest (the leftover readiness is
/// remembered, as edge-triggering requires).
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// Most iovec slices per `writev` call (IOV_MAX is 1024 on Linux; 64
/// already amortizes the syscall completely).
const MAX_IOV: usize = 64;

/// A connection's read buffer is shrunk back to this capacity once the
/// buffered remainder fits in half of it — one giant pipelined request
/// must not pin megabytes per connection for the rest of its life.
const RBUF_RETAIN: usize = READ_CHUNK;

/// Per-connection outgoing data as a queue of owned reply buffers.
///
/// Each event-loop turn's replies are encoded into their own buffer and
/// appended whole; flushing stitches the front `MAX_IOV` buffers into one
/// `writev`. Compared to one coalesced `Vec`, a backlogged connection
/// pays neither the copy of new replies onto the tail nor the
/// `drain(..written)` memmove after partial writes — `head` just advances
/// through the front buffer. Fully-written buffers are recycled.
#[derive(Default)]
struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of `bufs[0]` already written.
    head: usize,
    /// Total unwritten bytes across all buffers.
    len: usize,
    /// Drained buffers kept for reuse.
    spare: Vec<Vec<u8>>,
}

/// Keep at most this many spare buffers, and none above this capacity —
/// one giant reply must not pin its allocation forever.
const SPARE_BUFS: usize = 4;
const SPARE_CAP: usize = 1 << 20;

impl WriteQueue {
    fn take_buf(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < SPARE_BUFS && buf.capacity() <= SPARE_CAP {
            buf.clear();
            self.spare.push(buf);
        }
    }

    fn push(&mut self, buf: Vec<u8>) {
        if buf.is_empty() {
            self.recycle(buf);
        } else {
            self.len += buf.len();
            self.bufs.push_back(buf);
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fills `out` (a stack array — `IoSlice` is `Copy`, so no heap
    /// traffic on the flush path) with up to [`MAX_IOV`] slices of
    /// unwritten data; returns how many were written.
    fn fill_slices<'a>(&'a self, out: &mut [IoSlice<'a>; MAX_IOV]) -> usize {
        let mut n = 0;
        for (i, buf) in self.bufs.iter().take(MAX_IOV).enumerate() {
            let slice = if i == 0 { &buf[self.head..] } else { &buf[..] };
            out[i] = IoSlice::new(slice);
            n = i + 1;
        }
        n
    }

    /// Marks `n` bytes written, recycling fully-drained buffers.
    fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.len);
        self.len -= n;
        while n > 0 {
            let front_left = self.bufs[0].len() - self.head;
            if n >= front_left {
                n -= front_left;
                let drained = self.bufs.pop_front().expect("nonempty queue");
                self.recycle(drained);
                self.head = 0;
            } else {
                self.head += n;
                n = 0;
            }
        }
    }
}

struct Conn {
    /// This connection's place under the shared cap. Declared first, so
    /// it is released before `stream` closes: a peer that sees the close
    /// may reconnect at once and must find the place free.
    _reservation: Reservation,
    stream: Stream,
    token: u64,
    /// Bytes received but not yet consumed by the handler (at most a
    /// partial request once the handler has run).
    rbuf: Vec<u8>,
    /// Encoded replies not yet written to the socket.
    wq: WriteQueue,
    /// Flush `wq` then close (peer EOF, handler `Close`/`Shutdown`).
    closing: bool,
    /// Peer half-closed its sending side; no more input will arrive.
    eof: bool,
    /// Backpressured: `wq` crossed the high-water mark, reading paused.
    paused: bool,
    /// An unconsumed readable edge: the socket may hold more data.
    read_ready: bool,
    /// Already sitting in the run queue (dedup flag).
    queued: bool,
    /// Last moment bytes moved on this connection (either direction);
    /// the idle sweep reaps connections whose stamp is too old.
    last_activity: std::time::Instant,
}

/// Slot index ↔ token mapping with a generation stamp, so an event queued
/// for a connection that closed earlier in the same batch can never be
/// routed to a newly accepted connection reusing the slot.
fn token_of(slot: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | slot as u64
}

fn slot_of(token: u64) -> usize {
    (token & 0xFFFF_FFFF) as usize
}

enum ReadStatus {
    /// Connection closed (read error).
    Closed,
    /// Socket drained to `WouldBlock` (or EOF) — edge consumed.
    Drained,
    /// Budget exhausted; the socket may hold more (stays `read_ready`).
    Budget,
}

struct Reactor<'a, H: Handler> {
    epoll: Epoll,
    listener: Listener,
    /// An unconsumed listener edge: the backlog may hold connections.
    accept_pending: bool,
    conns: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
    handler: &'a mut H,
    shutdown: &'a AtomicBool,
    config: &'a ReactorConfig,
    waker: &'a Waker,
    metrics: &'a TransportMetrics,
}

pub(crate) fn run<H: Handler>(
    listener: Listener,
    handler: &mut H,
    shutdown: &AtomicBool,
    config: &ReactorConfig,
    waker: &Waker,
    metrics: &TransportMetrics,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.add(listener.raw_fd(), EPOLLIN | EPOLLET, LISTENER_TOKEN)?;
    epoll.add(waker.eventfd().raw_fd(), EPOLLIN | EPOLLET, WAKER_TOKEN)?;
    let mut r = Reactor {
        epoll,
        listener,
        // Catch connections that raced in before registration.
        accept_pending: true,
        conns: Vec::new(),
        generations: Vec::new(),
        free: Vec::new(),
        handler,
        shutdown,
        config,
        waker,
        metrics,
    };
    let mut events = vec![EpollEvent::default(); 256];
    let mut chunk = vec![0u8; READ_CHUNK];
    // Run queue of connection tokens with work left this turn; `next`
    // collects re-queues (budget leftovers) for the following turn.
    let mut queue: Vec<u64> = Vec::new();
    let mut next: Vec<u64> = Vec::new();
    // With an idle deadline the wait must stay bounded so dead-quiet
    // connections are still reaped; sweeping at a quarter of the
    // deadline keeps the overshoot small without waking up constantly.
    let sweep_every = config
        .idle_timeout
        .map(|d| (d / 4).max(std::time::Duration::from_millis(10)));
    let mut last_sweep = std::time::Instant::now();
    loop {
        // Block forever unless userspace still holds unconsumed
        // readiness (or an idle sweep is due); shutdown arrives as an
        // eventfd wakeup, never as a timeout.
        // (in shedding mode a full house still consumes the backlog, so
        // the parked-listener pause only applies when parking).
        let can_accept =
            r.accept_pending && (!r.config.connections.is_full() || r.config.shed_reply.is_some());
        let timeout = if can_accept || !queue.is_empty() {
            0
        } else if let Some(every) = sweep_every {
            every.as_millis().min(i32::MAX as u128) as i32
        } else {
            -1
        };
        let n = r.epoll.wait(&mut events, timeout)?;
        for ev in events.iter().copied().take(n) {
            match ev.data {
                LISTENER_TOKEN => r.accept_pending = true,
                // Deliberately not drained: sibling loops share the
                // eventfd, and the kernel drops an edge-triggered event
                // whose fd is no longer readable when an epoll_wait
                // harvests it — a loop that zeroed the counter first
                // would leave a slower sibling asleep forever.
                WAKER_TOKEN => r.metrics.on_wakeup(),
                _ => r.conn_event(ev, &mut queue),
            }
        }
        if r.shutdown.load(Ordering::SeqCst) {
            r.final_flush();
            return Ok(());
        }
        if let (Some(limit), Some(every)) = (config.idle_timeout, sweep_every) {
            if last_sweep.elapsed() >= every {
                r.reap_idle(limit);
                last_sweep = std::time::Instant::now();
            }
        }
        if r.accept_pending {
            r.accept_ready(&mut queue);
        }
        for token in queue.drain(..) {
            r.drive(token, &mut chunk, &mut next);
            if r.shutdown.load(Ordering::SeqCst) {
                // A handler requested shutdown; its farewell reply was
                // already flushed by `drive`, and the waker has nudged
                // sibling loops.
                r.final_flush();
                return Ok(());
            }
        }
        std::mem::swap(&mut queue, &mut next);
    }
}

impl<H: Handler> Reactor<'_, H> {
    fn accept_ready(&mut self, queue: &mut Vec<u64>) {
        let shedding = self.config.shed_reply.is_some();
        loop {
            // Without shedding, the place under the cap is reserved before
            // the accept, so no connection is dequeued that the cap cannot
            // hold (a sibling loop may take the last place at any moment);
            // an unused reservation is released when it drops. With
            // shedding, the place is reserved after the accept, so only
            // sockets actually held count against the cap: a sibling's
            // reservation for a backlog it then finds empty must not make
            // this loop shed below the cap.
            let reserved = if shedding {
                None
            } else {
                let Some(reservation) = self.config.connections.try_reserve() else {
                    // Leave `accept_pending` set: the backlog keeps the
                    // overflow, and a freed slot re-enters here without
                    // needing a fresh kernel edge.
                    return;
                };
                Some(reservation)
            };
            // Failpoint `transport::pre_accept`: a `delay` stalls this loop
            // just before its accept (the only action with an effect here).
            let _ = shbf_failpoint::fail("transport::pre_accept");
            let stream = match self.listener.accept() {
                Ok(stream) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.accept_pending = false;
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // The pending peer reset before accept (ECONNABORTED &
                // co.): that connection was dequeued, but siblings from
                // the same coalesced edge may still sit in the backlog —
                // keep draining to WouldBlock, as edge-triggering
                // requires.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                // Non-dequeuing accept error (e.g. EMFILE): nothing was
                // consumed, so retrying now would spin. Park the edge;
                // the next arrival re-fires it.
                Err(_) => {
                    self.accept_pending = false;
                    return;
                }
            };
            // Failpoint `transport::accept`: the freshly accepted socket
            // is dropped as if setup had failed — the peer sees a reset.
            if shbf_failpoint::fail("transport::accept").is_some() {
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let Some(reservation) = reserved.or_else(|| self.config.connections.try_reserve())
            else {
                // Overload shedding: tell the peer we are busy (best
                // effort — the socket is fresh, so the tiny reply almost
                // always fits the send buffer) and hang up. The client
                // gets an immediate, parseable error instead of an
                // unexplained queueing delay.
                let mut stream = stream;
                if let Some(reply) = &self.config.shed_reply {
                    let _ = stream.write(reply);
                }
                self.metrics.on_shed();
                continue;
            };
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            });
            let token = token_of(slot, self.generations[slot]);
            if self
                .epoll
                .add(stream.raw_fd(), EPOLLIN | EPOLLOUT | EPOLLET, token)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            self.conns[slot] = Some(Conn {
                _reservation: reservation,
                stream,
                token,
                rbuf: Vec::new(),
                wq: WriteQueue::default(),
                closing: false,
                eof: false,
                paused: false,
                // Data may have raced in before registration; one drive
                // pass settles it (reads to WouldBlock if not).
                read_ready: true,
                queued: true,
                last_activity: std::time::Instant::now(),
            });
            self.metrics.on_accept();
            queue.push(token);
        }
    }

    fn conn_event(&mut self, ev: EpollEvent, queue: &mut Vec<u64>) {
        let slot = slot_of(ev.data);
        // Stale event for a connection closed earlier in this batch (or a
        // reused slot with a newer generation): ignore.
        match self.conns.get(slot) {
            Some(Some(conn)) if conn.token == ev.data => {}
            _ => return,
        }
        if ev.events & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(slot);
            return;
        }
        let conn = self.conns[slot].as_mut().expect("checked live");
        if ev.events & EPOLLIN != 0 {
            conn.read_ready = true;
        }
        // Readable and writable edges both funnel into one drive pass
        // (read → handle → flush → bookkeeping).
        if !conn.queued {
            conn.queued = true;
            queue.push(ev.data);
        }
    }

    /// One full service pass over a connection: read (unless paused),
    /// run the handler, flush, recompute backpressure/close state, and
    /// re-queue if budget-limited reading left data behind.
    fn drive(&mut self, token: u64, chunk: &mut [u8], next: &mut Vec<u64>) {
        let slot = slot_of(token);
        match self.conns.get_mut(slot) {
            Some(Some(conn)) if conn.token == token => conn.queued = false,
            _ => return, // closed earlier this turn
        }
        let conn = self.conns[slot].as_mut().expect("checked live");
        if conn.read_ready && !conn.paused && !conn.closing && !conn.eof {
            if let ReadStatus::Closed = self.fill_read_buffer(slot, chunk) {
                return;
            }
        }
        if !self.drive_handler(slot) {
            return;
        }
        if !self.try_flush(slot) {
            return;
        }
        if !self.after_io(slot) {
            return;
        }
        let conn = self.conns[slot].as_mut().expect("checked live");
        if conn.read_ready && !conn.paused && !conn.closing && !conn.eof && !conn.queued {
            conn.queued = true;
            next.push(token);
        }
    }

    /// Reads until `WouldBlock`, EOF, or the per-turn budget.
    fn fill_read_buffer(&mut self, slot: usize, chunk: &mut [u8]) -> ReadStatus {
        // Failpoint `transport::read`: the socket read fails mid-stream;
        // the connection is torn down like any other read error.
        if shbf_failpoint::fail("transport::read").is_some() {
            self.close(slot);
            return ReadStatus::Closed;
        }
        let conn = self.conns[slot].as_mut().expect("checked live");
        let mut fresh = 0usize;
        let status = loop {
            if fresh >= READ_BUDGET {
                break ReadStatus::Budget; // stays read_ready; re-queued
            }
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.eof = true;
                    conn.read_ready = false;
                    break ReadStatus::Drained;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    fresh += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conn.read_ready = false;
                    break ReadStatus::Drained;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.metrics.add_bytes_in(fresh as u64);
                    self.close(slot);
                    return ReadStatus::Closed;
                }
            }
        };
        if fresh > 0 {
            conn.last_activity = std::time::Instant::now();
        }
        self.metrics.add_bytes_in(fresh as u64);
        status
    }

    /// Hands the buffered bytes to the handler and applies its verdict.
    /// Returns false if the connection was closed.
    fn drive_handler(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().expect("checked live");
        if conn.closing || (conn.rbuf.is_empty() && !conn.eof) {
            return true;
        }
        // This turn's replies get their own buffer (recycled from the
        // queue) — queued turns are stitched together by writev, never
        // copied into one another.
        let mut out = conn.wq.take_buf();
        let drained = self
            .handler
            .on_data(conn.token, &conn.rbuf, conn.eof, &mut out);
        conn.wq.push(out);
        let consumed = drained.consumed.min(conn.rbuf.len());
        conn.rbuf.drain(..consumed);
        // A burst of giant pipelined requests grows `rbuf` far past the
        // steady state; once the leftover fits comfortably, give the
        // memory back instead of pinning the high-water mark forever.
        if conn.rbuf.capacity() > RBUF_RETAIN && conn.rbuf.len() <= RBUF_RETAIN / 2 {
            conn.rbuf.shrink_to(RBUF_RETAIN);
        }
        match drained.action {
            Action::Continue => {
                if conn.eof {
                    // The final (possibly unterminated) input was just
                    // handled; whatever remains can never complete.
                    conn.closing = true;
                }
            }
            Action::Close => conn.closing = true,
            Action::Shutdown => {
                conn.closing = true;
                self.shutdown.store(true, Ordering::SeqCst);
                // Nudge sibling loops sharing this waker; they observe
                // the flag on their next (immediate) wakeup.
                self.waker.wake().ok();
            }
        }
        true
    }

    /// Writes as much of the queue as the socket accepts right now, one
    /// `writev` over up to [`MAX_IOV`] reply buffers per syscall; partial
    /// writes re-slice and continue. Returns false if the connection was
    /// closed.
    fn try_flush(&mut self, slot: usize) -> bool {
        // Failpoint `transport::writev`: the vectored write fails with
        // replies pending; the connection is torn down like any other
        // write error. Only fires with something to flush, so an armed
        // site does not sweep away idle connections.
        if !self.conns[slot]
            .as_ref()
            .expect("checked live")
            .wq
            .is_empty()
            && shbf_failpoint::fail("transport::writev").is_some()
        {
            self.close(slot);
            return false;
        }
        let conn = self.conns[slot].as_mut().expect("checked live");
        let (stream, wq) = (&mut conn.stream, &mut conn.wq);
        let mut written = 0usize;
        let result = loop {
            if wq.is_empty() {
                break true;
            }
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let filled = wq.fill_slices(&mut iov);
            let outcome = stream.write_vectored(&iov[..filled]);
            match outcome {
                Ok(0) => break false,
                Ok(n) => {
                    wq.advance(n);
                    written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break false,
            }
        };
        if written > 0 {
            conn.last_activity = std::time::Instant::now();
        }
        self.metrics.add_bytes_out(written as u64);
        if !result {
            self.close(slot);
        }
        result
    }

    /// Recomputes backpressure state; closes the connection when it is
    /// `closing` (or at EOF) with nothing left to write. Returns false if
    /// it closed.
    fn after_io(&mut self, slot: usize) -> bool {
        let high = self.config.high_water.max(1);
        let conn = self.conns[slot].as_mut().expect("checked live");
        if conn.wq.is_empty() && (conn.closing || conn.eof) {
            self.close(slot);
            return false;
        }
        let depth = conn.wq.len();
        self.metrics.observe_queue_depth(depth as u64);
        if !conn.paused && depth > high {
            conn.paused = true;
            self.metrics.on_backpressure_enter();
        } else if conn.paused && depth < high / 2 + 1 {
            conn.paused = false;
            self.metrics.on_backpressure_exit();
        }
        true
    }

    /// Closes every connection whose `last_activity` stamp is older than
    /// `limit`. Connections already draining toward close are left to
    /// finish normally.
    fn reap_idle(&mut self, limit: std::time::Duration) {
        let now = std::time::Instant::now();
        for slot in 0..self.conns.len() {
            let idle = match &self.conns[slot] {
                Some(conn) => !conn.closing && now.duration_since(conn.last_activity) >= limit,
                None => false,
            };
            if idle {
                self.metrics.on_idle_reap();
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            self.epoll.delete(conn.stream.raw_fd()).ok();
            self.handler.on_close(conn.token);
            self.metrics.on_close();
            self.generations[slot] = self.generations[slot].wrapping_add(1);
            self.free.push(slot);
        }
    }

    /// Best-effort last flush of every live connection's queued replies
    /// before the loop returns on shutdown (nonblocking — a peer that
    /// stopped reading forfeits its tail).
    fn final_flush(&mut self) {
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.try_flush(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Drained;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Upper-cases complete LF-terminated lines; `STOP` shuts down.
    struct UpcaseLines {
        closed: Vec<u64>,
    }

    impl Handler for UpcaseLines {
        fn on_data(&mut self, _token: u64, input: &[u8], eof: bool, out: &mut Vec<u8>) -> Drained {
            let mut consumed = 0;
            while let Some(nl) = input[consumed..].iter().position(|&b| b == b'\n') {
                let line = &input[consumed..consumed + nl];
                consumed += nl + 1;
                if line == b"STOP" {
                    out.extend_from_slice(b"BYE\n");
                    return Drained {
                        consumed,
                        action: Action::Shutdown,
                    };
                }
                if line == b"CLOSE" {
                    out.extend_from_slice(b"BYE\n");
                    return Drained {
                        consumed,
                        action: Action::Close,
                    };
                }
                out.extend(line.iter().map(|b| b.to_ascii_uppercase()));
                out.push(b'\n');
            }
            if eof && consumed < input.len() {
                // Trailing unterminated line: serve it, like read_line.
                out.extend(input[consumed..].iter().map(|b| b.to_ascii_uppercase()));
                out.push(b'\n');
                consumed = input.len();
            }
            Drained::consumed(consumed)
        }

        fn on_close(&mut self, token: u64) {
            self.closed.push(token);
        }
    }

    struct Running {
        shutdown: Arc<AtomicBool>,
        waker: Waker,
        metrics: Arc<TransportMetrics>,
        thread: std::thread::JoinHandle<std::io::Result<()>>,
    }

    impl Running {
        fn stop(self) {
            self.shutdown.store(true, Ordering::SeqCst);
            self.waker.wake().unwrap();
            self.thread.join().unwrap().unwrap();
        }
    }

    fn start_on(listener: Listener, config: ReactorConfig) -> Running {
        let shutdown = Arc::new(AtomicBool::new(false));
        let waker = Waker::new().unwrap();
        let metrics = Arc::new(TransportMetrics::new());
        let thread = std::thread::spawn({
            let shutdown = Arc::clone(&shutdown);
            let waker = waker.clone();
            let metrics = Arc::clone(&metrics);
            move || {
                let mut handler = UpcaseLines { closed: Vec::new() };
                run(listener, &mut handler, &shutdown, &config, &waker, &metrics)
            }
        });
        Running {
            shutdown,
            waker,
            metrics,
            thread,
        }
    }

    fn start(config: ReactorConfig) -> (std::net::SocketAddr, Running) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (addr, start_on(listener.into(), config))
    }

    #[test]
    fn echoes_lines_and_pipelines_replies() {
        let (addr, running) = start(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        // Three pipelined requests in one write...
        c.write_all(b"alpha\nbravo\ncharlie\n").unwrap();
        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        while got.len() < 20 {
            let n = c.read(&mut buf).unwrap();
            assert_ne!(n, 0, "server closed early");
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, b"ALPHA\nBRAVO\nCHARLIE\n");
        running.stop();
    }

    #[test]
    fn partial_lines_wait_for_completion_and_eof_serves_the_tail() {
        let (addr, running) = start(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"hel").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        c.write_all(b"lo\nwor").unwrap();
        // Half-close: the unterminated "wor" must still be answered.
        c.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"HELLO\nWOR\n");
        running.stop();
    }

    #[test]
    fn handler_shutdown_stops_the_loop_after_flushing() {
        let (addr, running) = start(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"ping\nSTOP\n").unwrap();
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"PING\nBYE\n");
        running.thread.join().unwrap().unwrap();
    }

    #[test]
    fn close_action_ends_only_that_connection() {
        let (addr, running) = start(ReactorConfig::default());
        let mut a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        a.write_all(b"CLOSE\n").unwrap();
        let mut got = Vec::new();
        a.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"BYE\n");
        // The sibling connection still works.
        b.write_all(b"still-here\n").unwrap();
        let mut buf = [0u8; 32];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"STILL-HERE\n");
        running.stop();
    }

    #[test]
    fn unix_socket_transport_speaks_the_same_protocol() {
        use std::os::unix::net::{UnixListener, UnixStream};
        let path = std::env::temp_dir().join(format!(
            "shbf-reactor-test-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let running = start_on(listener.into(), ReactorConfig::default());
        let mut c = UnixStream::connect(&path).unwrap();
        c.write_all(b"over\nunix\n").unwrap();
        c.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"OVER\nUNIX\n");
        running.stop();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn waker_shutdown_is_prompt_even_with_idle_connections() {
        let (addr, running) = start(ReactorConfig::default());
        // An idle connection parks the loop in a timeout-less epoll_wait;
        // without the eventfd wakeup this join would hang forever.
        let _idle = TcpStream::connect(addr).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let started = std::time::Instant::now();
        running.stop();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "shutdown stalled {:?} — waker not waking the loop",
            started.elapsed()
        );
    }

    #[test]
    fn metrics_track_connections_and_bytes() {
        let (addr, running) = start(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"count-me\n").unwrap();
        let mut buf = [0u8; 16];
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"COUNT-ME\n");
        drop(c);
        // Close is observed asynchronously; poll briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let s = running.metrics.snapshot();
            if s.closed >= 1 || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let s = running.metrics.snapshot();
        assert_eq!(s.accepted, 1);
        assert_eq!(s.closed, 1);
        assert_eq!(s.bytes_in, 9);
        assert_eq!(s.bytes_out, 9);
        running.stop();
    }

    #[test]
    fn max_connections_leaves_overflow_in_the_backlog_until_a_slot_frees() {
        let config = ReactorConfig {
            connections: Arc::new(crate::ConnectionCap::new(1)),
            ..ReactorConfig::default()
        };
        let (addr, running) = start(config);
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(b"a\n").unwrap();
        let mut buf = [0u8; 8];
        let n = first.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"A\n");

        // Second connection connects (TCP backlog) but is not served.
        let mut second = TcpStream::connect(addr).unwrap();
        second.write_all(b"b\n").unwrap();
        second
            .set_read_timeout(Some(std::time::Duration::from_millis(120)))
            .unwrap();
        assert!(
            second.read(&mut buf).is_err(),
            "second connection served beyond max_connections"
        );

        // Freeing the slot admits the queued peer (its buffered request
        // is then answered).
        drop(first);
        second
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let n = second.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"B\n");
        running.stop();
    }

    #[test]
    fn shed_reply_turns_overflow_into_an_immediate_busy_error() {
        let config = ReactorConfig {
            connections: Arc::new(crate::ConnectionCap::new(1)),
            shed_reply: Some(Arc::from(&b"-ERR busy\r\n"[..])),
            ..ReactorConfig::default()
        };
        let (addr, running) = start(config);
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(b"a\n").unwrap();
        let mut buf = [0u8; 16];
        let n = first.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"A\n");

        // Overflow is accepted, told off, and hung up on — not parked.
        let mut second = TcpStream::connect(addr).unwrap();
        second
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut got = Vec::new();
        second.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"-ERR busy\r\n");
        assert_eq!(running.metrics.snapshot().shed, 1);

        // Freeing the slot restores normal service for new arrivals.
        drop(first);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let mut third = TcpStream::connect(addr).unwrap();
            third.write_all(b"c\n").unwrap();
            third
                .set_read_timeout(Some(std::time::Duration::from_millis(200)))
                .unwrap();
            // A shed race (the old slot not yet reclaimed) reads the busy
            // error to EOF; a served connection answers and stays open.
            match third.read(&mut buf) {
                Ok(n) if &buf[..n] == b"C\n" => break,
                _ if std::time::Instant::now() > deadline => {
                    panic!("slot never freed for new connections")
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        running.stop();
    }

    #[test]
    fn idle_connections_are_reaped_after_the_deadline() {
        let config = ReactorConfig {
            idle_timeout: Some(std::time::Duration::from_millis(150)),
            ..ReactorConfig::default()
        };
        let (addr, running) = start(config);
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let started = std::time::Instant::now();
        // The server, not the client, must end this connection.
        let mut buf = [0u8; 8];
        let n = idle.read(&mut buf).unwrap();
        assert_eq!(n, 0, "expected server-side close, got data");
        assert!(
            started.elapsed() >= std::time::Duration::from_millis(100),
            "reaped suspiciously fast ({:?})",
            started.elapsed()
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while running.metrics.snapshot().idle_reaped == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(running.metrics.snapshot().idle_reaped, 1);

        // A connection that keeps talking survives well past the limit.
        let mut chatty = TcpStream::connect(addr).unwrap();
        for _ in 0..4 {
            std::thread::sleep(std::time::Duration::from_millis(60));
            chatty.write_all(b"hi\n").unwrap();
            let n = chatty.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"HI\n", "active connection was reaped");
        }
        running.stop();
    }

    #[test]
    fn giant_requests_are_served_and_do_not_wedge_the_buffer() {
        // One request far beyond RBUF_RETAIN, then small ones: the shrink
        // path runs in between and must not disturb correctness.
        let (addr, running) = start(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        let big = vec![b'y'; 4 * RBUF_RETAIN];
        let mut req = big.clone();
        req.push(b'\n');
        let writer = std::thread::spawn({
            let mut w = c.try_clone().unwrap();
            move || w.write_all(&req)
        });
        let mut got = vec![0u8; big.len() + 1];
        c.read_exact(&mut got).unwrap();
        writer.join().unwrap().unwrap();
        assert!(got[..big.len()].iter().all(|&b| b == b'Y'));
        assert_eq!(got[big.len()], b'\n');
        for _ in 0..3 {
            c.write_all(b"tiny\n").unwrap();
            let mut buf = [0u8; 8];
            let n = c.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"TINY\n");
        }
        running.stop();
    }

    #[test]
    fn backpressure_pauses_reading_until_the_peer_drains() {
        // Tiny high-water mark: one reply crosses it instantly.
        let config = ReactorConfig {
            high_water: 8,
            ..ReactorConfig::default()
        };
        let (addr, running) = start(config);
        let mut c = TcpStream::connect(addr).unwrap();
        // A burst of lines whose replies exceed both the high-water mark
        // and the socket buffer would deadlock a naive loop; the reactor
        // must pause reading, drain as the client reads, and finish —
        // with the writev path preserving order across queued buffers.
        let line = vec![b'x'; 4096];
        let mut payload = Vec::new();
        for _ in 0..4096 {
            payload.extend_from_slice(&line);
            payload.push(b'\n');
        }
        let expected: Vec<u8> = payload.iter().map(|b| b.to_ascii_uppercase()).collect();
        let writer = std::thread::spawn({
            let mut w = c.try_clone().unwrap();
            let payload = payload.clone();
            move || {
                w.write_all(&payload).unwrap();
                w.shutdown(std::net::Shutdown::Write).unwrap();
            }
        });
        // Deliberately slow reader: give the server time to fill the
        // socket buffer and trip the high-water mark before draining.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        writer.join().unwrap();
        assert_eq!(got.len(), expected.len());
        assert_eq!(got, expected);
        let s = running.metrics.snapshot();
        assert!(s.backpressure_enter >= 1, "pause never recorded: {s:?}");
        assert!(s.backpressure_exit >= 1, "resume never recorded: {s:?}");
        assert!(s.queue_high_water > 8, "high water not observed: {s:?}");
        running.stop();
    }

    #[test]
    fn write_queue_advances_across_buffer_boundaries() {
        let mut q = WriteQueue::default();
        q.push(b"hello ".to_vec());
        q.push(b"world".to_vec());
        q.push(b"!".to_vec());
        assert_eq!(q.len(), 12);
        let mut iov = [IoSlice::new(&[]); MAX_IOV];
        assert_eq!(q.fill_slices(&mut iov), 3);
        // Partial write ending mid-second-buffer.
        q.advance(8);
        assert_eq!(q.len(), 4);
        let mut iov = [IoSlice::new(&[]); MAX_IOV];
        let filled = q.fill_slices(&mut iov);
        let flat: Vec<u8> = iov[..filled]
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        assert_eq!(flat, b"rld!");
        q.advance(4);
        assert!(q.is_empty());
        // Drained buffers were recycled.
        assert!(!q.spare.is_empty());
        let reused = q.take_buf();
        assert!(reused.is_empty() && reused.capacity() > 0);
    }
}

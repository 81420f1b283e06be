//! Direct epoll + eventfd bindings — the crate's single unsafe module.
//!
//! Declared `extern "C"` against the platform libc the binary already
//! links (std links it unconditionally), so no crates.io dependency is
//! needed and offline builds keep working — the same reasoning as
//! `shbf-bits::prefetch`'s intrinsic use. Only the calls the event loop
//! needs are declared: `epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd` plus its 8-byte `read`/`write`, and `close` (for the fds we
//! own; sockets are owned and closed by `std::net` types). Vectored
//! socket writes go through std's `Write::write_vectored`, which is
//! `writev` on Linux — no extra declaration needed.
//!
//! All unsafety is confined to [`Epoll`]'s and [`EventFd`]'s methods; the
//! exposed API is safe: wrapped fds are private, created valid, closed
//! exactly once on drop, and every syscall result is translated to
//! `io::Result`.

#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_uint};
use std::os::unix::io::RawFd;

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Edge-triggered readiness: events fire on state *transitions*, so the
/// consumer must drain to `WouldBlock` (or remember leftover readiness)
/// before waiting again.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// One readiness event, ABI-compatible with the kernel's
/// `struct epoll_event` (packed on x86_64 only, by kernel definition).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready-state bitmask (`EPOLLIN` | `EPOLLOUT` | …).
    pub events: u32,
    /// The caller's token, echoed back verbatim.
    pub data: u64,
}

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // mapped to an error, so `fd` is valid when we keep it.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid-out epoll_event for the
        // duration of the call; the kernel copies it before returning.
        // For EPOLL_CTL_DEL the kernel ignores the pointer (passing a
        // valid one is also fine on pre-2.6.9 semantics).
        check(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for level-triggered `events`, tagged with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest set of `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (−1 = forever) for events, filling the
    /// front of `events`. Returns the number ready; `EINTR` is reported
    /// as zero events rather than an error, so callers just re-loop.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = events.len().min(c_int::MAX as usize) as c_int;
        if max == 0 {
            return Ok(0);
        }
        // SAFETY: `events` points at `max` writable, properly laid-out
        // entries; the kernel writes at most `max` of them.
        let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
        match check(n) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is a valid epoll fd we own; closing it exactly once
        // here ends its lifetime.
        unsafe {
            close(self.fd);
        }
    }
}

/// An owned, nonblocking eventfd — the wakeup channel that lets another
/// thread nudge a loop blocked in [`Epoll::wait`] without any poll
/// timeout. A [`notify`](EventFd::notify) adds to the kernel counter
/// (readable-edge for every epoll instance watching the fd). The counter
/// is never read back, so once notified the fd stays readable and every
/// watcher harvests the edge, however late it waits.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a close-on-exec, nonblocking eventfd with a zero counter.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers; a negative return is mapped
        // to an error, so `fd` is valid when we keep it.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for registering with an epoll instance.
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, waking every waiter. A full counter
    /// (`WouldBlock`) already guarantees pending wakeups, so it is
    /// reported as success; `EINTR` is retried — waiters block with no
    /// timeout, so a wakeup must never be silently dropped.
    pub fn notify(&self) -> io::Result<()> {
        let one = 1u64.to_ne_bytes();
        loop {
            // SAFETY: `one` is 8 valid bytes for the duration of the call.
            let n = unsafe { write(self.fd, one.as_ptr(), one.len()) };
            if n == 8 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            match e.kind() {
                io::ErrorKind::WouldBlock => return Ok(()),
                io::ErrorKind::Interrupted => continue,
                _ => return Err(e),
            }
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `fd` is a valid eventfd we own; closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_observes_listener_readiness() {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent::default(); 8];

        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        // A pending connection flips the listener readable.
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, ready) = {
            let ev = events[0];
            (ev.data, ev.events)
        };
        assert_eq!(data, 42);
        assert_ne!(ready & EPOLLIN, 0);
    }

    #[test]
    fn modify_and_delete_change_interest() {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (client, server) = {
            let c = TcpStream::connect(addr).unwrap();
            let (s, _) = listener.accept().unwrap();
            (c, s)
        };
        epoll.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::default(); 8];
        let mut c = client;
        c.write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let data = {
            let ev = events[0];
            ev.data
        };
        assert_eq!(data, 7);

        // Swap interest to write-only: the buffered byte no longer wakes
        // us for EPOLLIN, but an empty socket buffer is instantly
        // writable.
        epoll.modify(server.as_raw_fd(), EPOLLOUT, 8).unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, ready) = {
            let ev = events[0];
            (ev.data, ev.events)
        };
        assert_eq!(data, 8);
        assert_ne!(ready & EPOLLOUT, 0);
        assert_eq!(ready & EPOLLIN, 0);

        // Deleted fds never report again.
        epoll.delete(server.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn eventfd_wakes_a_blocked_wait_without_a_timeout() {
        let epoll = Epoll::new().unwrap();
        let efd = std::sync::Arc::new(EventFd::new().unwrap());
        epoll.add(efd.raw_fd(), EPOLLIN | EPOLLET, 99).unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "spurious wake");

        let notifier = std::sync::Arc::clone(&efd);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            notifier.notify().unwrap();
        });
        // Infinite timeout: only the notify can end this wait.
        let n = epoll.wait(&mut events, -1).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        let data = {
            let ev = events[0];
            ev.data
        };
        assert_eq!(data, 99);
        // Edge-triggered: no further events until re-notified.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        efd.notify().unwrap();
        assert_eq!(epoll.wait(&mut events, 200).unwrap(), 1);
    }

    #[test]
    fn one_notify_reaches_every_watcher_however_late_it_waits() {
        // Two loops sharing one waker: the first to wake must not consume
        // the wakeup its sibling has yet to harvest.
        let efd = EventFd::new().unwrap();
        let first = Epoll::new().unwrap();
        let late = Epoll::new().unwrap();
        first.add(efd.raw_fd(), EPOLLIN | EPOLLET, 1).unwrap();
        late.add(efd.raw_fd(), EPOLLIN | EPOLLET, 2).unwrap();
        efd.notify().unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(first.wait(&mut events, 0).unwrap(), 1);
        assert_eq!(late.wait(&mut events, 0).unwrap(), 1);
    }
}
